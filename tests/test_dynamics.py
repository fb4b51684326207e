"""Block maps, join counts, entropy verdicts and the separation
certificate on the standard masa."""

import itertools
import math
import random

import numpy as np
import pytest

from cuntzlab import (AlgebraElement, BudgetExceededError, CantorDynamics,
                      EndomorphismSpec, EntropyReport, GaussianRational,
                      JoinDynamics, Permutation, ProductMasaDynamics,
                      parse_element, perm_unitary)
from cuntzlab.dynamics import JoinCounts, _verdict, pack_word, unpack_word


def dyn(label, **kw):
    return CantorDynamics(EndomorphismSpec.from_label(label), **kw)


def all_rank2_perms():
    for line in itertools.permutations(range(1, 5)):
        yield Permutation.from_one_line(line, 2, 2)


def test_pack_unpack_roundtrip():
    assert [unpack_word(code, 2, 2) for code in range(4)] == \
        [(1, 1), (1, 2), (2, 1), (2, 2)]
    for length in (1, 2, 3):
        for code in range(2 ** length):
            assert pack_word(unpack_word(code, length, 2), 2) == code


def test_diagonal_invariant():
    assert dyn("(1 2)").diagonal_invariant(4)
    assert dyn("(1 3 2 4)").diagonal_invariant(3)
    lam = GaussianRational.of(1)
    from fractions import Fraction
    gauge = EndomorphismSpec(
        AlgebraElement.one(2).scaled(GaussianRational(Fraction(0), Fraction(1))),
        rank=1)
    assert CantorDynamics(gauge).diagonal_invariant(3)


def test_diagonal_not_preserved():
    # unitary E + iF rotates the swap eigenspaces and mixes off-diagonal
    # monomials into the image of s_1 s_1^*
    from cuntzlab.product_masa import ef_generators
    from fractions import Fraction
    e, f = ef_generators()
    u = e + f.scaled(GaussianRational(Fraction(0), Fraction(1)))
    endo = EndomorphismSpec(u)
    d = CantorDynamics(endo)
    assert not d.diagonal_invariant(2)
    from cuntzlab import DiagonalNotPreservedError
    with pytest.raises(DiagonalNotPreservedError):
        d.block_map(2)
    # the error names the first cylinder whose image is not a 0/1 sum
    with pytest.raises(DiagonalNotPreservedError) as info:
        CantorDynamics(endo).block_map(1)
    assert info.value.word == (1,)


def test_partition_error_names_an_input_word():
    # the projection s_1 s_1^* is not unitary: rho(s_2 s_2^*) = 0, so the
    # input word (2,) lies under no image
    from cuntzlab import PartitionError
    proj = EndomorphismSpec(AlgebraElement.diagonal(2, (1,)), rank=1,
                            check=False)
    with pytest.raises(PartitionError, match="uncovered") as info:
        CantorDynamics(proj).block_map(1)
    assert info.value.word == (2,)


def test_block_map_examples():
    shift = dyn("(2 3)").block_map(2)
    for w in itertools.product((1, 2), repeat=3):
        assert shift.map_word(w) == w[1:]
    ident = CantorDynamics(EndomorphismSpec.identity(2)).block_map(2)
    assert ident.window == 2
    for w in itertools.product((1, 2), repeat=2):
        assert ident.map_word(w) == w
    s13 = dyn("(1 3)").block_map(1)
    for w in itertools.product((1, 2), repeat=2):
        assert s13.map_word(w) == ((1,) if w[0] != w[1] else (2,))


@pytest.mark.parametrize("text, table", [
    ("s[11] t[11] + s[12] t[12] + s[2] t[2]", [0, 1, 2, 3]),  # 1
    ("s[1] t[2] + s[21] t[11] + s[22] t[12]", [3, 2, 1, 0]),  # the swap X
])
def test_unitary_with_words_longer_than_its_rank(text, table):
    """Both unitaries have rank 1 but are written with words of length 2;
    both dynamics level them to rank 1 on C_2, and on C_{E,F}, where 1 and
    X are diagonal, sigma' is the identity."""
    spec = EndomorphismSpec(parse_element(text, 2))
    assert spec.rank == 1
    assert CantorDynamics(spec).block_map(2).table.tolist() == table
    assert ProductMasaDynamics(spec).endo.perm == Permutation.identity(1, 2)


def test_zero_depth_rejected():
    with pytest.raises(ValueError):
        dyn("(2 3)").block_map(0)


def test_fast_path_matches_symbolic():
    # without `perm`, the symbolic table applies rho by the cocycle formula
    for perm in all_rank2_perms():
        d = CantorDynamics(EndomorphismSpec.from_permutation(perm))
        symbolic = CantorDynamics(
            EndomorphismSpec(perm_unitary(perm), rank=perm.k, check=False))
        for p in (1, 2, 3, 4):
            assert np.array_equal(d.block_map(p).table,
                                  symbolic._symbolic_table(p).table), perm.one_line()


def p_pass_table(perm, p):
    """Reference depth-p table of rho_sigma built from scratch in p passes:
    each pass reads sigma^{-1} off the first k letters of the residual
    word, emits the first letter of the preimage and keeps the rest."""
    n, k = perm.n_gens, perm.k
    inv = perm.inverse()
    sinv = np.array([pack_word(inv(w), n)
                     for w in itertools.product(range(1, n + 1), repeat=k)],
                    dtype=np.int64)
    length = p + k - 1
    cur = np.arange(n ** length, dtype=np.int64)
    out = np.zeros(n ** length, dtype=np.int64)
    for _ in range(p):
        tail = n ** (length - k)
        pre = sinv[cur // tail]
        out = out * n + pre // n ** (k - 1)
        cur = pre % n ** (k - 1) * tail + cur % tail
        length -= 1
    return out


def test_incremental_tables_match_p_pass_reference():
    rank3 = random.Random(20260418).sample(
        list(itertools.permutations(range(1, 9))), 12)
    cases = ([(perm, 18) for perm in all_rank2_perms()]
             + [(Permutation.from_one_line(line, 3, 2), 10) for line in rank3])
    for perm, depth in cases:
        d = CantorDynamics(EndomorphismSpec.from_permutation(perm))
        for p in range(1, depth + 1):
            tbl = d.block_map(p)
            assert tbl.window == p + perm.k - 1
            assert np.array_equal(tbl.table, p_pass_table(perm, p)), \
                (perm.one_line(), p)


def inversion_failures(perm, p_max):
    """The words W, |W| = p + k - 1 for p <= p_max, on which
    T(pi(W))|_p = W|_p fails, with pi the word rewriting behind `apply`
    (`EndomorphismSpec._rewrite`) and T the block map built from
    sigma^{-1}."""
    n, spec = perm.n_gens, EndomorphismSpec.from_permutation(perm)
    d = CantorDynamics(spec)
    return [w for p in range(1, p_max + 1) for table in [d.block_map(p).table]
            for w in itertools.product(range(1, n + 1), repeat=p + perm.k - 1)
            if table[pack_word(spec._rewrite(w), n)] != pack_word(w[:p], n)]


def test_block_map_inverts_the_word_rewriting():
    """T(pi(W))|_p = W|_p for every |W| = p + k - 1 and p <= 5: the one
    fact that ties the two tables, for the 24 rows, six seeded rank-3
    sigma of O_2 and six seeded rank-2 sigma of O_3."""
    rng = random.Random(20261019)
    perms = list(all_rank2_perms())
    for k, n_gens in ((3, 2), (2, 3)):
        for _ in range(6):
            line = list(range(1, n_gens ** k + 1))
            rng.shuffle(line)
            perms.append(Permutation.from_one_line(line, k, n_gens))
    for perm in perms:
        assert inversion_failures(perm, 5) == [], perm.one_line()


def test_partition_and_prefix_consistency():
    for perm in all_rank2_perms():
        d = CantorDynamics(EndomorphismSpec.from_permutation(perm))
        deeper = d.block_map(8)
        assert deeper.partition_ok()
        for p in range(1, 8):
            assert np.array_equal(deeper.restrict(p).table,
                                  d.block_map(p).table)


def test_join_count_examples():
    ident = CantorDynamics(EndomorphismSpec.identity(2))
    assert [ident.join_count(2, n) for n in (1, 3, 6)] == [4, 4, 4]
    shift = dyn("(2 3)")
    for n in range(1, 8):
        assert shift.join_count(2, n) == 2 ** (n + 1)
    flip = dyn("flip")
    assert [flip.join_count(3, n) for n in (1, 4, 8)] == [8, 8, 8]


def test_join_count_monotone_and_bounded():
    d = dyn("(1 2 3)")
    for p in (1, 2, 3):
        counts = [c for _, c in d._join_counts(p, 10)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        for n, c in d._join_counts(p, 10):
            assert c <= 2 ** (p + (n - 1))


def full_refinement_reports(d, p_max, n_max):
    """Reference reports that refine every step up to n_max, with no stop
    at the stable partition."""
    n = d.n_gens
    reports = []
    for p in range(1, p_max + 1):
        counts = [(1, n ** p)]
        cls = np.arange(n ** p, dtype=np.int64)
        n_classes = n ** p
        for steps in range(2, n_max + 1):
            length = p + (steps - 1) * d.step
            img_cls = cls[d.block_map(length - d.step).table]
            prefix = np.arange(n ** length) // n ** (length - p)
            _, cls = np.unique(prefix * n_classes + img_cls,
                               return_inverse=True)
            n_classes = int(cls.max()) + 1
            counts.append((steps, n_classes))
        reports.append(EntropyReport(d.label(), d.masa_name(), p, counts,
                                     *_verdict(counts)))
    return reports


def ef_dynamics():
    return [ProductMasaDynamics(EndomorphismSpec.from_label(label))
            for label in ("(1 2)", "(1 3 2 4)", "(3 4)", "(1 4 2 3)")]


def first_letter_separates(perm):
    """Depth-1 separation read off sigma^{-1} directly: for each letter
    x0, the first letter of sigma^{-1}(x0 x1) determines x1."""
    inv = perm.inverse()
    letters = range(1, perm.n_gens + 1)
    return all(len({inv((x0, x1))[0] for x1 in letters}) == perm.n_gens
               for x0 in letters)


def test_early_exit_matches_full_refinement():
    dynamics = [CantorDynamics(EndomorphismSpec.from_permutation(perm))
                for perm in all_rank2_perms()]
    for d in dynamics + ef_dynamics():
        reports = d.entropy(4, 16)
        assert reports == full_refinement_reports(d, 4, 16), d.label()
        # the separating rows close by proof, with a one-count head
        assert all(r.counts.tail == "discrete" for r in reports) == \
            (reports[0].verdict == "log2"), d.label()
    # 16 C_2 rows and the 4 E/F rows are separating
    assert sum(d.separation_check(1) for d in dynamics) == 16


def o3_rank2_sample(n_each=20):
    """Seeded rank-2 permutations of O_3: the first `n_each` separating
    and the first `n_each` non-separating ones drawn."""
    rng = random.Random(20261018)
    picked = {True: [], False: []}
    while min(len(v) for v in picked.values()) < n_each:
        line = list(range(1, 10))
        rng.shuffle(line)
        perm = Permutation.from_one_line(line, 2, 3)
        group = picked[first_letter_separates(perm)]
        if len(group) < n_each:
            group.append(perm)
    return picked[True] + picked[False]


def test_discrete_tail_matches_full_refinement_on_o3():
    for perm in o3_rank2_sample():
        d = CantorDynamics(EndomorphismSpec.from_permutation(perm))
        reports = d.entropy(3, 8)
        assert reports == full_refinement_reports(d, 3, 8), perm.one_line()
        closed = first_letter_separates(perm)
        assert d.separation_check(1) == closed
        assert all((r.counts.tail == "discrete") == closed
                   for r in reports), perm.one_line()
        if closed:
            assert all(c == 3 ** (r.p + n - 1)
                       for r in reports for n, c in r.counts)


def test_discrete_tail_only_on_separating_word_tables(monkeypatch):
    """Spy on the block maps each series reads: the discrete tail reads
    none, and symbolic tables, rank-3 sigma and non-separating sigma
    refine instead."""
    depths = []
    block_map = JoinDynamics.block_map

    def spy(self, p):
        depths.append(p)
        return block_map(self, p)

    monkeypatch.setattr(JoinDynamics, "block_map", spy)
    closed = [dyn("(2 3)"), dyn("(1 3 4)"),
              ProductMasaDynamics(EndomorphismSpec.from_label("(1 2)"))]
    sigma_23 = Permutation.parse("(2 3)")
    refined = [
        CantorDynamics(EndomorphismSpec(perm_unitary(sigma_23), rank=2,
                                        check=False)),
        CantorDynamics(EndomorphismSpec.from_permutation(
            Permutation.parse("(2 3 5)(4 7 6)", 3, 2))),
        # passes separation_check(1), but the proof needs one letter a step
        CantorDynamics(EndomorphismSpec.from_permutation(
            Permutation.parse("(1 8)(2 7 6)", 3, 2))),
        CantorDynamics(EndomorphismSpec.identity(2)),
        dyn("id"), dyn("(1 2)")]
    for d in closed:
        depths.clear()
        reports = d.entropy(4, 16)
        assert depths == [], d.label()
        assert all(r.counts.tail == "discrete" and r.counts.refined_steps == 1
                   for r in reports)
    for d in refined:
        depths.clear()
        reports = d.entropy(3, 6)
        assert max(depths) > 1, d.label()
        assert all(r.counts.tail != "discrete" for r in reports), d.label()
    # the symbolic tables of (2 3) refine to the same counts the tail gives
    assert ([r.counts for r in refined[0].entropy(3, 6)]
            == [r.counts for r in dyn("(2 3)").entropy(3, 6)])


def test_separating_reads_sigma_without_separation_check(monkeypatch):
    """`_separating()` is `separation_check(1)` for step-1 word tables,
    read off sigma^{-1} with no call to the sort-based check."""
    rows = [CantorDynamics(EndomorphismSpec.from_permutation(perm))
            for perm in all_rank2_perms()]
    o3 = [CantorDynamics(EndomorphismSpec.from_permutation(perm))
          for perm in o3_rank2_sample()]
    for d in rows + o3 + ef_dynamics():
        assert d._separating() == d.separation_check(1), d.label()
    assert sum(d._separating() for d in o3) == 20
    # the proof needs one letter a step: rank 3 is refined even when its
    # depth-1 table separates
    rank3 = CantorDynamics(EndomorphismSpec.from_permutation(
        Permutation.parse("(1 8)(2 7 6)", 3, 2)))
    assert rank3.separation_check(1) and not rank3._separating()
    calls = []
    check = CantorDynamics.separation_check

    def spy(self, depth):
        calls.append((self, depth))
        return check(self, depth)

    monkeypatch.setattr(CantorDynamics, "separation_check", spy)
    for label, closed in (("(1 3)", True), ("(1 2)", False)):
        reports = dyn(label).entropy(4, 16)
        assert all((r.counts.tail == "discrete") == closed for r in reports)
    assert calls == []


def test_forced_discrete_tail_is_caught(monkeypatch):
    # (1 2) is not separating: its partitions stop refining, so a discrete
    # tail forced onto it overstates every count after n = 1
    monkeypatch.setattr(CantorDynamics, "_separating", lambda self: True)
    d = dyn("(1 2)")
    assert d.entropy(4, 16) != full_refinement_reports(d, 4, 16)
    assert JoinDynamics.summarize(d.entropy(4, 16)).verdict == "log2"


def test_join_counts_sequence():
    stable = JoinCounts((4, 6, 6), 5, "stable", 2)
    discrete = JoinCounts((8,), 4, "discrete", 2)
    refined = JoinCounts((2, 4, 6), 3, None, 2)
    assert stable == [(1, 4), (2, 6), (3, 6), (4, 6), (5, 6)]
    assert [(1, 8), (2, 16), (3, 32), (4, 64)] == discrete
    assert refined == ((1, 2), (2, 4), (3, 6))
    assert discrete != [(1, 8), (2, 16), (3, 32)]
    assert stable != "stable"
    assert len(stable) == 5 and stable[-1] == (5, 6) and stable[1] == (2, 6)
    assert discrete[3] == (4, 64) and discrete[1:3] == [(2, 16), (3, 32)]
    assert [discrete[i] for i in range(-4, 0)] == list(discrete)
    with pytest.raises(IndexError):
        discrete[4]
    with pytest.raises(AttributeError):
        discrete.extra = 1
    assert (stable.refined_steps, discrete.refined_steps) == (3, 1)
    assert repr(stable) == ("JoinCounts([(1, 4), (2, 6), (3, 6), (4, 6), "
                            "(5, 6)], refined_steps=3, tail='stable')")
    assert repr(refined) == ("JoinCounts([(1, 2), (2, 4), (3, 6)], "
                             "refined_steps=3, tail=None)")


def test_early_exit_skips_deep_tables():
    # the identity's partitions are stable from n = 1 to n = 2, so the
    # depth-4 series reads block maps up to depth 4 and no deeper
    d = CantorDynamics(EndomorphismSpec.identity(2))
    reports = d.entropy(4, 16)
    assert all(c == 2 ** r.p for r in reports for _, c in r.counts)
    assert [n for n, _ in reports[-1].counts] == list(range(1, 17))
    assert max(d._tables) == 4


def test_nonpositive_depth_and_steps_rejected():
    d = dyn("(2 3)")
    for p, n_steps in ((2, 0), (2, -3), (0, 4), (-1, 4)):
        with pytest.raises(ValueError):
            d.join_count(p, n_steps)
    for p_max, n_max in ((0, 16), (4, 0), (-2, 5)):
        with pytest.raises(ValueError):
            d.entropy(p_max, n_max)
    assert not d._tables


def test_join_counts_non_discrete_partitions():
    # rank-3 permutations whose partitions keep growing without becoming
    # discrete, so each step's labels come from the marked-key ranks
    series = {
        ((3, 4, 7, 8), (5, 6)): [2, 4, 6, 10, 16, 26, 42, 68, 110, 178, 288],
        ((1, 8), (2, 4, 5, 6, 3, 7)):
            [2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927],
        ((1, 8), (2, 7, 6)): [2, 4, 6, 7, 8, 10, 12, 14, 16, 18, 21],
    }
    for cycles, expected in series.items():
        perm = Permutation.from_cycles(cycles, 3, 2)
        d = CantorDynamics(EndomorphismSpec.from_permutation(perm))
        assert d._join_counts(1, 11) == list(enumerate(expected, start=1))
        assert d.entropy(2, 11) == full_refinement_reports(d, 2, 11), cycles


def test_sorted_keys_past_budget_agree(monkeypatch):
    # a rank-3 sigma, which always refines: with a 2^11 budget the key
    # range N^5 * n_classes passes the budget at steps 3 and 4, where the
    # keys are sorted instead of marked; the default budget marks every step
    sorted_sizes = []
    unique = np.unique

    def spy(*args, **kwargs):
        sorted_sizes.append(args[0].size)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    fibonacci = EndomorphismSpec.from_permutation(
        Permutation.from_cycles(((3, 4, 7, 8), (5, 6)), 3, 2))
    counts = CantorDynamics(fibonacci, budget=2 ** 11)._join_counts(5, 4)
    assert sorted_sizes == [2 ** 9, 2 ** 11]
    assert counts == CantorDynamics(fibonacci)._join_counts(5, 4)
    assert sorted_sizes == [2 ** 9, 2 ** 11]
    assert counts == [(1, 32), (2, 80), (3, 172), (4, 353)]
    assert counts.tail is None


def test_budget_exceeded():
    d = dyn("(1 2)", budget=64)
    with pytest.raises(BudgetExceededError):
        d.join_count(4, 16)
    assert not d._tables


def test_discrete_tail_is_not_budgeted():
    # a separating sigma closes its series without a table, so no budget
    # bounds it, however long the words
    d = dyn("(2 3)", budget=32)
    counts = d._join_counts(4, 16)
    assert counts.tail == "discrete" and counts[-1] == (16, 2 ** 19)
    assert dyn("(1 2 3)", budget=32).join_count(1, 40) == 2 ** 40
    assert not d._tables


def test_entropy_verdicts():
    assert JoinDynamics.summarize(dyn("(2 3)").entropy(4, 16)).verdict == "log2"
    assert JoinDynamics.summarize(dyn("(1 2)").entropy(4, 16)).verdict == "zero"
    assert JoinDynamics.summarize(dyn("(1 2 3)").entropy(4, 16)).verdict == "log2"
    r = dyn("(2 3)").entropy(4, 16)[3]
    assert all(x == 1 and type(x) is int for x in r.increments)
    assert r.estimate_nats == pytest.approx(0.6931471805599453)


def test_proved_tail_decides_short_series():
    # three steps are too few for the four-ratio rule, but the tails are
    # proved: discrete over two letters doubles, stable stays constant
    for label, verdict, estimate in (("(2 3)", "log2", math.log(2.0)),
                                     ("(1 2)", "zero", 0.0)):
        reports = dyn(label).entropy(2, 3)
        assert all(r.verdict == verdict and r.estimate_nats == estimate
                   for r in reports), label
        assert JoinDynamics.summarize(reports).verdict == verdict
    assert dyn("(2 3)").entropy(1, 1)[0].verdict == "log2"
    # a discrete tail over three letters grows by log 3, not log 2
    o3 = CantorDynamics(EndomorphismSpec.from_permutation(
        o3_rank2_sample()[0]))
    report = o3.entropy(1, 8)[0]
    assert report.counts.tail == "discrete"
    assert report.verdict == "inconclusive"
    assert report.estimate_nats == pytest.approx(math.log(3.0))
    # plain lists carry no tail and keep the four-count rule
    assert _verdict([(1, 2), (2, 4), (3, 8)])[0] == "inconclusive"
    assert _verdict([(1, 4), (2, 4), (3, 4)])[0] == "inconclusive"
    assert _verdict([(n, 4) for n in range(1, 5)]) == ("zero", 0.0)


def test_summary_ranks_by_estimate():
    # the square of (2 3) grows exactly x4 per step at p = 2 and p = 3,
    # so its summary is the 2 log 2 slope, not the log-2 verdict of p = 1
    square = CantorDynamics(EndomorphismSpec.from_permutation(
        Permutation.parse("(2 3 5)(4 7 6)", 3, 2)))
    reports = square.entropy(3, 9)
    assert [r.verdict for r in reports] == ["log2", "inconclusive",
                                            "inconclusive"]
    for r in reports[1:]:
        assert [c for _, c in r.counts] == [2 ** r.p * 4 ** (n - 1)
                                            for n in range(1, 10)]
        assert all(x == 2 for x in r.increments)
    summary = JoinDynamics.summarize(reports)
    assert summary.p > 1 and summary.verdict == "inconclusive"
    assert summary.estimate_nats == pytest.approx(2 * 0.6931471805599453)
    # on equal estimates the verdict decides
    zero, log2 = dyn("id").entropy(1, 6)[0], dyn("(2 3)").entropy(1, 6)[0]
    tied = EntropyReport(zero.perm, zero.masa, 2, zero.counts,
                         "inconclusive", 0.0)
    assert JoinDynamics.summarize([tied, zero]) is tied
    assert JoinDynamics.summarize([log2, tied, zero]) is log2


def test_entropy_report_serialization():
    rep = dyn("(2 3)").entropy(2, 6)[1]
    d = rep.to_dict()
    assert d["perm"] == "(2 3)"
    assert d["masa"] == "standard"
    assert d["p"] == 2
    assert d["counts"][0] == [1, "4"]
    assert all(isinstance(c, str) for _, c in d["counts"])
    assert d["verdict"] == "log2"
    assert (d["refined_steps"], d["tail"]) == (1, "discrete")
    assert d["increments"] == ["1"] * 5
    ident = dyn("id").entropy(2, 6)[1].to_dict()
    assert (ident["refined_steps"], ident["tail"]) == (2, "stable")
    assert [c for _, c in ident["counts"]] == ["4"] * 6


def test_separation_certificate():
    assert dyn("(1 3)").separation_check(10)
    assert dyn("(2 3)").separation_check(10)
    assert not CantorDynamics(EndomorphismSpec.identity(2)).separation_check(5)
    assert not dyn("(1 2)").separation_check(5)


def test_separation_implies_log2():
    for perm in all_rank2_perms():
        d = CantorDynamics(EndomorphismSpec.from_permutation(perm))
        if d.separation_check(6):
            verdict = JoinDynamics.summarize(d.entropy(4, 12)).verdict
            assert verdict == "log2", perm.cycle_notation()


def test_flip_conjugation_symmetry():
    """Conjugating sigma by the global letter swap conjugates the induced
    block maps by the letter flip."""
    swap = Permutation.from_cycles([(1, 4), (2, 3)], 2, 2)

    def conjugate(perm):
        # the swap complements every letter, so it sends the code c to 3 - c
        assert swap.codes == (3, 2, 1, 0)
        return Permutation(2, 2, [3 - perm.codes[3 - c] for c in range(4)])

    for pair in [("(1 2)", "(3 4)"), ("(1 3 2 4)", "(1 4 2 3)"),
                 ("(1 3)", "(2 4)"), ("(1 2 3)", "(2 4 3)")]:
        a = Permutation.parse(pair[0])
        b = Permutation.parse(pair[1])
        assert conjugate(a) == b
        ta = CantorDynamics(EndomorphismSpec.from_permutation(a)).block_map(4)
        tb = CantorDynamics(EndomorphismSpec.from_permutation(b)).block_map(4)
        size_in, size_out = 2 ** ta.window - 1, 2 ** ta.p - 1
        # letter flip = bitwise complement in packed coordinates
        assert np.array_equal(size_out - ta.table[::-1], tb.table)
