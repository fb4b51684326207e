"""The product masa C_{E,F}: projection words, invariance checks, and the
sliding-block dynamics that yields the log-2 lower bound where the
standard masa gives zero."""

import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cuntzlab import (AlgebraElement, CantorDynamics, EndomorphismSpec,
                      GaussianRational, JoinDynamics, MasaNotInvariantError,
                      NotUnitaryError, Permutation, ProductMasaDynamics,
                      ef_generators, ef_projection, parse_element,
                      product_masa, theta, theta_power)
from cuntzlab.checks import all_rank2_specs, ef_expansion_holds
from cuntzlab.oracles import oracle_equivalence, oracle_map

# the four Table 1 rows whose log-2 lower bound comes from C_{E,F}
EF_ROWS = ("(1 2)", "(1 3 2 4)", "(3 4)", "(1 4 2 3)")


def test_ef_generators():
    e, f = ef_generators()
    one = AlgebraElement.one(2)
    x = parse_element("s[1] t[2] + s[2] t[1]", 2)
    assert e == (one + x).scaled(Fraction(1, 2))
    assert e * e == e and f * f == f
    assert e.adjoint() == e and f.adjoint() == f
    assert e + f == one
    assert e * f == AlgebraElement.zero(2)


def test_ef_generators_large_alphabet():
    # built without the text grammar, so N >= 10 works as for N = 2; for
    # N > 2, X is a self-adjoint partial isometry rather than a unitary
    e, f = ef_generators(10)
    assert e.sorted_terms() == ef_generators(2)[0].sorted_terms()
    x = e - f
    assert e + f == AlgebraElement.one(10)
    assert x.adjoint() == x and x * x * x == x
    assert ef_projection((1, 2), 10) == e * theta(f)


def _left_fold(word, n_gens=2):
    """The oracle P_q = q_1 theta(q_2) ... theta^{m-1}(q_m), folded from
    the left: m (m - 1) / 2 theta calls."""
    e, f = ef_generators(n_gens)
    out = AlgebraElement.one(n_gens)
    for pos, letter in enumerate(word):
        out = out * theta_power(pos, e if letter == 1 else f)
    return out


@pytest.mark.parametrize("n_gens, depth", [(2, 5), (3, 3)])
def test_right_fold_matches_left_fold_oracle(n_gens, depth, sparse_reference):
    # all 62 words of depth <= 5 for N = 2
    qs = [q for m in range(1, depth + 1) for q in itertools.product((1, 2), repeat=m)]
    for q in qs:
        kernel = ef_projection(q, n_gens)
        with sparse_reference():
            got, want = ef_projection(q, n_gens), _left_fold(q, n_gens)
        assert got.terms == want.terms, q
        top = {0: len(q)}
        assert kernel.level(top).terms == want.level(top).terms, q


@pytest.mark.parametrize("depth", range(7))
def test_depth_m_word_makes_m_minus_1_theta_calls(depth, monkeypatch):
    calls = []
    original = product_masa.theta
    monkeypatch.setattr(product_masa, "theta",
                        lambda a: calls.append(a) or original(a))
    ef_projection(((1, 2, 2) * 3)[:depth])
    assert len(calls) == max(depth - 1, 0)


def test_large_alphabet_projection_keeps_to_the_storage_bound():
    # at N = 10 no E/F matrix fits the kernel's storage bound, so the word
    # takes the sparse path; a held level-4 matrix would take about 1.6 GB
    ef_projection((1, 2), 10)
    tracemalloc.start()
    start = time.perf_counter()
    p = ef_projection((1, 2, 1, 2), 10)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(p.terms) == 5184
    assert peak < 16 * 2 ** 20, peak  # about 3 MB
    assert elapsed < 3.0, elapsed  # about 0.2 s


@pytest.mark.parametrize("word", [(1, 3), (0,), (2, 1, -1), (1.5,)])
def test_ef_projection_rejects_bad_letters(word):
    # no letter outside {1, 2} is read as F
    with pytest.raises(ValueError, match="E/F letter"):
        ef_projection(word)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_projection_words_partition(depth):
    one = AlgebraElement.one(2)
    total = AlgebraElement.zero(2)
    projs = {q: ef_projection(q)
             for q in itertools.product((1, 2), repeat=depth)}
    for q, p in projs.items():
        assert p.trace_state() == Fraction(1, 2 ** depth), q
        assert p * p == p and p.adjoint() == p, q
        total = total + p
    assert total == one
    # mutual orthogonality via two representatives
    qs = list(projs)
    assert projs[qs[0]] * projs[qs[-1]] == AlgebraElement.zero(2)


# tEF: out_j = E iff w_j = w_{j+1}, the local rule of all four E/F rows
TEF_RULE = {(1, 1): 1, (2, 2): 1, (1, 2): 2, (2, 1): 2}


def _local_rule(d):
    """The depth-1 table as {window: output letter}."""
    tbl = d.block_map(1)
    return {w: tbl.map_word(w)[0]
            for w in itertools.product((1, 2), repeat=tbl.window)}


def test_sigma12_rule_is_tensor_form():
    d = ProductMasaDynamics(EndomorphismSpec.from_label("(1 2)"))
    assert _local_rule(d) == TEF_RULE
    # psi(E) = E (x) E + F (x) F literally
    e, f = ef_generators()
    psi_e = EndomorphismSpec.from_label("(1 2)").apply(e)
    assert psi_e == e * theta(e) + f * theta(f)


def test_sigma1324_coincides_with_sigma12():
    a = ProductMasaDynamics(EndomorphismSpec.from_label("(1 2)"))
    b = ProductMasaDynamics(EndomorphismSpec.from_label("(1 3 2 4)"))
    assert _local_rule(b) == TEF_RULE
    for p in range(1, 9):
        assert np.array_equal(a.block_map(p).table, b.block_map(p).table), p


def test_tEF_oracle_match():
    for label in ("(1 2)", "(1 3 2 4)"):
        d = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        assert oracle_equivalence(d, "tEF", 10)
    assert oracle_map("tEF", (1, 1, 2, 2)) == (1, 2, 1)


def test_identity_gives_identity_table():
    d = ProductMasaDynamics(EndomorphismSpec.identity(2))
    tbl = d.block_map(3)
    for w in itertools.product((1, 2), repeat=3):
        assert tbl.map_word(w) == w


def test_ef_entropy_verdicts():
    for label in EF_ROWS:
        d = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        assert JoinDynamics.summarize(d.entropy(4, 16)).verdict == "log2"
        assert d.separation_check(8)


def test_non_invariant_rejected():
    # C_{E,F} is invariant under every rank-2 permutation, these included
    for label in ("(1 3)", "(2 3 4)"):
        d = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        assert d.label() == label and d.masa_name() == "EF"
    # a non-affine rank-3 sigma fails at the first depth, with a witness
    spec = EndomorphismSpec.from_label("(1 7 2 8 6 4 5)", k=3)
    with pytest.raises(MasaNotInvariantError, match="witness E/F cylinder E "):
        ProductMasaDynamics(spec)


@pytest.mark.parametrize("label, k, conjugate", [
    ("id", 2, "id"), ("(1 2)", 2, "(2 4)"), ("(3 4)", 2, "(2 4)"),
    ("(1 3)", 2, "(3 4)"), ("(2 3)", 2, "(2 3)"), ("(1 4)(2 3)", 2, "id"),
    ("(1 6 5 4 7 8)(2 3)", 3, "(3 7 6)(4 8 5)"),
])
def test_conjugate_is_a_permutation(label, k, conjugate):
    """lambda_V^{-1} rho_sigma lambda_V is rho_{sigma'} up to phases, and
    its tables are the E/F tables."""
    d = ProductMasaDynamics(EndomorphismSpec.from_label(label, k=k))
    assert d.endo.perm == Permutation.parse(conjugate, k, 2)
    assert d.label() == EndomorphismSpec.from_label(label, k=k).label()


def test_ef_verdict_is_the_conjugate_verdict_on_c2():
    """(1 3) has entropy log 2 on C_2, but on C_{E,F} it acts as (3 4) acts
    on C_2, where the join counts stop growing: its E/F verdict is zero."""
    for label, conjugate in (("(1 3)", "(3 4)"), ("(1 2)", "(2 4)")):
        ef = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        c2 = CantorDynamics(EndomorphismSpec.from_label(conjugate))
        assert ([r.counts for r in ef.entropy(4, 16)]
                == [r.counts for r in c2.entropy(4, 16)])
    ef13 = ProductMasaDynamics(EndomorphismSpec.from_label("(1 3)"))
    assert JoinDynamics.summarize(ef13.entropy(4, 16)).verdict == "zero"


def _expansion_failures(specs, depth):
    return [spec.label() for spec in specs
            if not ef_expansion_holds(ProductMasaDynamics(spec), depth)]


def test_direct_expansion_oracle():
    """rho(P_q) is the sum of the P_x that the E/F table sends to q, built
    from ef_projection and apply alone, for all 24 rank-2 sigma and one
    affine rank-3 sigma."""
    assert _expansion_failures(all_rank2_specs(), 3) == []
    rank3 = EndomorphismSpec.from_label("(1 6 5 4 7 8)(2 3)", k=3)
    assert _expansion_failures([rank3], 3) == []


def test_direct_expansion_oracle_catches_a_wrong_basis(monkeypatch):
    one, zero = GaussianRational.of(1), GaussianRational.of(0)
    # V = I makes sigma' = sigma: the C_2 tables, wrong on C_{E,F}
    monkeypatch.setattr(product_masa, "V", ((one, zero), (zero, one)))
    failures = _expansion_failures(all_rank2_specs(), 3)
    assert len(failures) == 21
    assert set(EF_ROWS) <= set(failures)
    # one sign flipped: V is no longer unitary
    c = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    monkeypatch.setattr(product_masa, "V", ((c, c), (c, c)))
    with pytest.raises(NotUnitaryError):
        ProductMasaDynamics(EndomorphismSpec.from_label("(1 2)"))


def test_shift_acts_as_shift_in_ef_coordinates():
    d = ProductMasaDynamics(EndomorphismSpec.from_label("(2 3)"))
    assert _local_rule(d) == {(1, 1): 1, (2, 1): 1, (1, 2): 2, (2, 2): 2}
    tbl = d.block_map(2)
    for w in itertools.product((1, 2), repeat=3):
        assert tbl.map_word(w) == w[1:]


def test_sliding_tables_match_rule_reading():
    """Every E/F table agrees with reading the local rule off each window
    of k letters, word by word."""
    for label in EF_ROWS:
        d = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        k = d.endo.rank
        assert _local_rule(d) == TEF_RULE, label
        for p in range(1, 11):
            tbl = d.block_map(p)
            for w in itertools.product((1, 2), repeat=p + k - 1):
                expected = tuple(TEF_RULE[w[j:j + k]] for j in range(p))
                assert tbl.map_word(w) == expected, (label, w)
