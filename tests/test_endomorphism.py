"""Endomorphism construction, cocycles, the bidegree application formula,
and the range-containment facts that bound the induced dynamics."""

import itertools
import random
import sys
import time
import tracemalloc

import pytest

from cuntzlab import (AlgebraElement, AlphabetMismatchError, BudgetExceededError,
                      CantorDynamics, EndomorphismSpec,
                      GaussianRational, Monomial, NotUnitaryError, ParseError,
                      Permutation, ef_generators, parse_element, perm_unitary,
                      theta, theta_power, words)
from cuntzlab import endomorphism, table
from cuntzlab.algebra import pack_word, unpack_word
from cuntzlab.sampling import random_element
from cuntzlab.table import TABLE1_EXPECTED, f_invariant
from test_dynamics import o3_rank2_sample


def all_line_perms():
    for line in itertools.permutations(range(1, 5)):
        yield Permutation.from_one_line(line, 2, 2)


# ---------------------------------------------------------------- plumbing

def test_word_indexing():
    # one-line notation numbers the words of W_k^N from 1 in the order of
    # `words`; the code behind it is the 0-based position in that order
    for n_gens, length in ((2, 2), (3, 2), (2, 3)):
        listed = list(words(n_gens, length))
        assert [pack_word(w, n_gens) for w in listed] == list(range(len(listed)))
        assert [unpack_word(i, length, n_gens) for i in range(len(listed))] == listed
    p = Permutation.parse("(1 2)")
    assert p((1, 1)) == (1, 2) and p((1, 2)) == (1, 1)
    assert p((2, 1)) == (2, 1)


def test_permutation_refuses_words_it_cannot_map():
    p = Permutation.parse("(1 2)")
    for word in ((1,), (1, 1, 1), (), (3, 1), (1, 0)):
        with pytest.raises(ValueError, match="no word of length 2 over 1..2"):
            p(word)
    assert p((1, 1)) == (1, 2)


def test_permutation_parsing():
    p = Permutation.parse("(1 2)(3 4)")
    assert p.one_line() == (2, 1, 4, 3)
    assert Permutation.parse("(12)(34)").one_line() == (2, 1, 4, 3)
    assert Permutation.parse("id").one_line() == (1, 2, 3, 4)
    assert Permutation.parse("shift").one_line() == (1, 3, 2, 4)
    assert Permutation.parse("flip").one_line() == (3, 4, 1, 2)
    assert Permutation.from_one_line((2, 1, 3, 4), 2, 2) == Permutation.parse("(1 2)")
    with pytest.raises(ParseError):
        Permutation.parse("nonsense")
    with pytest.raises(ValueError):
        Permutation.parse("(1 9)")


def test_repeated_cycle_entries_rejected():
    # read as a product of cycles, (1 2)(1 2) and (1 2)(2 1) are the
    # identity and (1 2)(1 3) is a 3-cycle: none is read as disjoint cycles
    for text, entry in (("(1 2)(1 2)", 1), ("(1 2)(2 1)", 2), ("(1 1)", 1),
                        ("(1 2)(1 3)", 1)):
        with pytest.raises(ValueError, match=f"entry {entry} appears twice"):
            Permutation.parse(text)
    assert Permutation.parse("(1 2)(3 4)").one_line() == (2, 1, 4, 3)
    for cycles, _, _ in TABLE1_EXPECTED:
        text = "".join(f"({' '.join(map(str, c))})" for c in cycles) or "id"
        assert Permutation.parse(text) == Permutation.from_cycles(cycles, 2, 2)


def test_one_line_entries_outside_the_words_rejected():
    # 5 and 6 would wrap round to the words 11 and 12 of a 4-entry line
    for line in ((5, 2, 3, 4), (5, 6, 3, 4), (0, 2, 3, 4)):
        with pytest.raises(ValueError, match="outside 1..4"):
            Permutation.from_one_line(line, 2, 2)
    assert Permutation.from_one_line((1, 2, 3, 4), 2, 2) == Permutation.parse("id")


def test_short_code_list_refused_before_the_words_are_listed():
    # two codes for 2^21 words: the count is checked before any list of
    # N^k entries is made
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bijection"):
            Permutation(21, 2, (0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    with pytest.raises(ValueError, match="bijection"):
        Permutation(2, 2, (0, 1, 2, 3, 4))


def test_permutation_constructors_keep_the_budget():
    # 2^7 = 128 words against a budget of 64: refused before any is listed
    for build in (lambda: Permutation.identity(7, 2, budget=64),
                  lambda: Permutation.from_cycles([(1, 2)], 7, 2, budget=64),
                  lambda: Permutation.parse("(1 2)", 7, 2, budget=64),
                  lambda: Permutation.parse("id", 7, 2, budget=64)):
        with pytest.raises(BudgetExceededError, match=r"rank 7 needs 2\^7 words, budget 64"):
            build()
    assert endomorphism.permutation_size(7, 2, budget=128) == 128
    assert Permutation.identity(7, 2, budget=128).codes == tuple(range(128))
    assert Permutation.parse("(1 2)", 7, 2, budget=128) == \
        Permutation.from_cycles([(1, 2)], 7, 2)


def test_cycle_notation_roundtrip():
    for perm in all_line_perms():
        assert Permutation.parse(perm.cycle_notation()) == perm
        assert perm.inverse().inverse() == perm


# ----------------------------------------------------------- theta and u_s

def test_theta_definition(s1):
    assert theta(AlgebraElement.one(2)) == AlgebraElement.one(2)
    expected = parse_element("s[11] t[1] + s[21] t[2]", 2)
    assert theta(s1) == expected


def test_theta_homomorphism(rng):
    for _ in range(10):
        a = random_element(rng, max_terms=3, max_len=2)
        b = random_element(rng, max_terms=3, max_len=2)
        assert theta(a * b) == theta(a) * theta(b)
    # the word rewriting agrees with sum_i s_i a s_i^* built by products
    for n in (2, 3):
        gens = [AlgebraElement.generator(n, i) for i in range(1, n + 1)]
        for _ in range(10):
            a = random_element(rng, n_gens=n, max_terms=5, max_len=3)
            by_products = AlgebraElement.zero(n)
            for s_i in gens:
                by_products = by_products + s_i * a * s_i.adjoint()
            assert theta(a) == by_products


def test_perm_unitary_examples(one):
    u12 = perm_unitary(Permutation.parse("(1 2)"))
    assert u12 == parse_element(
        "s[11] t[12] + s[12] t[11] + s[21] t[21] + s[22] t[22]", 2)
    assert perm_unitary(Permutation.parse("id")) == one
    assert u12 * u12.adjoint() == one
    assert all(d == 0 for d in u12.degrees())
    # the wrapped terms are those the checked constructor makes, for the
    # 24 rank-2 sigma of O_2, seeded rank-3 sigma of O_2 and rank-2 sigma
    # of O_3
    rng = random.Random(20261020)
    rank3 = []
    for _ in range(10):
        line = list(range(1, 9))
        rng.shuffle(line)
        rank3.append(Permutation.from_one_line(line, 3, 2))
    sigmas = list(all_line_perms()) + rank3 + o3_rank2_sample()
    assert len(sigmas) == 24 + 10 + 40
    for sigma in sigmas:
        u = perm_unitary(sigma)
        want = AlgebraElement(sigma.n_gens, {
            Monomial(sigma(j), j): 1 for j in words(sigma.n_gens, sigma.k)})
        assert u.terms == want.terms, sigma.one_line()
        assert all(type(c) is GaussianRational for c in u.terms.values())
    with pytest.raises(ValueError, match="alphabet size"):
        Permutation(1, 1, (0,))


def test_shift_unitary_gives_theta(rng):
    sh = EndomorphismSpec.canonical_shift(2)
    for i in (1, 2):
        assert sh.apply(AlgebraElement.generator(2, i)) == \
            theta(AlgebraElement.generator(2, i))
    a = random_element(rng, max_terms=3, max_len=2)
    assert sh.apply(a) == theta(a)
    # sigma_23 defines the same endomorphism
    s23 = EndomorphismSpec.from_label("(2 3)")
    assert s23.u == sh.u


# ----------------------------------------------------------------- cocycle

def test_cocycle_identities(psi12, one):
    assert psi12.cocycle(0) == one
    assert psi12.cocycle(1) == psi12.u
    for k in range(5):
        assert psi12.cocycle(k + 1) == psi12.cocycle(k) * theta_power(k, psi12.u)
    ident = EndomorphismSpec.identity(2)
    assert ident.cocycle(4) == one


def test_unitary_enforced():
    p = AlgebraElement.diagonal(2, (1,))
    with pytest.raises(NotUnitaryError):
        EndomorphismSpec(p)


def test_rank_inference(one):
    assert EndomorphismSpec(one, check=False).rank == 1
    u12 = perm_unitary(Permutation.parse("(1 2)"))
    assert EndomorphismSpec(u12).rank == 2
    s1 = AlgebraElement.generator(2, 1)
    s2 = AlgebraElement.generator(2, 2)
    flip = s1 * s2.adjoint() + s2 * s1.adjoint()
    assert EndomorphismSpec(flip).rank == 1


# -------------------------------------------------------------------- apply

def test_apply_worked_examples(psi12, s1, s2):
    assert psi12.apply(s1) == parse_element("s[11] t[2] + s[12] t[1]", 2)
    assert psi12.apply(s2) == s2
    s13 = EndomorphismSpec.from_label("(1 3)")
    assert s13.apply(s1 * s1.adjoint()) == \
        parse_element("s[12] t[12] + s[21] t[21]", 2)


def test_apply_multiplicative_star(rng, psi12):
    for _ in range(10):
        a = random_element(rng, max_terms=3, max_len=2)
        b = random_element(rng, max_terms=3, max_len=2)
        assert psi12.apply(a * b) == psi12.apply(a) * psi12.apply(b)
        assert psi12.apply(a.adjoint()) == psi12.apply(a).adjoint()


def test_apply_agrees_with_generator_substitution(psi12, s1, s2):
    # rho(s_I s_J^*) should equal the product of rho-images of the letters
    for left in words(2, 2):
        for right in words(2, 2):
            mono = AlgebraElement.monomial(2, left, right)
            via_gens = AlgebraElement.one(2)
            for c in left:
                via_gens = via_gens * psi12.apply(AlgebraElement.generator(2, c))
            for c in reversed(right):
                via_gens = via_gens * psi12.apply(
                    AlgebraElement.generator(2, c)).adjoint()
            assert psi12.apply(mono) == via_gens


def oracle_permutations():
    """All 24 rank-2 permutations of O_2, six seeded rank-3 ones, one seeded
    rank-2 permutation of O_3 and the rank-1 letter swap for N = 2, 3."""
    rng = random.Random(20240605)
    perms = list(all_line_perms())
    for k, n_gens, count in ((3, 2, 6), (2, 3, 1)):
        for _ in range(count):
            line = list(range(1, n_gens ** k + 1))
            rng.shuffle(line)
            perms.append(Permutation.from_one_line(line, k, n_gens))
    perms += [Permutation.from_cycles([(1, 2)], 1, n_gens) for n_gens in (2, 3)]
    return perms


def test_word_rewriting_matches_cocycle_path():
    # the same unitary without `perm` runs the cocycle formula: the oracle
    for sigma in oracle_permutations():
        n = sigma.n_gens
        fast = EndomorphismSpec.from_permutation(sigma)
        slow = EndomorphismSpec(perm_unitary(sigma), rank=sigma.k, check=False)
        inputs = [AlgebraElement.monomial(n, left, right)
                  for p in range(3) for l in range(3)
                  for left in words(n, p) for right in words(n, l)]
        inputs += ef_generators(n)
        for a in inputs:
            img = fast.apply(a)
            assert img == slow.apply(a), (sigma, a)
            assert fast.apply(img) == slow.apply(slow.apply(a)), (sigma, a)


def test_warm_spec_images_equal_fresh_and_cocycle_images():
    """`_images` never changes an image: a warm spec, one already applied
    to every monomial with |I|, |J| <= 2, gives the same rho, rho^2 and
    rho^3 images, term for term, as a fresh spec, and the same elements
    as the cocycle path, for the oracle permutations and seeded sigma at
    (k, N) = (3, 2), (4, 2), (2, 3)."""
    rng = random.Random(20261021)
    perms = oracle_permutations()
    for k, n_gens in ((3, 2), (4, 2), (2, 3)):
        line = list(range(1, n_gens ** k + 1))
        rng.shuffle(line)
        perms.append(Permutation.from_one_line(line, k, n_gens))
    for sigma in perms:
        n = sigma.n_gens
        inputs = [AlgebraElement.monomial(n, left, right)
                  for p in range(3) for l in range(3)
                  for left in words(n, p) for right in words(n, l)]
        warm = EndomorphismSpec.from_permutation(sigma)
        for a in inputs:
            warm.apply(a)
        slow = EndomorphismSpec(perm_unitary(sigma), rank=sigma.k, check=False)
        for a in inputs:
            fresh = EndomorphismSpec.from_permutation(sigma)
            x = y = z = a
            for _ in range(3):
                x, y, z = warm.apply(x), fresh.apply(y), slow.apply(z)
                assert dict(x.terms) == dict(y.terms) and x == z, (sigma, a)


def window_rewrite(sigma, word):
    """pi(W) window by window: sigma applied to the k-letter window at
    positions m-1, ..., 0 of W, right to left."""
    k = sigma.k
    out = list(word)
    for pos in range(len(out) - k, -1, -1):
        out[pos:pos + k] = sigma(tuple(out[pos:pos + k]))
    return tuple(out)


def test_automaton_equals_the_window_rewriting():
    """`_rewrite` runs sigma's automaton; it equals the window rewriting
    on every word of length k-1 to k+5, for the 24 rows and four seeded
    sigma at each (k, N)."""
    rng = random.Random(20261020)
    perms = list(all_line_perms())
    for k, n_gens in ((2, 2), (3, 2), (4, 2), (2, 3)):
        for _ in range(4):
            line = list(range(1, n_gens ** k + 1))
            rng.shuffle(line)
            perms.append(Permutation.from_one_line(line, k, n_gens))
    for sigma in perms:
        spec = EndomorphismSpec.from_permutation(sigma)
        for length in range(sigma.k - 1, sigma.k + 6):
            for w in words(sigma.n_gens, length):
                assert spec._rewrite(w) == window_rewrite(sigma, w), (sigma, w)


def test_automaton_built_on_first_use_once_per_spec():
    """from_permutation builds no record and no images memo; the first
    apply builds pi's forward record and the memo, the first dynamics
    sigma^{-1}'s step table and no memo, each once per spec, and two specs
    of one sigma never share a record or a memo."""
    sigma = Permutation.parse("(1 2 4)")
    a, b = (EndomorphismSpec.from_permutation(sigma) for _ in range(2))
    assert (a._automaton, a._steps, a._images, b._automaton, b._steps,
            b._images) == (None,) * 6
    a.apply(AlgebraElement.generator(2, 1))
    record, images = a._automaton, a._images
    assert record is not None and a._steps is None and b._automaton is None
    assert images == {(1,): ((1, 2), (2, 2)), (): ((1,), (2,))}
    a.apply(AlgebraElement.generator(2, 2))
    assert a.automaton() is record and len(record) == 6
    assert a._images is images and images[(2,)] == ((2, 1), (1, 1))
    steps = CantorDynamics(a)._steps
    assert steps is a._steps and CantorDynamics(a)._steps is steps
    assert a.steps() is steps and a.automaton() is record and b._steps is None
    assert b.automaton() == record and b.automaton() is not record
    assert CantorDynamics(b)._steps == steps and b.steps() is not steps
    assert b._images is None and a._images is images and len(images) == 3
    b.apply(AlgebraElement.generator(2, 1))
    assert b._images == {(1,): images[(1,)], (): images[()]}
    assert b._images is not images and len(images) == 3


def test_dynamics_build_no_forward_record():
    """Entropy on a spec that was never applied builds sigma^{-1}'s step
    table and no pi record, for a series closed by proof and a refined
    one; apply then builds pi, and each spec holds one of each."""
    for label in ("(1 2 3)", "(1 2)"):
        spec = EndomorphismSpec.from_label(label)
        dyn = CantorDynamics(spec)
        dyn.entropy(4, 16)
        steps = spec._steps
        assert spec._automaton is None and steps is not None, label
        assert dyn._steps is steps, label
        spec.apply(AlgebraElement.generator(2, 1))
        record = spec._automaton
        assert record is not None and spec._steps is steps, label
        CantorDynamics(spec).entropy(2, 4)
        spec.apply(AlgebraElement.generator(2, 2))
        assert spec._automaton is record and spec._steps is steps, label


@pytest.fixture
def unitary_builds(monkeypatch):
    """The sigma of every `perm_unitary` call, in order."""
    built, build = [], endomorphism.perm_unitary

    def spy(sigma):
        built.append(sigma)
        return build(sigma)

    monkeypatch.setattr(endomorphism, "perm_unitary", spy)
    return built


def test_u_sigma_built_on_first_read(unitary_builds):
    """A permutative spec builds u_sigma only when `u` is read, once: not
    for `from_permutation`, `apply` or a dynamics' entropy, and not for
    the Table 1 rows closed on C_2 (16) or by F-invariance (4), nor for
    the 4 E/F rows, whose affine sigma gives sigma' = A^{-T} off the codes."""
    for sigma in all_line_perms():
        spec = EndomorphismSpec.from_permutation(sigma)
        spec.apply(parse_element("s[1] t[2] + s[12] t[21]", 2))
        CantorDynamics(spec).entropy(4, 16)
    assert unitary_builds == []
    per_masa = {}
    for cycles, hte, hte_c2 in TABLE1_EXPECTED:
        row = table.compute_row(cycles, hte, hte_c2)
        per_masa.setdefault((row.masa_used, row.hte_c2_computed), []).append(
            len(unitary_builds))
        unitary_builds.clear()
    assert per_masa == {("standard", table.LOG2): [0] * 16,
                        ("standard", table.ZERO): [0] * 4,
                        ("EF", table.ZERO): [0] * 4}
    sigma = Permutation.parse("(1 2 4)")
    spec = EndomorphismSpec.from_permutation(sigma)
    assert spec.u is spec.u and spec.cocycle(1) is spec.u
    assert unitary_builds == [sigma] and spec.u == perm_unitary(sigma)


def test_lazy_u_keeps_cocycles_and_verify():
    """On the 24 rows a spec that builds u_sigma on first read gives the
    cocycles u_k = u theta(u) ... theta^{k-1}(u), k <= 4, and the `verify`
    report of a spec handed u_sigma at construction."""
    for sigma in all_line_perms():
        u = perm_unitary(sigma)
        chain = [AlgebraElement.one(2)]
        for k in range(4):
            chain.append(chain[-1] * theta_power(k, u))
        lazy = EndomorphismSpec.from_permutation(sigma)
        assert [lazy.cocycle(k) for k in range(5)] == chain, sigma
        eager = EndomorphismSpec(u, rank=2, origin="permutation", perm=sigma,
                                 check=False).verify()
        report = EndomorphismSpec.from_permutation(sigma).verify()
        assert list(report.items()) == list(eager.items()), sigma
        assert all(report.values()), sigma


def test_separation_test_runs_once_per_dynamics(monkeypatch):
    """`_separating()` runs once per dynamics, not once per depth, for a
    series closed by the discrete tail and for a refined one."""
    calls = []
    separating = CantorDynamics._separating

    def spy(self):
        calls.append(self)
        return separating(self)

    monkeypatch.setattr(CantorDynamics, "_separating", spy)
    for label, tail in (("(1 2 3)", "discrete"), ("(1 2)", "stable")):
        calls.clear()
        dyn = CantorDynamics(EndomorphismSpec.from_label(label))
        reports = dyn.entropy(4, 16)
        assert calls == [dyn], label
        assert all(r.counts.tail == tail for r in reports), label


def test_codes_make_no_word_packing(monkeypatch):
    """A rank-12 sigma of O_2 from a one-line list and from cycles, its
    spec, pi's forward record, its dynamics and `_separating()` make no
    pack_word or unpack_word call: each is built from the codes."""
    calls = []
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cuntzlab"):
            for name in ("pack_word", "unpack_word"):
                fn = getattr(module, name, None)
                if fn is not None:
                    monkeypatch.setattr(module, name, lambda *args, _f=fn, _n=name:
                                        calls.append(_n) or _f(*args))
    rng = random.Random(20261021)
    line = list(range(1, 2 ** 12 + 1))
    rng.shuffle(line)
    cycles = [line[i:i + 3] for i in range(0, 2 ** 12 - 3, 3)]
    for sigma in (Permutation.from_one_line(line, 12, 2),
                  Permutation.from_cycles(cycles, 12, 2)):
        spec = EndomorphismSpec.from_permutation(sigma)
        assert len(spec.automaton()[3]) == 2 ** 12
        assert not CantorDynamics(spec)._separating()
        assert len(spec.steps()[0]) == 2 ** 12
    assert calls == []
    # the spies see a call
    assert sigma((1,) * 12) and calls == ["pack_word", "unpack_word"]


def test_word_rewriting_is_not_exponential(psi12, s1, s2):
    # u_40 has 2^41 terms; the closed form of check_psi_formulas has two
    n = 40
    start = time.perf_counter()
    img = psi12.apply(AlgebraElement.isometry(2, (1,) * n))
    assert time.perf_counter() - start < 1.0
    assert len(img.terms) == 2
    assert img == (AlgebraElement.isometry(2, (1,) + (2,) * n) * s1.adjoint()
                   + AlgebraElement.isometry(2, (1,) + (2,) * (n - 1) + (1,))
                   * s2.adjoint())


def test_apply_rejects_other_alphabets():
    permutative = EndomorphismSpec.from_label("(1 2)")
    symbolic = EndomorphismSpec(permutative.u, rank=2, check=False)
    for endo in (permutative, symbolic, EndomorphismSpec.canonical_shift(2)):
        for a in (AlgebraElement.generator(3, 1), AlgebraElement.generator(3, 3),
                  AlgebraElement.zero(3)):
            with pytest.raises(AlphabetMismatchError):
                endo.apply(a)


def test_correspondence_roundtrip():
    for label in ("(1 2)", "(2 3)", "(1 3 2 4)", "(1 4)(2 3)"):
        endo = EndomorphismSpec.from_label(label)
        total = AlgebraElement.zero(2)
        for i in (1, 2):
            s_i = AlgebraElement.generator(2, i)
            total = total + endo.apply(s_i) * s_i.adjoint()
        assert total == endo.u


def test_verify_report(psi12):
    assert all(psi12.verify().values())
    bad = EndomorphismSpec(AlgebraElement.diagonal(2, (1,)), rank=1, check=False)
    assert not bad.verify()["unitary"]


def test_gauge_invariance(one):
    assert EndomorphismSpec.from_label("(1 2 3)").is_gauge_invariant()
    from cuntzlab import GaussianRational
    from fractions import Fraction
    lam = GaussianRational(Fraction(0), Fraction(1))
    gauge = EndomorphismSpec(one.scaled(lam), rank=1)
    assert gauge.is_gauge_invariant()
    s1 = AlgebraElement.generator(2, 1)
    unbalanced = EndomorphismSpec(
        AlgebraElement.isometry(2, (1, 1)) * s1.adjoint()
        + AlgebraElement.isometry(2, (1, 2))
        * AlgebraElement.generator(2, 2).adjoint(),
        check=False)
    assert not unbalanced.is_gauge_invariant()


# ------------------------------------------------------- range containment

def test_range_containment_examples():
    assert EndomorphismSpec.from_label("(1 2)").range_containment(1, 1, 1)
    assert EndomorphismSpec.identity(2).range_containment(2, 2, 2)
    assert EndomorphismSpec.from_label("(2 3)").range_containment(2, 2, 2)


def test_powers_refuse_negative_exponents():
    """theta and rho have no inverse on O_N, so theta^m and rho^m with
    m < 0 raise, as cocycle does for k < 0, rather than return a."""
    s1 = AlgebraElement.generator(2, 1)
    with pytest.raises(ValueError, match="theta power must be nonnegative"):
        theta_power(-2, s1)
    with pytest.raises(ValueError, match="endomorphism power must be nonnegative"):
        EndomorphismSpec.from_label("(2 3)").apply_power(-1, s1)


def test_apply_power_single_monomials():
    s23 = EndomorphismSpec.from_label("(2 3)")
    start = AlgebraElement.diagonal(2, (1,))
    out = s23.apply_power(2, start)
    expected = AlgebraElement.zero(2)
    for k in words(2, 2):
        expected = expected + AlgebraElement.diagonal(2, k + (1,))
    assert out == expected
    assert s23.apply_power(0, start) == start


def test_f_subspace_invariance_of_automorphisms():
    for label in ("id", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"):
        assert f_invariant(EndomorphismSpec.from_label(label)), label
    # a zero-verdict row that needs the E/F masa moves some A_{p,l} out of F_{p,l}
    assert not f_invariant(EndomorphismSpec.from_label("(1 2)"))


def test_trace_invariance_spot(rng):
    for label in ("(1 2)", "(2 3)", "(1 2 3 4)"):
        endo = EndomorphismSpec.from_label(label)
        for _ in range(10):
            a = random_element(rng, max_terms=4, max_len=3)
            assert endo.apply(a).trace_state() == a.trace_state()
