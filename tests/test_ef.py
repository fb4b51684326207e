"""The product masa C_{E,F}: projection words, invariance checks, and the
sliding-block dynamics that yields the log-2 lower bound where the
standard masa gives zero."""

import functools
import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cuntzlab import (AlgebraElement, CantorDynamics, EndomorphismSpec,
                      GaussianRational, JoinDynamics, MasaNotInvariantError,
                      Monomial, NotUnitaryError, Permutation,
                      ProductMasaDynamics, algebra, ef_generators,
                      ef_projection, endomorphism, parse_element,
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


def test_ef_memo_keeps_only_level1_read_only_matrices():
    """E and F are made once per alphabet.  A deep word makes its higher
    levels for each call, so the memo never pins a matrix above level 1
    (a held level-12 one would take about 268 MB)."""
    ef_projection((1, 2, 2, 1, 2, 1, 1))
    memo = product_masa._ef_memo(2)
    for q, single in zip(memo, (ef_projection((1,)), ef_projection((2,)))):
        assert algebra._built_terms(single) is None
        assert single._matrix is q._matrix  # shared, not copied
        assert q._matrix.m == 1
        assert not q._matrix.num.flags.writeable
        assert single == q


def _closed_form(q):
    """(m, den, num) of P_q = v v^T / 2^m, m = |q|: v[j] is the product over
    the F positions t of q of (-1)^(digit t of j), the first letter being
    the most significant binary digit of j."""
    m = len(q)
    v = []
    for j in range(2 ** m):
        flips = sum(j >> (m - 1 - t) & 1 for t, letter in enumerate(q) if letter == 2)
        v.append((-1) ** flips)
    return m, 2 ** m, [[x * y for y in v] for x in v]


def _closed_form_mismatches():
    """The E/F words of depth <= 6 whose projection is not an unbuilt
    kernel element with the closed-form matrix."""
    bad = []
    for m in range(1, 7):
        for q in itertools.product((1, 2), repeat=m):
            p = ef_projection(q)
            if not (algebra._unbuilt(p) and (p._matrix.m, p._matrix.den,
                                             p._matrix.num.tolist()) == _closed_form(q)):
                bad.append(q)
    return bad


def test_ef_projections_match_the_closed_form():
    assert _closed_form_mismatches() == []


def test_closed_form_kills_a_theta_that_writes_one_block(monkeypatch):
    kron = algebra._kron_identity

    def first_block_only(mat, m, k, inner):
        out = kron(mat, m, k, inner)
        if inner:
            return out
        d = len(mat.num)
        num = np.zeros_like(out.num)
        num[:d, :d] = mat.num
        return out._replace(num=num)

    monkeypatch.setattr(algebra, "_kron_identity", first_block_only)
    assert len(_closed_form_mismatches()) == 126 - 2  # all but E and F


def test_ef_projection_returns_fresh_elements():
    for word in ((1,), (2,), (2, 1, 1)):
        a, b = ef_projection(word), ef_projection(word)
        assert a is not b and a == b
        # a product at a higher level leaves each at its own level
        assert a * theta(theta(theta(a))) == a * theta_power(3, b)
        assert b._matrix.m == len(word)
    memo = product_masa._ef_memo(2)
    assert not any(x is y for x in ef_generators() for y in memo)


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


def test_conjugate_unitary_matches_the_conjugation_formula():
    """u' = lambda_{V^*}(u) equals u' = lambda_{V^*}(rho(w) u) w^*, read
    off rho lambda_V = rho_{rho(w) u}, for the 24 rows, 20 seeded rank-3
    sigma and the canonical shift."""
    w = AlgebraElement(2, {Monomial((a + 1,), (b + 1,)): product_masa.V[a][b]
                           for a in range(2) for b in range(2)})
    inverse = EndomorphismSpec(w.adjoint(), rank=1)
    rng = random.Random(20)
    rank3 = []
    for _ in range(20):
        codes = list(range(8))
        rng.shuffle(codes)
        rank3.append(EndomorphismSpec.from_permutation(
            Permutation(3, 2, codes)))
    specs = [*all_rank2_specs(), *rank3, EndomorphismSpec.canonical_shift(2)]
    for spec in specs:
        want = inverse.apply(spec.apply(w) * spec.u) * w.adjoint()
        assert product_masa._conjugate_unitary(spec) == want, spec.label()


def _homomorphism_lambda_v_star(x):
    """lambda_{V^*}(x) as a homomorphism: each s_I s_J^* goes to the
    product of the generator images lambda_{V^*}(s_i) = sum_a conj(V_ia) s_a
    along I times the adjoint of that product along J, with V read at call
    time."""
    gens = [AlgebraElement(2, {Monomial((a + 1,), ()): product_masa.V[i][a].conjugate()
                               for a in range(2)}) for i in range(2)]
    one, out = AlgebraElement.one(2), AlgebraElement.zero(2)
    for (left, right), c in x.terms.items():
        image = functools.reduce(algebra.mul, (gens[i - 1] for i in left), one)
        tail = functools.reduce(algebra.mul, (gens[j - 1] for j in right), one)
        out = out + algebra.mul(image, tail.adjoint()).scaled(c)
    return out


def _conjugate_specs():
    """The 24 rows, 20 seeded rank-3 sigma, the canonical shift and the
    identity."""
    rng = random.Random(20)
    rank3 = []
    for _ in range(20):
        codes = list(range(8))
        rng.shuffle(codes)
        rank3.append(EndomorphismSpec.from_permutation(
            Permutation(3, 2, codes)))
    return [*all_rank2_specs(), *rank3, EndomorphismSpec.canonical_shift(2),
            EndomorphismSpec.identity(2)]


_I, _ONE, _ZERO = GaussianRational(0, 1), GaussianRational(1), GaussianRational(0)
BOGOLUBOV = {
    "hadamard": None,  # product_masa.V itself, a symmetric matrix
    "non-symmetric": ((_ZERO, _I), (_ONE, _ZERO)),
    "diagonal phase": ((_I, _ZERO),
                       (_ZERO, GaussianRational(Fraction(3, 5), Fraction(4, 5)))),
}
GRADED = ("(1/2+1/3i) * s[12] t[2]",
          "2 - 3/4 * s[1] + (1/2+1/3i) * s[12] t[2] + (0-2i) * s[2] t[211]",
          "s[21] + (-1/7+5/2i) * t[12]")


@pytest.mark.parametrize("name", sorted(BOGOLUBOV))
def test_conjugate_unitary_matches_homomorphism_form(name, monkeypatch):
    """u' = rho_{w^*}(u) on the cocycle path equals lambda_{V^*}(u) built
    from the generator images as a homomorphism, on every spec, and on
    elements of nonzero gauge degree with complex coefficients.  The
    non-symmetric V tells V from its transpose, and the phase V has a
    denominator other than 2."""
    if BOGOLUBOV[name] is not None:
        monkeypatch.setattr(product_masa, "V", BOGOLUBOV[name])
    for spec in _conjugate_specs():
        want = _homomorphism_lambda_v_star(spec.u)
        assert product_masa._conjugate_unitary(spec) == want, spec.label()
    for text in GRADED:
        x = parse_element(text, 2)
        got = product_masa._conjugate_unitary(
            EndomorphismSpec(x, rank=1, check=False))
        assert got == _homomorphism_lambda_v_star(x), text


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


def test_walsh_shaped_non_unitary_v_raises_before_sigma_is_read(monkeypatch):
    """V = [[1, 1], [1, -1]] unscaled has the Walsh shape but 2 |c|^2 = 2,
    so V is not unitary: the dynamics raises before it reads sigma's
    affine form or builds u_sigma."""
    one = GaussianRational(1)
    monkeypatch.setattr(product_masa, "V", ((one, one), (one, -one)))
    read = []
    affine_form = Permutation.affine_form
    perm_unitary = endomorphism.perm_unitary
    monkeypatch.setattr(Permutation, "affine_form",
                        lambda sigma: read.append(sigma) or affine_form(sigma))
    monkeypatch.setattr(endomorphism, "perm_unitary",
                        lambda sigma: read.append(sigma) or perm_unitary(sigma))
    for label in EF_ROWS:
        with pytest.raises(NotUnitaryError, match="V is not unitary"):
            ProductMasaDynamics(EndomorphismSpec.from_label(label))
    assert read == []


def test_bogolubov_matrix_is_checked_as_a_scalar_matrix(monkeypatch):
    # V is read when u' is computed; w is unitary exactly when V V^* = I
    one, zero, i = GaussianRational(1), GaussianRational(0), GaussianRational(0, 1)
    spec = EndomorphismSpec.from_label("(1 2)")
    monkeypatch.setattr(product_masa, "V", ((zero, i), (one, zero)))
    u = product_masa._conjugate_unitary(spec)
    assert u * u.adjoint() == AlgebraElement.one(2) == u.adjoint() * u
    for v in (((one, zero), (one, zero)), ((one, one), (zero, one))):
        monkeypatch.setattr(product_masa, "V", v)
        with pytest.raises(NotUnitaryError, match="V is not unitary"):
            product_masa._conjugate_unitary(spec)


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


def _linear_codes(cols):
    """x -> A x over F_2 on every code x, A given by its columns."""
    image = [0]
    for col in cols:
        image += [x ^ col for x in image]
    return image


def _affine_codes(k):
    """The codes of every affine sigma(x) = A x + b of F_2^k, A invertible,
    built from the matrices (as column masks) and shifts themselves."""
    out = set()
    for cols in itertools.product(range(1, 2 ** k), repeat=k):
        image = _linear_codes(cols)
        if len(set(image)) == 2 ** k:
            out.update(tuple(x ^ b for x in image) for b in range(2 ** k))
    return out


def _leveled_sigma(spec):
    """sigma' by the general path: u' = lambda_{V^*}(u_sigma), leveled."""
    return product_masa._phased_permutation(
        product_masa._conjugate_unitary(spec), spec.rank)


def test_affine_form_gives_the_closed_form_conjugate():
    """affine_form() picks out exactly the 1,344 affine sigma among the
    40,320 of rank 3, returns an (A, b) that rebuilds each sigma, and
    sigma' = A^{-T} equals the sigma' leveled off u' on all 24 rank-2
    sigma and all 1,344 affine rank-3 sigma, as the E/F dynamics reads it."""
    affine = [sigma for sigma in (Permutation(3, 2, codes) for codes
                                  in itertools.permutations(range(8)))
              if sigma.affine_form() is not None]
    assert {sigma.codes for sigma in affine} == _affine_codes(3)
    assert len(affine) == 1344
    specs = all_rank2_specs() + [EndomorphismSpec.from_permutation(sigma)
                                 for sigma in affine]
    for spec in specs:
        linear, b = spec.perm.affine_form()
        assert tuple(x ^ b for x in _linear_codes(linear)) == spec.perm.codes
        dual = product_masa._dual_permutation(linear, spec.rank)
        assert dual == _leveled_sigma(spec), spec.label()
        assert ProductMasaDynamics(spec).endo.perm == dual, spec.label()


def test_non_affine_sigma_has_no_affine_form_and_no_monomial_conjugate():
    """A seeded sample of 300 non-affine rank-3 sigma: no affine form, and
    u' is not a phased permutation.  affine_form() is None for N != 2."""
    affine, rng, seen = _affine_codes(3), random.Random(35), set()
    while len(seen) < 300:
        codes = list(range(8))
        rng.shuffle(codes)
        if tuple(codes) not in affine:
            seen.add(tuple(codes))
    for codes in sorted(seen):
        spec = EndomorphismSpec.from_permutation(Permutation(3, 2, codes))
        assert spec.perm.affine_form() is None, codes
        assert _leveled_sigma(spec) is None, codes
    assert Permutation.identity(2, 3).affine_form() is None
    assert Permutation.identity(1, 3).affine_form() is None


_WALSH_MULTIPLE = ((GaussianRational(Fraction(-1, 2), Fraction(1, 2)),) * 2,
                   (GaussianRational(Fraction(-1, 2), Fraction(1, 2)),
                    GaussianRational(Fraction(1, 2), Fraction(-1, 2))))


@pytest.mark.parametrize("name, general", [
    ("hadamard", False), ("walsh multiple", False), ("identity", True),
    ("non-symmetric", True), ("diagonal phase", True)])
def test_closed_form_runs_unless_v_is_walsh(name, general, monkeypatch):
    """sigma' = A^{-T} is read off the codes only when V, read at call
    time, is a multiple of [[1, 1], [1, -1]]: for V = I and the other
    Bogolubov matrices each of the 24 dynamics computes u'.  Either way
    the conjugate permutation is the one leveled off u'."""
    bogolubov = {**BOGOLUBOV, "walsh multiple": _WALSH_MULTIPLE,
                 "identity": ((_ONE, _ZERO), (_ZERO, _ONE))}
    if bogolubov[name] is not None:
        monkeypatch.setattr(product_masa, "V", bogolubov[name])
    calls = []
    conjugate = product_masa._conjugate_unitary
    monkeypatch.setattr(product_masa, "_conjugate_unitary",
                        lambda endo: calls.append(endo) or conjugate(endo))
    specs = all_rank2_specs()
    sigmas = [ProductMasaDynamics(spec).endo.perm for spec in specs]
    assert calls == (specs if general else [])
    calls.clear()
    assert sigmas == [_leveled_sigma(spec) for spec in specs]
