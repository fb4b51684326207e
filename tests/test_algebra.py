"""Core algebra: the isometry relations, leveling, equality, canonical
form, gauge structure, and agreement of the product with an independent
small-step word-rewriting oracle."""

import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import (AlgebraElement, AlphabetMismatchError, GaussianRational,
                      LevelError, Monomial, ef_projection, format_element,
                      theta, words)
from cuntzlab import algebra
from cuntzlab.sampling import random_element


def gen(i, n=2):
    return AlgebraElement.generator(n, i)


# ---------------------------------------------------------------- relations

@pytest.mark.parametrize("n", [2, 3, 4])
def test_cuntz_relations(n):
    one = AlgebraElement.one(n)
    gens = [gen(i, n) for i in range(1, n + 1)]
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            expected = one if i == j else AlgebraElement.zero(n)
            assert gi.adjoint() * gj == expected
    total = AlgebraElement.zero(n)
    for g in gens:
        total = total + g * g.adjoint()
    assert total == one


def test_monomial_product_rule():
    s1, s2 = gen(1), gen(2)
    assert s1.adjoint() * s1 == AlgebraElement.one(2)
    assert s1.adjoint() * s2 == AlgebraElement.zero(2)
    a = s1 * s2.adjoint()
    b = s2 * s1.adjoint()
    assert a * b == s1 * s1.adjoint()
    # |K| > |J| branch
    s12 = AlgebraElement.isometry(2, (1, 2))
    assert (s1 * s1.adjoint()) * s12 == s12
    assert (s1 * s2.adjoint()) * s12 == AlgebraElement.zero(2)


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        AlgebraElement.one(2) * AlgebraElement.one(3)
    with pytest.raises(AlphabetMismatchError):
        AlgebraElement.one(2) + AlgebraElement.one(3)
    # the public constructor checks outside input: letters and coefficients
    for bad in ((0,), (3,), (1, 3)):
        with pytest.raises(ValueError):
            AlgebraElement(2, {Monomial(bad, (1,)): 1})
        with pytest.raises(ValueError):
            AlgebraElement(2, {Monomial((1,), bad): 1})
    for coeff in (0.5, "1", None):
        with pytest.raises(TypeError):
            AlgebraElement(2, {Monomial((1,), (1,)): coeff})


# ---------------------------------------------------- word-rewriting oracle

def _to_symbols(mono):
    """Operator-order symbol string of s_I s_J^*."""
    return ([("s", c) for c in mono.left]
            + [("*", c) for c in reversed(mono.right)])


def _rewrite(symbols):
    """Small-step rule: adjacent (s_a^*, s_b) -> delta_ab."""
    syms = list(symbols)
    changed = True
    while changed:
        changed = False
        for i in range(len(syms) - 1):
            if syms[i][0] == "*" and syms[i + 1][0] == "s":
                if syms[i][1] != syms[i + 1][1]:
                    return None  # product is zero
                del syms[i:i + 2]
                changed = True
                break
    return syms


def _from_symbols(syms):
    split = 0
    while split < len(syms) and syms[split][0] == "s":
        split += 1
    left = tuple(c for _, c in syms[:split])
    right = tuple(reversed([c for _, c in syms[split:]]))
    return Monomial(left, right)


def oracle_product(a: Monomial, b: Monomial):
    syms = _rewrite(_to_symbols(a) + _to_symbols(b))
    return None if syms is None else _from_symbols(syms)


def all_monomials(max_len):
    out = []
    for p in range(max_len + 1):
        for l in range(max_len + 1):
            for left in words(2, p):
                for right in words(2, l):
                    out.append(Monomial(left, right))
    return out


def test_products_match_rewriting_oracle():
    monos = all_monomials(3)
    for ma in monos:
        ea = AlgebraElement(2, {ma: 1})
        for mb in monos:
            eb = AlgebraElement(2, {mb: 1})
            got = ea * eb
            want = oracle_product(ma, mb)
            if want is None:
                assert got.is_zero(), (ma, mb)
            else:
                assert got == AlgebraElement(2, {want: 1}), (ma, mb)


# ------------------------------------------------------- level and equality

def test_level_examples():
    one = AlgebraElement.one(2)
    s1 = gen(1)
    lev = one.level({0: 1})
    assert lev.terms == {
        Monomial((1,), (1,)): GaussianRational.of(1),
        Monomial((2,), (2,)): GaussianRational.of(1),
    }
    d = AlgebraElement.diagonal(2, (1,)).level({0: 2})
    assert set(d.terms) == {Monomial((1, 1), (1, 1)), Monomial((1, 2), (1, 2))}
    lifted = s1.level({1: 1})
    assert lifted == s1
    assert set(lifted.terms) == {Monomial((1, 1), (1,)), Monomial((1, 2), (2,))}


def test_level_error_and_equality():
    s11 = AlgebraElement.diagonal(2, (1, 1))
    with pytest.raises(LevelError):
        s11.level({0: 1})
    lhs = (AlgebraElement.diagonal(2, (1, 1)) + AlgebraElement.diagonal(2, (1, 2))
           + AlgebraElement.diagonal(2, (2,)))
    assert lhs == AlgebraElement.one(2)
    assert gen(1) * gen(2).adjoint() != gen(2) * gen(1).adjoint()


def test_canonical_contraction():
    one = AlgebraElement.one(2)
    lev = one.level({0: 3})
    assert len(lev.terms) == 8
    canon = lev.canonical()
    assert len(canon.terms) == 1
    assert canon == one
    # idempotent
    again = canon.canonical()
    assert again.terms == canon.terms


# --------------------------------------------------- gauge, trace, members

def test_gauge_components_and_expectation():
    s1 = gen(1)
    a = s1 + AlgebraElement.diagonal(2, (1,)).scaled(2)
    comps = a.gauge_components()
    assert set(comps) == {0, 1}
    assert comps[1] == s1
    assert a.expectation() == AlgebraElement.diagonal(2, (1,)).scaled(2)


def test_trace_state():
    assert AlgebraElement.one(2).trace_state() == GaussianRational.of(1)
    assert AlgebraElement.diagonal(2, (1,)).trace_state() == \
        GaussianRational.of(Fraction(1, 2))
    assert (gen(1) * gen(2).adjoint()).trace_state() == GaussianRational.of(0)


def test_trace_positivity(rng):
    for _ in range(30):
        a = random_element(rng)
        val = (a * a.adjoint()).trace_state()
        assert val.is_real() and val.re >= 0


# -- reference models: membership by reconstruction, contraction by rescans

def reference_in_F(a, p, l):
    """Level to one right length, rebuild the candidate sum of s_I s_J^*
    from the terms padded with 1s, and compare it with `a`."""
    if a.is_zero():
        return True
    d = p - l
    if any(m.degree != d for m in a.terms):
        return False
    big = max(l, a.max_right_length(d))
    lev = a.level({d: big})
    pad = (1,) * (big - l)
    cand = {}
    for m, c in lev.terms.items():
        if m.right[l:] == pad and m.left[p:] == pad:
            cand[Monomial(m.left[:p], m.right[:l])] = c
    return AlgebraElement(a.n_gens, cand) == a


def reference_canonical(a):
    """Level per gauge degree, then contract complete sibling groups with
    equal coefficients, rescanning every term until a round changes
    nothing."""
    targets = {d: a.max_right_length(d) for d in a.degrees()}
    cur = dict(a.level(targets).terms)
    n = a.n_gens
    changed = True
    while changed:
        changed = False
        groups = {}
        for m, c in cur.items():
            if m.left and m.right and m.left[-1] == m.right[-1]:
                groups.setdefault((m.left[:-1], m.right[:-1]), {})[m.left[-1]] = c
        order = sorted(
            groups.items(),
            key=lambda kv: (len(kv[0][0]) - len(kv[0][1]), kv[0][1], kv[0][0]),
        )
        for (left, right), sibs in order:
            if len(sibs) != n:
                continue
            coeffs = list(sibs.values())
            if any(c != coeffs[0] for c in coeffs[1:]):
                continue
            keys = [Monomial(left + (i,), right + (i,)) for i in range(1, n + 1)]
            if not all(cur.get(k) == coeffs[0] for k in keys):
                continue
            for k in keys:
                del cur[k]
            merged = Monomial(left, right)
            acc = cur.get(merged)
            s = coeffs[0] if acc is None else acc + coeffs[0]
            if s:
                cur[merged] = s
            elif acc is not None:
                del cur[merged]
            changed = True
    return AlgebraElement(n, cur)


def check_against_references(a):
    """in_F for p, l <= 5 and canonical of `a` and of each of its gauge
    components (which can lie in some F_{p,l}) agree with the models."""
    for x in [a, *a.gauge_components().values()]:
        for p in range(6):
            for l in range(6):
                assert x.in_F(p, l) == reference_in_F(x, p, l), (x, p, l)
        assert dict(x.canonical().terms) == dict(reference_canonical(x).terms), x


def test_membership_predicates():
    s1 = gen(1)
    assert (s1 * s1.adjoint()).in_A(1, 1)
    assert not AlgebraElement.one(2).in_A(1, 1)
    one = AlgebraElement.one(2)
    assert one.in_F(1, 1) and one.in_F(2, 2)
    assert not s1.in_F(1, 1)
    assert s1.in_F(1, 0) and s1.in_F(2, 1)
    mixed = s1 * gen(2).adjoint() + one
    assert mixed.in_F(1, 1)
    assert not mixed.in_F(1, 0)


# ------------------------------------------------------ property-based laws

small_words = st.lists(st.integers(1, 2), max_size=4).map(tuple)
coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
elements = st.dictionaries(
    st.builds(Monomial, small_words, small_words), coeffs, max_size=6
).map(lambda terms: AlgebraElement(2, terms))


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_associativity_and_distributivity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_adjoint_laws(a, b):
    assert a.adjoint().adjoint() == a
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()
    assert (a + b).adjoint() == a.adjoint() + b.adjoint()


@settings(max_examples=40, deadline=None)
@given(elements)
def test_level_preserves_equality(a):
    targets = {d: a.max_right_length(d) + 1 for d in a.degrees()}
    assert a.level(targets) == a
    assert a.canonical() == a
    check_against_references(a)


def test_in_F_and_canonical_match_references_n3():
    rng = random.Random(3)
    for _ in range(40):
        check_against_references(random_element(rng, 3, max_terms=6, max_len=3))


def sum_of(n, terms):
    return AlgebraElement(n, {Monomial(left, right): c for left, right, c in terms})


def test_membership_and_contraction_edge_cases():
    # an incomplete sibling group: two of the three tails of s_1 s_1^*
    part = sum_of(3, [((1, 1), (1, 1), 1), ((1, 2), (1, 2), 1)])
    assert not part.in_F(1, 1) and part.in_F(2, 2)
    assert part.canonical().terms == part.terms
    # unequal siblings
    uneven = sum_of(2, [((1, 1), (1, 1), 1), ((1, 2), (1, 2), 2)])
    assert not uneven.in_F(1, 1) and uneven.in_F(2, 2)
    assert uneven.canonical().terms == uneven.terms
    # every (I, J) = (1, 1) has both tails, but with W1 != W2
    crossed = sum_of(2, [((1, 1), (1, 2), 1), ((1, 2), (1, 1), 1)])
    assert not crossed.in_F(1, 1) and crossed.in_F(2, 2)
    assert crossed.canonical().terms == crossed.terms
    # a complete group with equal coefficients contracts, in any degree
    full = sum_of(2, [((1, 1), (1, 1), 3), ((1, 2), (1, 2), 3)])
    assert full.in_F(1, 1) and not full.in_F(0, 0)
    assert full.canonical().terms == {Monomial((1,), (1,)): GaussianRational.of(3)}
    lifted = sum_of(2, [((2, 1, 1), (1,), 1), ((2, 1, 2), (2,), 1)])
    assert lifted.in_F(2, 0) and not lifted.in_F(1, 0)
    assert set(lifted.canonical().terms) == {Monomial((2, 1), ())}
    # gap 0: leveling to the current length, or for a degree left out of
    # the targets, keeps the terms; membership needs no padding
    mixed = sum_of(2, [((1, 2), (2, 1), 1), ((2,), (), 5)])
    assert mixed.level({0: 2}).terms == mixed.terms
    assert mixed.level({}).terms == mixed.terms
    assert mixed.level({1: 0}).terms == mixed.terms
    top = mixed.expectation()
    assert top.in_F(2, 2) and not top.in_F(1, 1) and top.in_F(3, 3)
    for x in (part, uneven, crossed, full, lifted, mixed, top):
        check_against_references(x)


# ------------------------------------------------- dense degree-0 kernel

@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the products, comparisons, sums, adjoints and trace states
    the dense kernel handled."""
    calls = {"mul": 0, "eq": 0, "add": 0, "adjoint": 0, "trace": 0}
    for name in calls:
        original = getattr(algebra, f"_dense_{name}")

        def spy(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(algebra, f"_dense_{name}", spy)
    return calls


def _random_degree0(rng, n, m, size, coeff):
    """`size` distinct degree-0 monomials with words of length <= m (one of
    them of length m), each with a nonzero coefficient from `coeff(rng)`."""
    monos = [Monomial(left, right) for r in range(m)
             for left in words(n, r) for right in words(n, r)]
    top = [Monomial(left, right) for left in words(n, m) for right in words(n, m)]
    picked = [rng.choice(top)] + rng.sample(monos + top, size - 1)
    while len(set(picked)) < size:
        picked = [rng.choice(top)] + rng.sample(monos + top, size - 1)
    terms = {}
    for mono in picked:
        c = coeff(rng)
        while not c:
            c = coeff(rng)
        terms[mono] = c
    return AlgebraElement(n, terms)


def _small_complex(rng):
    # non-dyadic denominators, so the common denominator is not a power of 2
    return GaussianRational(Fraction(rng.randint(-9, 9), rng.choice((1, 3, 5, 7))),
                            Fraction(rng.randint(-9, 9), rng.choice((1, 3, 7))))


def _check_against_reference(a, b, m, rng, sparse_reference):
    """a * b through the router against the sparse product, and equality
    against the product and against copies that differ in one entry."""
    got = a * b
    with sparse_reference():
        want = a * b
        assert got == want
        i, j = (rng.choice(list(words(a.n_gens, m))) for _ in range(2))
        bumps = [want + AlgebraElement.monomial(a.n_gens, i, j, eps)
                 for eps in (Fraction(1, 7), GaussianRational(0, Fraction(-2, 5)))]
        assert all(not (got == bumped) for bumped in bumps)
        sparse_text = format_element(want)
    assert got == want and want == got
    assert all(not (got == bumped) and not (bumped == want) for bumped in bumps)
    assert format_element(got) == sparse_text


# (N, level, |a|, |b|, product on the kernel?, comparisons on the kernel?)
# (2, 3, 12, 12) is the level-3 product of the E/F projection chain: 2^9
# MACs against 144 term pairs; (2, 4, 30, 34) is just under the work bound,
# 2^12 > 4 * 1020, with the storage and call-cost bounds met (its products
# have enough terms for the comparisons to go dense).
KERNEL_CASES = [
    (2, 2, 12, 12, True, False), (2, 4, 100, 120, True, True),
    (3, 2, 60, 60, True, True), (2, 3, 12, 12, True, False),
    (2, 2, 8, 8, False, False), (2, 3, 4, 5, False, False),
    (3, 2, 4, 10, False, False), (2, 4, 30, 34, False, True),
]


@pytest.mark.parametrize("n, m, size_a, size_b, dense, dense_eq", KERNEL_CASES)
def test_dense_kernel_matches_sparse_reference(n, m, size_a, size_b, dense,
                                               dense_eq, kernel_calls,
                                               sparse_reference):
    rng = random.Random(1000 * n + 10 * m + size_a)
    for _ in range(4):
        a = _random_degree0(rng, n, m, size_a, _small_complex)
        b = _random_degree0(rng, n, m, size_b, _small_complex)
        assert (algebra._dense_mul_level(a, b) is not None) == dense
        _check_against_reference(a, b, m, rng, sparse_reference)
        # a mixed-degree operand always takes the sparse rule
        assert algebra._dense_mul_level(a + AlgebraElement.generator(n, 1), b) is None
    assert (kernel_calls["mul"] > 0) == dense
    assert (kernel_calls["eq"] > 0) == dense_eq


def _big_complex(rng):
    return GaussianRational(Fraction(2 ** 40 + rng.randint(0, 999), 3),
                            Fraction(-2 ** 40 - rng.randint(0, 999), 7))


def test_dense_kernel_python_int_fallback(kernel_calls, sparse_reference):
    rng = random.Random(2 ** 40)
    # numerators near 2^40: every product entry overflows int64
    a = _random_degree0(rng, 2, 2, 12, _big_complex)
    b = _random_degree0(rng, 2, 2, 12, _big_complex)
    _check_against_reference(a, b, 2, rng, sparse_reference)
    # every level-3 entry near 2^30.6: a product of two entries fits in
    # int64, a sum of 2^3 of them does not
    a, b = (AlgebraElement(2, {Monomial(i, j): 3 * 2 ** 29 + rng.randint(0, 99)
                               for i in words(2, 3) for j in words(2, 3)})
            for _ in range(2))
    _check_against_reference(a, b, 3, rng, sparse_reference)
    assert kernel_calls["mul"] == 2


def test_sparse_high_level_product_stays_sparse(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("dense matrix allocated")

    monkeypatch.setattr(algebra, "_dense", no_matrix)
    p = AlgebraElement.diagonal(2, (1,) * 20)
    assert algebra._dense_mul_level(p, p) is None
    assert p * p == p
    # enough terms to pay for a kernel call, but 2^40 entries at level 20
    rng = random.Random(20)
    cylinders = {tuple(rng.randint(1, 2) for _ in range(20)) for _ in range(200)}
    q = AlgebraElement(2, {Monomial(w, w): 1 for w in cylinders})
    assert algebra._dense_mul_level(q, q) is None
    assert q * q == q.level({0: 21})


# --------------------------------------------- kernel memo and lazy terms

def _lazy_product(a, b):
    """a * b through the kernel, with its terms not yet built."""
    out = a * b
    assert algebra._built_terms(out) is None
    assert algebra._shapes(out) == {(out._matrix[0],) * 2}
    return out


def test_lazy_kernel_product_matches_sparse_term_for_term(sparse_reference):
    rng = random.Random(41)
    a = _random_degree0(rng, 2, 4, 100, _small_complex)
    b = _random_degree0(rng, 2, 4, 120, _small_complex)
    extra = _random_degree0(rng, 2, 3, 20, _small_complex)
    with sparse_reference():
        want = a * b
    want_leveled = want.level({0: 4})
    got = _lazy_product(a, b)
    assert algebra._size(got) == len(want_leveled.terms)
    assert got.terms == want_leveled.terms
    assert format_element(_lazy_product(a, b)) == format_element(want)
    ops = (lambda x: x + extra, lambda x: extra + x,
           lambda x: x.adjoint(), lambda x: x.level({0: 5}))
    lazy = [_lazy_product(a, b) for _ in ops]
    with sparse_reference():
        for op, x in zip(ops, lazy):
            assert op(x).terms == op(want_leveled).terms
    for p in (3, 4, 5):
        assert _lazy_product(a, b).in_F(p, p) == want.in_F(p, p)


def test_lazy_kernel_product_shares_equal_coefficients():
    p = ef_projection((1, 2, 2, 1, 2))
    values = list(_lazy_product(p, p).terms.values())
    assert len(values) == 2 ** 10
    assert len({id(c) for c in values}) == len(set(values)) == 2


def _same_value_new_denominator(x, den):
    """x plus c s_w s_w^* minus c (s_w1 s_w1^* + s_w2 s_w2^*), c = 1/den:
    the same element, with den in its common denominator."""
    w = (1,) * (x.max_right_length(0) - 1)
    c = Fraction(1, den)
    return (x + AlgebraElement.diagonal(2, w).scaled(c)
            - AlgebraElement.diagonal(2, w + (1,)).scaled(c)
            - AlgebraElement.diagonal(2, w + (2,)).scaled(c))


def _huge_complex(rng):
    # about 2^54: a sum of 100 numerators fits in int64, one times 1009 not
    return GaussianRational(Fraction(2 ** 54 + rng.randint(0, 999), 3),
                            Fraction(-2 ** 54 - rng.randint(0, 999), 3))


@pytest.mark.parametrize("coeff", [_small_complex, _huge_complex])
def test_dense_eq_across_denominators(coeff, kernel_calls, sparse_reference):
    rng = random.Random(1009)
    x = _random_degree0(rng, 2, 4, 100, coeff)
    y = _same_value_new_denominator(x, 1009)
    assert x.terms != y.terms
    x_re, _, x_den = algebra._degree0_matrix(x, 4)[1:4]
    _, _, y_den = algebra._degree0_matrix(y, 4)[1:4]
    assert y_den == 1009 * x_den
    if coeff is _huge_complex:
        assert x_re.dtype == np.int64 and algebra._max_abs(x_re) * 1009 > 2 ** 63
    bumped = y + AlgebraElement.monomial(2, (2,) * 4, (1,) * 4, Fraction(1, 1009))
    calls = kernel_calls["eq"]
    assert x == y and y == x
    assert not (x == bumped) and not (bumped == x)
    assert kernel_calls["eq"] == calls + 4
    with sparse_reference():
        assert x == y and not (x == bumped)


def test_memo_at_one_level_answers_at_a_higher_level(kernel_calls,
                                                     sparse_reference):
    rng = random.Random(3)
    a = _random_degree0(rng, 2, 3, 60, _small_complex)
    b = _random_degree0(rng, 2, 3, 60, _small_complex)
    with sparse_reference():
        want = (a * b).level({0: 4})
    got = _lazy_product(a, b)  # memos of a, b and got at level 3
    assert got._matrix[0] == 3 and a._matrix[0] == 3
    calls = kernel_calls["eq"]
    # equal at level 4, and unequal after one level-4 entry changes
    bumped = want + AlgebraElement.monomial(2, (1, 2, 1, 2), (2, 1, 2, 1), 1)
    assert got == want and not (got == bumped)
    assert a == a.level({0: 4}) and not (a == a.level({0: 4}) + bumped - want)
    assert kernel_calls["eq"] == calls + 4
    assert got._matrix[0] == 4 and a._matrix[0] == 4


# ------------------------------------------ operations on held matrices

def _held_pair(seed, m_a=3, m_b=3):
    """Kernel products x = a b at level m_a and y = c d at level m_b with
    complex coefficients over different denominators, and their sparse
    references."""
    rng = random.Random(seed)
    ops = [_random_degree0(rng, 2, m, 60, _small_complex)
           for m in (m_a, m_a, m_b, m_b)]
    ops[2] = ops[2].scaled(Fraction(1, 11))
    x, y = _lazy_product(*ops[:2]), _lazy_product(*ops[2:])
    assert x._matrix[3] != y._matrix[3]
    return x, y, ops


def test_held_matrix_releveled_by_kronecker_product(kernel_calls,
                                                    sparse_reference):
    x, y, (a, b, c, d) = _held_pair(5, 3, 4)
    with sparse_reference():
        want_x, want_y = a * b, c * d
    # x's level-3 memo answers at level 5 with no terms built
    re, im, den = algebra._degree0_matrix(x, 5)[1:4]
    want_re, want_im, want_den = algebra._degree0_matrix(want_x, 5)[1:4]
    assert den == want_den == x._matrix[3] and x._matrix[0] == 5
    assert np.array_equal(re, want_re) and np.array_equal(im, want_im)
    # and the level-5 memo answers at level 3 and 4, again exactly
    for m in (3, 4):
        got_re, got_im, _ = algebra._degree0_matrix(x, m)[1:4]
        want_re, want_im, _ = algebra._degree0_matrix(want_x.level({0: m}), m)[1:4]
        assert np.array_equal(got_re, want_re) and np.array_equal(got_im, want_im)
    # x still reads as made: its size, adjoint and terms are at level 3
    assert algebra._built_terms(x) is None and algebra._shapes(x) == {(3, 3)}
    want_x = want_x.level({0: 3})
    assert algebra._size(x) == len(want_x.terms)
    with sparse_reference():
        want_adjoint = want_x.adjoint()
    assert x.adjoint().terms == want_adjoint.terms
    assert x.terms == want_x.terms and x._matrix[0] == 5
    # a level-3 operand times a level-4 one: a level-4 kernel product
    x, y, _ = _held_pair(5, 3, 4)
    calls = kernel_calls["mul"]
    got = x * y
    assert kernel_calls["mul"] == calls + 1 and got._matrix[0] == 4
    assert algebra._built_terms(x) is None and x._matrix[0] == 4
    with sparse_reference():
        want = want_x * want_y
    assert got.terms == want.level({0: 4}).terms
    assert x.terms == want_x.terms and algebra._shapes(x) == {(3, 3)}


def test_held_adjoint_is_the_conjugate_transpose(kernel_calls,
                                                 sparse_reference):
    x, _, (a, b, _, _) = _held_pair(6)
    with sparse_reference():
        want = (a * b).adjoint()
    got = x.adjoint()
    assert kernel_calls["adjoint"] == 1
    assert algebra._built_terms(got) is None and algebra._built_terms(x) is None
    assert got.terms == want.level({0: 3}).terms
    assert format_element(got) == format_element(want)
    # the adjoint of the adjoint is x again, and a Hermitian square
    assert got.adjoint() == x and not (got == x)
    h = x * got
    assert h.adjoint() == h


def test_held_sum_matches_sparse_sum(kernel_calls, sparse_reference):
    x, y, (a, b, c, d) = _held_pair(7, 3, 4)
    with sparse_reference():
        want = a * b + c * d
    got = x + y
    assert kernel_calls["add"] == 1 and algebra._built_terms(got) is None
    assert got._matrix[0] == 4 and algebra._built_terms(x) is None
    assert got.terms == want.level({0: 4}).terms
    # lowest terms: the lcm of the reduced denominators of the entries
    assert got._matrix[3] == lcm(*{v._d for v in want.terms.values()})
    assert format_element(y + x) == format_element(want)
    # a sum that cancels is the empty element
    neg = _lazy_product(a.scaled(-1), b)
    zero = x + neg
    assert algebra._built_terms(zero) == {} and zero == AlgebraElement.zero(2)
    # adding the zero element builds no terms
    empty = AlgebraElement.zero(2)
    assert empty + y is y and y + empty is y and zero + y is y
    assert algebra._built_terms(y) is None
    assert kernel_calls["add"] == 3
    # an element with built terms takes the sparse sum, matrix or not
    one = AlgebraElement.one(2)
    algebra._degree0_matrix(one, 4)
    got = y + one
    assert kernel_calls["add"] == 3 and algebra._built_terms(got) is not None
    with sparse_reference():
        want = y + one
    assert got.terms == want.terms


def test_held_sum_promotes_to_python_ints(kernel_calls, sparse_reference):
    # a level-2 kernel product whose entries reach 4 big = 2^61 + 4, inside
    # int64: all of a but its row (2, 2) times all of b but its column (2, 2)
    big = 2 ** 59 + 1
    ws = list(words(2, 2))
    a = AlgebraElement(2, {Monomial(i, j): big for i in ws[:3] for j in ws})
    b = AlgebraElement(2, {Monomial(i, j): 1 for i in ws for j in ws[:3]})
    x = _lazy_product(a, b)
    assert x._matrix[1].dtype == np.int64
    twice = x + x  # 2^62 + 8 still fits
    assert twice._matrix[1].dtype == np.int64
    got = twice + twice  # 2^63 + 16 does not
    assert kernel_calls["add"] == 2 and algebra._built_terms(got) is None
    assert got._matrix[1].dtype == object
    with sparse_reference():
        want = a * b
        want = want + want + want + want
    assert got.terms == want.terms
    assert got.terms[Monomial((1, 1), (1, 1))] == 4 * 4 * big


def test_held_trace_state_reads_the_matrix(kernel_calls, sparse_reference):
    x, y, (a, b, c, d) = _held_pair(8, 3, 4)
    with sparse_reference():
        want_x, want_y = (a * b).trace_state(), (c * d).trace_state()
    assert x.trace_state() == want_x and (x + y).trace_state() == want_x + want_y
    assert want_x.im and want_x._d > 8
    assert kernel_calls["trace"] == 2 and algebra._built_terms(x) is None
    # with its terms built, an element takes the sparse sum
    y.terms
    assert y.trace_state() == want_y and kernel_calls["trace"] == 2


# (N, level, |a|, |b|, coefficients): theta of the kernel product a b
THETA_CASES = [(2, 3, 60, 60, _small_complex), (3, 2, 60, 60, _small_complex),
               (2, 2, 12, 12, _big_complex)]


@pytest.mark.parametrize("n, m, size_a, size_b, coeff", THETA_CASES)
def test_held_theta_matches_theta_of_built_terms(n, m, size_a, size_b, coeff):
    rng = random.Random(100 * n + m)
    for _ in range(3):
        x = _lazy_product(_random_degree0(rng, n, m, size_a, coeff),
                          _random_degree0(rng, n, m, size_b, coeff))
        got = theta(x)
        # kron(I_N, M) one level up, with no terms built on either side
        assert algebra._built_terms(got) is None and algebra._built_terms(x) is None
        assert algebra._shapes(got) == {(m + 1, m + 1)}
        assert algebra._size(got) == n * algebra._size(x)
        x.terms  # from here on theta rewrites x's words
        want = theta(x)
        assert algebra._built_terms(want) is not None
        assert got.terms == want.terms
        assert got == want and theta(got) == theta(want)
    if coeff is _big_complex:
        assert x._matrix.re.dtype == object and not x._matrix.real


def test_theta_past_the_storage_bound_rewrites_words():
    # one nonzero entry at level 3: its level-4 image would hold 2^8
    # entries for 2 terms
    p = AlgebraElement.diagonal(2, (1, 2, 1))
    x = algebra._held_element(2, algebra._dense(p, 3))
    got = theta(x)
    assert algebra._built_terms(got) is not None
    assert got.terms == theta(p).terms


def test_sparse_reference_uses_no_kernel_operation(kernel_calls,
                                                   sparse_reference):
    def run_ops(x, y):
        # theta first, while x holds no terms
        return [theta(x), x * y, x + y, x.adjoint(), x == y, x.trace_state(),
                x.adjoint() * x == x * x.adjoint()]

    x, y, _ = _held_pair(9, 3, 4)
    before = dict(kernel_calls)
    with sparse_reference():
        want = run_ops(x, y)
    assert kernel_calls == before
    assert all(algebra._built_terms(r) is not None
               for r in want if isinstance(r, AlgebraElement))
    x, y, _ = _held_pair(9, 3, 4)
    before = dict(kernel_calls)
    assert run_ops(x, y) == want
    assert all(kernel_calls[op] > before[op] for op in before), kernel_calls


def test_ef_projection_is_built_on_the_kernel(kernel_calls, sparse_reference):
    for q in itertools.product((1, 2), repeat=5):
        calls = kernel_calls["mul"]
        p = ef_projection(q)
        assert algebra._built_terms(p) is None, q
        assert kernel_calls["mul"] - calls >= 3, q
        with sparse_reference():
            want = ef_projection(q)
        assert p.terms == want.level({0: 5}).terms, q


def test_kernel_product_of_int64_and_object_operands(kernel_calls,
                                                     sparse_reference):
    rng = random.Random(12)
    top = [Monomial(i, j) for i in words(2, 4) for j in words(2, 4)]
    picked = rng.sample(top, 220)
    # a's unit numerators stay in int64; b's sum past it, so b is densified
    # in Python ints, while max|a| max|b| 2 N^4 = 2^62 needs no promotion
    a = AlgebraElement(2, {mono: GaussianRational(rng.choice((-1, 0, 1)),
                                                  rng.choice((-1, 1)))
                           for mono in picked[:100]})
    b = AlgebraElement(2, {mono: 2 ** 57 - k for k, mono in enumerate(picked[100:])})
    assert algebra._degree0_matrix(a, 4).re.dtype == np.int64
    assert algebra._degree0_matrix(b, 4).re.dtype == object
    with sparse_reference():
        want = [a * b, b * a, b.adjoint() * a]
    got = [a * b, b * a, b.adjoint() * a]
    assert kernel_calls["mul"] == 3
    for x, y in zip(got, want):
        assert x.terms == y.level({0: 4}).terms
