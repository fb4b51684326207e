"""Core algebra: the isometry relations, leveling, equality, canonical
form, gauge structure, and agreement of the product with an independent
small-step word-rewriting oracle."""

import inspect
import itertools
import random
import re
import textwrap
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import (AlgebraElement, AlphabetMismatchError, BudgetExceededError,
                      GaussianRational, LevelError, Monomial, ef_projection,
                      format_element, theta, words)
from cuntzlab import algebra, product_masa
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


def test_scalar_on_the_left():
    """`2 - a`, `3 * a` and `Fraction(1, 2) * a` reach `__rsub__` and
    `__rmul__`; each prints as the element it should be."""
    a = gen(1, 2) * gen(2, 2) * gen(1, 2).adjoint() - gen(1).scaled(Fraction(3, 4))
    assert repr(2 - a) == "AlgebraElement(N=2, 2 + 3/4 * s[1] - s[12] t[1])"
    assert repr(3 * a) == "AlgebraElement(N=2, -9/4 * s[1] + 3 * s[12] t[1])"
    assert (repr(Fraction(1, 2) * a)
            == "AlgebraElement(N=2, -3/8 * s[1] + 1/2 * s[12] t[1])")


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


def reference_level(a, targets):
    """The padding loop on every term, with no scan first: the term dict
    of `a` leveled to `targets`."""
    out = {}
    for mono, c in a.terms.items():
        t = targets.get(mono.degree, len(mono.right))
        gap = t - len(mono.right)
        if gap < 0:
            raise LevelError(
                f"target right-length {t} below current {len(mono.right)} "
                f"in degree {mono.degree}"
            )
        for w in words(a.n_gens, gap):
            key = Monomial(mono.left + w, mono.right + w)
            s = out.get(key, GaussianRational()) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


@st.composite
def elements_and_targets(draw):
    """An element over N = 2..4 with mixed degrees and right lengths, and
    per degree a target from one below its longest right word to two
    above it, or no target."""
    n = draw(st.integers(2, 4))
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    terms = draw(st.dictionaries(st.builds(Monomial, word, word), coeffs,
                                 max_size=6))
    a = AlgebraElement(n, terms)
    targets = {}
    for d in sorted(a.degrees()):
        offset = draw(st.sampled_from([None, -1, 0, 0, 1, 2]))
        if offset is not None:
            targets[d] = max(0, a.max_right_length(d) + offset)
    return a, targets


@settings(max_examples=150, deadline=None)
@given(elements_and_targets())
def test_level_matches_reference_and_returns_level_input(case):
    a, targets = case
    try:
        want = reference_level(a, targets)
    except LevelError as exc:
        with pytest.raises(LevelError, match=re.escape(str(exc))):
            a.level(targets)
        return
    got = a.level(targets)
    assert got.terms == want
    level = all(targets.get(m.degree, len(m.right)) == len(m.right)
                for m in a.terms)
    assert (got is a) == level


def test_level_error_below_one_term_among_level_ones():
    # the first two terms already sit at the targets; the third is longer
    a = sum_of(2, [((1,), (1,), 1), ((2,), (), 3), ((1, 2), (2, 1), 2)])
    with pytest.raises(LevelError, match="below current 2 in degree 0"):
        a.level({0: 1, 1: 0})
    with pytest.raises(LevelError, match="below current 0 in degree 1"):
        sum_of(2, [((2,), (), 3)]).level({1: -1})
    assert a.level({0: 2}).terms == reference_level(a, {0: 2})


def test_level_refuses_an_exponential_padding():
    """A padding to more than DEFAULT_BUDGET terms raises before it makes
    any: 1 against a cylinder of 40 letters would level 1 to 2^40 terms."""
    with pytest.raises(BudgetExceededError, match="budget"):
        AlgebraElement.one(2) == AlgebraElement.diagonal(2, (1,) * 40)
    with pytest.raises(BudgetExceededError, match=f"makes {2 ** 40 + 1} terms"):
        (AlgebraElement.one(2) + AlgebraElement.diagonal(2, (2,) * 40)).level({0: 40})


def test_level_takes_the_callers_budget():
    # leveling 1 + s_2 s_2^* to right length 10 makes 2^10 + 2^9 terms
    x = AlgebraElement.one(2) + AlgebraElement.diagonal(2, (2,))
    with pytest.raises(BudgetExceededError, match="makes 1536 terms, budget 1535"):
        x.level({0: 10}, 1535)
    assert x.level({0: 10}, 1536).terms == reference_level(x, {0: 10})


def test_readers_leave_a_level_element_alone():
    """canonical, in_F and == on an element already level share its term
    dict through `level` and leave it as it was."""
    x = AlgebraElement.one(3).level({0: 2}) + sum_of(
        3, [((1, 2), (3, 1), Fraction(1, 2)), ((2, 2), (2, 2), 1)])
    before = dict(x.terms)
    assert x.level({0: 2}) is x
    canon = x.canonical()
    assert canon.terms != before and canon == x
    assert not x.in_F(1, 1) and x.in_F(2, 2)
    assert x == x.level({0: 3}) and x.level({0: 3}) == x
    assert x != AlgebraElement.one(3)
    assert dict(x.terms) == before


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
    # the off-degree term comes after the longest right word in key order
    late = sum_of(2, [((1, 1), (1, 1), 1), ((1,), (), 1)])
    assert [len(m.right) for m in late.terms] == [2, 0]
    assert not late.in_F(2, 2) and not late.in_F(1, 1)
    zero = AlgebraElement.zero(2)
    assert zero.in_F(0, 0) and zero.in_F(3, 1)
    exact = sum_of(2, [((1, 2), (2,), 1), ((2, 2), (1,), 3)])
    assert exact.in_F(2, 1) and not exact.in_F(1, 0)
    # s_1 s_1^* reaches F_{2,2} only leveled to s_11 s_11^* + s_12 s_12^*
    assert (s1 * s1.adjoint()).in_F(2, 2)
    for x in (late, zero, exact):
        check_against_references(x)


def _in_F_mutant(name):
    """`in_F` with its one scan of the keys cut short: `big_first` takes
    the leveling target from the first key only, `degree_first` checks
    the degree of the first key only."""
    def in_F(self, p, l):
        d = p - l
        big = l
        for i, (left, right) in enumerate(self._terms):
            if (i == 0 or name != "degree_first") and len(left) - len(right) != d:
                return False
            if i == 0 or name != "big_first":
                big = max(big, len(right))
        lev = self.level({d: big})._terms
        coeffs = {}
        for m, c in lev.items():
            if m.left[p:] != m.right[l:]:
                return False
            if coeffs.setdefault((m.left[:p], m.right[:l]), c) != c:
                return False
        return len(lev) == len(coeffs) * self.n_gens ** (big - l)
    return in_F


@pytest.mark.parametrize("name", ["big_first", "degree_first"])
def test_references_kill_in_F_mutants(monkeypatch, name):
    # the longest right word, and an off-degree term, after the first key
    x = sum_of(2, [((1,), (1,), 1), ((1, 1), (1, 1), 1), ((1,), (), 1)])
    check_against_references(x)
    monkeypatch.setattr(AlgebraElement, "in_F", _in_F_mutant(name))
    with pytest.raises((AssertionError, LevelError)):
        check_against_references(x)


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


def _source_mutant(name, old, new):
    """The method `name` of AlgebraElement with the text `old` of its
    source replaced by `new`, compiled in the module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(AlgebraElement, name)))
    assert source.count(old) == 1, (name, old)
    namespace = {}
    exec(source.replace(old, new), vars(algebra), namespace)
    return namespace[name]


def _equal_distinct_coefficients():
    # `full` of the edge cases: equal siblings held by distinct objects
    full = sum_of(2, [((1, 1), (1, 1), 3), ((1, 2), (1, 2), 3)])
    first, second = full.terms.values()
    assert first == second and first is not second
    return full


def test_edge_cases_kill_an_identity_only_canonical(monkeypatch):
    _equal_distinct_coefficients()
    monkeypatch.setattr(AlgebraElement, "canonical", _source_mutant(
        "canonical", "sibs.count(sibs[0]) == n", "all(c is sibs[0] for c in sibs)"))
    with pytest.raises(AssertionError):
        test_membership_and_contraction_edge_cases()


def test_references_kill_an_identity_only_in_F(monkeypatch):
    full = _equal_distinct_coefficients()
    check_against_references(full)
    monkeypatch.setattr(AlgebraElement, "in_F", _source_mutant(
        "in_F", "got is not c and got != c", "got is not c"))
    with pytest.raises(AssertionError):
        check_against_references(full)


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


def _small_rational(rng):
    # non-dyadic denominators, so the common denominator is not a power of 2
    return Fraction(rng.randint(-9, 9), rng.choice((1, 3, 5, 7)))


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


# (N, level, |a|, |b|, hold a?, hold b?): a * b with the marked operands
# handed to the kernel by _hold, which keeps an operand as it is when its
# level-m matrix would hold more than _DENSE_ENTRIES_PER_TERM entries per
# term: the 12-term level-3 a of (2, 3, 12, 12) and the 34-term level-4 b
# of (2, 4, 30, 34) stay term elements.  Two operands with terms take the
# sparse rule whatever their sizes.
KERNEL_CASES = [
    (2, 2, 12, 12, True, False), (2, 4, 100, 120, True, True),
    (3, 2, 60, 60, True, True), (2, 3, 12, 12, True, False),
    (2, 2, 8, 8, False, False), (2, 3, 4, 5, False, False),
    (3, 2, 4, 10, False, False), (2, 4, 30, 34, False, True),
]


@pytest.mark.parametrize("n, m, size_a, size_b, hold_a, hold_b", KERNEL_CASES)
def test_dense_kernel_matches_sparse_reference(n, m, size_a, size_b, hold_a,
                                               hold_b, kernel_calls,
                                               sparse_reference):
    rng = random.Random(1000 * n + 10 * m + size_a)
    held = any(hold and n ** (2 * m) <= algebra._DENSE_ENTRIES_PER_TERM * size
               for size, hold in ((size_a, hold_a), (size_b, hold_b)))
    for _ in range(4):
        a = _random_degree0(rng, n, m, size_a, _small_rational)
        b = _random_degree0(rng, n, m, size_b, _small_rational)
        assert algebra._dense_mul_level(a, b) is None
        a = algebra._hold(a) if hold_a else a
        b = algebra._hold(b) if hold_b else b
        assert (algebra._unbuilt(a) or algebra._unbuilt(b)) == held
        assert (algebra._dense_mul_level(a, b) is not None) == held
        # a mixed-degree operand always takes the sparse rule
        assert algebra._dense_mul_level(a, AlgebraElement.generator(n, 1)) is None
        assert algebra._dense_mul_level(AlgebraElement.generator(n, 1), b) is None
        _check_against_reference(a, b, m, rng, sparse_reference)
    assert (kernel_calls["mul"] > 0) == held


def _big_rational(rng):
    return Fraction(rng.choice((1, -1)) * (2 ** 40 + rng.randint(0, 999)),
                    rng.choice((3, 7)))


def test_dense_kernel_python_int_fallback(kernel_calls, sparse_reference):
    """A held product whose float64 partial sums could be inexact takes the
    sparse rule, over Python ints, and matches the sparse reference."""
    rng = random.Random(2 ** 40)
    # numerators near 2^40: every product entry overflows int64
    a = _random_degree0(rng, 2, 2, 12, _big_rational)
    b = _random_degree0(rng, 2, 2, 12, _big_rational)
    _check_against_reference(algebra._hold(a), b, 2, rng, sparse_reference)
    # every level-3 entry near 2^30.6: a product of two entries is exact in
    # float64, a sum of 2^3 of them need not be
    a, b = (AlgebraElement(2, {Monomial(i, j): 3 * 2 ** 29 + rng.randint(0, 99)
                               for i in words(2, 3) for j in words(2, 3)})
            for _ in range(2))
    _check_against_reference(algebra._hold(a), b, 3, rng, sparse_reference)
    assert kernel_calls["mul"] == 2
    assert not isinstance(algebra._hold(a) * b, algebra._KernelElement)


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


def test_term_operands_stay_sparse_and_held_ones_stay_dense(monkeypatch,
                                                            kernel_calls):
    rng = random.Random(44)
    a = _random_degree0(rng, 2, 4, 100, _small_rational)
    b = _random_degree0(rng, 2, 4, 120, _small_rational)
    c = _random_degree0(rng, 2, 4, 30, _small_rational)
    d = _random_degree0(rng, 2, 4, 34, _small_rational)

    def no_matrix(*args):
        raise AssertionError("dense matrix allocated")

    # operands with terms, big enough for the dense matrix to be the cheaper
    # path, stay sparse: the level-4 product a b (2^12 multiply-adds against
    # 12,000 term pairs), and the comparisons of the 74-term c d with its
    # leveled and its bumped copies
    with monkeypatch.context() as mp:
        mp.setattr(algebra, "_dense", no_matrix)
        product = a * b
        assert algebra._built_terms(product) is not None
        cd = c * d
        bumped = cd + AlgebraElement.monomial(2, (1,) * 4, (2,) * 4, Fraction(1, 7))
        assert cd == cd.level({0: 4}) and cd.level({0: 4}) == cd
        assert not (cd == bumped) and not (bumped == cd)
    assert kernel_calls == dict.fromkeys(kernel_calls, 0)
    # a held operand times a term operand stays on the kernel
    got = algebra._hold(a) * b
    assert kernel_calls["mul"] == 1 and algebra._unbuilt(got)
    assert got.terms == product.level({0: 4}).terms


def test_complex_operands_take_the_sparse_rule(kernel_calls, sparse_reference):
    """The kernel is real: a held element times a complex element with
    terms, in either order, and their comparisons take the sparse rule, and
    _hold keeps a complex element as it is."""
    rng = random.Random(46)
    a = _random_degree0(rng, 2, 3, 60, _small_rational)
    z = _random_degree0(rng, 2, 3, 60, lambda r: GaussianRational(
        _small_rational(r), _small_rational(r)))
    # a plus imaginary terms that cancel once leveled: complex, and equal to a
    c = GaussianRational(0, Fraction(1, 3))
    same = (a + AlgebraElement.diagonal(2, (1, 2)).scaled(c)
            - AlgebraElement.diagonal(2, (1, 2, 1)).scaled(c)
            - AlgebraElement.diagonal(2, (1, 2, 2)).scaled(c))
    assert algebra._hold(z) is z and algebra._hold(same) is same
    ops = [lambda x: x * z, lambda x: z * x, lambda x: x == z, lambda x: z == x,
           lambda x: x == same, lambda x: same == x]
    got = []
    for op in ops:
        held = algebra._hold(a)  # a fresh kernel element with no terms
        assert algebra._unbuilt(held)
        assert algebra._dense_mul_level(held, z) is None
        assert algebra._dense_mul_level(z, held) is None
        got.append(op(held))
    assert kernel_calls == dict.fromkeys(kernel_calls, 0)
    with sparse_reference():
        want = [op(a) for op in ops]
    assert got[2:] == want[2:] == [False, False, True, True]
    assert got[0] == want[0] and got[1] == want[1]


# --------------------------------------------- kernel memo and lazy terms

def _lazy_product(a, b):
    """_hold(a) * b through the kernel, with its terms not yet built."""
    out = algebra._hold(a) * b
    assert algebra._built_terms(out) is None
    assert algebra._shapes(out) == {(out._matrix.m,) * 2}
    return out


def test_lazy_kernel_product_matches_sparse_term_for_term(sparse_reference):
    rng = random.Random(41)
    a = _random_degree0(rng, 2, 4, 100, _small_rational)
    b = _random_degree0(rng, 2, 4, 120, _small_rational)
    extra = _random_degree0(rng, 2, 3, 20, _small_rational)
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


def _huge_rational(rng):
    # about 2^54: a sum of 100 numerators fits in int64, one times 1009 not
    return Fraction(rng.choice((1, -1)) * (2 ** 54 + rng.randint(0, 999)), 3)


def _term_den(x):
    """The lcm of the denominators of x's coefficients."""
    return lcm(*{c._d for c in x.terms.values()})


def _one_form(mat):
    """Whether a _Matrix is in the kernel's one form: int64 numerators and
    a positive denominator with no common factor, with exact nnz and top."""
    return (mat.num.dtype == np.int64 and mat.den > 0
            and gcd(mat.den, *mat.num.ravel().tolist()) == 1
            and mat.nnz == np.count_nonzero(mat.num)
            and mat.top == abs(mat.num).max())


def _dyadic_rational(rng):
    return Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 4))


def _mixed_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((3, 6, 12)))


# (numerators, denominator) whose common factor the gcd of the denominator
# and the largest |numerator| overstates, a power of two or not
SHARED_FACTORS = [((2, 6), 8), ((4, 6), 8), ((3, 4), 8), ((2, 4), 16),
                  ((3, 6), 12), ((4, 9), 12), ((0, 5), 10), ((7, -7), 7)]


def _normal_form_failures(sparse_reference):
    """The cases where _matrix leaves the one form or changes the value:
    the SHARED_FACTORS diagonals, and the products, sums, adjoints and
    theta images of seeded real operands over dyadic and non-dyadic
    denominators, each read against the sparse reference."""
    failures = []
    for nums, den in SHARED_FACTORS:
        mat = algebra._matrix(1, np.diag(np.array(nums, np.int64)), den)
        got = [Fraction(int(x), mat.den) for x in mat.num.diagonal()]
        if not _one_form(mat) or got != [Fraction(x, den) for x in nums]:
            failures.append((nums, den))
    rng = random.Random(2024)
    for coeff in (_dyadic_rational, _mixed_rational):
        for case in range(6):
            a = _random_degree0(rng, 2, 2, 12, coeff)
            b = _random_degree0(rng, 2, 2, 12, coeff)
            x, y = algebra._hold(a), algebra._hold(b)
            got = {"product": x * y, "sum": x + y, "adjoint": x.adjoint(),
                   "theta": theta(x)}
            with sparse_reference():
                want = {"product": a * b, "sum": a + b, "adjoint": a.adjoint(),
                        "theta": theta(a)}
            for name, z in got.items():
                if not (algebra._unbuilt(z) and _one_form(z._matrix)
                        and z.terms == want[name].level({0: z._matrix.m}).terms):
                    failures.append((coeff.__name__, case, name))
    return failures


def test_kernel_results_keep_the_normal_form(sparse_reference):
    assert _normal_form_failures(sparse_reference) == []


def _gcd_of_top_only(m, num, den, nnz=None):
    """_matrix dividing by gcd(den, top) with no pass over the numerators."""
    g = gcd(den, int(abs(num).max()))
    num = (num // g).astype(np.int64)
    return algebra._Matrix(m, num, den // g, int(np.count_nonzero(num)),
                           int(abs(num).max()))


@pytest.mark.parametrize("mutant", ["gcd of top only", "top not divided"])
def test_normal_form_kills_matrix_mutants(mutant, monkeypatch, sparse_reference):
    matrix = algebra._matrix
    if mutant == "gcd of top only":
        monkeypatch.setattr(algebra, "_matrix", _gcd_of_top_only)
    else:
        monkeypatch.setattr(algebra, "_matrix", lambda m, num, den, nnz=None:
                            matrix(m, num, den, nnz)._replace(top=int(abs(num).max())))
    assert _normal_form_failures(sparse_reference) != []


def test_built_kernel_element_is_a_plain_element(sparse_reference):
    """Reading the terms of a kernel element turns it into a plain
    AlgebraElement that keeps its matrix as a memo; from then on every
    operation on it takes the sparse rule or reads its memo, and agrees
    with the sparse reference."""
    x, y, (a, b, c, d) = _held_pair(13, 3, 3)
    memo = x._matrix
    assert type(x) is algebra._KernelElement and algebra._unbuilt(x)
    x.terms
    assert type(x) is AlgebraElement and not algebra._unbuilt(x)
    assert x._matrix is memo and algebra._built_terms(x) is x._terms
    assert algebra._size(x) == len(x.terms) == memo.nnz
    image = theta(x)  # rewrites x's words
    assert type(image) is AlgebraElement and algebra._built_terms(image) is not None
    got = [x * x, x + y, x.adjoint(), x.trace_state(), x == y, x == x,
           image]
    with sparse_reference():
        ab, cd = a * b, c * d
        want = [ab * ab, ab + cd, ab.adjoint(), ab.trace_state(), ab == cd,
                True, theta(ab)]
        # without the kernel, E and F are built as term elements
        p = ef_projection((1, 2, 2))
        assert type(p) is AlgebraElement and getattr(p, "_matrix", None) is None
    assert got == want


@pytest.mark.parametrize("coeff", [_small_rational, _huge_rational])
def test_dense_eq_across_denominators(coeff, kernel_calls, sparse_reference):
    """Terms over a 1009 times larger common denominator make the same
    matrix in lowest terms, so the kernel compares (den, num) directly."""
    rng = random.Random(1009)
    x = _random_degree0(rng, 2, 4, 100, coeff)
    y = _same_value_new_denominator(x, 1009)
    assert x.terms != y.terms and _term_den(y) == 1009 * _term_den(x)
    x_mat, y_mat = algebra._degree0_matrix(x, 4), algebra._degree0_matrix(y, 4)
    assert y_mat.den == x_mat.den and np.array_equal(y_mat.num, x_mat.num)
    assert x_mat.num.dtype == y_mat.num.dtype == np.int64
    if coeff is _huge_rational:
        # over y's common denominator the numerators pass int64
        assert x_mat.top * 1009 > 2 ** 63
    bumped = y + AlgebraElement.monomial(2, (2,) * 4, (1,) * 4, Fraction(1, 1009))
    held_x, held_y = algebra._hold(x), algebra._hold(y)
    assert held_x == y and held_y == x
    assert not (held_x == bumped) and not (bumped == held_x)
    assert kernel_calls["eq"] == 4
    with sparse_reference():
        assert x == y and not (x == bumped)


def test_memo_at_one_level_answers_at_a_higher_level(kernel_calls,
                                                     sparse_reference):
    rng = random.Random(3)
    a = _random_degree0(rng, 2, 3, 60, _small_rational)
    b = _random_degree0(rng, 2, 3, 60, _small_rational)
    with sparse_reference():
        want = (a * b).level({0: 4})
    held = algebra._hold(a)
    got = _lazy_product(held, b)  # memos of held, b and got at level 3
    memos = [x._matrix for x in (got, held, b)]
    assert [memo.m for memo in memos] == [3, 3, 3]
    calls = kernel_calls["eq"]
    # equal at level 4, and unequal after one level-4 entry changes
    bumped = want + AlgebraElement.monomial(2, (1, 2, 1, 2), (2, 1, 2, 1), 1)
    assert got == want and not (got == bumped)
    assert held == a.level({0: 4}) and not (held == a.level({0: 4}) + bumped - want)
    assert kernel_calls["eq"] == calls + 4
    # the level-4 matrices were made for those calls; the memos stay
    assert all(x._matrix is memo for x, memo in zip((got, held, b), memos))
    assert [memo.m for memo in memos] == [3, 3, 3]


# ------------------------------------------ operations on held matrices

def _held_pair(seed, m_a=3, m_b=3):
    """Kernel products x = a b at level m_a and y = c d at level m_b with
    rational coefficients over different denominators, and their sparse
    references."""
    rng = random.Random(seed)
    # enough terms for _hold to keep each operand's level-m matrix
    ops = [_random_degree0(rng, 2, m, max(60, 4 ** m // 4), _small_rational)
           for m in (m_a, m_a, m_b, m_b)]
    ops[2] = ops[2].scaled(Fraction(1, 11))
    x, y = _lazy_product(*ops[:2]), _lazy_product(*ops[2:])
    assert x._matrix.den != y._matrix.den
    return x, y, ops


def _same_value(x, y):
    """Whether two _Matrix values at one level are the same exact matrix,
    whatever their denominators."""
    return x.m == y.m and np.array_equal(x.num.astype(object) * y.den,
                                         y.num.astype(object) * x.den)


def test_held_matrix_releveled_by_kronecker_product(kernel_calls,
                                                    sparse_reference):
    x, y, (a, b, c, d) = _held_pair(5, 3, 4)
    with sparse_reference():
        want_x, want_y = a * b, c * d
    memo = x._matrix
    # x's level-3 memo answers at level 5 with no terms built, and stays
    # x's memo at level 3
    high, want_high = algebra._degree0_matrix(x, 5), algebra._degree0_matrix(want_x, 5)
    assert high.den == want_high.den == memo.den
    assert np.array_equal(high.num, want_high.num)
    assert x._matrix is memo and memo.m == 3
    # want_x, with terms and first densified at level 5, answers at levels
    # 3 and 4 from its terms, exactly, and keeps its level-5 memo
    want_memo = want_x._matrix
    assert want_memo.m == 5
    for m in (3, 4):
        got = algebra._degree0_matrix(want_x, m)
        fresh = AlgebraElement(2, want_x.level({0: m}).terms)
        assert _same_value(got, algebra._degree0_matrix(fresh, m))
        assert _same_value(got, algebra._degree0_matrix(x, m))
        assert want_x._matrix is want_memo
    # x still reads as made: its size, adjoint and terms are at level 3
    assert algebra._built_terms(x) is None and algebra._shapes(x) == {(3, 3)}
    want_x = want_x.level({0: 3})
    assert algebra._size(x) == len(want_x.terms)
    with sparse_reference():
        want_adjoint = want_x.adjoint()
    assert x.adjoint().terms == want_adjoint.terms
    assert x.terms == want_x.terms and x._matrix is memo
    # a level-3 operand times a level-4 one: a level-4 kernel product
    x, y, _ = _held_pair(5, 3, 4)
    memo = x._matrix
    calls = kernel_calls["mul"]
    got = x * y
    assert kernel_calls["mul"] == calls + 1 and got._matrix.m == 4
    assert algebra._built_terms(x) is None
    assert x._matrix is memo and memo.m == 3
    with sparse_reference():
        want = want_x * want_y
    assert got.terms == want.level({0: 4}).terms
    assert x.terms == want_x.terms and algebra._shapes(x) == {(3, 3)}


def test_kernel_calls_never_replace_a_memo(kernel_calls):
    """A matrix memo is written once: a product, comparison or sum at a
    higher level leaves every operand's memo the same object, at its own
    level, for a held operand, a kernel product and an element with
    terms; and a deep E/F word leaves the shared E and F at level 1."""
    x, y, (a, _, _, _) = _held_pair(10, 3, 4)
    held = algebra._hold(a)
    term = _random_degree0(random.Random(10), 2, 3, 60, _small_rational)
    algebra._degree0_matrix(term, 3)
    before_calls = dict(kernel_calls)
    for op in (lambda p, q: p * q, lambda p, q: p == q, lambda p, q: p + q):
        for operand in (x, held, term):
            before = operand._matrix
            op(operand, y)
            op(y, operand)
            assert operand._matrix is before and before.m == 3
    made = {op: kernel_calls[op] - before_calls[op]
            for op in ("mul", "eq", "add")}
    assert made == {"mul": 6, "eq": 6, "add": 4}  # term + y is a sparse sum
    assert y._matrix.m == 4
    ef_projection((1, 2, 2, 1, 2, 1, 1))
    for q in product_masa._ef_memo(2):
        assert q._matrix.m == 1


# --------------------------------------- products at the operands' levels

def _held_at(rng, n, m, coeff):
    """A degree-0 element whose longest words have length m, with enough
    terms for _hold to keep its level-m matrix (which becomes the
    element's memo too), and that kernel element."""
    a = _random_degree0(rng, n, m, n ** (2 * m) * 3 // 4, coeff)
    held = algebra._hold(a)
    assert algebra._unbuilt(held) and held._matrix.m == a._matrix.m == m
    return held, a


# (N, level of a, level of b): the lower operand on the left, on the
# right, and neither
MIXED_LEVELS = [(2, 1, 3), (2, 3, 1), (2, 3, 3), (2, 2, 4), (2, 4, 2),
                (2, 1, 4), (2, 4, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2)]


def _mixed_level_failures(sparse_reference):
    """The MIXED_LEVELS cases, over dyadic denominators and over 3, 6 and
    12, where a product of operands at their own levels leaves the kernel,
    the one form or the sparse rule's value, or moves an operand's memo:
    two held operands, and an element with terms and a memo at its level
    times a held one, in both orders."""
    failures = []
    for n, m_a, m_b in MIXED_LEVELS:
        for coeff in (_dyadic_rational, _mixed_rational):
            rng = random.Random(100 * n + 10 * m_a + m_b)
            x, a = _held_at(rng, n, m_a, coeff)
            y, b = _held_at(rng, n, m_b, coeff)
            m = max(m_a, m_b)
            with sparse_reference():
                want = (a * b).level({0: m}).terms
            for name, got in (("held", x * y), ("terms left", a * y),
                              ("terms right", x * b)):
                if not (algebra._unbuilt(got) and got._matrix.m == m
                        and _one_form(got._matrix) and got.terms == want
                        and x._matrix.m == a._matrix.m == m_a
                        and y._matrix.m == b._matrix.m == m_b):
                    failures.append((n, m_a, m_b, coeff.__name__, name))
    return failures


def test_mixed_level_products_match_the_sparse_rule(kernel_calls,
                                                    sparse_reference):
    assert _mixed_level_failures(sparse_reference) == []
    assert kernel_calls["mul"] == 3 * 2 * len(MIXED_LEVELS)


def _leveled_matmul_without_swapaxes(p, q, dim,
                                     _original=algebra._leveled_matmul):
    """_leveled_matmul with X (Y (x) I_k) read without the swapaxes, so
    the lower right operand acts as kron(I_k, Y)."""
    if len(p) == dim and len(q) < dim:
        return (p.reshape(dim, -1, len(q)) @ q).reshape(dim, dim)
    return _original(p, q, dim)


def test_mixed_level_products_kill_a_matmul_without_swapaxes(monkeypatch,
                                                             sparse_reference):
    monkeypatch.setattr(algebra, "_leveled_matmul",
                        _leveled_matmul_without_swapaxes)
    failed = {case[:3] for case in _mixed_level_failures(sparse_reference)}
    # only the products with the lower operand on the right go wrong
    assert failed == {case for case in MIXED_LEVELS if case[2] < case[1]}


def test_mixed_level_product_past_float64_takes_the_sparse_rule(
        kernel_calls, sparse_reference):
    """The float64 bound of a product is max|X| max|Y| N^m at the product's
    level m, whatever the operands' own levels: numerators near 3 * 2^24
    at levels 1 and 3 reach 9 * 2^51 > 2^53, and the product takes the
    sparse rule in either order; at 2^24 and 2^25 it stays on the kernel."""
    rng = random.Random(53)

    def full(m, base):
        return AlgebraElement(2, {Monomial(i, j): base + rng.randint(0, 99)
                                  for i in words(2, m) for j in words(2, m)})

    for base, dense in ((3 * 2 ** 24, False), (2 ** 24, True)):
        low, high = full(1, base), full(3, 2 * base if dense else base)
        with sparse_reference():
            want = [(low * high).level({0: 3}).terms,
                    (high * low).level({0: 3}).terms]
        calls = kernel_calls["mul"]
        got = [algebra._hold(low) * algebra._hold(high),
               algebra._hold(high) * algebra._hold(low)]
        assert kernel_calls["mul"] == calls + 2
        for z, terms in zip(got, want):
            assert algebra._unbuilt(z) == dense
            assert z.level({0: 3}).terms == terms


def _shape_union_level(a, b):
    """The oracle for _dense_mul_level: the level every pair was routed to
    before a pair of kernel elements was read off its matrices, from the
    union of the operands' shapes."""
    if not (algebra._unbuilt(a) or algebra._unbuilt(b)) or not (
            algebra._real(a) and algebra._real(b)):
        return None
    shapes = algebra._shapes(a) | algebra._shapes(b)
    if any(p != l for p, l in shapes):
        return None
    m = max(l for _, l in shapes)
    fits = algebra._dense_fits(a.n_gens ** m, algebra._size(a),
                               algebra._size(b))
    return m if fits else None


def _sparse_kernel_element(rng, n, m):
    """A level-m kernel element with from one to all N^2m entries nonzero,
    over a denominator of 1, 2, 3 or 12."""
    dim = n ** m
    num = np.zeros(dim * dim, np.int64)
    picked = rng.sample(range(dim * dim), rng.randint(1, dim * dim))
    num[picked] = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in picked]
    return algebra._lowest_terms(n, m, num.reshape(dim, dim),
                                 rng.choice((1, 2, 3, 12)))


def _complex_rational(rng):
    return GaussianRational(_small_rational(rng), _small_rational(rng))


def test_router_matches_the_shape_union():
    """Over seeded pairs of kernel elements (with and without built terms),
    elements with terms, complex ones and mixed-degree ones, the router
    gives the level the shape union gives, kernel pairs that the storage
    bound refuses included."""
    rng = random.Random(577)
    routes = {}
    for n, top in ((2, 4), (3, 2)):
        for _ in range(40):
            def level():
                return rng.randint(1, top)

            def size(m):
                monos = sum(n ** (2 * r) for r in range(m + 1))
                return rng.randint(1, min(12, monos))

            k1, k2 = [_sparse_kernel_element(rng, n, level()) for _ in "ab"]
            built = _sparse_kernel_element(rng, n, level())
            built.terms
            m_t, m_z = level(), level()
            term = _random_degree0(rng, n, m_t, size(m_t), _small_rational)
            z = _random_degree0(rng, n, m_z, size(m_z), _complex_rational)
            pairs = {"kernel/kernel": [(k1, k2), (k2, k1), (k1, k1)],
                     "kernel/term": [(k1, term), (term, k2), (k1, built),
                                     (built, k2), (k1, gen(1, n)),
                                     (gen(2, n), k2), (built, term)],
                     "complex": [(k1, z), (z, k2), (z, term)]}
            for kind, kind_pairs in pairs.items():
                for a, b in kind_pairs:
                    got = algebra._dense_mul_level(a, b)
                    assert got == _shape_union_level(a, b), (kind, a, b)
                    routes.setdefault(kind, set()).add(got is not None)
            assert algebra._unbuilt(k1) and algebra._unbuilt(k2)
    # kernel pairs go both ways, the storage bound refusing some
    assert routes["kernel/kernel"] == routes["kernel/term"] == {True, False}


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
    assert got._matrix.m == 4 and algebra._built_terms(x) is None
    assert got.terms == want.level({0: 4}).terms
    # lowest terms: the lcm of the reduced denominators of the entries
    assert got._matrix.den == lcm(*{v._d for v in want.terms.values()})
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


def test_held_sum_past_int64_takes_the_term_path(kernel_calls,
                                                 sparse_reference):
    """A sum of two kernel elements whose numerators over the common
    denominator could pass int64 makes no kernel result: it takes the term
    path and equals the sparse sum."""
    ws = list(words(2, 2))
    big = 2 ** 61 + 1
    # x's numerators sum past int64 while each entry, big + k, fits in it
    a = AlgebraElement(2, {Monomial(i, j): big + k
                           for k, (i, j) in enumerate(itertools.product(ws, ws))})
    b = AlgebraElement(2, {Monomial(i, j): Fraction(1, 5) for i in ws for j in ws})
    x, y = algebra._hold(a), algebra._hold(b)
    assert x._matrix.num.dtype == np.int64 and x._matrix.top == big + 15
    twice = x + x  # 2 (big + 15) still fits
    assert algebra._unbuilt(twice) and _one_form(twice._matrix)
    # 5 (big + 15) over the denominator 5, and 4 (big + 15), do not; the
    # term path builds the operands' terms, so each sum holds afresh
    got = [x + y, algebra._hold(b) + algebra._hold(a), twice + twice]
    assert kernel_calls["add"] == 4
    assert not any(isinstance(z, algebra._KernelElement) for z in got)
    with sparse_reference():
        want = [a + b, b + a, (a + a) + (a + a)]
    assert [z.terms for z in got] == [z.terms for z in want]
    assert got[2].terms[Monomial((1, 1), (1, 1))] == 4 * big


def test_held_trace_state_reads_the_matrix(kernel_calls, sparse_reference):
    x, y, (a, b, c, d) = _held_pair(8, 3, 4)
    with sparse_reference():
        want_x, want_y = (a * b).trace_state(), (c * d).trace_state()
    assert x.trace_state() == want_x and (x + y).trace_state() == want_x + want_y
    assert want_x.is_real() and want_x and want_x._d > 8
    assert kernel_calls["trace"] == 2 and algebra._built_terms(x) is None
    # with its terms built, an element takes the sparse sum
    y.terms
    assert y.trace_state() == want_y and kernel_calls["trace"] == 2


# (N, level, |a|, |b|, coefficients): theta of the kernel product a b
THETA_CASES = [(2, 3, 60, 60, _small_rational), (3, 2, 60, 60, _small_rational),
               (2, 2, 12, 12, _big_rational)]


@pytest.mark.parametrize("n, m, size_a, size_b, coeff", THETA_CASES)
def test_held_theta_matches_theta_of_built_terms(n, m, size_a, size_b, coeff,
                                                 sparse_reference):
    rng = random.Random(100 * n + m)
    for _ in range(3):
        a = _random_degree0(rng, n, m, size_a, coeff)
        b = _random_degree0(rng, n, m, size_b, coeff)
        if coeff is _big_rational:
            # past float64's exact integers the product takes the sparse
            # rule, and theta acts on the held operand
            product = algebra._hold(a) * b
            assert not isinstance(product, algebra._KernelElement)
            x = algebra._hold(a)
        else:
            x = product = _lazy_product(a, b)
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
        assert _one_form(got._matrix)
        with sparse_reference():
            assert product == a * b


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


def _past_float64_pair():
    """Fresh level-4 operands whose kernel product could reach 2^53:
    max|a| max|b| N^4 = 2^61.  b's numerators sum past int64 while each
    entry fits in it."""
    rng = random.Random(12)
    top = [Monomial(i, j) for i in words(2, 4) for j in words(2, 4)]
    picked = rng.sample(top, 220)
    a = AlgebraElement(2, {mono: rng.choice((-1, 1)) for mono in picked[:100]})
    b = AlgebraElement(2, {mono: 2 ** 57 - k for k, mono in enumerate(picked[100:])})
    return a, b


def test_held_product_past_float64_takes_the_sparse_rule(kernel_calls,
                                                         sparse_reference):
    """A kernel product whose float64 partial sums could reach 2^53 makes
    no kernel result: mul takes the sparse rule, which equals the sparse
    reference."""
    a, b = _past_float64_pair()
    assert algebra._degree0_matrix(a, 4).num.dtype == np.int64
    assert algebra._degree0_matrix(b, 4).num.dtype == np.int64
    with sparse_reference():
        want = [a * b, b * a, b.adjoint() * a]
    got = [algebra._hold(a) * b, b * algebra._hold(a),
           b.adjoint() * algebra._hold(a)]
    assert kernel_calls["mul"] == 3
    for x, y in zip(got, want):
        assert not isinstance(x, algebra._KernelElement)
        assert x.terms == y.terms


def test_refused_product_leaves_no_memo(kernel_calls, sparse_reference):
    """A product refused for float64 exactness stores no matrix on an
    operand it densified, and equals the sparse reference."""
    a, b = _past_float64_pair()
    b_star = b.adjoint()
    with sparse_reference():
        want = [a * b, b * a, b_star * a]
    got = [algebra._hold(a) * b, b * algebra._hold(a),
           b_star * algebra._hold(a)]
    assert kernel_calls["mul"] == 3
    assert getattr(b, "_matrix", None) is None
    assert getattr(b_star, "_matrix", None) is None
    assert [x.terms for x in got] == [y.terms for y in want]


def test_dense_dtype_reads_the_entries(monkeypatch):
    """_dense fills an int64 array when every exact entry fits in int64,
    though the numerators of b sum past it."""
    _, b = _past_float64_pair()
    assert sum(abs(c.re) for c in b.terms.values()) > 2 ** 63
    dtypes = []
    zeros = np.zeros

    def spy(shape, dtype=float, *args, **kwargs):
        dtypes.append(np.dtype(dtype))
        return zeros(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", spy)
    mat = algebra._dense(b, 4)
    assert dtypes == [np.dtype(np.int64)]
    assert mat.top == 2 ** 57


def test_every_kernel_matrix_is_in_lowest_terms(sparse_reference):
    """_dense, a product, a sum, an adjoint, theta and _kron_identity each
    make int64 numerators with no factor in common with the denominator,
    even from terms over a common denominator 1009 times too large."""
    rng = random.Random(1009)
    x = _random_degree0(rng, 2, 3, 60, _small_rational)
    y = _same_value_new_denominator(x, 1009)
    assert _term_den(y) == 1009 * _term_den(x)
    held_x, held_y = algebra._hold(x), algebra._hold(y)
    made = {"dense": algebra._dense(y, 3), "held": held_y._matrix}
    results = {"product": held_y * x, "sum": held_y + held_x,
               "adjoint": held_y.adjoint(), "theta": theta(held_y)}
    made.update((name, z._matrix) for name, z in results.items())
    for inner in (True, False):
        made[f"kron {inner}"] = algebra._kron_identity(held_y._matrix, 5, 4, inner)
    assert [name for name, mat in made.items() if not _one_form(mat)] == []
    assert made["held"].den == _term_den(x)
    assert all(algebra._unbuilt(z) for z in results.values())
    assert held_y == x and held_x == y
    with sparse_reference():
        want = {"product": y * x, "sum": y + x, "adjoint": y.adjoint(),
                "theta": theta(y)}
        assert all(results[name] == want[name] for name in want)
