from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import (AlgebraElement, GaussianRational, Monomial, ParseError,
                      format_element, parse_element)
from cuntzlab.sampling import random_element


def test_worked_examples():
    s1 = AlgebraElement.generator(2, 1)
    s2 = AlgebraElement.generator(2, 2)
    x = parse_element("s[1] t[2] + s[2] t[1]", 2)
    assert x == s1 * s2.adjoint() + s2 * s1.adjoint()
    from fractions import Fraction
    e = parse_element("1/2 + 1/2 * s[1] t[2] + 1/2 * s[2] t[1]", 2)
    assert e == (AlgebraElement.one(2) + x).scaled(Fraction(1, 2))
    m = parse_element("s[12] t[21]", 2)
    assert m == AlgebraElement.monomial(2, (1, 2), (2, 1))


def test_coefficients_and_signs():
    s1 = AlgebraElement.generator(2, 1)
    assert parse_element("-s[1]", 2) == -s1
    assert parse_element("2 * s[1] - s[1]", 2) == s1
    assert parse_element("3/2 * s[1]", 2) == s1.scaled(__import__("fractions").Fraction(3, 2))
    from cuntzlab import GaussianRational
    from fractions import Fraction
    z = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    assert parse_element("1/2-1/3i * s[1]", 2) == s1.scaled(z)
    assert parse_element("0+1i", 2) == AlgebraElement.one(2).scaled(
        GaussianRational(Fraction(0), Fraction(1)))


def test_whitespace_insensitive():
    assert parse_element("s[1]t[2]+s[2]t[1]", 2) == \
        parse_element("  s[1]  t[2]  +  s[2]  t[1]  ", 2)


def test_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_element("s[1] ? s[2]", 2)
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_element("s[3]", 2)  # letter out of alphabet
    with pytest.raises(ParseError):
        parse_element("", 2)
    with pytest.raises(ParseError):
        parse_element("1/2 *", 2)
    with pytest.raises(ParseError):
        parse_element("s[1] +", 2)


def test_zero_denominator_in_imaginary_part():
    for text in ("1+1/0i * s[1]", "1-3/0i"):
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse_element(text, 2)
        assert exc.value.position == 2
    assert parse_element("1-3/2i", 2) == \
        AlgebraElement.one(2).scaled(GaussianRational(1, Fraction(-3, 2)))


def test_large_alphabets_rejected():
    # s_11 and s_1 s_1 would both print as s[11]
    for elem in (AlgebraElement.generator(12, 11),
                 AlgebraElement.isometry(12, (1, 1))):
        with pytest.raises(ParseError):
            format_element(elem)
        assert "N=12" in repr(elem)
        assert "Monomial" in str(elem)
    with pytest.raises(ParseError):
        parse_element("s[1]", 12)
    s9 = AlgebraElement.generator(9, 9)
    assert parse_element(format_element(s9), 9) == s9


def test_roundtrip_random(rng):
    for _ in range(40):
        a = random_element(rng, max_terms=5, max_len=3)
        assert parse_element(format_element(a), 2) == a


def test_printer_deterministic(rng):
    a = random_element(rng, max_terms=6, max_len=3)
    assert format_element(a) == format_element(a.canonical())


def test_zero_prints():
    assert format_element(AlgebraElement.zero(2)) == "0"
    assert parse_element("0", 2).is_zero()


# -- reference printer: the Fraction-based text of the first printer, with
# complex coefficients in parentheses, on an element leveled whatever its
# shape

def reference_scalar_text(c):
    if c.is_real():
        return str(c.re)
    im = c.im
    sign = "+" if im >= 0 else "-"
    return f"{c.re}{sign}{abs(im)}i"


def reference_format(a):
    """Level every degree to its longest right word, contract, and print
    each coefficient through its Fraction parts."""
    targets = {d: a.max_right_length(d) for d in a.degrees()}
    canon = a.level(targets).canonical()
    if canon.is_zero():
        return "0"
    pieces = []
    order = sorted(canon.terms.items(), key=lambda kv: (
        kv[0].degree, len(kv[0].right), kv[0].right, kv[0].left))
    for idx, (mono, coeff) in enumerate(order):
        parts = []
        if mono.left:
            parts.append(f"s[{''.join(str(d) for d in mono.left)}]")
        if mono.right:
            parts.append(f"t[{''.join(str(d) for d in mono.right)}]")
        factors = " ".join(parts) if parts else "1"
        if coeff.is_real():
            neg = coeff.re < 0
            mag = abs(coeff.re)
            if mag == 1 and factors != "1":
                body = factors
            elif factors == "1":
                body = str(mag)
            else:
                body = f"{mag} * {factors}"
        else:
            neg = False  # both signs inside the parentheses
            shown = f"({reference_scalar_text(coeff)})"
            body = shown if factors == "1" else f"{shown} * {factors}"
        joiner = "-" if neg else "+"
        if idx == 0:
            pieces.append(body if joiner == "+" else f"-{body}")
        else:
            pieces.append(f"{joiner} {body}")
    return " ".join(pieces)


parts = st.fractions(min_value=-3, max_value=3, max_denominator=6)
scalars = st.one_of(
    st.builds(GaussianRational, parts),               # real
    st.builds(GaussianRational, parts, parts),        # complex
    st.sampled_from([GaussianRational(1), GaussianRational(-1),
                     GaussianRational(0, 1), GaussianRational(0, -1)]))


@st.composite
def printable_elements(draw):
    """Elements over N = 2..9 with mixed gauge degrees and scalar terms,
    optionally leveled one letter further in one degree so that complete
    sibling groups with equal coefficients occur."""
    n = draw(st.integers(2, 9))
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    terms = draw(st.dictionaries(st.builds(Monomial, word, word), scalars,
                                 max_size=6))
    a = AlgebraElement(n, terms)
    if not a.is_zero() and draw(st.booleans()):
        d = draw(st.sampled_from(sorted(a.degrees())))
        a = a.level({d: a.max_right_length(d) + 1})
    return a


@settings(max_examples=300, deadline=None)
@given(scalars)
def test_scalar_text_matches_fraction_text(c):
    assert str(c) == reference_scalar_text(c)


@settings(max_examples=300, deadline=None)
@given(printable_elements())
def test_printer_matches_reference(a):
    before = dict(a.terms)
    text = format_element(a)
    assert text == reference_format(a)
    assert parse_element(text, a.n_gens) == a
    assert dict(a.terms) == before


def test_printer_reference_edge_cases():
    half = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    cases = [
        (AlgebraElement.zero(3), "0"),
        (AlgebraElement.one(2).scaled(-1), "-1"),
        (AlgebraElement.one(2).scaled(Fraction(-3, 4)), "-3/4"),
        (AlgebraElement.one(2).scaled(-half), "(-1/2-1/3i)"),
        (AlgebraElement.one(2).scaled(GaussianRational(0, -2)), "(0-2i)"),
        (AlgebraElement.monomial(9, (9,), (), GaussianRational(0, 1)),
         "(0+1i) * s[9]"),
        (parse_element("1/2+1/3i * s[12] t[1] - 3/4 * s[1] + 2", 2),
         "2 - 3/4 * s[1] + (1/2+1/3i) * s[12] t[1]"),
    ]
    for a, want in cases:
        assert format_element(a) == reference_format(a) == want


def test_padding_is_printed():
    # s_1 s_2^* = s_11 s_21^* + s_12 s_22^*: the shorter term must be
    # leveled before the coefficients add
    a = parse_element("s[1] t[2] + s[12] t[22]", 2)
    assert format_element(a) == "s[11] t[21] + 2 * s[12] t[22]"
    assert format_element(a) == reference_format(a)


def test_canonical_copies_its_input():
    """canonical() neither changes its input's terms nor shares them with
    its result, whether it levels or only copies."""
    even = AlgebraElement.one(2).level({0: 3})  # contracts to 1, unleveled
    uneven = parse_element("s[1] t[2] + s[12] t[22] + s[11] t[21]", 2)
    for a in (even, uneven):
        before = dict(a.terms)
        canon = a.canonical()
        assert dict(a.terms) == before
        assert canon._terms is not a._terms
    assert even.canonical().terms == {Monomial((), ()): GaussianRational(1)}
    assert len(even.terms) == 8


def test_parenthesized_complex_coefficients():
    s1 = AlgebraElement.generator(2, 1)
    z = GaussianRational(Fraction(-1, 2), Fraction(1, 3))
    assert parse_element("(-1/2+1/3i) * s[1]", 2) == s1.scaled(z)
    assert format_element(s1.scaled(z)) == "(-1/2+1/3i) * s[1]"
    # an outer '-' negates both parts; a bare complex coefficient may
    # still open the text or follow a '+'
    assert parse_element("-(1/2-1/3i) * s[1]", 2) == s1.scaled(z)
    assert parse_element("s[2] + 1/2-1/3i * s[1]", 2) == \
        AlgebraElement.generator(2, 2) + s1.scaled(-z)
    assert parse_element("(+3/4)", 2) == parse_element("3/4", 2)


@pytest.mark.parametrize("text, position", [
    ("-1/2+1/3i", 1), ("-1/2+1/3i * s[1]", 1), ("s[1] - 1/2+1/3i * s[2]", 7),
    ("s[1] -0-1i", 6)])
def test_bare_complex_coefficient_after_minus_rejected(text, position):
    # -1/2+1/3i reads as -1/2 + i/3 or as -(1/2 + i/3)
    with pytest.raises(ParseError, match="parentheses") as exc:
        parse_element(text, 2)
    assert exc.value.position == position


@pytest.mark.parametrize("text, position", [
    ("(1/2+1/3i", 9), ("(1/2+1/3i s[1]", 10), ("()", 1), ("(1/2+i)", 4)])
def test_unclosed_or_empty_parentheses_rejected(text, position):
    with pytest.raises(ParseError) as exc:
        parse_element(text, 2)
    assert exc.value.position == position


nonzero_parts = parts.filter(bool)


@settings(max_examples=300, deadline=None)
@given(parts, nonzero_parts, st.sampled_from([(), (1,), (2, 1)]),
       st.sampled_from([(), (2,)]))
def test_complex_coefficients_round_trip(re_part, im_part, left, right):
    c = GaussianRational(re_part, im_part)
    a = AlgebraElement(2, {Monomial(left, right): c,
                           Monomial((1, 1), (1,)): GaussianRational(-1)})
    text = format_element(a)
    assert f"({c})" in text
    assert parse_element(text, 2) == a
    # the same coefficient after an outer '-' takes its negation
    assert parse_element(f"s[2] - ({c})", 2) == \
        AlgebraElement.generator(2, 2) - AlgebraElement.one(2).scaled(c)
