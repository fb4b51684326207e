from fractions import Fraction

import pytest

from cuntzlab import (AlgebraElement, GaussianRational, ParseError,
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
