from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cuntzlab import GaussianRational

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    b = GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert a * b == GaussianRational.of(Fraction(1, 2))
    assert a + b == GaussianRational.of(1)
    assert a.conjugate() == b
    assert a.abs2() == Fraction(1, 2)


def test_division_and_str():
    i = GaussianRational(Fraction(0), Fraction(1))
    assert i * i == GaussianRational.of(-1)
    assert GaussianRational.of(1) / i == -i
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(GaussianRational(Fraction(1, 2), Fraction(1, 2))) == "1/2+1/2i"
    assert str(GaussianRational(Fraction(0), Fraction(-1))) == "0-1i"


def test_coercion_and_bool():
    assert GaussianRational.of(3) == GaussianRational(Fraction(3))
    assert not GaussianRational()
    assert GaussianRational(Fraction(0), Fraction(1, 7))


def test_equality_with_rationals():
    assert GaussianRational(1) == 1
    assert GaussianRational.of(1) == 1
    assert 1 == GaussianRational.of(1)
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(Fraction(1, 2)) != 1
    assert GaussianRational(Fraction(1), Fraction(1)) != 1
    assert GaussianRational() == 0


@given(scalars)
def test_hash_consistent_with_equality(a):
    assert hash(a) == hash(GaussianRational(a.re, a.im))
    if a.is_real():
        assert a == a.re and hash(a) == hash(a.re)
        assert len({a, a.re}) == 1


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars)
def test_division_inverts(a):
    if a:
        assert (GaussianRational.of(1) / a) * a == GaussianRational.of(1)
    assert a.abs2() >= 0
