import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzlab import GaussianRational

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
scalars = st.builds(GaussianRational, rationals, rationals)
operands = st.one_of(scalars, st.integers(-7, 7), rationals)


# -- reference model: a + b*i as a pair of Fractions ------------------------

def ref(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    re, im = ref_mul(x, (y[0], -y[1]))
    return re / n, im / n


def triple(z):
    return z._a, z._b, z._d


def ref_triple(x):
    """The normal form (a, b, d) of the value x = (re, im)."""
    d = math.lcm(x[0].denominator, x[1].denominator)
    return int(x[0] * d), int(x[1] * d), d


def check(z, expected):
    """z is a GaussianRational in normal form with the expected value."""
    assert type(z) is GaussianRational
    assert (z.re, z.im) == expected
    a, b, d = triple(z)
    assert d > 0 and math.gcd(a, b, d) == 1
    assert triple(z) == ref_triple(expected)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    b = GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert a * b == GaussianRational.of(Fraction(1, 2))
    assert a + b == GaussianRational.of(1)
    assert a.conjugate() == b
    assert a.abs2() == Fraction(1, 2)
    for real in (GaussianRational(Fraction(-3, 4)), GaussianRational.of(0)):
        assert real.conjugate() is real
    assert a.conjugate().im == Fraction(-1, 2) and b.conjugate() == a


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


@given(scalars, operands)
def test_binary_ops_match_reference(a, x):
    ra, rx = ref(a), ref(x)
    for op, ref_op in ((operator.add, ref_add), (operator.sub, ref_sub),
                       (operator.mul, ref_mul)):
        check(op(a, x), ref_op(ra, rx))
        check(op(x, a), ref_op(rx, ra))
    if rx != (0, 0):
        check(a / x, ref_div(ra, rx))
    if ra != (0, 0) and isinstance(x, GaussianRational):
        check(x / a, ref_div(rx, ra))


@given(scalars)
def test_unary_ops_match_reference(a):
    re, im = ref(a)
    check(-a, (-re, -im))
    check(a.conjugate(), (re, -im))
    # a real value is its own conjugate; scalars are immutable, so the
    # value itself is returned
    assert (a.conjugate() is a) == (im == 0)
    assert a.abs2() == re * re + im * im and type(a.abs2()) is Fraction


@given(rationals, rationals)
def test_normal_form(re, im):
    z = GaussianRational(re, im)
    check(z, (re, im))
    # the same value reached by arithmetic has the same triple
    w = GaussianRational(re * 3) / 3 + GaussianRational(0, im) * 1
    assert triple(w) == triple(z) and w == z and hash(w) == hash(z)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert triple(GaussianRational(0)) == (0, 0, 1)
    assert triple(z - z) == (0, 0, 1)


def test_immutable_and_copyable():
    z = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert triple(z) == (3, -2, 6)
    for clone in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
        assert clone == z and triple(clone) == triple(z)
    assert repr(z) == "GaussianRational(re=Fraction(1, 2), im=Fraction(-1, 3))"


def test_division_by_zero_and_bad_operands():
    z = GaussianRational(Fraction(1, 2), 1)
    for zero in (0, Fraction(0), GaussianRational(), z - z):
        with pytest.raises(ZeroDivisionError):
            z / zero
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        z + 0.5
