"""Exact Gaussian-rational scalars (complex numbers with rational parts).

A value is stored as three Python ints (a, b, d) meaning (a + b*i)/d, in
the normal form d > 0 and gcd(a, b, d) = 1, so equal values have equal
triples.  Every operation is integer arithmetic plus one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple, Union

RationalLike = Union[int, Fraction]

_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """Wrap a triple already in normal form (no checks, no gcd)."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduce(a: int, b: int, d: int) -> "GaussianRational":
    """Normal form of (a + b*i)/d for d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _rational(x: RationalLike) -> Tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for coprime n and d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _coerce(x) -> "GaussianRational":
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        a, d = _rational(x)
        return _make(a, 0, d)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


class GaussianRational:
    """a + b*i with exact rational a, b.  All arithmetic is exact and
    values are immutable."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        a, d1 = _rational(re)
        b, d2 = _rational(im)
        return _reduce(a * d2, b * d1, d1 * d2)

    of = staticmethod(_coerce)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: GaussianRational is immutable")

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
        d1, d2 = self._d, other._d
        return _reduce(self._a * d2 + other._a * d1,
                       self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "GaussianRational":
        return self + -_coerce(other)

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other) - self

    def __mul__(self, other) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2)
        #   = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        o = _coerce(other)
        a2, b2, d2 = o._a, o._b, o._d
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        a1, b1 = self._a, self._b
        return _reduce((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                       self._d * n)

    def conjugate(self) -> "GaussianRational":
        if not self._b:
            return self  # a real value is its own conjugate, and immutable
        return _make(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_real(self) -> bool:
        return not self._b

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes like its Fraction, so equal values hash equal
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        # the text of str(Fraction) for each part, read off the triple
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_text(a, d)  # gcd(a, d) = 1 in normal form
        g, h = gcd(a, d), gcd(b, d)
        re_text = _ratio_text(a // g, d // g)
        im_text = _ratio_text(abs(b) // h, d // h)
        return f"{re_text}{'+' if b > 0 else '-'}{im_text}i"


# the slot descriptors' setters write past the immutability guard
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
