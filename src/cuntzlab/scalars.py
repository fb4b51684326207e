"""Exact Gaussian-rational scalars (complex numbers with rational parts)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with exact rational a, b.  All arithmetic is exact."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(_frac(x), Fraction(0))
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    def __add__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        o = GaussianRational.of(other)
        n = o.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        c = o.conjugate()
        num = self * c
        return GaussianRational(num.re / n, num.im / n)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes like its Fraction, so equal values hash equal
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
IMAG_UNIT = GaussianRational(Fraction(0), Fraction(1))
