"""Exact arithmetic for 3-smooth frequency ratios.

Every pitch handled by this package is a rational number of the form
``2**u * 3**v`` relative to a fixed reference note.  Ratios are stored as
the integer exponent pair ``(u, v)`` and nothing is ever rounded; floating
point enters only through :func:`cents`, which measures a ratio on the
usual logarithmic scale (1200 cents per octave).

The exponents double as the two harmonic degrees of a note: ``u`` is the
2-adic valuation (its position in the circle of octaves) and ``v`` the
3-adic valuation (its position in the circle of fifths).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Cents",
    "FreqRatio",
    "NotThreeSmoothError",
    "cents",
    "LOG2_3",
    "ONE",
    "OCTAVE",
    "TRITAVE",
    "FIFTH",
    "FOURTH",
    "COMMA",
]

#: log2(3) at full double precision, the only irrational constant used.
LOG2_3 = math.log2(3)

#: Cents are plain floats; 1200 per octave, about 1901.955 per tritave.
Cents = float

_INT64 = 1 << 63


class NotThreeSmoothError(ValueError):
    """A fraction had a prime factor other than 2 or 3."""


def _strip(n: int, p: int) -> tuple[int, int]:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


@functools.total_ordering
@dataclass(frozen=True)
class FreqRatio:
    """The exact ratio ``2**u * 3**v``."""

    u: int
    v: int

    def __post_init__(self) -> None:
        if not (-_INT64 <= self.u < _INT64 and -_INT64 <= self.v < _INT64):
            raise OverflowError("exponent overflow")

    @classmethod
    def from_fraction(cls, numerator: int, denominator: int = 1) -> FreqRatio:
        """Factor a positive fraction into powers of 2 and 3.

        Raises :class:`NotThreeSmoothError` if the reduced fraction has any
        other prime factor.
        """
        if numerator < 1 or denominator < 1:
            raise ValueError("numerator and denominator must be positive integers")
        frac = Fraction(numerator, denominator)
        num, nu = _strip(frac.numerator, 2)
        num, nv = _strip(num, 3)
        den, du = _strip(frac.denominator, 2)
        den, dv = _strip(den, 3)
        if num != 1 or den != 1:
            raise NotThreeSmoothError(
                f"not 3-smooth: {frac} keeps a factor of {num * den}"
            )
        return cls(nu - du, nv - dv)

    def __mul__(self, other: FreqRatio) -> FreqRatio:
        return FreqRatio(self.u + other.u, self.v + other.v)

    def __truediv__(self, other: FreqRatio) -> FreqRatio:
        return FreqRatio(self.u - other.u, self.v - other.v)

    def __pow__(self, exponent: int) -> FreqRatio:
        return FreqRatio(self.u * exponent, self.v * exponent)

    def inverse(self) -> FreqRatio:
        return FreqRatio(-self.u, -self.v)

    def as_fraction(self) -> Fraction:
        """The exact value as a big-integer fraction."""
        return Fraction(2) ** self.u * Fraction(3) ** self.v

    @property
    def numerator(self) -> int:
        return self.as_fraction().numerator

    @property
    def denominator(self) -> int:
        return self.as_fraction().denominator

    def cents(self) -> Cents:
        return 1200.0 * (self.u + self.v * LOG2_3)

    # Order comparisons are exact (big-integer cross multiplication), so
    # they are safe to use on fundamental-domain boundaries.  The other three
    # come from `functools.total_ordering`; equal exponents are equal ratios.
    def __lt__(self, other: FreqRatio) -> bool:
        if not isinstance(other, FreqRatio):
            return NotImplemented
        return self.as_fraction() < other.as_fraction()

    def __str__(self) -> str:
        return str(self.as_fraction())

    def __repr__(self) -> str:
        return f"FreqRatio({self.u}, {self.v})"


def cents(ratio: FreqRatio) -> Cents:
    """1200 * log2 of the ratio."""
    return ratio.cents()


ONE = FreqRatio(0, 0)
OCTAVE = FreqRatio(1, 0)
TRITAVE = FreqRatio(0, 1)
FIFTH = FreqRatio(-1, 1)
FOURTH = FreqRatio(2, -1)

#: The Pythagorean comma 3**12 / 2**19, about 23.46 cents.  Two notes are
#: enharmonic when their quotient is a power of this ratio.
COMMA = FreqRatio(-19, 12)
