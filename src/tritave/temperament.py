"""How many notes per tritave: continued-fraction machinery.

A scale of ``q`` notes per tritave with the octave at note ``p`` needs
``2**q`` close to ``3**p``, i.e. ``p/q`` close to ``log(2)/log(3)``.  The
best such fractions are the continued-fraction convergents; 12/19 gives
the 19-per-tritave scale (its defect is the Pythagorean comma), and 53/84
is the outstanding next-but-one convergent, matching the classical
53-note octave scale whose fifth sits at degree 31.

Coefficients are extracted from exact rational enclosures of ln 2 and
ln 3 (atanh series plus tail bounds), so every floor decision is a
big-integer comparison and the expansion is reproducible to any supported
depth; double-precision logs would start drifting after roughly fifteen
terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ratios import Cents, FreqRatio, _log_ratio_bounds

__all__ = ["Convergent", "cf_coefficients", "convergents", "comma_for"]

MAX_TERMS = 20


class _NeedsMorePrecision(Exception):
    pass


def _expand(count: int, terms: int) -> list[int]:
    lo, hi = _log_ratio_bounds(terms)
    out: list[int] = []
    for _ in range(count):
        if lo <= 0:
            raise _NeedsMorePrecision
        lo, hi = 1 / hi, 1 / lo
        floor_lo = lo.numerator // lo.denominator
        floor_hi = hi.numerator // hi.denominator
        if floor_lo != floor_hi:
            raise _NeedsMorePrecision
        out.append(floor_lo)
        lo, hi = lo - floor_lo, hi - floor_lo
    return out


def cf_coefficients(count: int) -> list[int]:
    """First ``count`` partial quotients of log(2)/log(3) after the leading 0.

    The expansion begins 1, 1, 1, 2, 2, 3, 1, 5, ...
    """
    if not 1 <= count <= MAX_TERMS:
        raise ValueError(f"count must be in [1, {MAX_TERMS}]")
    terms = 40
    while True:
        try:
            return _expand(count, terms)
        except _NeedsMorePrecision:
            terms *= 2
            if terms > 1280:  # pragma: no cover - 40 terms already cover depth 20
                raise AssertionError("enclosure failed to converge")


@dataclass(frozen=True)
class Convergent:
    """A rational approximation p/q of log(2)/log(3): octave at note p of q."""

    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def convergents(count: int) -> list[Convergent]:
    """Convergents of log(2)/log(3), 1-indexed after the leading zero.

    Index 5 is 12/19 (the tritave scale of this package); index 7 is 53/84.
    """
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    out = []
    for a in cf_coefficients(count):
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append(Convergent(p, q))
    return out


def comma_for(p: int, q: int) -> tuple[FreqRatio, Cents]:
    """The defect 3**p / 2**q of tempering p octaves into q tritave steps.

    For (12, 19) this is the Pythagorean comma, about 23.46 cents.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    ratio = FreqRatio(-q, p)
    return ratio, abs(ratio.cents())
