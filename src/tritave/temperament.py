"""How many notes per tritave: continued-fraction machinery.

A scale of ``q`` notes per tritave with the octave at note ``p`` needs
``2**q`` close to ``3**p``, i.e. ``p/q`` close to ``log(2)/log(3)``.  The
best such fractions are the continued-fraction convergents; 12/19 gives
the 19-per-tritave scale (its defect is the Pythagorean comma), and 53/84
is the outstanding next-but-one convergent, matching the classical
53-note octave scale whose fifth sits at degree 31.

Coefficients come from Euclid's algorithm on logarithms (Shanks, "A
Logarithm Algorithm", 1954): each partial quotient is the largest power
of the current base that fits under the previous one, and the remainder
becomes the next base.  Both stay ratios 2**u * 3**v, so every step is
the exact floor-log of `ratios._floor_log`, whose sign tests hand close
calls to exact arithmetic; no power of 2 or 3 is ever built.
"""

from __future__ import annotations

from .ratios import Cents, FreqRatio, _check_int, _floor_log, _fraction_type, _Record, _shown

__all__ = ["Convergent", "cf_coefficients", "convergents", "comma_for"]

MAX_TERMS = 20


def cf_coefficients(count: int) -> list[int]:
    """First ``count`` partial quotients of log(2)/log(3) after the leading 0.

    The expansion begins 1, 1, 1, 2, 2, 3, 1, 5, ...
    """
    _check_int(count, "count")
    if not 1 <= count <= MAX_TERMS:
        raise ValueError(f"count must be an integer in [1, {MAX_TERMS}], not {_shown(count)}")
    # Start from 3 over 2: log(3)/log(2), the reciprocal, has the same
    # quotients without the leading 0.
    (u, v), (pu, pv) = (0, 1), (1, 0)
    out = []
    for _ in range(count):
        a = _floor_log(u, v, pu, pv)
        out.append(a)
        (u, v), (pu, pv) = (pu, pv), (u - a * pu, v - a * pv)
    return out


class Convergent(_Record):
    """A rational approximation p/q of log(2)/log(3): octave at note p of q."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        self._set(p, q)

    @property
    def value(self) -> Fraction:
        return _fraction_type()(self.p, self.q)

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
    _check_int(p, "p")
    _check_int(q, "q")
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, not p={_shown(p)}, q={_shown(q)}")
    ratio = FreqRatio(-q, p)
    return ratio, abs(ratio.cents())
