"""The four scale systems and the arithmetic that connects them.

Two just scales are generated inside the group of 3-smooth ratios:

* ``PYTH2`` -- the familiar Pythagorean scale, 12 notes per octave, one
  note for each 3-adic harmonic degree in ``[-5, 6]``.
* ``PYTH3`` -- its tritave-based sibling, 19 notes per tritave, one note
  for each 2-adic harmonic degree in ``[-9, 9]``.

``EDO12`` and ``EDT19`` are their equal-tempered counterparts (twelve
equal divisions of the octave, nineteen of the tritave).  The window
sizes 12 and 19 both come from the Pythagorean comma 3**12/2**19: reducing
a harmonic degree modulo the comma is what makes the scales finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .ratios import COMMA, FreqRatio, OCTAVE, TRITAVE, cents

__all__ = [
    "ScaleSystem",
    "ScaleRow",
    "PYTH2",
    "PYTH3",
    "EDO12",
    "EDT19",
    "harmonic_degree",
    "reduce_to_fundamental",
    "period_reduce",
    "in_fundamental_interval",
    "scale_to_harmonic",
    "harmonic_to_scale_degree",
    "fundamental_note",
    "note_at_scale_degree",
    "deviation_table",
    "pyth2_pyth3_differences",
    "PIANO_DEGREE_LO",
    "PIANO_DEGREE_HI",
]

#: Default 88-key window in scale degrees (A0..C8 with D4 = degree 0).
PIANO_DEGREE_LO = -41
PIANO_DEGREE_HI = 46


@dataclass(frozen=True)
class ScaleSystem:
    """Descriptor for one of the four scales."""

    id: str
    period: FreqRatio
    notes_per_period: int
    harmonic_range: tuple[int, int]
    degree_multiplier: int        # scale degree of the generator (b)
    degree_multiplier_inv: int    # b**-1 modulo notes_per_period
    just: bool

    def __post_init__(self) -> None:
        lo, hi = self.harmonic_range
        n, b, b_inv = self.notes_per_period, self.degree_multiplier, self.degree_multiplier_inv
        if hi - lo + 1 != n:
            raise ValueError(f"scale {self.id}: harmonic range {lo, hi} does not hold {n} notes")
        if b * b_inv % n != 1:
            raise ValueError(f"scale {self.id}: multipliers {b}, {b_inv} not inverse modulo {n}")


PYTH2 = ScaleSystem("pyth2", OCTAVE, 12, (-5, 6), 7, 7, True)
PYTH3 = ScaleSystem("pyth3", TRITAVE, 19, (-9, 9), 12, 8, True)
EDO12 = replace(PYTH2, id="edo12", just=False)
EDT19 = replace(PYTH3, id="edt19", just=False)

_SYSTEMS = {s.id: s for s in (PYTH2, PYTH3, EDO12, EDT19)}

# Squared fundamental intervals, exact.  A ratio r lies in the half-open
# interval (a, b] with b/a = period iff r**2 lies in (a*b, b*b]; squaring
# removes the irrational square-root endpoints so membership is a pure
# big-integer comparison.
_KAPPA_SQ = Fraction(3, 1) ** 24 / Fraction(2, 1) ** 38
_SQ_INTERVALS = {
    "tritave": (Fraction(1, 3), Fraction(3)),          # (1/sqrt3, sqrt3]
    "octave": (_KAPPA_SQ / 2, 2 * _KAPPA_SQ),          # (kappa/sqrt2, kappa*sqrt2]
}


def _period_kind(system: ScaleSystem) -> str:
    return "tritave" if system.period == TRITAVE else "octave"


def harmonic_degree(ratio: FreqRatio, system: ScaleSystem) -> int:
    """The exponent that locates a note in the system's harmonic circle."""
    return ratio.u if _period_kind(system) == "tritave" else ratio.v


def reduce_to_fundamental(
    ratio: FreqRatio, system: ScaleSystem
) -> tuple[FreqRatio, int]:
    """Replace a note by its unique enharmonic twin inside the system.

    Returns ``(reduced, m)`` with ``reduced == ratio * COMMA**m`` and the
    relevant harmonic degree of ``reduced`` inside ``system.harmonic_range``.
    The quotient/remainder split of the raw harmonic degree makes ``m``
    unique, so reducing twice is a no-op.
    """
    lo = system.harmonic_range[0]
    n = system.notes_per_period
    if _period_kind(system) == "tritave":
        m = (ratio.u - lo) // n                  # u = n*m + remainder
    else:
        m = -((ratio.v - lo) // n)               # comma raises v by 12 per power
    return ratio * COMMA ** m, m


def in_fundamental_interval(ratio: FreqRatio, system: ScaleSystem) -> bool:
    lower_sq, upper_sq = _SQ_INTERVALS[_period_kind(system)]
    sq = ratio.as_fraction() ** 2
    return lower_sq < sq <= upper_sq


def period_reduce(ratio: FreqRatio, system: ScaleSystem) -> tuple[FreqRatio, int]:
    """Slide a note by whole periods into the fundamental interval.

    Returns ``(rep, shift)`` with ``rep == ratio * period**(-shift)``, i.e.
    the input sits ``shift`` periods above its class representative.  The
    harmonic degree is untouched.  A float seeds the shift; the boundary
    itself is decided exactly.
    """
    period = system.period
    per_cents = period.cents()
    center = 0.0 if _period_kind(system) == "tritave" else COMMA.cents()
    shift = round((ratio.cents() - center) / per_cents)
    rep = ratio / period ** shift
    lower_sq, upper_sq = _SQ_INTERVALS[_period_kind(system)]
    while rep.as_fraction() ** 2 > upper_sq:
        shift += 1
        rep = rep / period
    while rep.as_fraction() ** 2 <= lower_sq:
        shift -= 1
        rep = rep * period
    return rep, shift


def _window(value: int, lo: int, size: int) -> int:
    return (value - lo) % size + lo


def scale_to_harmonic(degree: int, system: ScaleSystem) -> int:
    """Scale degree -> harmonic degree (multiplication by b**-1)."""
    lo = system.harmonic_range[0]
    return _window(system.degree_multiplier_inv * degree, lo, system.notes_per_period)


def harmonic_to_scale_degree(h: int, system: ScaleSystem) -> int:
    """Harmonic degree -> scale degree (multiplication by b)."""
    lo, hi = system.harmonic_range
    if not lo <= h <= hi:
        raise ValueError(f"harmonic degree {h} outside [{lo}, {hi}]")
    return _window(system.degree_multiplier * h, lo, system.notes_per_period)


def fundamental_note(h: int, system: ScaleSystem) -> FreqRatio:
    """The unique note of harmonic degree ``h`` in the fundamental interval."""
    lo, hi = system.harmonic_range
    if not lo <= h <= hi:
        raise ValueError(f"harmonic degree {h} outside [{lo}, {hi}]")
    seed = FreqRatio(h, 0) if _period_kind(system) == "tritave" else FreqRatio(0, h)
    return period_reduce(seed, system)[0]


def _split_degree(degree: int, system: ScaleSystem) -> tuple[int, int]:
    """Absolute scale degree -> (period shift, degree inside the window)."""
    lo = system.harmonic_range[0]
    s = _window(degree, lo, system.notes_per_period)
    return (degree - lo) // system.notes_per_period, s


def note_at_scale_degree(
    degree: int, system: ScaleSystem, intonation: str | None = None
):
    """Pitch at an absolute scale degree.

    Just intonation returns the :class:`FreqRatio` (the fundamental-domain
    note shifted by whole periods); equal intonation returns cents.
    ``intonation`` may be ``"just"`` or ``"equal"`` and defaults to the
    system's own flavour.
    """
    just = system.just if intonation is None else intonation == "just"
    if not just:
        return degree / system.notes_per_period * system.period.cents()
    t, s = _split_degree(degree, system)
    note = fundamental_note(scale_to_harmonic(s, system), system)
    return note * system.period ** t


@dataclass(frozen=True)
class ScaleRow:
    """One row of a just-vs-equal comparison table."""

    scale_degree: int
    note: str
    just_ratio: FreqRatio
    harmonic_degree: int
    equal_exponent: Fraction      # pitch = period ** equal_exponent
    equal_value: float
    deviation_cents: float
    boundary: bool = False


def deviation_table(pair: str = "pyth3_edt19") -> list[ScaleRow]:
    """Compare a just scale against its equal temperament, row by row.

    ``pair`` is ``"pyth3_edt19"`` (19 rows plus the two boundary rows one
    degree outside the window) or ``"pyth2_edo12"`` (12 rows plus the
    flat-side enharmonic boundary row).  Boundary rows are flagged.
    """
    from . import notation

    if pair == "pyth3_edt19":
        system = PYTH3
        degrees = range(-10, 11)
        boundary = {-10, 10}
    elif pair == "pyth2_edo12":
        system = PYTH2
        degrees = range(-6, 7)
        boundary = {-6}
    else:
        raise ValueError(f"unknown table pair {pair!r}")

    rows = []
    for n in degrees:
        if system is PYTH2 and n == -6:
            # The tritone degree: the table closes with the flat-side
            # enharmonic (harmonic degree -6), one comma under the G#.
            just = note_at_scale_degree(n, system) / COMMA
        else:
            just = note_at_scale_degree(n, system)
        # Boundary rows are labelled in the other system's spelling: the
        # 19-per-tritave window has no name of its own one degree outside.
        if system is PYTH3:
            name = notation.pyth2_name_of(just) if n in boundary else str(
                notation.note_name_at_degree(n)
            )
        else:
            name = str(notation.name_of(just)) if n in boundary else (
                notation.pyth2_name_of(just)
            )
        equal_exp = Fraction(n, system.notes_per_period)
        equal_cents = n / system.notes_per_period * system.period.cents()
        rows.append(
            ScaleRow(
                scale_degree=n,
                note=name,
                just_ratio=just,
                harmonic_degree=harmonic_degree(just, system),
                equal_exponent=equal_exp,
                equal_value=float(system.period.as_fraction()) ** float(equal_exp),
                deviation_cents=just.cents() - equal_cents,
                boundary=n in boundary,
            )
        )
    return rows


def pyth2_pyth3_differences(
    degree_lo: int = PIANO_DEGREE_LO, degree_hi: int = PIANO_DEGREE_HI
):
    """Scale degrees where the two just scales disagree.

    For each degree in the range both just pitches are computed; where they
    differ, the quotient pyth3/pyth2 is always a power of the comma (one
    comma up or down on a standard keyboard).  Returns a list of
    ``(degree, pyth3_name, pyth2_name, quotient)``.
    """
    from . import notation

    if degree_lo > degree_hi:
        raise ValueError("degree_lo must not exceed degree_hi")
    out = []
    for n in range(degree_lo, degree_hi + 1):
        p3 = note_at_scale_degree(n, PYTH3)
        p2 = note_at_scale_degree(n, PYTH2)
        if p3 != p2:
            out.append(
                (n, notation.name_of(p3), notation.pyth2_name_of(p2), p3 / p2)
            )
    return out
