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

import math

from .ratios import (COMMA, FreqRatio, OCTAVE, TRITAVE, _check_int, _check_ratio, _floor_log,
                     _fraction_type, _ratio, _Record, cents)

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

#: Widest degree either way that `pyth2_pyth3_differences` lists: each name
#: it lists carries one mark per period from the centre.
MAX_DEGREE = 10**4


class ScaleSystem(_Record):
    """Descriptor for one of the four scales."""

    __slots__ = ("id", "period", "notes_per_period", "harmonic_range",
                 "degree_multiplier",        # scale degree of the generator (b)
                 "degree_multiplier_inv",    # b**-1 modulo notes_per_period
                 "just")

    def __init__(self, id: str, period: FreqRatio, notes_per_period: int,
                 harmonic_range: tuple[int, int], degree_multiplier: int,
                 degree_multiplier_inv: int, just: bool) -> None:
        if type(harmonic_range) is not tuple or list(map(type, harmonic_range)) != [int, int]:
            raise ValueError(f"scale {id}: harmonic_range must be two ints, not {harmonic_range!r}")
        lo, hi = harmonic_range
        n, b, b_inv = notes_per_period, degree_multiplier, degree_multiplier_inv
        for name, value in (("notes_per_period", n), ("degree_multiplier", b),
                            ("degree_multiplier_inv", b_inv)):
            _check_int(value, f"scale {id}: {name}")
        # The fundamental domains are centred for these two only.
        if period not in (OCTAVE, TRITAVE):
            raise ValueError(f"scale {id}: period {period!r} is not OCTAVE or TRITAVE")
        if not 0 < n == hi - lo + 1:
            raise ValueError(f"scale {id}: harmonic range {lo, hi} does not hold {n} notes")
        if b * b_inv % n != 1:
            raise ValueError(f"scale {id}: multipliers {b}, {b_inv} not inverse modulo {n}")
        self._set(id, period, n, harmonic_range, b, b_inv, just)


PYTH2 = ScaleSystem("pyth2", OCTAVE, 12, (-5, 6), 7, 7, True)
PYTH3 = ScaleSystem("pyth3", TRITAVE, 19, (-9, 9), 12, 8, True)
EDO12 = ScaleSystem("edo12", OCTAVE, 12, (-5, 6), 7, 7, False)
EDT19 = ScaleSystem("edt19", TRITAVE, 19, (-9, 9), 12, 8, False)

_SYSTEMS = {s.id: s for s in (PYTH2, PYTH3, EDO12, EDT19)}

# Fundamental domain of each period P: (c/sqrt(P), c*sqrt(P)] around a centre
# c, 1 for the tritave scales and the comma for the octave ones.  Squared, its
# bounds are rational, the lower one P**2 under the upper c**2*P.  The
# exponents of c**2*P by the period's 2-exponent (TRITAVE 0, OCTAVE 1).
_UPPER_SQ = ((0, 1), (2 * COMMA.u + 1, 2 * COMMA.v))

# On the keyboard the note 2**u * 3**v sits 12*u + 19*v keys up in both
# just scales (a comma sits 0 keys up), so 6**h sits 31*h keys up.
_KEYS_PER_SIX = 31


def _window(value: int, system: ScaleSystem) -> int:
    """``value`` moved by whole windows into the system's harmonic range."""
    lo = system.harmonic_range[0]
    return (value - lo) % system.notes_per_period + lo


def _check_system(system) -> None:
    if not isinstance(system, ScaleSystem):
        raise ValueError(f"a scale system must be a ScaleSystem, not {type(system).__name__}")


def _check_harmonic(h: int, system: ScaleSystem, hint: str = "") -> None:
    _check_int(h, "harmonic degree")
    _check_system(system)
    lo, hi = system.harmonic_range
    if not lo <= h <= hi:
        raise ValueError(f"harmonic degree {h} outside [{lo}, {hi}]{hint}")


def harmonic_degree(ratio: FreqRatio, system: ScaleSystem) -> int:
    """The exponent that locates a note in the system's harmonic circle:
    that of the prime other than the period, so whole periods keep it."""
    _check_ratio(ratio)
    _check_system(system)
    return _harmonic_degree(ratio, system)


def _harmonic_degree(ratio: FreqRatio, system: ScaleSystem) -> int:
    return ratio.v if system.period.u else ratio.u


def reduce_to_fundamental(
    ratio: FreqRatio, system: ScaleSystem
) -> tuple[FreqRatio, int]:
    """Replace a note by its unique enharmonic twin inside the system.

    Returns ``(reduced, m)`` with ``reduced == ratio * COMMA**m`` and the
    relevant harmonic degree of ``reduced`` inside ``system.harmonic_range``.
    The quotient/remainder split of the raw harmonic degree makes ``m``
    unique, so reducing twice is a no-op.
    """
    _check_ratio(ratio)
    _check_system(system)
    h = _harmonic_degree(ratio, system)
    # One comma moves the harmonic degree by a whole window: u - 19 in the
    # tritave scales, v + 12 in the octave scales.
    m = (_window(h, system) - h) // _harmonic_degree(COMMA, system)
    return _ratio(ratio.u + m * COMMA.u, ratio.v + m * COMMA.v), m


def in_fundamental_interval(ratio: FreqRatio, system: ScaleSystem) -> bool:
    """Whether the note is its own class representative: no period moves it."""
    return period_reduce(ratio, system)[1] == 0


def period_reduce(ratio: FreqRatio, system: ScaleSystem) -> tuple[FreqRatio, int]:
    """Slide a note by whole periods into the fundamental interval.

    Returns ``(rep, shift)`` with ``rep == ratio * period**(-shift)``, i.e.
    the input sits ``shift`` periods above its class representative.  The
    harmonic degree is untouched.  The shift is the least one that puts
    ``rep**2`` at or under the domain's upper bound,
    ``ceil(log(ratio**2 / upper) / log(period**2))``; ``rep**2`` is then
    above the lower bound, which sits one ``period**2`` further down.
    """
    _check_ratio(ratio)
    _check_system(system)
    period = system.period
    upper_u, upper_v = _UPPER_SQ[period.u]
    shift = -_floor_log(upper_u - 2 * ratio.u, upper_v - 2 * ratio.v, 2 * period.u, 2 * period.v)
    return _ratio(ratio.u - shift * period.u, ratio.v - shift * period.v), shift


def scale_to_harmonic(degree: int, system: ScaleSystem) -> int:
    """Scale degree -> harmonic degree (multiplication by b**-1)."""
    _check_int(degree, "degree")
    _check_system(system)
    return _window(system.degree_multiplier_inv * degree, system)


def harmonic_to_scale_degree(h: int, system: ScaleSystem) -> int:
    """Harmonic degree -> scale degree (multiplication by b)."""
    _check_harmonic(h, system)
    return _window(system.degree_multiplier * h, system)


def fundamental_note(h: int, system: ScaleSystem) -> FreqRatio:
    """The unique note of harmonic degree ``h`` in the fundamental interval."""
    return _just_note(harmonic_to_scale_degree(h, system), system)


def _key_exponents(degree: int, system: ScaleSystem) -> tuple[int, int]:
    """Exponents of the just note at an absolute scale degree: ``6**h``, for the
    degree's harmonic degree ``h``, moved by the whole periods between its key
    and the degree's."""
    h = _window(system.degree_multiplier_inv * degree, system)
    # Exact: 31 is b modulo the notes per period, so 31*h and the degree agree there.
    t = (degree - _KEYS_PER_SIX * h) // system.notes_per_period
    period = system.period
    return h + t * period.u, h + t * period.v


def note_at_scale_degree(
    degree: int, system: ScaleSystem, intonation: str | None = None
):
    """Pitch at an absolute scale degree.

    Just intonation returns the :class:`FreqRatio` (the fundamental-domain
    note shifted by whole periods); equal intonation returns cents.
    ``intonation`` may be ``"just"`` or ``"equal"`` and defaults to the
    system's own flavour.  A degree whose cents leave float range is refused.
    """
    _check_int(degree, "degree")
    _check_system(system)
    if intonation not in (None, "just", "equal"):
        raise ValueError(f"intonation must be 'just' or 'equal', not {intonation!r}")
    just = system.just if intonation is None else intonation == "just"
    if just:
        return _just_note(degree, system)
    try:
        pitch = degree / system.notes_per_period * system.period.cents()
    except OverflowError:       # the quotient alone is past float range
        pitch = math.inf
    if math.isinf(pitch):
        shown = degree if degree.bit_length() <= 64 else f"of {degree.bit_length()} bits"
        raise ValueError(f"degree {shown} is too far out for {system.id} cents in float range")
    return pitch


def _just_note(degree: int, system: ScaleSystem, commas: int = 0) -> FreqRatio:
    """Just pitch at an absolute scale degree times ``COMMA**commas``; with no
    commas, the one note on that key whose harmonic degree is in the range."""
    u, v = _key_exponents(degree, system)
    return _ratio(u + commas * COMMA.u, v + commas * COMMA.v)


class ScaleRow(_Record):
    """One row of a just-vs-equal comparison table."""

    __slots__ = ("scale_degree", "note", "just_ratio", "harmonic_degree",
                 "equal_exponent",      # pitch = period ** equal_exponent
                 "equal_value", "deviation_cents", "boundary")

    def __init__(self, scale_degree: int, note: str, just_ratio: FreqRatio,
                 harmonic_degree: int, equal_exponent: Fraction, equal_value: float,
                 deviation_cents: float, boundary: bool = False) -> None:
        self._set(scale_degree, note, just_ratio, harmonic_degree, equal_exponent,
                  equal_value, deviation_cents, boundary)


# Each table pair: the just scale, its degrees, the boundary degrees (each
# with the comma power that gives the spelling the table shows) and the
# scale whose names label the boundary rows.  The 12-per-octave table
# closes with the flat-side tritone (harmonic degree -6), one comma under
# the G#.
_TABLE_PAIRS = {
    "pyth3_edt19": (PYTH3, range(-10, 11), {-10: 0, 10: 0}, PYTH2),
    "pyth2_edo12": (PYTH2, range(-6, 7), {-6: -1}, PYTH3),
}


def deviation_table(pair: str = "pyth3_edt19") -> list[ScaleRow]:
    """Compare a just scale against its equal temperament, row by row.

    ``pair`` is ``"pyth3_edt19"`` (19 rows plus the two boundary rows one
    degree outside the window) or ``"pyth2_edo12"`` (12 rows plus the
    flat-side enharmonic boundary row).  Boundary rows are flagged and
    spelled in the other just scale.
    """
    from . import notation

    if not isinstance(pair, str) or pair not in _TABLE_PAIRS:
        raise ValueError(f"unknown table pair {pair!r}")
    system, degrees, boundary, boundary_names = _TABLE_PAIRS[pair]
    n_per, period_cents = system.notes_per_period, system.period.cents()
    period_value = float(system.period.numerator)

    Fraction, rows = _fraction_type(), []
    for n in degrees:
        just = _just_note(n, system, boundary.get(n, 0))
        # The window has no name of its own one degree outside.
        name = notation._name_in(just, boundary_names if n in boundary else system)
        # n / n_per and float(Fraction(n, n_per)) are the same correctly rounded float.
        rows.append(ScaleRow(n, name, just, _harmonic_degree(just, system), Fraction(n, n_per),
                             period_value ** (n / n_per), just.cents() - n / n_per * period_cents,
                             n in boundary))
    return rows


# The keys 12*u + 19*v with u in PYTH3's harmonic range and v in PYTH2's, on
# which both just scales put one note: 19 * 12 distinct keys, from -203 to 222.
_AGREEING_KEYS = frozenset(12 * u + 19 * v for u in range(PYTH3.harmonic_range[0],
                                                           PYTH3.harmonic_range[1] + 1)
                           for v in range(PYTH2.harmonic_range[0], PYTH2.harmonic_range[1] + 1))


def pyth2_pyth3_differences(
    degree_lo: int = PIANO_DEGREE_LO, degree_hi: int = PIANO_DEGREE_HI
):
    """Scale degrees where the two just scales disagree.

    Both just notes of a key sit on it, so they differ by a power of the
    comma; they agree on the keys `_AGREEING_KEYS`, and on every other key
    both notes are read off it, with the quotient pyth3/pyth2 (one comma up
    or down on a standard keyboard).  Returns a list
    of ``(degree, pyth3_name, pyth2_name, quotient)``.  Neither end of the
    range may lie beyond `MAX_DEGREE` either way.
    """
    from . import notation

    for name, degree in (("degree_lo", degree_lo), ("degree_hi", degree_hi)):
        _check_int(degree, name)
        if abs(degree) > MAX_DEGREE:
            raise ValueError(f"{name} must be in [-{MAX_DEGREE}, {MAX_DEGREE}], "
                             f"not {notation._shown(degree)}")
    if degree_lo > degree_hi:
        raise ValueError(f"degree_lo {degree_lo!r} exceeds degree_hi {degree_hi!r}")
    out = []
    for n in range(degree_lo, degree_hi + 1):
        if n in _AGREEING_KEYS:
            continue
        p3, p2 = _just_note(n, PYTH3), _just_note(n, PYTH2)
        out.append((n, notation.name_of(p3), notation.pyth2_name_of(p2), p3 / p2))
    return out
