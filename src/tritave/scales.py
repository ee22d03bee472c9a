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

Just pitches are read off the key ``12*u + 19*v`` of ``2**u * 3**v``, and
so is the period shift of a note whose harmonic degree lies in its
period's window; outside it the shift is the exact `ratios._floor_log`.
"""

from __future__ import annotations

import math

from .ratios import (COMMA, FreqRatio, OCTAVE, TRITAVE, _check_int, _check_type, _floor_log,
                     _fraction_type, _named, _ratio, _Record, _shown, _SHOWN_BELOW, cents)

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
        _check_type(id, str, "a scale id must be")
        scale = f"scale {id if len(id) <= 40 else _shown(id)}"   # each message below names it
        if type(harmonic_range) is not tuple or list(map(type, harmonic_range)) != [int, int]:
            raise ValueError(f"{scale}: harmonic_range must be two ints, "
                             f"not {_shown(harmonic_range)}")
        lo, hi = harmonic_range
        n, b, b_inv = notes_per_period, degree_multiplier, degree_multiplier_inv
        for name, value in (("notes_per_period", n), ("degree_multiplier", b),
                            ("degree_multiplier_inv", b_inv)):
            _check_int(value, f"{scale}: {name}")
        # The fundamental domains are centred for these two only.
        if period not in (OCTAVE, TRITAVE):
            raise ValueError(f"{scale}: period {_shown(period)} is not OCTAVE or TRITAVE")
        if not 0 < n == hi - lo + 1:
            held = f"{n} notes" if abs(n) < _SHOWN_BELOW else f"notes_per_period {_shown(n)}"
            raise ValueError(f"{scale}: harmonic range {_shown(harmonic_range)} does not hold "
                             f"{held}")
        if b * b_inv % n != 1:
            raise ValueError(f"{scale}: multipliers {_shown(b)}, {_shown(b_inv)} not inverse "
                             f"modulo {_shown(n)}")
        self._set(id, period, n, harmonic_range, b, b_inv, just)


PYTH2 = ScaleSystem("pyth2", OCTAVE, 12, (-5, 6), 7, 7, True)
PYTH3 = ScaleSystem("pyth3", TRITAVE, 19, (-9, 9), 12, 8, True)
EDO12 = ScaleSystem("edo12", OCTAVE, 12, (-5, 6), 7, 7, False)
EDT19 = ScaleSystem("edt19", TRITAVE, 19, (-9, 9), 12, 8, False)

_SYSTEMS = {s.id: s for s in (PYTH2, PYTH3, EDO12, EDT19)}

# Fundamental domain of each period P: (c/sqrt(P), c*sqrt(P)] around a centre
# c, 1 for the tritave scales and the comma for the octave ones.  Squared, its
# bounds are rational, the lower one P**2 under the upper c**2*P.  By the
# period's 2-exponent (TRITAVE 0, OCTAVE 1): the window of harmonic degrees
# whose notes on the window's keys fill the domain (PYTH3's or PYTH2's range
# and notes per period, whatever range a `ScaleSystem` carries), then the
# exponents of c**2*P.
_PERIOD_DOMAIN = ((*PYTH3.harmonic_range, PYTH3.notes_per_period, 0, 1),
                  (*PYTH2.harmonic_range, PYTH2.notes_per_period, 2 * COMMA.u + 1, 2 * COMMA.v))

# On the keyboard the note 2**u * 3**v sits 12*u + 19*v keys up in both
# just scales (a comma sits 0 keys up), so 6**h sits 31*h keys up.
_KEYS_PER_SIX = 31


def _window(value: int, system: ScaleSystem) -> int:
    """``value`` moved by whole windows into the system's harmonic range."""
    lo = system.harmonic_range[0]
    return (value - lo) % system.notes_per_period + lo


def _check_harmonic(h: int, system: ScaleSystem, hint: str = "") -> None:
    _check_int(h, "harmonic degree")
    _check_type(system, ScaleSystem, "a scale system must be")
    lo, hi = system.harmonic_range
    if not lo <= h <= hi:
        raise ValueError(f"{_named('harmonic degree', h)} outside [{lo}, {hi}]{hint}")


def harmonic_degree(ratio: FreqRatio, system: ScaleSystem) -> int:
    """The exponent that locates a note in the system's harmonic circle:
    that of the prime other than the period, so whole periods keep it."""
    _check_type(ratio, FreqRatio, "a note must be")
    _check_type(system, ScaleSystem, "a scale system must be")
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
    _check_type(ratio, FreqRatio, "a note must be")
    _check_type(system, ScaleSystem, "a scale system must be")
    h = _harmonic_degree(ratio, system)
    # One comma moves the harmonic degree by a whole window: u - 19 in the
    # tritave scales, v + 12 in the octave scales.
    m = (_window(h, system) - h) // _harmonic_degree(COMMA, system)
    return _ratio(ratio.u + m * COMMA.u, ratio.v + m * COMMA.v), m


def in_fundamental_interval(ratio: FreqRatio, system: ScaleSystem) -> bool:
    """Whether the note is its own class representative: no period moves it.
    The shift is tested as `period_reduce` reads it, and no representative is
    built, so a note whose representative would leave the exponent range is
    simply not in the interval."""
    _check_type(ratio, FreqRatio, "a note must be")
    _check_type(system, ScaleSystem, "a scale system must be")
    period, u, v = system.period, ratio.u, ratio.v
    lo, hi, n, upper_u, upper_v = _PERIOD_DOMAIN[period.u]
    if lo <= (v if period.u else u) <= hi:
        return lo <= 12 * u + 19 * v < lo + n
    return _floor_log(upper_u - 2 * u, upper_v - 2 * v, 2 * period.u, 2 * period.v) == 0


def period_reduce(ratio: FreqRatio, system: ScaleSystem) -> tuple[FreqRatio, int]:
    """Slide a note by whole periods into the fundamental interval.

    Returns ``(rep, shift)`` with ``rep == ratio * period**(-shift)``, i.e.
    the input sits ``shift`` periods above its class representative.  The
    harmonic degree is untouched.  In the period's window of harmonic
    degrees ``lo .. lo + n - 1`` the shift is read off the key ``12*u +
    19*v``: a period moves the key by ``n`` and keeps the degree, and the
    window notes, on keys ``lo .. lo + n - 1``, are the fundamental interval
    (`fundamental_note` reads them there), so the note is the window note of
    its degree times ``period**((key - lo) // n)``.  Outside it the shift is
    the least one that puts ``rep**2`` at or under the domain's upper bound,
    ``ceil(log(ratio**2 / upper) / log(period**2))``; ``rep**2`` is then
    above the lower bound, which sits one ``period**2`` further down.  A note
    whose representative leaves the exponent range is refused by the note
    and the system.
    """
    _check_type(ratio, FreqRatio, "a note must be")
    _check_type(system, ScaleSystem, "a scale system must be")
    period, u, v = system.period, ratio.u, ratio.v
    lo, hi, n, upper_u, upper_v = _PERIOD_DOMAIN[period.u]
    if lo <= (v if period.u else u) <= hi:
        shift = (12 * u + 19 * v - lo) // n
    else:
        shift = -_floor_log(upper_u - 2 * u, upper_v - 2 * v, 2 * period.u, 2 * period.v)
    try:
        return _ratio(u - shift * period.u, v - shift * period.v), shift
    except ValueError:      # the representative's period exponent leaves int64
        raise ValueError(f"{_shown(ratio)} is too far out to reduce by whole {system.id} "
                         "periods: its representative's exponents leave [-2**63, 2**63)") from None


def scale_to_harmonic(degree: int, system: ScaleSystem) -> int:
    """Scale degree -> harmonic degree (multiplication by b**-1)."""
    _check_int(degree, "degree")
    _check_type(system, ScaleSystem, "a scale system must be")
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
    system's own flavour.  A degree whose exponents leave [-2**63, 2**63),
    or whose cents leave float range, is refused.
    """
    _check_int(degree, "degree")
    _check_type(system, ScaleSystem, "a scale system must be")
    if intonation not in (None, "just", "equal"):
        raise ValueError(f"intonation must be 'just' or 'equal', not {_shown(intonation)}")
    just = system.just if intonation is None else intonation == "just"
    if just:
        try:
            return _just_note(degree, system)
        except ValueError:      # an exponent past the int64 range
            raise ValueError(f"{_named('degree', degree)} is too far out for {system.id} "
                             "exponents in [-2**63, 2**63)") from None
    try:
        pitch = degree / system.notes_per_period * system.period.cents()
    except OverflowError:       # the quotient alone is past float range
        pitch = math.inf
    if math.isinf(pitch):
        raise ValueError(f"{_named('degree', degree)} is too far out for {system.id} cents in "
                         "float range")
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
        raise ValueError(f"unknown table pair {_shown(pair)}")
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
                             f"not {_named('int', degree)}")
    if degree_lo > degree_hi:
        raise ValueError(f"degree_lo {_shown(degree_lo)} exceeds degree_hi {_shown(degree_hi)}")
    out = []
    for n in range(degree_lo, degree_hi + 1):
        if n in _AGREEING_KEYS:
            continue
        p3, p2 = _just_note(n, PYTH3), _just_note(n, PYTH2)
        out.append((n, notation.name_of(p3), notation.pyth2_name_of(p2), p3 / p2))
    return out
