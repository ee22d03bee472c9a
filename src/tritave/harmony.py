"""Chords, inversions, circle shifts, sequences and purity measures.

Two harmonic systems, one `TonnetzSystem` object each, share one chord type:

* ``TONNETZ_234`` -- chords are triples of exact 3-smooth ratios.  Major stacks
  a fifth then a fourth (2:3:4), minor a fourth then a fifth (3:4:6);
  two fifths make an augmented chord, two fourths a diminished one.
  Inversions move notes by whole tritaves, the circle shift by octaves.
* ``TONNETZ_456`` -- chords are triples of 12-EDO pitches (integer semitones
  relative to the central C, plain B one semitone below it).  Major is
  4+3 semitones, minor 3+4; inversions move by octaves, the circle shift
  by fifths.

In both, the first step of a major chord is the system's up diagonal, of
a minor chord its down diagonal, and the two steps make the horizontal
one; `TonnetzSystem._triangle` builds every major and minor chord from them.

Purity distances: write a chord as coprime integers a:b:c.  The common
base note (all chord notes are among its overtones) sits ``a`` steps below
the lowest note, and the first common overtone ``lcm(a,b,c)/c`` steps
above the highest.  Small values on both sides mean the chord hugs a
single overtone series.

`purity` works, in both systems, on just pitches written as exponent
vectors over the primes (2, 3, 5), "monzos": a 2:3:4 note is ``(u, v, 0)``,
a 4:5:6 note its just pitch class's vector an octave count up, each step
adding its just interval's vector.  The base note is the per-prime minimum
of the three vectors and the common overtone the per-prime maximum; a:b:c
are the notes over the base, and ``lcm(a,b,c)`` is the overtone over it.
So nothing is factored, and the base and overtone frequencies are the only
`Fraction`s built.  Their names, like every note and class name here, are
spelled by `notation`.

All of that but the lowest note's vector depends only on the chord's two
steps, so `purity` reads the rest off two memos of the last 16 shapes.
The first holds the base note and the overtone as vectors over the lowest
note, and the size-checked exponents of a, b, c and ``lcm(a,b,c)`` over
the base; a call adds the lowest note's vector to the first two and names
them.  Only then does the second build those integers from the exponents
or hand them back, so a chord refused by name leaves no big integer behind.
Last come the base frequency and the overtone, the base times the lcm.
Both `Fraction`s are built with no gcd of their big parts: the base's
positive exponents make its numerator and its negative ones its
denominator, two coprime parts, and the overtone's only common factor,
that of the small lcm and the base's denominator, is divided out first.
Sequences move the same way: every major tonic of a system has one shape,
so its subdominant, dominant and second dominant are worked out once, on
the origin, and moved to each tonic's root.

A chord is checked once, where it enters: the public `Chord` constructor
checks the system, the count, the note type and the order.  Chords whose
notes the package built itself, of the system's type and in order, are
built by `_chord`, which checks nothing: a triad stacked on a checked
root, a domain reduction after its sort and its collapse check, a sequence
chord moved to a checked tonic's root, and the chord of three names that
read as three distinct notes.  Both sorts are `_ascending`, at most three
comparisons.  `parse_chord` reads any other names (a refused name, a
repeated note, a count other than three) by sorting all it has read, which
words the refusal.  Any other chord goes through `Chord`; `chord_234` and
`chord_456` take notes in any order and check each before the sort
compares it.  Every public function taking a chord refuses anything else
by its type.  A system's three public methods check their input; its
note arithmetic (``_shift``, ``_parse``, ...) trusts it.
"""

from __future__ import annotations

import enum
import functools
import math
import operator

from . import notation
from .ratios import (FreqRatio, FIFTH, FOURTH, OCTAVE, ONE, TRITAVE, _check_type, _floor_log,
                     _coprime_fraction, _part, _parts, _ratio, _Record, _shown, _SHOWN_BELOW)

__all__ = [
    "ChordQuality",
    "TonnetzSystem",
    "TONNETZ_234",
    "TONNETZ_456",
    "Chord",
    "PurityReport",
    "chord_234",
    "chord_456",
    "major_triad_234",
    "minor_triad_234",
    "classify",
    "invert",
    "shift_in_circle",
    "reduce_chord_to_domain",
    "basic_sequence",
    "cadence_sequence",
    "purity",
]


class ChordQuality(enum.Enum):
    MAJOR = "major"
    MINOR = "minor"
    AUGMENTED = "augmented"
    DIMINISHED = "diminished"
    OTHER = "other"

    def __str__(self) -> str:
        return self.value


class TonnetzSystem(_Record):
    """One harmonic system: lattice geometry, note arithmetic, names, purity.

    The horizontal step is the circle step; the up diagonal (major step)
    and the down diagonal (minor step) split it.  Notes repeat after
    ``period``; ``home`` is the root of the default starting triad and
    ``class_names`` lists the note classes in display order.  The class is
    abstract: ``TONNETZ_234`` and ``TONNETZ_456`` are its instances, and only
    `check_note`, `parse_chord` and `class_name`, which check their input,
    are public.  Each subclass supplies the private note arithmetic of its
    note type, among it the ``_origin`` note, a note's integer class index
    and ``_class_table``, the class names in index order (modulo its length).
    """

    __slots__ = ("id", "horizontal", "up_diagonal", "down_diagonal", "period", "home",
                 "class_names")

    def __init__(self, id: str, horizontal: FreqRatio | int, up_diagonal: FreqRatio | int,
                 down_diagonal: FreqRatio | int, period: FreqRatio | int, home: str,
                 class_names: tuple[str, ...]) -> None:
        if type(self) is TonnetzSystem:
            raise ValueError("TonnetzSystem is abstract: use TONNETZ_234 or TONNETZ_456")
        if self._shift(up_diagonal, down_diagonal) != horizontal:
            raise ValueError(f"system {id}: diagonals {up_diagonal} and "
                             f"{down_diagonal} miss the horizontal step {horizontal}")
        self._set(id, horizontal, up_diagonal, down_diagonal, period, home, class_names)

    def check_note(self, note) -> None:
        """Reject a note whose type is not exactly the period's: no bool is a 4:5:6 note."""
        if type(note) is not type(self.period):
            raise ValueError(f"system {self.id} takes {type(self.period).__name__} notes, "
                             f"not {_shown(note)}")

    def parse_chord(self, names) -> Chord:
        """Chord of three distinct note names given in any order.  Of two names
        for one note, the later is refused with the earlier, before a later bad name."""
        names, notes = _items(names, "chord names"), []
        if len(names) == 3:
            try:
                low, mid, high = _ascending(*map(self._parse, names))
            except ValueError:  # refused by the read below, which words it
                pass
            else:
                if low != mid != high:  # Trusted: the system's notes, ordered and distinct
                    return _chord((low, mid, high), self)
        try:
            for name in names:
                notes.append(self._parse(name))
        finally:    # the notes read so far, sorted by note then by place
            order = sorted(range(len(notes)), key=notes.__getitem__)
            repeats = [(q, p) for p, q in zip(order, order[1:]) if notes[p] == notes[q]]
            if repeats:     # the first repeat as read, with the first name of its note
                q, p = min(repeats)
                raise ValueError(f"chord notes must be distinct: {_shown(names[p])} "
                                 f"and {_shown(names[q])} are one note")
        return Chord(tuple(map(notes.__getitem__, order)), self)     # refuses the count

    def class_name(self, note) -> str:
        self.check_note(note)
        return self._class_table[self._class_index(note) % len(self._class_table)]

    def _triangle(self, root, major: bool) -> tuple:
        """The notes of the major (up) or minor (down) triangle on a root, root
        first: the root, a diagonal above it and the horizontal step above it.
        They ascend strictly and keep the root's type."""
        return (root, self._shift(root, self.up_diagonal if major else self.down_diagonal),
                self._shift(root, self.horizontal))


class _TritaveSystem(TonnetzSystem):
    """2:3:4 notes are exact ratios; intervals multiply."""

    __slots__ = ()

    def _shift(self, note: FreqRatio, interval: FreqRatio, times: int = 1) -> FreqRatio:
        return _ratio(note.u + interval.u * times, note.v + interval.v * times)

    def _step(self, low: FreqRatio, high: FreqRatio) -> tuple[int, int]:
        """The exponents of ``high / low``; no ratio is built."""
        return high.u - low.u, high.v - low.v

    _name = staticmethod(notation._name_in)
    _parse = staticmethod(notation.parse_note)
    _origin = ONE
    _class_index = operator.attrgetter("u")     # the class is u mod 19
    _class_table = notation._TRITAVE_CLASSES

    def _lattice_points(self, notes: tuple) -> tuple:
        """Inversions are not invisible here, so the plane is not rolled up."""
        return notes

    _move_root = _shift     # P/L/R root map: on the unrolled plane a plain shift

    def _voice_near(self, c: Chord, tonic: Chord) -> Chord:
        return reduce_chord_to_domain(c, root=tonic.notes[0])

    def _monzo(self, note: FreqRatio) -> tuple[int, int, int]:
        return note.u, note.v, 0

    def _step_monzo(self, step: tuple[int, int]) -> tuple[int, int, int]:
        return (*step, 0)

    def _monzo_names(self, monzo: tuple[int, int, int]) -> tuple[str, ...]:
        two, three, _ = monzo
        return notation._just_names(two, three)


class _OctaveSystem(TonnetzSystem):
    """4:5:6 notes are integer 12-EDO semitones; intervals add."""

    __slots__ = ()

    def _shift(self, note: int, interval: int, times: int = 1) -> int:
        return note + interval * times

    def _step(self, low: int, high: int) -> int:
        return high - low

    _name = staticmethod(notation.edo12_name)
    _parse = staticmethod(notation.parse_edo12_note)
    _origin = 0
    _class_index = operator.index               # the class is the pitch class
    _class_table = property(operator.attrgetter("class_names"))

    def _lattice_points(self, notes: tuple) -> tuple:
        """The lattice is rolled up onto the 12 pitch classes."""
        return tuple(n % self.period for n in notes)

    def _move_root(self, root: int, interval: int, times: int) -> int:
        """Moves the pitch class and keeps the root's octave block."""
        return root - root % self.period + (root + interval * times) % self.period

    def _voice_near(self, c: Chord, tonic: Chord) -> Chord:
        """Close voicing (span under an octave) nearest the tonic.

        The notes folded into the octave from the tonic root, with the
        octave below and the two lowest of the octave above, list the close
        voicings as their runs of three: the run j steps from the middle
        octave's (j in -2..2) is the voicing j steps up (j < 0: down).  The
        one with the least total motion from the tonic wins; ties go to the
        smaller step, then to the lower voicing.
        """
        p = self.period
        t0, t1, t2 = tonic.notes
        low, mid, high = sorted(t0 + (n - t0) % p for n in c.notes)
        folded = (low - p, mid - p, high - p, low, mid, high, low + p, mid + p)
        *_, notes = min((abs(a - t0) + abs(b - t1) + abs(d - t2), abs(j), j, (a, b, d))
                        for j, a, b, d in zip(range(-2, 3), folded[1:], folded[2:], folded[3:]))
        return chord_456(notes)

    def _monzo(self, note: int) -> tuple[int, int, int]:
        """The note's just pitch class, an octave count up."""
        pc = note % self.period
        two, three, five = _JUST_CLASSES[pc]
        return two + (note - pc) // self.period, three, five

    def _step_monzo(self, step: int) -> tuple[int, int, int]:
        return _JUST_STEPS[step]    # a KeyError, which `purity` words

    def _monzo_names(self, monzo: tuple[int, int, int]) -> tuple[str, ...]:
        """The 12-EDO name of the pitch class with the same 3- and 5-exponents,
        an octave up per 2-exponent over that class's."""
        two, three, five = monzo
        pc = _JUST_PCS.get((three, five))
        if pc is None:
            return ()
        return (notation.edo12_name(pc + self.period * (two - _JUST_CLASSES[pc][0])),)


TONNETZ_234 = _TritaveSystem(
    "234", OCTAVE, FIFTH, FOURTH, TRITAVE, "A", tuple(notation.BASE_NAMES_PYTH3)
)
TONNETZ_456 = _OctaveSystem("456", 7, 4, 3, 12, "C", tuple(notation.NAMES_EDO12))

_SYSTEMS = {s.id: s for s in (TONNETZ_234, TONNETZ_456)}


def _qualities(s: TonnetzSystem) -> dict:
    """`classify`'s table for one system: the quality of each ordered pair of
    steps as `_step` gives them.  Each diagonal is the horizontal step over
    the other one."""
    up, down = s._step(s.down_diagonal, s.horizontal), s._step(s.up_diagonal, s.horizontal)
    return {(up, down): ChordQuality.MAJOR, (down, up): ChordQuality.MINOR,
            (up, up): ChordQuality.AUGMENTED, (down, down): ChordQuality.DIMINISHED}


_QUALITIES = {s.id: _qualities(s) for s in (TONNETZ_234, TONNETZ_456)}


class Chord(_Record):
    """Three strictly ascending notes in one of the two systems.

    ``system`` may also be given by its ``id`` string.
    """

    __slots__ = ("notes", "system")

    def __init__(self, notes: tuple, system: TonnetzSystem | str = TONNETZ_234) -> None:
        if not isinstance(system, TonnetzSystem):
            if not isinstance(system, str) or system not in _SYSTEMS:
                raise ValueError(f"unknown system {_shown(system)}")
            system = _SYSTEMS[system]
        _check_type(notes, tuple, "chord notes must be")
        if len(notes) != 3:
            raise ValueError(f"a chord needs exactly 3 notes, not {len(notes)}: {_shown(notes)}")
        for note in notes:
            system.check_note(note)
        a, b, c = notes
        if not (a < b < c):
            raise ValueError(f"chord notes must be strictly ascending, not {_shown(notes)}")
        self._set(notes, system)

    def names(self) -> tuple[str, str, str]:
        return tuple(map(self.system._name, self.notes))

    def __str__(self) -> str:
        return "-".join(map(notation._label, self.notes))   # a far note has no name


_set_notes, _set_system = Chord._setters


def _chord(notes: tuple, system: TonnetzSystem) -> Chord:
    """``Chord(notes, system)`` with no checks, the counterpart of `ratios._ratio`.

    Only for three notes that the caller has proven to be of the system's
    note type and strictly ascending, in a tuple, and for a system object
    (not an id); each use says why its notes qualify.
    """
    chord = object.__new__(Chord)
    _set_notes(chord, notes)
    _set_system(chord, system)
    return chord


def _ascending(a, b, c) -> tuple:
    """``tuple(sorted((a, b, c)))`` in at most three comparisons."""
    if b < a:
        a, b = b, a
    if c < b:
        b, c = c, b
        if b < a:
            a, b = b, a
    return a, b, c


def _items(values, what: str) -> tuple:
    """``tuple(values)``, refusing a non-iterable by its type."""
    try:
        items = iter(values)
    except TypeError:
        raise ValueError(f"{what} must be iterable, not {type(values).__name__}") from None
    return tuple(items)


def _sorted_chord(notes, system: TonnetzSystem) -> Chord:
    """The chord of three notes in any order, each checked before the sort; none is converted."""
    notes = _items(notes, "chord notes")
    for note in notes:
        system.check_note(note)
    return Chord(tuple(sorted(notes)), system)


def chord_234(notes) -> Chord:
    return _sorted_chord(notes, TONNETZ_234)


def chord_456(notes) -> Chord:
    return _sorted_chord(notes, TONNETZ_456)


def major_triad_234(root: FreqRatio) -> Chord:
    TONNETZ_234.check_note(root)
    return _chord(TONNETZ_234._triangle(root, True), TONNETZ_234)    # Trusted: a checked root


def minor_triad_234(root: FreqRatio) -> Chord:
    TONNETZ_234.check_note(root)
    return _chord(TONNETZ_234._triangle(root, False), TONNETZ_234)   # Trusted: a checked root


def _steps(c: Chord):
    a, b, top = c.notes
    return c.system._step(a, b), c.system._step(b, top)


def classify(c: Chord) -> ChordQuality:
    """Quality from the ordered pair of step intervals.

    Major stacks the up diagonal then the down one, minor the reverse.
    """
    _check_type(c, Chord, "classify takes")
    return _QUALITIES[c.system.id].get(_steps(c), ChordQuality.OTHER)


def invert(c: Chord, direction: str = "first") -> Chord:
    """First inversion lifts the bottom note one period; second drops the top.

    Three first inversions of a 2:3:4 chord land a whole tritave higher.
    """
    _check_type(c, Chord, "invert takes")
    a, b, top = c.notes
    system = c.system
    if direction == "first":
        notes = (b, top, system._shift(a, system.period))
    elif direction == "second":
        notes = (system._shift(top, system.period, -1), a, b)
    else:
        raise ValueError(f"direction must be 'first' or 'second', not {_shown(direction)}")
    return Chord(tuple(sorted(notes)), system)


def shift_in_circle(c: Chord, steps: int) -> Chord:
    """Move every note along the harmonic circle; +1 is the dominant.

    The step is an octave for 2:3:4 chords (circle of octaves) and a fifth
    for 4:5:6 chords (circle of fifths).  No register reduction is applied.
    """
    _check_type(c, Chord, "shift_in_circle takes")
    if not isinstance(steps, int):      # a bool is an int
        raise ValueError(f"shift_in_circle takes int steps, not {type(steps).__name__}")
    system = c.system
    return Chord(tuple(system._shift(n, system.horizontal, steps) for n in c.notes), system)


def reduce_chord_to_domain(c: Chord, root: FreqRatio | None = None) -> Chord:
    """Shift each note by whole tritaves into [root, 3*root).

    ``root`` names the tonic register and defaults to the chord's own
    lowest note (chords spanning less than a tritave are then untouched).
    Each note keeps its tritave class, so this is a stack of first/second
    inversions; it is idempotent for a fixed root.
    """
    _check_type(c, Chord, "reduce_chord_to_domain takes")
    # Identity first: `!=` on two systems compares seven fields.
    if c.system is not TONNETZ_234 and c.system != TONNETZ_234:
        raise ValueError("domain reduction by tritaves applies to 2:3:4 chords")
    if root is None:
        root = c.notes[0]
    elif not isinstance(root, FreqRatio):
        raise ValueError(f"reduce_chord_to_domain takes a FreqRatio root, not "
                         f"{type(root).__name__}")
    # n / TRITAVE**k lies in [root, 3*root) for k = floor(log3(n / root)).
    low, mid, high = notes = _ascending(
        *[_ratio(n.u, n.v - _floor_log(n.u - root.u, n.v - root.v, 0, 1)) for n in c.notes])
    if low == mid or mid == high:
        raise ValueError("domain reduction collapses two notes onto one")
    # Trusted: `_ratio` builds FreqRatio notes, and they are sorted and distinct.
    return _chord(notes, TONNETZ_234)


@functools.lru_cache(maxsize=4)    # two systems, two kinds of sequence
def _moved_from_origin(system_id: str, steps: tuple[int, int]) -> tuple:
    """The notes of the circle shifts by ``steps`` of the major tonic on the
    origin, each voiced near it."""
    system = _SYSTEMS[system_id]
    tonic = _chord(system._triangle(system._origin, True), system)   # Trusted: `_triangle`'s
    return tuple(system._voice_near(shift_in_circle(tonic, k), tonic).notes for k in steps)


def _sequence(kind: str, tonic: Chord, steps: tuple[int, int]) -> list[Chord]:
    """Tonic, two circle shifts of it voiced near it, tonic.

    The shift and the voicing move with the tonic, so the two chords are
    those of the major tonic on the origin, moved to the tonic's root.
    """
    _check_type(tonic, Chord, f"{kind}_sequence takes")
    quality = classify(tonic)
    if quality is not ChordQuality.MAJOR:
        raise ValueError(f"{kind} sequence needs a major tonic, not {_shown(str(tonic))} "
                         f"({quality})")
    system, root = tonic.system, tonic.notes[0]
    shift = system._shift
    (a, b, c), (d, e, f) = _moved_from_origin(system.id, steps)
    # Trusted: one note added to every note keeps their type and order.
    return [tonic, _chord((shift(root, a), shift(root, b), shift(root, c)), system),
            _chord((shift(root, d), shift(root, e), shift(root, f)), system), tonic]


def basic_sequence(tonic: Chord) -> list[Chord]:
    """tonic -- subdominant -- dominant -- tonic, voiced near the tonic."""
    return _sequence("basic", tonic, (-1, +1))


def cadence_sequence(tonic: Chord) -> list[Chord]:
    """tonic -- dominant -- second dominant -- tonic.

    The drop from the second dominant back to the tonic gives a stronger
    sense of finality than the plain dominant-tonic step.
    """
    return _sequence("cadence", tonic, (+1, +2))


# --- purity -----------------------------------------------------------------

# Monzos of the 5-limit just intervals of the 12-EDO steps 1..11: 16/15,
# 9/8, 6/5, 5/4, 4/3, 45/32, 3/2, 8/5, 5/3, 9/5, 15/8.  Only steps of 3..5
# semitones occur in the classified triads and their inversions.
_JUST_STEPS = {
    1: (4, -1, -1), 2: (-3, 2, 0), 3: (1, 1, -1), 4: (-2, 0, 1), 5: (2, -1, 0),
    6: (-5, 2, 1), 7: (-1, 1, 0), 8: (3, 0, -1), 9: (0, -1, 1), 10: (0, 2, -1),
    11: (-3, 1, 1),
}
# The just pitch classes at semitones 0..11 relative to C = 1: 1, 135/128,
# 9/8, 6/5, 5/4, 4/3, 45/32, 3/2, 25/16, 5/3, 9/5, 15/8.
_JUST_CLASSES = (
    (0, 0, 0), (-7, 3, 1), (-3, 2, 0), (1, 1, -1), (-2, 0, 1), (2, -1, 0),
    (-5, 2, 1), (-1, 1, 0), (-4, 0, 2), (0, -1, 1), (0, 2, -1), (-3, 1, 1),
)
# The pitch class of each just class's 3- and 5-exponents.
_JUST_PCS = {(three, five): pc for pc, (_, three, five) in enumerate(_JUST_CLASSES)}


class PurityReport(_Record):
    """Coprime chord ratio with base-note and overtone distances."""

    __slots__ = ("ratio", "d_base", "d_overtone", "base_frequency", "overtone_frequency",
                 "base_names", "overtone_names")

    def __init__(self, ratio: tuple[int, int, int], d_base: int, d_overtone: int,
                 base_frequency: Fraction, overtone_frequency: Fraction,
                 base_names: tuple[str, ...], overtone_names: tuple[str, ...]) -> None:
        _set_ratio(self, ratio)
        _set_d_base(self, d_base)
        _set_d_overtone(self, d_overtone)
        _set_base(self, base_frequency)
        _set_overtone(self, overtone_frequency)
        _set_base_names(self, base_names)
        _set_overtone_names(self, overtone_names)

    @property
    def reciprocal(self) -> tuple[int, int, int]:
        """Denominators of the 1/x : 1/y : 1/z form of the chord."""
        a, b, c = self.ratio
        lcm = math.lcm(a, b, c)
        return (lcm // a, lcm // b, lcm // c)


(_set_ratio, _set_d_base, _set_d_overtone, _set_base, _set_overtone, _set_base_names,
 _set_overtone_names) = PurityReport._setters


def _fractions(monzo, lcm: int) -> tuple[Fraction, Fraction]:
    """The exact value of a monzo and ``lcm`` times it, built with no gcd of
    their big parts: the value's numerator and denominator share no prime by
    construction, and the lcm's common factor with the denominator is divided
    out before the product; `_parts` checks the sizes."""
    two, three, five = monzo
    num, den = _parts(two, three)
    num, den = num * 5 ** max(five, 0), den * 5 ** max(-five, 0)
    g = math.gcd(lcm, den)
    return _coprime_fraction(num, den), _coprime_fraction(num * (lcm // g), den // g)


@functools.lru_cache(maxsize=16)
def _shape(system_id: str, steps: tuple) -> tuple:
    """The base note and the first common overtone of the chord with these
    steps, as monzos over its lowest note, and the ``(two, three, five)``
    exponents of a, b, c and ``lcm(a,b,c)`` over the base note, each 2-and-3
    part checked once by `_part`, in that order (the 5-exponents of the just
    tables stay small).  Nothing big is built here; errors are not kept.
    """
    first, second = map(_SYSTEMS[system_id]._step_monzo, steps)
    notes = ((0, 0, 0), first, tuple(map(operator.add, first, second)))
    low, high = tuple(map(min, *notes)), tuple(map(max, *notes))
    return low, high, tuple((*_part(two - low[0], three - low[1], "numerator"), five - low[2])
                            for two, three, five in (*notes, high))


@functools.lru_cache(maxsize=16)
def _purity_shape(system_id: str, steps: tuple) -> tuple:
    """The integers of `purity` that every transposition of a chord shares.

    a:b:c, the overtone distance and ``lcm(a,b,c)`` for the chord with these
    steps, built from `_shape`'s checked exponents.  `purity` calls this only
    once the chord's names are spelled, so the memo keeps no shape of a
    refused chord; it is bounded at 16 shapes, each under `MAX_POWER_BITS`.
    """
    a, b, top, lcm = ((3 ** three << two) * 5 ** five
                      for two, three, five in _shape(system_id, steps)[2])
    return (a, b, top), lcm // top, lcm


def purity(c: Chord) -> PurityReport:
    """Express the chord as a:b:c and report both purity distances."""
    _check_type(c, Chord, "purity takes")
    system, steps = c.system, _steps(c)
    try:
        (b2, b3, b5), (o2, o3, o5), _ = _shape(system.id, steps)
    except KeyError as key:     # a 4:5:6 step of 12 semitones or more
        step = key.args[0]
        step = f"of {step} semitones" if step < _SHOWN_BELOW else _shown(step)
        raise ValueError(f"no just interpretation of {_shown(str(c))}: a step {step} "
                         "(4:5:6 purity takes 1 to 11)") from None
    two, three, five = system._monzo(c.notes[0])
    low, high = (two + b2, three + b3, five + b5), (two + o2, three + o3, five + o5)
    # Names before values: a note too far up to spell fails as such, and
    # before any big integer is built or kept.
    base_names, overtone_names = system._monzo_names(low), system._monzo_names(high)
    ratio, d_overtone, lcm = _purity_shape(system.id, steps)
    base, overtone = _fractions(low, lcm)
    return PurityReport(ratio, ratio[0], d_overtone, base, overtone, base_names, overtone_names)
