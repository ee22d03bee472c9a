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

Purity distances: write a chord as coprime integers a:b:c.  The common
base note (all chord notes are among its overtones) sits ``a`` steps below
the lowest note, and the first common overtone ``lcm(a,b,c)/c`` steps
above the highest.  Small values on both sides mean the chord hugs a
single overtone series.
"""

from __future__ import annotations

import enum
import functools
import math
from types import SimpleNamespace

from . import notation, scales
from .ratios import FreqRatio, FIFTH, FOURTH, OCTAVE, TRITAVE, _floor_log, _ratio, _Record

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
    ``class_names`` lists the note classes in display order.  The two
    subclasses supply everything that depends on the note type.
    """

    __slots__ = ("id", "horizontal", "up_diagonal", "down_diagonal", "period", "home",
                 "class_names")

    def __init__(self, id: str, horizontal: FreqRatio | int, up_diagonal: FreqRatio | int,
                 down_diagonal: FreqRatio | int, period: FreqRatio | int, home: str,
                 class_names: tuple[str, ...]) -> None:
        if self.shift(up_diagonal, down_diagonal) != horizontal:
            raise ValueError(f"system {id}: diagonals {up_diagonal} and "
                             f"{down_diagonal} miss the horizontal step {horizontal}")
        self._set(id, horizontal, up_diagonal, down_diagonal, period, home, class_names)

    def check_note(self, note) -> None:
        """Reject a note whose type is not exactly the period's: no bool is a 4:5:6 note."""
        if type(note) is not type(self.period):
            raise ValueError(f"system {self.id} takes {type(self.period).__name__} notes, "
                             f"not {note!r}")

    def parse_chord(self, names) -> Chord:
        """Chord of three note names given in any order."""
        return Chord(tuple(sorted(self.parse(name) for name in names)), self)


class _TritaveSystem(TonnetzSystem):
    """2:3:4 notes are exact ratios; intervals multiply."""

    __slots__ = ()

    def shift(self, note: FreqRatio, interval: FreqRatio, times: int = 1) -> FreqRatio:
        # A non-int ``times`` takes the checked constructor, which rejects the sum.
        make = _ratio if isinstance(times, int) else FreqRatio
        return make(note.u + interval.u * times, note.v + interval.v * times)

    def step(self, low: FreqRatio, high: FreqRatio) -> FreqRatio:
        return high / low

    def name(self, note: FreqRatio) -> str:
        return str(notation.name_of(note))

    def parse(self, text: str) -> FreqRatio:
        return notation.parse_note(text)

    def class_name(self, note: FreqRatio) -> str:
        return self.class_names[_CLASS_INDEX[note.u % len(_CLASS_INDEX)]]

    def lattice_points(self, notes: tuple) -> tuple:
        """Inversions are not invisible here, so the plane is not rolled up."""
        return notes

    move_root = shift   # P/L/R root map: on the unrolled plane a plain shift

    def voice_near(self, c: Chord, tonic: Chord) -> Chord:
        return reduce_chord_to_domain(c, root=tonic.notes[0])

    def just_frequencies(self, c: Chord) -> list[Fraction]:
        return [n.as_fraction() for n in c.notes]

    def frequency_names(self, freq: Fraction) -> tuple[str, ...]:
        ratio = FreqRatio.from_fraction(freq.numerator, freq.denominator)
        names = []
        for system in (scales.PYTH3, scales.PYTH2):
            try:
                names.append(notation._name_in(ratio, system))
            except ValueError:
                pass
        return tuple(names)


# Tritaves keep the 2-exponent and a comma moves it by 19, so a 2:3:4 class
# is fixed by u mod 19: the index in ``class_names`` of each residue.
_CLASS_INDEX = tuple(
    scales.harmonic_to_scale_degree(scales._window(u, scales.PYTH3), scales.PYTH3)
    - scales.PYTH3.harmonic_range[0] for u in range(scales.PYTH3.notes_per_period))


class _OctaveSystem(TonnetzSystem):
    """4:5:6 notes are integer 12-EDO semitones; intervals add."""

    __slots__ = ()

    def shift(self, note: int, interval: int, times: int = 1) -> int:
        return note + interval * times

    def step(self, low: int, high: int) -> int:
        return high - low

    def name(self, note: int) -> str:
        return notation.edo12_name(note)

    def parse(self, text: str) -> int:
        return notation.parse_edo12_note(text)

    def class_name(self, note: int) -> str:
        return self.class_names[note % self.period]

    def lattice_points(self, notes: tuple) -> tuple:
        """The lattice is rolled up onto the 12 pitch classes."""
        return tuple(n % self.period for n in notes)

    def move_root(self, root: int, interval: int, times: int) -> int:
        """Moves the pitch class and keeps the root's octave block."""
        return root - root % self.period + (root + interval * times) % self.period

    def voice_near(self, c: Chord, tonic: Chord) -> Chord:
        """Close voicing (span under an octave) nearest the tonic.

        ``base`` folds the notes into the octave from the tonic root.  Read
        cyclically, with an octave added per lap, its notes k = j, j+1, j+2
        are the close voicing j steps up (j < 0: down) from it.  Of the five
        voicings j in -2..2 the one with the least total motion from the
        tonic wins; ties go to the smaller step, then to the lower voicing.
        """
        r0 = tonic.notes[0]
        base = sorted(r0 + (n - r0) % self.period for n in c.notes)

        def voicing(j: int) -> list[int]:
            return [base[k % 3] + self.period * (k // 3) for k in range(j, j + 3)]

        def cost(j: int):
            return (sum(abs(a - b) for a, b in zip(voicing(j), tonic.notes)), abs(j), j)

        return chord_456(voicing(min(range(-2, 3), key=cost)))

    def just_frequencies(self, c: Chord) -> list[Fraction]:
        just = _five_limit()
        s1, s2 = _steps(c)
        if s1 not in just.step or s2 not in just.step:
            raise ValueError("no just interpretation for these step intervals")
        pc = c.notes[0] % self.period
        f0 = just.canon_freq[pc] * just.two ** ((c.notes[0] - pc) // self.period)
        return [f0, f0 * just.step[s1], f0 * just.step[s1] * just.step[s2]]

    def frequency_names(self, freq: Fraction) -> tuple[str, ...]:
        just = _five_limit()
        # k = floor(log2(g)) is the bit-length difference or one less
        g = freq / just.window_lo
        k = g.numerator.bit_length() - g.denominator.bit_length()
        k -= g < just.two ** k
        letter = just.names.get(freq / just.two ** k)
        if letter is None:
            return ()
        return (letter + notation._marks(k, "'", ","),)


TONNETZ_234 = _TritaveSystem(
    "234", OCTAVE, FIFTH, FOURTH, TRITAVE, "A", tuple(notation.BASE_NAMES_PYTH3)
)
TONNETZ_456 = _OctaveSystem("456", 7, 4, 3, 12, "C", tuple(notation.NAMES_EDO12))

_SYSTEMS = {s.id: s for s in (TONNETZ_234, TONNETZ_456)}


class Chord(_Record):
    """Three strictly ascending notes in one of the two systems.

    ``system`` may also be given by its ``id`` string.
    """

    __slots__ = ("notes", "system")

    def __init__(self, notes: tuple, system: TonnetzSystem | str = TONNETZ_234) -> None:
        if not isinstance(system, TonnetzSystem):
            if not isinstance(system, str) or system not in _SYSTEMS:
                raise ValueError(f"unknown system {system!r}")
            system = _SYSTEMS[system]
        if len(notes) != 3:
            raise ValueError(f"a chord needs exactly 3 notes, not {len(notes)}: {notes!r}")
        for note in notes:
            system.check_note(note)
        a, b, c = notes
        if not (a < b < c):
            raise ValueError(f"chord notes must be strictly ascending, not {notes!r}")
        self._set(notes, system)

    def names(self) -> tuple[str, str, str]:
        return tuple(self.system.name(n) for n in self.notes)

    def __str__(self) -> str:
        return "-".join(self.names())


def chord_234(notes) -> Chord:
    return Chord(tuple(sorted(notes)), TONNETZ_234)


def chord_456(notes) -> Chord:
    return Chord(tuple(sorted(int(n) for n in notes)), TONNETZ_456)


def major_triad_234(root: FreqRatio) -> Chord:
    return chord_234((root, root * FIFTH, root * OCTAVE))


def minor_triad_234(root: FreqRatio) -> Chord:
    return chord_234((root, root * FOURTH, root * OCTAVE))


def _steps(c: Chord):
    a, b, top = c.notes
    return c.system.step(a, b), c.system.step(b, top)


def classify(c: Chord) -> ChordQuality:
    """Quality from the ordered pair of step intervals.

    Major stacks the up diagonal then the down one, minor the reverse.
    """
    up, down = c.system.up_diagonal, c.system.down_diagonal
    return {
        (up, down): ChordQuality.MAJOR,
        (down, up): ChordQuality.MINOR,
        (up, up): ChordQuality.AUGMENTED,
        (down, down): ChordQuality.DIMINISHED,
    }.get(_steps(c), ChordQuality.OTHER)


def invert(c: Chord, direction: str = "first") -> Chord:
    """First inversion lifts the bottom note one period; second drops the top.

    Three first inversions of a 2:3:4 chord land a whole tritave higher.
    """
    a, b, top = c.notes
    system = c.system
    if direction == "first":
        notes = (b, top, system.shift(a, system.period))
    elif direction == "second":
        notes = (system.shift(top, system.period, -1), a, b)
    else:
        raise ValueError(f"direction must be 'first' or 'second', not {direction!r}")
    return Chord(tuple(sorted(notes)), system)


def shift_in_circle(c: Chord, steps: int) -> Chord:
    """Move every note along the harmonic circle; +1 is the dominant.

    The step is an octave for 2:3:4 chords (circle of octaves) and a fifth
    for 4:5:6 chords (circle of fifths).  No register reduction is applied.
    """
    system = c.system
    return Chord(tuple(system.shift(n, system.horizontal, steps) for n in c.notes), system)


def reduce_chord_to_domain(c: Chord, root: FreqRatio | None = None) -> Chord:
    """Shift each note by whole tritaves into [root, 3*root).

    ``root`` names the tonic register and defaults to the chord's own
    lowest note (chords spanning less than a tritave are then untouched).
    Each note keeps its tritave class, so this is a stack of first/second
    inversions; it is idempotent for a fixed root.
    """
    if c.system != TONNETZ_234:
        raise ValueError("domain reduction by tritaves applies to 2:3:4 chords")
    if root is None:
        root = c.notes[0]
    # n * TRITAVE**k lies in [root, 3*root) for k = -floor(log3(n / root)).
    reduced = [n / TRITAVE ** _floor_log(n.u - root.u, n.v - root.v, 0, 1) for n in c.notes]
    if len(set(reduced)) != 3:
        raise ValueError("domain reduction collapses two notes onto one")
    return chord_234(reduced)


def _sequence(kind: str, tonic: Chord, steps: tuple[int, int]) -> list[Chord]:
    """Tonic, two circle shifts of it voiced near it, tonic."""
    if classify(tonic) is not ChordQuality.MAJOR:
        raise ValueError(f"{kind} sequence defined for major tonic")
    moved = [tonic.system.voice_near(shift_in_circle(tonic, k), tonic) for k in steps]
    return [tonic, *moved, tonic]


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

@functools.cache
def _five_limit() -> SimpleNamespace:
    """The 4:5:6 just tables: steps, pitch-class frequencies, named window.

    Built on the first 4:5:6 purity call, so that no other command loads
    `fractions`.
    """
    from fractions import Fraction

    # Just interpretation of 12-EDO steps (5-limit); only steps of 3..5
    # semitones occur in the classified triads and their inversions.
    step = {
        1: Fraction(16, 15),
        2: Fraction(9, 8),
        3: Fraction(6, 5),
        4: Fraction(5, 4),
        5: Fraction(4, 3),
        6: Fraction(45, 32),
        7: Fraction(3, 2),
        8: Fraction(8, 5),
        9: Fraction(5, 3),
        10: Fraction(9, 5),
        11: Fraction(15, 8),
    }
    # Canonical just frequencies of the 12-EDO pitch classes relative C = 1,
    # keyed by pitch class at semitones 0..11 (so the plain B of the naming
    # window, one semitone below C, comes out as 15/8 / 2 = 15/16).
    canon_freq = {
        0: Fraction(1),
        1: Fraction(135, 128),
        2: Fraction(9, 8),
        3: Fraction(6, 5),
        4: Fraction(5, 4),
        5: Fraction(4, 3),
        6: Fraction(45, 32),
        7: Fraction(3, 2),
        8: Fraction(25, 16),
        9: Fraction(5, 3),
        10: Fraction(9, 5),
        11: Fraction(15, 8),
    }
    window_lo = Fraction(15, 16)
    # Names of the canonical frequencies inside the naming window [15/16, 15/8).
    names = {
        freq / 2 if freq >= 2 * window_lo else freq: name
        for freq, name in zip(canon_freq.values(), notation.NAMES_EDO12)
    }
    return SimpleNamespace(step=step, canon_freq=canon_freq, window_lo=window_lo,
                           names=names, two=Fraction(2))


class PurityReport(_Record):
    """Coprime chord ratio with base-note and overtone distances."""

    __slots__ = ("ratio", "d_base", "d_overtone", "base_frequency", "overtone_frequency",
                 "base_names", "overtone_names")

    def __init__(self, ratio: tuple[int, int, int], d_base: int, d_overtone: int,
                 base_frequency: Fraction, overtone_frequency: Fraction,
                 base_names: tuple[str, ...], overtone_names: tuple[str, ...]) -> None:
        self._set(ratio, d_base, d_overtone, base_frequency, overtone_frequency,
                  base_names, overtone_names)

    @property
    def reciprocal(self) -> tuple[int, int, int]:
        """Denominators of the 1/x : 1/y : 1/z form of the chord."""
        a, b, c = self.ratio
        lcm = math.lcm(a, b, c)
        return (lcm // a, lcm // b, lcm // c)


def purity(c: Chord) -> PurityReport:
    """Express the chord as a:b:c and report both purity distances."""
    freqs = c.system.just_frequencies(c)
    rel = [f / freqs[0] for f in freqs]
    denom_lcm = math.lcm(*(r.denominator for r in rel))
    ints = [int(r * denom_lcm) for r in rel]
    g = math.gcd(*ints)
    a, b, top = (i // g for i in ints)
    d_overtone = math.lcm(a, b, top) // top
    base = freqs[0] / a
    overtone = freqs[2] * d_overtone
    return PurityReport(
        ratio=(a, b, top),
        d_base=a,
        d_overtone=d_overtone,
        base_frequency=base,
        overtone_frequency=overtone,
        base_names=c.system.frequency_names(base),
        overtone_names=c.system.frequency_names(overtone),
    )
