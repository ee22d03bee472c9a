"""Note names for both Pythagorean scales, plus keyboard labelling.

The 19 tritave-based notes carry the names of their octave-based cousins
where the two scales agree; the extra ones are marked with an intra-domain
octave mark that is part of the base name (``","`` one octave down,
``"'"`` one octave up).  Whole-tritave shifts are then written with hats
and checks, so every 3-smooth note in the tritave system has exactly one
spelling::

    F, F#, G, Ab A Bb B C C# D Eb E F F# G G# A' Bb' B'   (base names)
    C^   = one tritave above the C
    F#,^ = the F#, raised a tritave

Octave-based names instead repeat ``"'"`` and ``","`` for whole octaves
(``G,`` in that spelling is reserved for the octave system; the same
frequency is written ``C^`` here).  Everything is plain ASCII so files
and CLI output are byte-stable; `NoteName.render` offers the pretty
unicode marks for display.  A name is read with one lookup, of its first
four characters less their period marks, and its marks as one run of one
mark; only a refused name is searched again for its longest base prefix,
which words the refusal.

This module owns every spelling: note names, the 2:3:4 class names and the
4:5:6 just names (as 12-EDO names).  Names are read off the piano keyboard:
the note ``2**u * 3**v`` sits ``12*u + 19*v`` keys up in both just scales,
and a scale's base names fill one window of keys, so one ``divmod`` splits
a key into the period shift (whole windows above it) and the base name (its
place in it); of the notes a comma apart on a key, the one in the harmonic
range is named.
"""

from __future__ import annotations

from . import scales
from .ratios import FreqRatio, _check_int, _check_type, _ratio, _Record, _shown, _SHOWN_BELOW

__all__ = [
    "NoteName",
    "KeyLabel",
    "BASE_NAMES_PYTH3",
    "BASE_NAMES_PYTH2",
    "NAMES_EDO12",
    "name_of",
    "parse_note",
    "note_name_at_degree",
    "pyth2_name_of",
    "parse_pyth2_note",
    "edo12_name",
    "parse_edo12_note",
    "keyboard_labels",
    "key_color_by_harmonic_degree",
]

#: Fundamental-domain names in scale-degree order (degrees -9 .. 9).
BASE_NAMES_PYTH3 = [
    "F,", "F#,", "G,", "Ab", "A", "Bb", "B", "C", "C#", "D",
    "Eb", "E", "F", "F#", "G", "G#", "A'", "Bb'", "B'",
]

#: Octave-system fundamental names in scale-degree order (degrees -5 .. 6).
BASE_NAMES_PYTH2 = [
    "A", "Bb", "B", "C", "C#", "D", "Eb", "E", "F", "F#", "G", "G#",
]

#: 12-EDO pitch-class names; the plain B sits one semitone *below* the
#: plain C so that close chord voicings read naturally.
NAMES_EDO12 = ["C", "C#", "D", "Eb", "E", "F", "F#", "G", "G#", "A", "Bb", "B"]

_UNICODE_MARKS = {"#": "♯", "b": "♭", "'": "′", ",": "⌄",
                  "^": "ˆ", "v": "ˇ"}

#: Most period marks one name may carry.  A name holds one mark per period,
#: so a shift of 10**15 would take a petabyte to write.
MAX_MARKS = 10**6


def _marks(shift: int, up: str, down: str) -> str:
    """Period marks for a shift: ``up`` once per period up, ``down`` per period down."""
    if abs(shift) > MAX_MARKS:
        periods = f"of {shift} periods" if abs(shift) < _SHOWN_BELOW else _shown(shift)
        raise ValueError(f"cannot spell a shift {periods}: more than {MAX_MARKS} marks")
    return up * shift if shift >= 0 else down * -shift


# Per just scale, by id: the window's lowest key, keys per period and base
# names in key order, base name -> note, the period marks, the error kind and
# whether the harmonic degree is v (the octave scale) rather than u.
_BASES = {
    system.id: (system.harmonic_range[0], system.notes_per_period, names,
                {name: scales._just_note(key, system)
                 for key, name in enumerate(names, system.harmonic_range[0])},
                up, down, kind, system.period.u)
    for system, names, up, down, kind in (
        (scales.PYTH3, BASE_NAMES_PYTH3, "^", "v", "a tritave"),
        (scales.PYTH2, BASE_NAMES_PYTH2, "'", ",", "an octave"))
}


def _base_at(key: int, system: scales.ScaleSystem) -> tuple[str, int]:
    """Base name and period shift of a just scale's note on a key."""
    lo, n, names, _, _, _, _, _ = _BASES[system.id]
    return names[(key - lo) % n], (key - lo) // n


_TRITAVE_BASES, _OCTAVE_BASES = _BASES[scales.PYTH3.id][3], _BASES[scales.PYTH2.id][3]
# The plain B is the semitone below the plain C.
_EDO12_SEMITONES = {name: pc - 12 if pc == 11 else pc for pc, name in enumerate(NAMES_EDO12)}
# 2:3:4 note classes by u mod 19: tritaves keep the 2-exponent and a comma
# moves it by 19, so the class of u is the base name on key 12*u.
_TRITAVE_CLASSES = tuple(_base_at(12 * u, scales.PYTH3)[0]
                         for u in range(scales.PYTH3.notes_per_period))


class NoteName(_Record):
    """A tritave-system note: base name plus whole-tritave shift."""

    __slots__ = ("base", "tritave_shift")

    def __init__(self, base: str, tritave_shift: int = 0) -> None:
        if not isinstance(base, str):
            raise ValueError(f"a base name must be a str, not {type(base).__name__} {_shown(base)}")
        if base not in _TRITAVE_BASES:
            raise ValueError(f"unknown base name {_shown(base)}")
        if type(tritave_shift) is not int:      # no bool either
            # Cut at 40 characters, a str too: here it is a value, not a name.
            shown = _shown(tritave_shift)
            raise ValueError(f"a tritave shift must be an int, not {type(tritave_shift).__name__} "
                             f"{shown if len(shown) <= 40 else shown[:20] + '...'}")
        _set_base(self, base)
        _set_shift(self, tritave_shift)

    def ratio(self) -> FreqRatio:
        note = _TRITAVE_BASES[self.base]
        return _ratio(note.u, note.v + self.tritave_shift)

    def __str__(self) -> str:
        return self.base + _marks(self.tritave_shift, "^", "v")

    def render(self, unicode: bool = False) -> str:
        text = str(self)
        if not unicode:
            return text
        return "".join(_UNICODE_MARKS.get(ch, ch) for ch in text)


_set_base, _set_shift = NoteName._setters


def _spell(ratio: FreqRatio, system: scales.ScaleSystem) -> tuple[str, int, str, str]:
    """Base name, period shift and period marks of a note in a just scale: the
    name and the shift in one ``divmod`` of its key ``12*u + 19*v`` by the window."""
    lo, n, names, _, up, down, kind, octave = _BASES[system.id]
    u, v = ratio.u, ratio.v
    if not lo <= (v if octave else u) < lo + n:     # raises
        scales._check_harmonic(v if octave else u, system,
                               f": not {kind}-system note, reduce to the fundamental set first")
    shift, place = divmod(12 * u + 19 * v - lo, n)
    return names[place], shift, up, down


def _name_in(ratio: FreqRatio, system: scales.ScaleSystem = scales.PYTH3) -> str:
    """Spelling of a note in a just scale, the tritave one by default: its
    base name and one period mark per period from that name's note."""
    base, shift, up, down = _spell(ratio, system)
    return base + _marks(shift, up, down)


def _just_names(u: int, v: int) -> tuple[str, ...]:
    """The names of ``2**u * 3**v`` in each just scale whose window holds u
    (tritave) or v (octave)."""
    key, names = 12 * u + 19 * v, []
    for lo, n, bases, _, up, down, _, octave in _BASES.values():
        if lo <= (v if octave else u) < lo + n:
            shift, place = divmod(key - lo, n)
            names.append(bases[place] + _marks(shift, up, down))
    return tuple(names)


def _exponent_str(ratio: FreqRatio) -> str:
    return f"2^{ratio.u}*3^{ratio.v}"


def _label(note) -> str:
    """A chord note as `str` of a chord or a lattice drawing shows it: its name;
    a 2:3:4 note with no name by its ratio, or its exponents if that is too long,
    and a 4:5:6 one by its semitone number."""
    if type(note) is not FreqRatio:
        try:
            return edo12_name(note)
        except ValueError:  # too far out to spell
            return _shown(note)
    try:
        return _name_in(note)
    except ValueError:      # no name
        try:
            return str(note)
        except ValueError:  # the ratio is too long to write
            return _exponent_str(note)


def name_of(ratio: FreqRatio) -> NoteName:
    """The unique tritave-system name of a note.

    The 2-adic harmonic degree must already lie in [-9, 9]; callers holding
    an arbitrary 3-smooth ratio reduce it to the fundamental set first.
    """
    _check_type(ratio, FreqRatio, "a note must be")
    base, shift, _, _ = _spell(ratio, scales.PYTH3)
    return NoteName(base, shift)


def note_name_at_degree(degree: int) -> NoteName:
    """Name of the tritave-system note at an absolute scale degree, on that key."""
    _check_int(degree, "degree")
    return NoteName(*_base_at(degree, scales.PYTH3))


def _read(text: str, bases: dict, up: str, down: str, kind: str) -> tuple:
    """A name's base value and signed mark count: +1 per ``up``, -1 per ``down``."""
    _check_type(text, str, "a note name must be")
    # No base is longer than 3 characters or ends in one of its own marks, so
    # the base is the first four characters less their marks; the rest must be
    # one run, and a run is its last mark repeated: one C fill and one compare.
    base = text[:4].rstrip(up + down)
    value, n = bases.get(base), len(text) - len(base)
    if value is not None and text.endswith(text[-1] * n):
        return value, n if text[-1] == up else -n
    # Refused: worded by the longest base prefix.
    k = next((k for k in (3, 2, 1) if text[:k] in bases), 0)
    if not k:
        raise ValueError(f"unknown note name {_shown(text)}")
    marks = text[k:]
    if up == "^" and marks[0] in "'," and marks == marks[0] * len(marks):
        raise ValueError(f"{_shown(text)} uses octave-system marks; in the tritave system "
                         "write whole-tritave shifts with '^' and 'v'")
    raise ValueError(f"bad {kind} marks in {_shown(text)}: use only {up!r} or only {down!r}")


def parse_note(text: str) -> FreqRatio:
    """Parse a tritave-system name (inverse of :func:`name_of`)."""
    note, shift = _read(text, _TRITAVE_BASES, "^", "v", "shift")
    return _ratio(note.u, note.v + shift)


def pyth2_name_of(ratio: FreqRatio) -> str:
    """Octave-system spelling: base name plus repeated primes/commas."""
    _check_type(ratio, FreqRatio, "a note must be")
    return _name_in(ratio, scales.PYTH2)


def parse_pyth2_note(text: str) -> FreqRatio:
    note, shift = _read(text, _OCTAVE_BASES, "'", ",", "octave")
    return _ratio(note.u + shift, note.v)


def edo12_name(semitone: int) -> str:
    """Name of a 12-EDO pitch (semitones relative to the central C); the
    plain B is the semitone below the plain C, so octaves turn over at B."""
    _check_int(semitone, "semitone")
    return NAMES_EDO12[semitone % 12] + _marks((semitone + 1) // 12, "'", ",")


def parse_edo12_note(text: str) -> int:
    semitone, shift = _read(text, _EDO12_SEMITONES, "'", ",", "octave")
    return semitone + 12 * shift


class KeyLabel(_Record):
    __slots__ = ("midi", "name", "scale_degree", "color")    # color: "white" | "black"

    def __init__(self, midi: int, name: NoteName, scale_degree: int, color: str) -> None:
        self._set(midi, name, scale_degree, color)


_BLACK_PCS = {1, 3, 6, 8, 10}


def keyboard_labels(midi_lo: int = 21, midi_hi: int = 108) -> list[KeyLabel]:
    """Tritave-system labels for a run of piano keys (D4 = MIDI 62 = degree 0)."""
    _check_int(midi_lo, "midi_lo")
    _check_int(midi_hi, "midi_hi")
    if not 0 <= midi_lo <= midi_hi <= 127:
        raise ValueError("midi range must satisfy 0 <= lo <= hi <= 127, "
                         f"not lo={_shown(midi_lo)}, hi={_shown(midi_hi)}")
    labels = []
    for midi in range(midi_lo, midi_hi + 1):
        degree = midi - 62
        labels.append(
            KeyLabel(
                midi=midi,
                name=note_name_at_degree(degree),
                scale_degree=degree,
                color="black" if midi % 12 in _BLACK_PCS else "white",
            )
        )
    return labels


def key_color_by_harmonic_degree(h: int) -> str:
    """Key colour on the tritave-periodic keyboard: low degrees are white.

    Eleven white and eight black keys per tritave; the harmonic degree is
    tritave-invariant so the colouring repeats exactly.
    """
    scales._check_harmonic(h, scales.PYTH3)
    return "white" if abs(h) <= 5 else "black"
