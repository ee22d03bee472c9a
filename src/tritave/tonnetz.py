"""Tone lattices for both harmonic systems and the P/L/R moves on them.

In the 2:3:4 lattice the octave runs horizontally, split into a fifth up
the diagonal and a fourth down it; major and minor triads are the up- and
down-pointing triangles.  The 4:5:6 lattice is the classical one on 12-EDO
pitch classes with fifths horizontal and the two thirds on the diagonals.

Each elementary move flips a triangle across one of its edges, exchanging
major and minor while changing exactly one note:

* P keeps the shared octave (2:3:4) or fifth (4:5:6),
* R keeps the shared fifth (2:3:4) or relative-third edge (4:5:6),
* L keeps the shared fourth (2:3:4) or leading-tone edge (4:5:6).

Each is written once.  `TonnetzSystem._triangle` stacks a triangle on
its root, and `_PLR` gives each move's diagonal and how many times a major
triad's root moves along it; a minor one's moves back as far.  `Triad`,
`apply_plr` and the reach search all read those two.

2:3:4 moves act on exact ratios in the infinite lattice (inversions are
not invisible here, so the plane cannot be rolled up), while note
counting identifies tritave- and comma-equivalent notes, i.e. works with
the 19 classes of the finite lattice.  So the reach search runs on that
finite lattice, and on the 12 pitch classes in 4:5:6: a triad there is
its root's class index and its quality, and a move adds a fixed step to
the index: the class index of the same triad and of the same diagonals.
`Triad` and `apply_plr` keep the real roots.
"""

from __future__ import annotations

from .harmony import TONNETZ_234, TONNETZ_456, Chord, ChordQuality, TonnetzSystem, _chord, classify
from .ratios import FreqRatio, _check_int, _check_type, _Record, _shown

__all__ = [
    "TonnetzSystem",
    "TONNETZ_234",
    "TONNETZ_456",
    "Triad",
    "ReachLevel",
    "major_triad",
    "minor_triad",
    "triad_from_chord",
    "apply_plr",
    "apply_plr_sequence",
    "note_class",
    "reachable_note_classes",
    "note_coordinates",
    "lattice_coordinates",
]


# Bound once: reading an enum member off its class costs about 70 ns on
# Python 3.11, and a P/L/R move reads four.
_MAJOR, _MINOR = ChordQuality.MAJOR, ChordQuality.MINOR

# Each move's diagonal and how many times a major triad's root moves along
# it; a minor triad's root moves back as far, so each move is its own inverse.
_PLR = {"P": ("up_diagonal", 0), "L": ("up_diagonal", 1), "R": ("down_diagonal", -1)}


class Triad(_Record):
    """A major or minor triangle: system, root and quality."""

    __slots__ = ("system", "root", "quality")

    def __init__(self, system: TonnetzSystem, root: FreqRatio | int,
                 quality: ChordQuality) -> None:
        _check_type(system, TonnetzSystem, "a lattice system must be")    # no id string
        if quality not in (_MAJOR, _MINOR):
            raise ValueError("a lattice triad is major or minor")
        system.check_note(root)
        self._set(system, root, quality)

    def notes(self) -> tuple:
        """Vertices of the triangle as lattice points, root first."""
        return self.system._lattice_points(self.system._triangle(self.root, self.quality is _MAJOR))

    def chord(self) -> Chord:
        # Trusted: the root's type is checked in `__init__`, and `_triangle` keeps it.
        return _chord(self.system._triangle(self.root, self.quality is _MAJOR), self.system)


_set_system, _set_root, _set_quality = Triad._setters


def _triad(system: TonnetzSystem, root, quality: ChordQuality) -> Triad:
    """``Triad(system, root, quality)`` unchecked, as `harmony._chord`: for a move's image."""
    triad = object.__new__(Triad)
    _set_system(triad, system)
    _set_root(triad, root)
    _set_quality(triad, quality)
    return triad


def major_triad(root, system: TonnetzSystem = TONNETZ_234) -> Triad:
    return Triad(system, root, _MAJOR)


def minor_triad(root, system: TonnetzSystem = TONNETZ_234) -> Triad:
    return Triad(system, root, _MINOR)


def triad_from_chord(c: Chord) -> Triad:
    _check_type(c, Chord, "triad_from_chord takes")
    quality = classify(c)
    if quality not in (_MAJOR, _MINOR):
        raise ValueError(f"P/L/R moves need a major or minor triad, not {_shown(str(c))} "
                         f"({quality})")
    return Triad(c.system, c.notes[0], quality)


def apply_plr(t: Triad, move: str) -> Triad:
    """One parallel / relative / leading-tone exchange; an involution."""
    _check_type(t, Triad, "apply_plr takes")
    move = move.upper() if isinstance(move, str) else move
    if move not in ("P", "L", "R"):
        raise ValueError(f"move must be P, L or R, not {_shown(move)}")
    major, system = t.quality is _MAJOR, t.system
    diagonal, times = _PLR[move]
    root = system._move_root(t.root, getattr(system, diagonal), times if major else -times)
    # Trusted: `_move_root` keeps the type of the checked root.
    return _triad(system, root, _MINOR if major else _MAJOR)


def _check_moves(moves: str) -> None:
    """Refuse a move string with a letter other than P, L or R, naming its place."""
    for place, move in enumerate(moves, start=1):
        if move.upper() not in _PLR:
            raise ValueError(f"move {place} of {_shown(moves)} must be P, L or R, "
                             f"not {_shown(move)}")


def apply_plr_sequence(t: Triad, moves: str) -> Triad:
    if not isinstance(moves, str):
        raise ValueError(f"moves must be a string of P, L and R, not {_shown(moves)}")
    _check_moves(moves)
    for move in moves:
        t = apply_plr(t, move)
    return t


def note_class(note, system: TonnetzSystem) -> str:
    """Class label of a note: one of 19 (2:3:4) or 12 (4:5:6) names.

    2:3:4 notes are identified up to tritaves and commas, which leaves the
    2-adic harmonic degree modulo 19; the label is the fundamental-domain
    name of that class.
    """
    _check_type(system, TonnetzSystem, "a lattice system must be")
    return system.class_name(note)


def _class_steps(system: TonnetzSystem) -> tuple:
    """Indexed by `major` (minor first): the class steps of a triad's notes
    over its root, and those of its P, L and R moves."""
    index = system._class_index
    stacks = tuple(tuple(map(index, system._triangle(system._origin, m))) for m in (False, True))
    moves = tuple(tuple(sign * times * index(getattr(system, diagonal))
                        for diagonal, times in _PLR.values()) for sign in (-1, 1))
    return stacks, moves


# By system id, as `harmony._QUALITIES`: the steps depend on the system only.
_CLASS_STEPS = {s.id: _class_steps(s) for s in (TONNETZ_234, TONNETZ_456)}


class ReachLevel(_Record):
    __slots__ = ("moves", "count", "classes")

    def __init__(self, moves: int, count: int, classes: frozenset) -> None:
        self._set(moves, count, classes)


def reachable_note_classes(start: Triad, max_moves: int) -> list[ReachLevel]:
    """Breadth-first search over triads under P, L and R.

    Level ``k`` reports how many distinct note classes occur in any triad
    reachable with at most ``k`` moves.  In the 2:3:4 system this grows by
    two classes per move until all 19 are reached after eight moves; the
    4:5:6 system covers its 12 classes in three.

    The search runs on the finite lattice, over at most 38 (or 24) keys of
    root class index and quality.  Each move adds a fixed step to the index,
    so it commutes with the projection from the infinite lattice, and every
    path of the finite one lifts to a path from the start: each level holds
    exactly the classes the infinite search reaches.
    """
    if not isinstance(start, Triad):    # a chord by its name, which is bounded
        shown = start if isinstance(start, Chord) else _shown(start)
        raise ValueError(f"start must be a Triad, not {type(start).__name__} {shown}")
    _check_int(max_moves, "max_moves")
    if not 0 <= max_moves <= 12:
        raise ValueError(f"max_moves must be in [0, 12], not {_shown(max_moves)}")
    system = start.system
    table = system._class_table
    n = len(table)
    stacks, moves = _CLASS_STEPS[system.id]
    key = (system._class_index(start.root) % n, start.quality is _MAJOR)
    seen, frontier, classes, levels = {key}, [key], set(), []
    for k in range(max_moves + 1):
        nxt = []
        for root, major in frontier:
            classes.update(table[(root + step) % n] for step in stacks[major])
            for step in moves[major]:
                key = ((root + step) % n, not major)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        levels.append(ReachLevel(k, len(classes), frozenset(classes)))
        frontier = nxt
    return levels


def note_coordinates(ratio: FreqRatio) -> tuple[int, int]:
    """Plane embedding of a 2:3:4 note: octave (+2, 0), fifth (+1, +1)."""
    _check_type(ratio, FreqRatio, "a note must be")
    return (2 * ratio.u + 3 * ratio.v, ratio.v)


def lattice_coordinates(t: Triad) -> tuple[tuple[int, int], ...]:
    """Vertices of the triad's triangle, root first.

    Major triads point up, minor triads down; the base is always two units
    wide (one octave) with the middle vertex one unit off the base line.
    """
    _check_type(t, Triad, "lattice_coordinates takes")
    if t.system != TONNETZ_234:
        raise ValueError("lattice coordinates are defined for the 2:3:4 system")
    return tuple(note_coordinates(n) for n in t.notes())
