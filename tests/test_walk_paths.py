"""The per-chord calls of a P/L/R walk against exact oracles.

`ratios._floor_log` runs its two confirming sign tests as float tries
under `_FLOAT_ERROR`, `harmony.purity` adds the lowest note's exponents to
its memoised shape and builds its report unchecked, and the sequences move
the two cached origin chords to the tonic's root.  Here the floor-log is
checked against signs decided in integer arithmetic alone, purity against a
report built from `Fraction`s of the notes with names found by parsing
every base name (its two frequencies, built with no gcd, also in all that a
`Fraction` shows), and the sequences against each tonic's own circle shifts
voiced near it.  Three calls that work on exponents or read three names
straight are checked against the routes they replaced: `parse_chord`
against a reader that reads every name with `oracles`' startswith reader,
refuses a repeat as it reads it and sorts by exact `Fraction` values;
`emit_tonnetz_path` against the drawing keyed by `FreqRatio`, placed by
`tonnetz.note_coordinates` and flagged by `harmony.classify`; and
`reduce_chord_to_domain` against tritave steps decided by integer
cross-multiplication (`oracles.oracle_reduce_chord_to_domain`, which
`tests/test_fast_paths.py` checks the trusted chords against too).
"""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tritave import exports, harmony, notation, tonnetz
from tritave.harmony import TONNETZ_234, TONNETZ_456, ChordQuality, PurityReport
from tritave.ratios import FreqRatio, _floor_log, _shown

from oracles import (assert_same_fraction, exact, oracle_parse_edo12_note, oracle_parse_note,
                     oracle_reduce_chord_to_domain, read_outcome)

# --- _floor_log ---------------------------------------------------------------

#: Bits of log2(3) after the point that the oracle works with: every
#: ``du + dv*log2(3)`` with exponents below 2**66 is at least 1e-40 from 0.
BITS = 256


@functools.cache
def log2_3_floor() -> int:
    """``floor(log2(3) * 2**BITS)``, by squaring 3/2 in integer interval arithmetic.

    Each square of x in [1, 2) gives one bit of log2(x): 1 where it reaches
    2 (and is then halved).  Lower and upper bounds round apart, so each bit
    is proven by both bounds landing on one side of 2.
    """
    scale = BITS + 64
    two = 2 << scale
    lo = hi = 3 << (scale - 1)
    n = 1                               # log2(3) = 1 + log2(3/2)
    for _ in range(BITS):
        lo, hi = lo * lo >> scale, -(-hi * hi >> scale)
        n *= 2
        if lo >= two:
            n, lo, hi = n + 1, lo >> 1, -(-hi >> 1)
        else:
            assert hi < two, "undecided bit"
    return n


def integer_sign(du: int, dv: int) -> int:
    """Sign of ``du + dv*log2(3)``, from the integer bounds of log2(3)."""
    n, unit = log2_3_floor(), 1 << BITS
    a, b = du * unit + dv * n, du * unit + dv * (n + 1)
    assert (a > 0) == (b > 0) and (a < 0) == (b < 0), (du, dv)
    return (a > 0) - (a < 0)


def convergents(count: int) -> list[tuple[int, int]]:
    """The first convergents p/q of log2(3), from its integer bounds."""
    x = Fraction(log2_3_floor(), 1 << BITS)
    (p0, q0), (p, q), out = (0, 1), (1, 0), []
    for _ in range(count):
        a = math.floor(x)
        (p0, q0), (p, q) = (p, q), (a * p + p0, a * q + q0)
        out.append((p, q))
        x = 1 / (x - a)
    return out


def above_one(du: int, dv: int) -> tuple[int, int]:
    return (du, dv) if integer_sign(du, dv) > 0 else (-du, -dv)


# 1, 2, 3/2, 8/5, 19/12, 65/41, 84/53, 485/306, 1054/665, ... up to q near 10**12.
CONVERGENTS = convergents(24)
# The quotients 3**q / 2**p of the convergents up to 1054/665, each above 1,
# and the periods and their squares, as `period_reduce` and the tritave
# reduction of chords use them.
BASES = [above_one(-p, q) for p, q in CONVERGENTS[3:9]] + [(0, 1), (1, 0), (0, 2), (2, 0)]


def near_convergent_pairs():
    """``k * (-p, q)`` plus an offset of at most 1 each way, with k small or
    large enough to take the exponents past 2**48 (and up to 2**61)."""
    for p, q in CONVERGENTS[2:]:
        for k in (1, 7, (1 << 48) // q + 1, (1 << 61) // p):
            for sign in (1, -1):
                for du in (-1, 0, 1):
                    for dv in (-1, 0, 1):
                        yield sign * -k * p + du, sign * k * q + dv


def random_pairs(count: int):
    rng = random.Random(25)
    for _ in range(count):
        bits = rng.choice((8, 30, 53, 62))
        yield rng.randint(-(1 << bits), 1 << bits), rng.randint(-(1 << bits), 1 << bits)


def assert_floor_log(u: int, v: int, pu: int, pv: int) -> None:
    # The largest n with base**n <= 2**u * 3**v: base**n fits, base**(n+1) does not.
    n = _floor_log(u, v, pu, pv)
    assert integer_sign(u - n * pu, v - n * pv) >= 0, (u, v, pu, pv, n)
    assert integer_sign(u - (n + 1) * pu, v - (n + 1) * pv) < 0, (u, v, pu, pv, n)


def test_the_integer_oracle_knows_log2_3():
    assert CONVERGENTS[:9] == [(1, 1), (2, 1), (3, 2), (8, 5), (19, 12), (65, 41), (84, 53),
                               (485, 306), (1054, 665)]
    for p, q in CONVERGENTS[:10]:   # the sign of 3**q - 2**p, off the integers themselves
        assert integer_sign(-p, q) == (3**q > 2**p) - (3**q < 2**p)
    for du, dv in random_pairs(200):
        if max(abs(du), abs(dv)) < 2000:
            assert integer_sign(du, dv) == (Fraction(2) ** du * Fraction(3) ** dv > 1) - (
                Fraction(2) ** du * Fraction(3) ** dv < 1)


@pytest.mark.parametrize("base", BASES, ids=str)
def test_floor_log_near_the_convergents_matches_the_integer_oracle(base):
    for u, v in near_convergent_pairs():
        assert_floor_log(u, v, *base)


def test_floor_log_of_random_pairs_matches_the_integer_oracle():
    rng = random.Random(2503)
    for u, v in random_pairs(1000):
        assert_floor_log(u, v, *rng.choice(BASES))


# --- purity ---------------------------------------------------------------------

# The just pitch classes of the 12-EDO semitones, C = 1, and the just 3- and
# 4-semitone steps; these steps make every classified 4:5:6 triad.
JUST_CLASSES = [Fraction(1), Fraction(135, 128), Fraction(9, 8), Fraction(6, 5), Fraction(5, 4),
                Fraction(4, 3), Fraction(45, 32), Fraction(3, 2), Fraction(25, 16),
                Fraction(5, 3), Fraction(9, 5), Fraction(15, 8)]
JUST_STEPS = {3: Fraction(6, 5), 4: Fraction(5, 4)}


def marks(shift: int, up: str, down: str) -> str:
    return up * shift if shift >= 0 else down * -shift


def frequencies(c) -> list[Fraction]:
    if c.system is TONNETZ_234:
        return [Fraction(2) ** n.u * Fraction(3) ** n.v for n in c.notes]
    low, mid, top = c.notes
    f = JUST_CLASSES[low % 12] * Fraction(2) ** (low // 12)
    return [f, f * JUST_STEPS[mid - low], f * JUST_STEPS[mid - low] * JUST_STEPS[top - mid]]


def names_234(freq: Fraction) -> tuple[str, ...]:
    """The tritave name (the base name whose note shares the 2-exponent) and
    the octave name (shares the 3-exponent), where a base name does."""
    r = FreqRatio.from_fraction(freq.numerator, freq.denominator)
    names = [name + marks(r.v - note.v, "^", "v") for name in notation.BASE_NAMES_PYTH3
             if (note := notation.parse_note(name)).u == r.u]
    names += [name + marks(r.u - note.u, "'", ",") for name in notation.BASE_NAMES_PYTH2
              if (note := notation.parse_pyth2_note(name)).v == r.v]
    return tuple(names)


def names_456(freq: Fraction) -> tuple[str, ...]:
    """The 12-EDO name of the just class a power of 2 away, that many octaves over it."""
    for pc, just in enumerate(JUST_CLASSES):
        q = freq / just
        num, den = q.numerator, q.denominator
        if num & (num - 1) == 0 and den & (den - 1) == 0:
            return (notation.edo12_name(pc + 12 * (num.bit_length() - den.bit_length())),)
    return ()


def fraction_report(c) -> PurityReport:
    f = frequencies(c)
    rel = [x / f[0] for x in f]
    scale = math.lcm(*(x.denominator for x in rel))
    ints = [int(x * scale) for x in rel]
    a, b, top = (i // math.gcd(*ints) for i in ints)
    d_overtone = math.lcm(a, b, top) // top
    base, overtone = f[0] / a, f[2] * d_overtone
    names = names_234 if c.system is TONNETZ_234 else names_456
    return PurityReport((a, b, top), a, d_overtone, base, overtone, names(base), names(overtone))


QUALITIES = [("up", "down", ChordQuality.MAJOR), ("down", "up", ChordQuality.MINOR),
             ("up", "up", ChordQuality.AUGMENTED), ("down", "down", ChordQuality.DIMINISHED)]
ROOTS = {
    "234": [FreqRatio(u, v) for u in range(-12, 13) for v in (-40, -1, 0, 1, 40)],
    "456": range(-36, 37),
}


def stacked(system, root, first: str, second: str):
    """The chord of a root and its two diagonal steps, ``"up"`` or ``"down"``."""
    middle = system._shift(root, getattr(system, f"{first}_diagonal"))
    top = system._shift(middle, getattr(system, f"{second}_diagonal"))
    return harmony.Chord((root, middle, top), system)


def grid(system):
    """The major, minor, augmented and diminished chords on every root of the grid."""
    for root in ROOTS[system.id]:
        for first, second, quality in QUALITIES:
            yield stacked(system, root, first, second), quality


def typed(value):
    if isinstance(value, tuple):
        return tuple(typed(item) for item in value)
    return type(value), value


@pytest.mark.parametrize("system", [TONNETZ_234, TONNETZ_456], ids=lambda s: s.id)
def test_purity_on_the_grid_is_the_fraction_report(system):
    named = 0
    for chord, quality in grid(system):
        assert harmony.classify(chord) is quality
        got, want = harmony.purity(chord), fraction_report(chord)
        for field in PurityReport._fields:
            assert typed(getattr(got, field)) == typed(getattr(want, field)), (chord, field)
        assert repr(got) == repr(want)
        named += bool(got.base_names) + bool(got.overtone_names)
    assert named > 0


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from([TONNETZ_234, TONNETZ_456]), st.integers(-60, 60), st.integers(-60, 60),
       st.sampled_from(QUALITIES))
@example(TONNETZ_234, 0, 2000, QUALITIES[0])     # far out: big parts over a small lcm
@example(TONNETZ_234, 5, 10**4, QUALITIES[1])
@example(TONNETZ_234, 0, -2000, QUALITIES[2])
@example(TONNETZ_234, -7, -10**4, QUALITIES[3])
def test_purity_frequencies_are_the_fractions_the_gcd_builds(system, u, v, quality):
    root = FreqRatio(u, v) if system is TONNETZ_234 else u
    chord = stacked(system, root, *quality[:2])
    got, want = harmony.purity(chord), fraction_report(chord)
    assert_same_fraction(got.base_frequency, want.base_frequency)
    assert_same_fraction(got.overtone_frequency, want.overtone_frequency)


# --- sequences --------------------------------------------------------------------

@pytest.mark.parametrize("system", [TONNETZ_234, TONNETZ_456], ids=lambda s: s.id)
def test_sequences_on_the_grid_are_the_voiced_circle_shifts(system):
    for tonic, quality in grid(system):
        for make, steps in ((harmony.basic_sequence, (-1, 1)), (harmony.cadence_sequence, (1, 2))):
            if quality is not ChordQuality.MAJOR:
                with pytest.raises(ValueError):
                    make(tonic)
                continue
            want = [tonic, *(system._voice_near(harmony.shift_in_circle(tonic, k), tonic)
                             for k in steps), tonic]
            got = make(tonic)
            assert got == want and repr(got) == repr(want), tonic


# --- reading, drawing and reducing the walk's chords ------------------------------

def generic_parse_chord(system, names):
    """`TonnetzSystem.parse_chord` as a read-sort-repeat reader: each name read
    by the startswith reader of `oracles.READERS`, a repeat refused when its
    second name is read, the notes sorted by their exact values."""
    parse = oracle_parse_note if system is TONNETZ_234 else oracle_parse_edo12_note
    first = {}      # each note read so far, with the name that first gave it
    for name in names:
        note = parse(name)
        if note in first:
            raise ValueError(f"chord notes must be distinct: {_shown(first[note])} and "
                             f"{_shown(name)} are one note")
        first[note] = name
    return harmony.Chord(tuple(sorted(first, key=exact)), system)


# Per system: pools of four or five of its names, each with up to two of one
# mark.  A name of the other system, with mixed marks or with no base.
NAME_POOLS = {
    system: st.lists(st.builds(lambda base, mark, n: base + mark * n, st.sampled_from(bases),
                               st.sampled_from(marks), st.integers(0, 2)),
                     min_size=4, max_size=5, unique=True)
    for system, bases, marks in ((TONNETZ_234, notation.BASE_NAMES_PYTH3, "^v"),
                                 (TONNETZ_456, notation.NAMES_EDO12, "',"))}
odd_names = st.builds(lambda base, marks: base + marks,
                      st.sampled_from([*notation.BASE_NAMES_PYTH3, *notation.NAMES_EDO12, "H", ""]),
                      st.sampled_from(["", "^", "'", "^v", "',"]))


@st.composite
def chord_names(draw):
    """A system and two to four names, mostly three: half the time distinct
    ones of a pool of its names, else drawn from the pool with repeats; one
    time in four the pool holds an odd name."""
    system = draw(st.sampled_from(list(NAME_POOLS)))
    pool = draw(NAME_POOLS[system])
    if draw(st.integers(0, 3)) == 0:
        pool[-1] = draw(odd_names)
    count = draw(st.sampled_from([2, 3, 3, 3, 4]))
    if draw(st.booleans()):
        return system, draw(st.permutations(pool))[:count]
    return system, [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1),
                                                   min_size=count, max_size=count))]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(chord_names())
@example((TONNETZ_234, ["A", "E", "A'"]))
@example((TONNETZ_234, ["A'", "E", "A"]))
@example((TONNETZ_234, ["A", "A", "H"]))
@example((TONNETZ_234, ["A", "H", "A"]))
@example((TONNETZ_234, ["E", "A", "E", "A'"]))
@example((TONNETZ_456, ["G", "C", "E"]))
@example((TONNETZ_456, ["C", "E"]))
def test_parse_chord_reads_as_the_generic_reader(case):
    system, names = case
    got = read_outcome(system.parse_chord, names)
    want = read_outcome(generic_parse_chord, system, names)
    assert got == want
    if isinstance(got, harmony.Chord):
        assert type(got.notes) is tuple and got.system is system


def reference_tonnetz_path(chords) -> str:
    """`emit_tonnetz_path` with its notes keyed by `FreqRatio`, each placed by
    `tonnetz.note_coordinates` and each chord's quality from `harmony.classify`."""
    notes = {}
    for chord in chords:
        if chord.system is not TONNETZ_234:
            raise ValueError("lattice paths are drawn for 2:3:4 progressions")
        for n in chord.notes:
            notes.setdefault(n, notation._label(n))
    lines = ["digraph tonnetz_path {", "  // octave (+2,0), fifth (+1,+1), fourth (+1,-1)",
             "  node [fontsize=10];"]
    for note in sorted(notes, key=lambda r: (r.u, r.v)):
        x, y = tonnetz.note_coordinates(note)
        lines.append(f'  "{notes[note]}" [shape=circle, pos="{x},{y}!"];')
    for i, chord in enumerate(chords, start=1):
        flagged = harmony.classify(chord) is ChordQuality.OTHER
        coords = [tonnetz.note_coordinates(n) for n in chord.notes]
        cx, cy = (sum(c[k] for c in coords) / 3 for k in (0, 1))
        lines.append(f'  chord{i} [label="{i}{"?" if flagged else ""}", shape=triangle, '
                     f'style=filled, fillcolor={"white" if flagged else "lightgray"}, '
                     f'pos="{cx:.4f},{cy:.4f}!"];')
        lines += [f'  chord{i} -> "{notes[n]}" [style=dotted, arrowhead=none];'
                  for n in chord.notes]
    lines += [f"  chord{i} -> chord{i + 1} [penwidth=2];" for i in range(1, len(chords))]
    return "\n".join(lines + ["}"]) + "\n"


# Roots near the window, a few tritaves out, past the names' mark limit (a
# ratio label) and past the ratio's digit limit too (an exponent label).
path_roots = st.builds(FreqRatio, st.integers(-14, 14),
                       st.integers(-6, 6) | st.sampled_from([-12000, 9000, 10**6 + 5, -10**7]))
def near_chord(root, steps):
    """The root and two notes a few steps off it (mostly an OTHER chord), or
    the major triad on the root where the steps give no three notes."""
    notes = {root, *(root * FreqRatio(u, v) for u, v in steps)}
    return harmony.chord_234(notes) if len(notes) == 3 else harmony.major_triad_234(root)


# Classified triads on a root, or three notes a few steps off it.
path_chords = (st.builds(lambda root, make: make(root), path_roots,
                         st.sampled_from([harmony.major_triad_234, harmony.minor_triad_234]))
               | st.builds(near_chord, path_roots,
                           st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                                    min_size=2, max_size=2)))
# Progressions drawn from a pool of chords, so that chords and notes repeat.
progressions = st.lists(path_chords, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8))


# A note a ratio labels, one its exponents label, and a chord flagged OTHER.
FAR_PATH = [harmony.major_triad_234(FreqRatio(14, 0)),
            harmony.minor_triad_234(FreqRatio(0, -10**7)),
            near_chord(FreqRatio(1, 1), [(1, 0), (3, 2)])]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(progressions)
@example(FAR_PATH)
@example(FAR_PATH[::-1] * 2)
def test_a_tonnetz_path_is_the_ratio_keyed_drawing(chords):
    assert exports.emit_tonnetz_path(chords) == reference_tonnetz_path(chords)


# Notes with few 2-exponents, so that two of them share one and collapse often.
domain_notes = st.builds(FreqRatio, st.integers(-4, 4), st.integers(-40, 40))
domain_chords = st.sets(domain_notes, min_size=3, max_size=3).map(harmony.chord_234)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(domain_chords, st.none() | domain_notes)
@example(harmony.chord_234((FreqRatio(0, 0), FreqRatio(1, 0), FreqRatio(0, 1))), None)
@example(harmony.chord_234((FreqRatio(0, 0), FreqRatio(1, 0), FreqRatio(2, 0))), FreqRatio(0, 0))
def test_a_domain_reduction_is_that_of_the_integer_oracle(chord, root):
    got = read_outcome(harmony.reduce_chord_to_domain, chord, root)
    assert got == read_outcome(oracle_reduce_chord_to_domain, chord, root)
    if isinstance(got, harmony.Chord):
        assert type(got.notes) is tuple and got.system is TONNETZ_234
