"""The per-chord calls of a P/L/R walk against exact oracles.

`ratios._floor_log` runs its two confirming sign tests as float tries
under `_FLOAT_ERROR`, `harmony.purity` adds the lowest note's exponents to
its memoised shape and builds its report unchecked, and the sequences move
the two cached origin chords to the tonic's root.  Here the floor-log is
checked against signs decided in integer arithmetic alone, purity against a
report built from `Fraction`s of the notes with names found by parsing
every base name, and the sequences against each tonic's own circle shifts
voiced near it.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from tritave import harmony, notation
from tritave.harmony import TONNETZ_234, TONNETZ_456, ChordQuality, PurityReport
from tritave.ratios import FreqRatio, _floor_log

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


def grid(system):
    """The major, minor, augmented and diminished chords on every root of the grid."""
    for root in ROOTS[system.id]:
        for first, second, quality in QUALITIES:
            middle = system._shift(root, getattr(system, f"{first}_diagonal"))
            top = system._shift(middle, getattr(system, f"{second}_diagonal"))
            yield harmony.Chord((root, middle, top), system), quality


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
