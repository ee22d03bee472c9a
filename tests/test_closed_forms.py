"""Closed forms against the step-at-a-time loops they replace.

`_OctaveSystem._voice_near` reads the five close voicings off the sorted
pitches, the 4:5:6 just names come from `notation.edo12_name` of a
semitone worked out from the 2-exponent, and `ratios._strip` halves the
exponent left to find at each division.  The reference copies below are
the rotation and folding loops they replaced; results must agree exactly,
and the cost must not grow with the number of octaves or tritaves.

`harmony.purity` works on prime-exponent vectors, with the part that
depends only on the chord's steps kept per shape; its reference is the
big-`Fraction` computation it replaced, with its just-intonation tables.
`basic_sequence` and `cadence_sequence` move the chords of the tonic on the
origin to the tonic's root; their reference is the circle shift and the
voicing of each tonic.

`tonnetz.reachable_note_classes` searches the finite lattice, over keys of
root class index (``u mod 19`` in 2:3:4, the pitch class in 4:5:6) and
quality, and a 2:3:4 class is `notation._TRITAVE_CLASSES` at ``u mod 19``;
their references are the search that built a `Triad` per move on the
infinite lattice and the harmonic-to-scale-degree formula.
"""

import collections
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tritave import harmony, notation, scales
from tritave.harmony import (TONNETZ_234, TONNETZ_456, ChordQuality, PurityReport, chord_456,
                             classify, invert)
from tritave.ratios import ONE, TRITAVE, FreqRatio, _strip
from tritave.tonnetz import ReachLevel, Triad, apply_plr, reachable_note_classes


def rotation_voice_near(c, tonic):
    period = TONNETZ_456.period
    r0 = tonic.notes[0]
    base = sorted(r0 + (n - r0) % period for n in c.notes)
    candidates = {0: base}
    low = base
    for j in (1, 2):
        low = sorted([low[2] - period] + low[:2])
        candidates[-j] = low
    high = base
    for j in (1, 2):
        high = sorted(high[1:] + [high[0] + period])
        candidates[j] = high

    def cost(item):
        j, notes = item
        return (sum(abs(a - b) for a, b in zip(notes, tonic.notes)), abs(j), j)

    _, best = min(candidates.items(), key=cost)
    return chord_456(best)


# --- the Fraction purity that harmony.purity replaced ------------------------

# Just interpretation of 12-EDO steps (5-limit).
JUST_STEP = {
    1: Fraction(16, 15), 2: Fraction(9, 8), 3: Fraction(6, 5), 4: Fraction(5, 4),
    5: Fraction(4, 3), 6: Fraction(45, 32), 7: Fraction(3, 2), 8: Fraction(8, 5),
    9: Fraction(5, 3), 10: Fraction(9, 5), 11: Fraction(15, 8),
}
# Canonical just frequencies of the 12-EDO pitch classes relative C = 1,
# keyed by pitch class at semitones 0..11.
CANON_FREQ = {
    0: Fraction(1), 1: Fraction(135, 128), 2: Fraction(9, 8), 3: Fraction(6, 5),
    4: Fraction(5, 4), 5: Fraction(4, 3), 6: Fraction(45, 32), 7: Fraction(3, 2),
    8: Fraction(25, 16), 9: Fraction(5, 3), 10: Fraction(9, 5), 11: Fraction(15, 8),
}
WINDOW_LO = Fraction(15, 16)
# Names of the canonical frequencies inside the naming window [15/16, 15/8).
WINDOW_NAMES = {
    freq / 2 if freq >= 2 * WINDOW_LO else freq: name
    for freq, name in zip(CANON_FREQ.values(), notation.NAMES_EDO12)
}


def fraction_just_frequencies(c):
    if c.system is TONNETZ_234:
        return [n.as_fraction() for n in c.notes]
    s1, s2 = harmony._steps(c)
    if s1 not in JUST_STEP or s2 not in JUST_STEP:
        raise ValueError(f"no just interpretation of {notation._quote(str(c))}: a step of "
                         f"{s1 if s1 not in JUST_STEP else s2} semitones "
                         "(4:5:6 purity takes 1 to 11)")
    pc = c.notes[0] % 12
    f0 = CANON_FREQ[pc] * Fraction(2) ** ((c.notes[0] - pc) // 12)
    return [f0, f0 * JUST_STEP[s1], f0 * JUST_STEP[s1] * JUST_STEP[s2]]


def fraction_frequency_names(system, freq):
    if system is TONNETZ_234:
        ratio = FreqRatio.from_fraction(freq.numerator, freq.denominator)
        names = []
        for scale in (scales.PYTH3, scales.PYTH2):
            try:
                names.append(notation._name_in(ratio, scale))
            except ValueError:
                pass
        return tuple(names)
    # k = floor(log2(g)) is the bit-length difference or one less
    g = freq / WINDOW_LO
    k = g.numerator.bit_length() - g.denominator.bit_length()
    k -= g < Fraction(2) ** k
    letter = WINDOW_NAMES.get(freq / Fraction(2) ** k)
    if letter is None:
        return ()
    return (letter + notation._marks(k, "'", ","),)


def fraction_purity(c):
    freqs = fraction_just_frequencies(c)
    rel = [f / freqs[0] for f in freqs]
    denom_lcm = math.lcm(*(r.denominator for r in rel))
    ints = [int(r * denom_lcm) for r in rel]
    g = math.gcd(*ints)
    a, b, top = (i // g for i in ints)
    d_overtone = math.lcm(a, b, top) // top
    base = freqs[0] / a
    overtone = freqs[2] * d_overtone
    return PurityReport((a, b, top), a, d_overtone, base, overtone,
                        fraction_frequency_names(c.system, base),
                        fraction_frequency_names(c.system, overtone))


def typed(value):
    """A value with the type of it and of each item of a tuple."""
    if isinstance(value, tuple):
        return tuple(typed(item) for item in value)
    return type(value), value


def classified_triads(system, roots):
    """The four classified triads on each root, stacked from their two steps."""
    up, down = system.up_diagonal, system.down_diagonal
    for root in roots:
        for s1, s2 in ((up, down), (down, up), (up, up), (down, down)):
            middle = system._shift(root, s1)
            yield harmony.Chord((root, middle, system._shift(middle, s2)), system)


DIFFERENTIAL_ROOTS = {
    "234": [FreqRatio(u, v) for u in range(-19, 20) for v in (-1, 0, 1)],
    "456": range(-12, 12),
}


# Steps of the other shapes: in 2:3:4 every 2^u*3^v above 1 with |u| <= 3
# and -1 <= v <= 2, so that two of them span up to 72^2, far beyond a tritave;
# in 4:5:6 1 to 14 semitones, where 12 to 14 have no just interval.
OTHER_STEPS = {
    "234": [r for r in (FreqRatio(u, v) for u in range(-3, 4) for v in range(-1, 3)) if r > ONE],
    "456": range(1, 15),
}
# The other shapes repeat on every root, so a few roots of each system do.
OTHER_ROOTS = {"234": DIFFERENTIAL_ROOTS["234"][::26], "456": DIFFERENTIAL_ROOTS["456"][::8]}


def other_chords(system, roots):
    """The chords of every pair of `OTHER_STEPS` on each root."""
    steps = OTHER_STEPS[system.id]
    for root in roots:
        for s1 in steps:
            middle = system._shift(root, s1)
            for s2 in steps:
                yield harmony.Chord((root, middle, system._shift(middle, s2)), system)


def assert_same_purity(c):
    """`purity` agrees with the oracle on every field, or raises its error."""
    try:
        want = fraction_purity(c)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            harmony.purity(c)
        assert str(excinfo.value) == str(exc), c
        return
    got = harmony.purity(c)
    for field in PurityReport._fields:
        assert typed(getattr(got, field)) == typed(getattr(want, field)), (c, field)


@pytest.mark.parametrize("system", [TONNETZ_234, TONNETZ_456], ids=lambda s: s.id)
def test_purity_matches_the_fractions(system):
    voicings = []
    for triad in classified_triads(system, DIFFERENTIAL_ROOTS[system.id]):
        assert classify(triad) is not ChordQuality.OTHER
        voicings += (triad, invert(triad, "first"), invert(triad, "second"))
    voicings += other_chords(system, OTHER_ROOTS[system.id])
    for voicing in voicings:
        for periods in (0, 10**3, -10**3):
            notes = (system._shift(n, system.period, periods) for n in voicing.notes)
            assert_same_purity(harmony.Chord(tuple(notes), system))


def test_purity_refuses_the_steps_with_no_just_interval():
    # the oracle's refusal, so that the comparison above sees both outcomes;
    # the message names the chord and its first step with no just interval
    for (s1, s2), chord, step in (((4, 12), "C-E-E'", 12), ((13, 3), "C-C#'-E'", 13),
                                  ((14, 14), "C-D'-E''", 14)):
        with pytest.raises(ValueError) as excinfo:
            harmony.purity(chord_456((0, s1, s1 + s2)))
        assert str(excinfo.value) == (f'no just interpretation of "{chord}": a step of '
                                      f"{step} semitones (4:5:6 purity takes 1 to 11)")


def test_the_purity_memo_is_bounded():
    assert harmony._purity_shape.cache_info().maxsize == 16


def test_purity_refuses_a_name_before_it_builds_the_integers():
    # 2:3:4 as 1:2:3**(2*10**6): the lcm would have about 3.2e6 bits, and
    # the overtone is one mark past the bound.
    chord = harmony.Chord((FreqRatio(0, 0), FreqRatio(1, 0), FreqRatio(0, 2 * 10**6)))
    kept = harmony._purity_shape.cache_info().currsize
    start = time.perf_counter()
    with pytest.raises(ValueError) as excinfo:
        harmony.purity(chord)
    assert time.perf_counter() - start < 0.1
    assert str(excinfo.value) == "cannot spell a shift of 2000001 periods: more than 1000000 marks"
    assert harmony._purity_shape.cache_info().currsize == kept


def shifted_sequence(tonic, steps):
    """The sequence as each tonic's own circle shifts, voiced near it."""
    moved = (tonic.system._voice_near(harmony.shift_in_circle(tonic, k), tonic) for k in steps)
    return [tonic, *moved, tonic]


def sequence_outcome(make):
    """The chords a call returns, or the text of its error."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


SEQUENCES = [(harmony.basic_sequence, (-1, 1)), (harmony.cadence_sequence, (1, 2))]
BOUND = 2**63
# 2:3:4 roots with an exponent within 30 of the ends of [-2**63, 2**63)
EDGES = [e for d in range(31) for e in (BOUND - 1 - d, -BOUND + d)]
BOUND_ROOTS = {
    "234": [FreqRatio(*uv) for e in EDGES for uv in ((e, 0), (0, e), (e, e), (e, -e - 1))],
    "456": EDGES,
}


def major_tonics(system, roots):
    """The major triads on these roots that can be built."""
    up, down = system.up_diagonal, system.down_diagonal
    for root in roots:
        try:
            middle = system._shift(root, up)
            yield harmony.Chord((root, middle, system._shift(middle, down)), system)
        except ValueError:
            continue


@pytest.mark.parametrize("system", [TONNETZ_234, TONNETZ_456], ids=lambda s: s.id)
def test_sequences_match_the_shifted_chords(system):
    tonics = []
    for periods in (0, 10**3, -10**3):
        roots = (system._shift(r, system.period, periods) for r in DIFFERENTIAL_ROOTS[system.id])
        tonics += major_tonics(system, roots)
    for tonic in tonics:
        for make, steps in SEQUENCES:
            assert make(tonic) == shifted_sequence(tonic, steps), tonic


@pytest.mark.parametrize("system", [TONNETZ_234, TONNETZ_456], ids=lambda s: s.id)
def test_sequences_at_the_exponent_bounds_match_the_shifted_chords(system):
    # Near the ends a shifted note may leave [-2**63, 2**63); the moved
    # chords then fail with the same error, since a circle shift in 2:3:4
    # moves the 2-exponents that the voicing keeps.
    outcomes = collections.Counter()
    for tonic in major_tonics(system, BOUND_ROOTS[system.id]):
        for make, steps in SEQUENCES:
            got = sequence_outcome(lambda: make(tonic))
            assert got == sequence_outcome(lambda: shifted_sequence(tonic, steps)), tonic
            outcomes[type(got)] += 1
    assert outcomes[list] > 0
    assert (outcomes[str] > 0) == (system is TONNETZ_234)


def folding_frequency_names(freq):
    k = 0
    g = freq
    while g >= 2 * WINDOW_LO:
        g /= 2
        k += 1
    while g < WINDOW_LO:
        g *= 2
        k -= 1
    letter = WINDOW_NAMES.get(g)
    if letter is None:
        return ()
    return (letter + notation._marks(k, "'", ","),)


def five_limit_monzo(freq):
    """The (2, 3, 5) exponents of a fraction, or None if it has another prime factor."""
    num, den, monzo = freq.numerator, freq.denominator, []
    for p in (2, 3, 5):
        num, up = _strip(num, p)
        den, down = _strip(den, p)
        monzo.append(up - down)
    return tuple(monzo) if num == den == 1 else None


ROOTS = range(-24, 36)
TRIADS = [chord_456((r, r + a, r + 7)) for r in ROOTS for a in (3, 4)]


@pytest.mark.parametrize("root", ROOTS)
def test_voice_near_matches_the_rotations(root):
    for third in (3, 4):
        tonic = chord_456((root, root + third, root + 7))
        for c in TRIADS:
            assert TONNETZ_456._voice_near(c, tonic) == rotation_voice_near(c, tonic)


CLUSTERS = [(a, b, c) for a in range(12) for b in range(a + 1, 12) for c in range(b + 1, 12)]


@pytest.mark.parametrize("steps", [(1, 1), (5, 14), (7, 5), (11, 11), (12, 7), (23, 1)])
def test_voice_near_matches_the_rotations_for_any_chords(steps):
    # wide tonics are where the voicings two steps up or down win
    for root in (-13, 0, 5, 30):
        tonic = chord_456((root, root + steps[0], root + sum(steps)))
        for notes in CLUSTERS:
            c = chord_456(notes)
            assert TONNETZ_456._voice_near(c, tonic) == rotation_voice_near(c, tonic)


FREQUENCIES = [
    *CANON_FREQ.values(),
    Fraction(81, 80), Fraction(25, 24), Fraction(7, 4), Fraction(1, 3), Fraction(10, 1),
    Fraction(3**20, 5**9), Fraction(5**12, 2**3 * 3**11),
]


@pytest.mark.parametrize("freq", FREQUENCIES, ids=str)
def test_frequency_names_match_the_folding(freq):
    # a frequency that is not 5-limit has no monzo and no name
    for k in range(-60, 61):
        scaled = freq * Fraction(2) ** k
        monzo = five_limit_monzo(scaled)
        names = () if monzo is None else TONNETZ_456._monzo_names(monzo)
        assert names == folding_frequency_names(scaled)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_strip_recovers_the_exponent(p):
    cofactors = [n for n in (1, 2, 3, 5, 7, 11, 10**40 + 1, 6**30 - 1) if n % p]
    for n in cofactors:
        for k in range(201):
            assert _strip(n * p**k, p) == (n, k)


def elapsed(f) -> float:
    start = time.perf_counter()
    f()
    return time.perf_counter() - start


def test_456_purity_far_up_is_cheap():
    # folding one octave per step took seconds at this height
    far = 12 * 10**5
    c = chord_456((far, far + 4, far + 7))
    assert elapsed(lambda: harmony.purity(c)) < 0.25


def test_234_purity_far_up_is_cheap():
    # one division per factor in from_fraction took over a second at this height
    c = harmony.major_triad_234(notation.parse_note("A") * TRITAVE ** 40000)
    assert elapsed(lambda: harmony.purity(c)) < 0.3
    # re-factoring the base and overtone took about 90 ms at this height
    c = harmony.major_triad_234(notation.parse_note("A") * TRITAVE ** 10**5)
    assert min(elapsed(lambda: harmony.purity(c)) for _ in range(3)) < 0.03


def formula_class_name(system, note):
    if system is not TONNETZ_234:
        return system.class_name(note)
    pyth3 = scales.PYTH3
    degree = scales.harmonic_to_scale_degree(scales._window(note.u, pyth3), pyth3)
    return system.class_names[degree - pyth3.harmonic_range[0]]


def triad_apply_plr(t, move):
    major = t.quality is ChordQuality.MAJOR
    flipped = ChordQuality.MINOR if major else ChordQuality.MAJOR
    system = t.system
    if move == "P":
        root = t.root
    elif move == "R":
        root = system._move_root(t.root, system.down_diagonal, -1 if major else 1)
    else:  # L
        root = system._move_root(t.root, system.up_diagonal, 1 if major else -1)
    return Triad(system, root, flipped)


def plr_outcome(move_triad, triad, move):
    """The image triad, or the message of the ValueError raised."""
    try:
        return move_triad(triad, move)
    except ValueError as exc:
        return str(exc)


exponents = st.integers(-2**63, 2**63 - 1)
roots = (st.tuples(st.just(TONNETZ_234), st.builds(FreqRatio, exponents, exponents))
         | st.tuples(st.just(TONNETZ_456), st.integers(-10**9, 10**9)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(roots, st.sampled_from([ChordQuality.MAJOR, ChordQuality.MINOR]))
@example((TONNETZ_234, FreqRatio(10**6 + 1, -10**6 - 3)), ChordQuality.MINOR)
@example((TONNETZ_234, FreqRatio(-10**7, 10**7)), ChordQuality.MAJOR)
@example((TONNETZ_234, FreqRatio(2**63 - 1, 2**63 - 1)), ChordQuality.MAJOR)
@example((TONNETZ_456, -13), ChordQuality.MINOR)
@example((TONNETZ_456, 12 * 10**6 + 11), ChordQuality.MAJOR)
def test_apply_plr_matches_the_triads(system_root, quality):
    system, root = system_root
    triad = Triad(system, root, quality)
    for move in "PLR":
        assert plr_outcome(apply_plr, triad, move) == plr_outcome(triad_apply_plr, triad, move)


_STEPS = {}


def triad_step(triad):
    """The P, L and R images of a triad and the classes of its notes.  Both are
    pure, so each triad's are worked out once however many searches reach it."""
    key = (triad.system.id, triad.root, triad.quality)
    if key not in _STEPS:
        _STEPS[key] = ([triad_apply_plr(triad, move) for move in "PLR"],
                       {formula_class_name(triad.system, n) for n in triad.notes()})
    return _STEPS[key]


def triad_reachable_note_classes(start, max_moves):
    seen = {(start.root, start.quality)}
    frontier = [start]
    classes = set(triad_step(start)[1])
    levels = [ReachLevel(0, len(classes), frozenset(classes))]
    for k in range(1, max_moves + 1):
        nxt = []
        for triad in frontier:
            for image in triad_step(triad)[0]:
                key = (image.root, image.quality)
                if key not in seen:
                    seen.add(key)
                    nxt.append(image)
        for triad in nxt:
            classes.update(triad_step(triad)[1])
        levels.append(ReachLevel(k, len(classes), frozenset(classes)))
        frontier = nxt
    return levels


@pytest.mark.parametrize("quality", [ChordQuality.MAJOR, ChordQuality.MINOR], ids=str)
@pytest.mark.parametrize("v", range(-5, 6))
def test_reach_search_matches_the_triads_234(v, quality):
    for u in range(-40, 41):
        start = Triad(TONNETZ_234, FreqRatio(u, v), quality)
        levels = reachable_note_classes(start, 12)
        assert levels == triad_reachable_note_classes(start, 12)
        k = (u - v) % 13    # a shorter search is the same levels cut short
        assert reachable_note_classes(start, k) == levels[:k + 1]


@pytest.mark.parametrize("quality", [ChordQuality.MAJOR, ChordQuality.MINOR], ids=str)
def test_reach_search_matches_the_triads_456(quality):
    for root in range(-30, 31):
        start = Triad(TONNETZ_456, root, quality)
        for k in range(13):
            assert reachable_note_classes(start, k) == triad_reachable_note_classes(start, k)


# Roots far out on the infinite lattice, where an index off by a period or a
# sign would show: 2:3:4 exponents near +-2**63 (twelve moves and a stack
# move them by at most 26, which the reference's exponents must stay within),
# 4:5:6 roots near +-10**6.
FAR_ROOTS = {
    "234": [FreqRatio(u, v) for u in (2**63 - 27, 2**63 - 38, -2**63 + 26, -2**63 + 31)
            for v in (2**63 - 27, -2**63 + 26, 1)],
    "456": [10**6, 10**6 + 7, -10**6, -10**6 - 5],
}


@pytest.mark.parametrize("quality", [ChordQuality.MAJOR, ChordQuality.MINOR], ids=str)
@pytest.mark.parametrize("system", [TONNETZ_234, TONNETZ_456], ids=lambda s: s.id)
def test_reach_search_matches_the_triads_at_far_roots(system, quality):
    for root in FAR_ROOTS[system.id]:
        start = Triad(system, root, quality)
        want = triad_reachable_note_classes(start, 12)
        for k in range(13):
            assert reachable_note_classes(start, k) == want[:k + 1], (root, k)


@pytest.mark.parametrize("quality", [ChordQuality.MAJOR, ChordQuality.MINOR], ids=str)
def test_reach_search_at_the_exponent_bounds_is_that_of_its_class(quality):
    # the reference fails here, its moves building exponents outside [-2**63, 2**63)
    for u, v in ((2**63 - 1, 2**63 - 1), (-2**63, -2**63)):
        edge = Triad(TONNETZ_234, FreqRatio(u, v), quality)
        near = Triad(TONNETZ_234, FreqRatio(u % 19, 0), quality)
        assert reachable_note_classes(edge, 12) == reachable_note_classes(near, 12)


def test_class_table_matches_the_degree_formula():
    us = [*range(-300, 301), *range(-2**63, -2**63 + 5), *range(2**63 - 4, 2**63)]
    for u in us:
        for v in (-7, 0, 2**40):
            note = FreqRatio(u, v)
            assert TONNETZ_234.class_name(note) == formula_class_name(TONNETZ_234, note)
