"""The pitch and chord layers' fast paths against the checked paths they replaced.

Arithmetic builds its results through `ratios._ratio`, which checks only
the exponent range; `numerator`, `denominator` and `str` build ``2**a`` and
``3**b`` directly, and `from_fraction` reads a 3-smooth fraction's
exponents off its parts' bits; `scales` reads just pitches off the
keyboard's degree map, and the period shift too in the period's window of
harmonic degrees, tests domain membership by that shift and finds where the
two just scales differ by the comma power that reduces one to the other,
skipping the keys where they agree, and builds each deviation row's just
note from its exponents; `notation` reads a note's base name and period
shift off its key in one `divmod`, testing each just scale's window once
for purity's names, and reads a name's base by one lookup; `exports` writes
table JSON without the indenting encoder; chord parsing sorts the notes
with their places; and the walk primitives build their chords and P/L/R
images through `harmony._chord` and `tonnetz._triad`, which check nothing.
Each is compared here with the path it replaced or with an oracle that does
not call it: the public `FreqRatio`, `Chord` and `Triad` constructors,
`Fraction` powers, the trial division of `oracles.oracle_from_fraction`,
the step-at-a-time period reduction of ``6**h``, the two-sided test on the
squared domain bounds, the period shift that `oracles.oracle_period_shift`
finds by sign tests on those bounds (`tests/test_ordering.py` checks
`period_reduce` against it too), the per-row `FreqRatio` product and
`Fraction` of the deviation rows, the per-key difference build, the
per-scale spelling of `oracles.reference_spelling`, the startswith and
``set()`` name reader of `oracles.READERS` (`tests/test_notation.py` checks
the parsers against it too), the messages of the dict-keyed chord parse,
and `json.dumps` with an indent.
"""

import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tritave import exports, harmony, notation, scales, tonnetz
from tritave.ratios import (_INT64, COMMA, FIFTH, FOURTH, MAX_POWER_BITS, MAX_STR_DIGITS, OCTAVE,
                           TRITAVE, FreqRatio, _floor_log)
from tritave.scales import EDO12, EDT19, PYTH2, PYTH3

from oracles import (READERS, oracle_from_fraction, oracle_period_shift, read_outcome,
                     reference_just_names, reference_spelling)

EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=300)

SYSTEMS = (PYTH2, PYTH3, EDO12, EDT19)

moderate = st.integers(-20_000, 20_000)
# Exponents a few steps from either end of [-2**63, 2**63), where sums and
# products leave the range.
edge = st.integers(_INT64 - 4, _INT64 - 1) | st.integers(-_INT64, -_INT64 + 3)
exponents = moderate | edge
ratios = st.builds(FreqRatio, exponents, exponents)


def outcome(make, *args):
    """The exponent pair built, or the message of the ValueError raised."""
    try:
        ratio = make(*args)
    except ValueError as exc:
        return str(exc)
    assert type(ratio.u) is int and type(ratio.v) is int
    return ratio.u, ratio.v


@EXACT
@given(ratios, ratios, st.integers(-3, 3) | exponents)
def test_arithmetic_builds_what_the_checked_constructor_builds(a, b, k):
    assert outcome(lambda: a * b) == outcome(FreqRatio, a.u + b.u, a.v + b.v)
    assert outcome(lambda: a / b) == outcome(FreqRatio, a.u - b.u, a.v - b.v)
    assert outcome(lambda: a ** k) == outcome(FreqRatio, a.u * k, a.v * k)
    assert outcome(a.inverse) == outcome(FreqRatio, -a.u, -a.v)


@EXACT
@given(moderate, moderate)
def test_parts_and_text_are_those_of_the_fraction(u, v):
    ratio, exact = FreqRatio(u, v), Fraction(2) ** u * Fraction(3) ** v
    assert (ratio.numerator, ratio.denominator) == (exact.numerator, exact.denominator)
    assert ratio.as_fraction() == exact
    if max(exact.numerator, exact.denominator) < 10**MAX_STR_DIGITS:
        assert str(ratio) == str(exact)
    else:
        with pytest.raises(ValueError, match=r"^cannot write FreqRatio\("):
            str(ratio)


# --- from_fraction's exponents read off the bits ----------------------------------

# Exponents of parts up to about 10**4 bits: 2**5000 * 3**3000 has 9755.
twos = st.integers(0, 20) | st.integers(0, 5000)
threes = st.integers(0, 20) | st.integers(0, 3000)
smooth_parts = st.just(1) | st.builds(lambda a, b: 2**a * 3**b, twos, threes)
# Just off a power of 3: past the bit-length proposal, or its confirmation.
near_threes = (st.builds(lambda b, d: 3**b + d, threes, st.sampled_from([-1, 1]))
               | st.builds(lambda b: 3**b * 5, threes)
               | st.builds(lambda a, b: 2**a * 3**b * 7, twos, threes))


@st.composite
def fraction_pairs(draw):
    """Two 3-smooth parts, maybe one of them replaced by a part just off a
    power of 3 or one that is not positive, times a common factor: 3-smooth,
    which cancels in the exponents, or not, which makes a cancelling pair such
    as 42/7."""
    parts = [draw(smooth_parts), draw(smooth_parts)]
    if draw(st.booleans()):
        parts[draw(st.integers(0, 1))] = draw(near_threes | st.integers(-2, 0))
    common = draw(smooth_parts | smooth_parts | near_threes | st.sampled_from([5, 7, 35]))
    return parts[0] * common, parts[1] * common


@EXACT
@given(fraction_pairs())
@example((42, 7))
@example((7, 42))
@example((1, 3**3000 + 1))
@example((3**6300, 2**5))
@example((6**3000 * 5, 6**2999))
@example((0, 0))
def test_from_fraction_is_the_trial_division_oracle(pair):
    assert read_outcome(FreqRatio.from_fraction, *pair) == read_outcome(oracle_from_fraction, *pair)


def reference_domain(system):
    """The squared bounds ``(c**2/P, c**2*P)`` of the fundamental interval.

    The interval is ``(c/sqrt(P), c*sqrt(P)]`` around the centre c, 1 for
    the tritave scales and the comma for the octave ones; squared, its
    bounds are rational, so the test is on Fractions.
    """
    period = Fraction(system.period.numerator, system.period.denominator)
    centre = Fraction(531441, 524288) if system.period == OCTAVE else Fraction(1)
    return centre ** 2 / period, centre ** 2 * period


def reference_fundamental_note(h, system):
    """``6**h`` moved one period at a time into the fundamental interval."""
    period = Fraction(system.period.numerator, system.period.denominator)
    lower, upper = reference_domain(system)
    note = Fraction(6) ** h
    while note ** 2 > upper:
        note /= period
    while note ** 2 <= lower:
        note *= period
    return FreqRatio.from_fraction(note.numerator, note.denominator)


def reference_note_at_scale_degree(degree, system):
    """The formula the degree map replaced: reduce, then shift by whole periods."""
    lo = system.harmonic_range[0]
    t, place = divmod(degree - lo, system.notes_per_period)
    note = reference_fundamental_note(scales.scale_to_harmonic(lo + place, system), system)
    return note * system.period ** t


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.id)
def test_the_table_holds_the_reduced_sixes(system):
    lo, hi = system.harmonic_range
    for h in range(lo, hi + 1):
        note = scales.fundamental_note(h, system)
        assert note == reference_fundamental_note(h, system)
        six = FreqRatio(h, h)
        assert note == six / system.period ** oracle_period_shift(six, system.period)
        assert scales.in_fundamental_interval(note, system)
        assert scales.harmonic_degree(note, system) == h


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.id)
def test_just_pitches_are_those_of_the_reference_formula(system):
    for degree in range(-300, 301):
        want = reference_note_at_scale_degree(degree, system)
        assert scales.note_at_scale_degree(degree, system, "just") == want
        assert scales._just_note(degree, system) == want


def next_to_a_bound(system, v, side, step):
    """The system and a ratio of 3-exponent ``v`` whose square sits a step
    or two of the 2-exponent from a squared domain bound (side 0 the lower,
    1 the upper)."""
    bound = reference_domain(system)[side]
    return system, FreqRatio(math.floor((math.log2(bound) - 2 * v * math.log2(3)) / 2) + step, v)


wide = st.integers(-10**4, 10**4)
domain_cases = (st.tuples(st.sampled_from(SYSTEMS), st.builds(FreqRatio, wide, wide))
                | st.builds(next_to_a_bound, st.sampled_from(SYSTEMS), st.integers(-6000, 6000),
                            st.integers(0, 1), st.integers(-1, 2)))


@EXACT
@given(domain_cases)
# The squares nearest the bounds, within 2 cents: in and out at each bound.
@example((PYTH3, FreqRatio(42, -26)))
@example((PYTH3, FreqRatio(-42, 27)))
@example((PYTH3, FreqRatio(-42, 26)))
@example((PYTH3, FreqRatio(42, -27)))
@example((PYTH3, FreqRatio(527, -332)))
@example((PYTH3, FreqRatio(-527, 333)))
@example((PYTH2, FreqRatio(224, -141)))
@example((PYTH2, FreqRatio(-261, 165)))
@example((PYTH2, FreqRatio(223, -141)))
@example((PYTH2, FreqRatio(-262, 165)))
def test_domain_membership_is_the_two_sided_test_on_the_squared_bounds(case):
    system, ratio = case
    lower, upper = reference_domain(system)
    want = lower < ratio.as_fraction() ** 2 <= upper
    assert scales.in_fundamental_interval(ratio, system) == want


def reference_differences(degree_lo, degree_hi):
    """Every key's two just notes, built by the reference formula and compared."""
    out = []
    for n in range(degree_lo, degree_hi + 1):
        p3 = reference_note_at_scale_degree(n, PYTH3)
        p2 = reference_note_at_scale_degree(n, PYTH2)
        if p3 != p2:
            out.append((n, notation.name_of(p3), notation.pyth2_name_of(p2), p3 / p2))
    return out


# Ranges off the piano window: wide, single keys, ranges where no key differs.
@pytest.mark.parametrize("degree_lo, degree_hi", [
    (-300, 300), (-6, -6), (10, 10), (300, 300), (-299, -299), (0, 0), (0, 5), (-5, -1),
    (-1000, -960), (950, 1000),
])
def test_the_differences_are_those_of_the_reference_notes(degree_lo, degree_hi):
    want = reference_differences(degree_lo, degree_hi)
    assert scales.pyth2_pyth3_differences(degree_lo, degree_hi) == want
    # A power of the comma, the only 3-smooth ratios 0 keys up: 12u + 19v = 0.
    assert all(12 * q.u + 19 * q.v == 0 and q.v for *_, q in want)


def reference_deviation_rows(pair):
    """The rows as built one `FreqRatio` product and one `Fraction` at a time."""
    system, degrees, boundary, boundary_names = scales._TABLE_PAIRS[pair]
    rows = []
    for n in degrees:
        just = scales._just_note(n, system) * COMMA ** boundary.get(n, 0)
        equal_exp = Fraction(n, system.notes_per_period)
        rows.append(scales.ScaleRow(
            scale_degree=n,
            note=notation._name_in(just, boundary_names if n in boundary else system),
            just_ratio=just,
            harmonic_degree=scales.harmonic_degree(just, system),
            equal_exponent=equal_exp,
            equal_value=float(system.period.numerator) ** float(equal_exp),
            deviation_cents=just.cents() - n / system.notes_per_period * system.period.cents(),
            boundary=n in boundary,
        ))
    return rows


def exact_fields(row):
    """A row's fields, each float as its exact ``hex`` text."""
    return tuple(x.hex() if type(x) is float else x for x in row._key(row))


def assert_deviation_rows_as_the_reference(pair):
    got, want = scales.deviation_table(pair), reference_deviation_rows(pair)
    assert [exact_fields(row) for row in got] == [exact_fields(row) for row in want]


@pytest.mark.parametrize("pair", scales._TABLE_PAIRS)
def test_the_deviation_rows_are_those_of_the_reference_build(pair):
    assert_deviation_rows_as_the_reference(pair)


@pytest.mark.parametrize("pair", scales._TABLE_PAIRS)
def test_wide_deviation_rows_are_those_of_the_reference_build(monkeypatch, pair):
    # Degrees -200..200 and, on every seventh, the comma power that moves the
    # note into the other scale's range; the real tables use only 0 and -1.
    system, _, _, boundary_names = scales._TABLE_PAIRS[pair]
    degrees = range(-200, 201)
    boundary = {n: scales.reduce_to_fundamental(scales._just_note(n, system), boundary_names)[1]
                for n in degrees[::7]}
    assert set(boundary.values()) == {-1, 0, 1}
    monkeypatch.setitem(scales._TABLE_PAIRS, pair, (system, degrees, boundary, boundary_names))
    assert_deviation_rows_as_the_reference(pair)


def test_the_fast_paths_keep_the_checked_errors():
    cases = [
        (lambda: FreqRatio(2**62, 0) ** 4, "exponent 18446744073709551616 is outside"),
        (lambda: FreqRatio(2**63 - 1, 0) * OCTAVE, "exponent 9223372036854775808 is outside"),
        (lambda: FreqRatio(0, -2**63) / TRITAVE, "exponent -9223372036854775809 is outside"),
        (lambda: FreqRatio(1, 0) ** 1.5, "exponent 1.5 is not an integer"),
        (lambda: harmony.shift_in_circle(harmony.major_triad_234(FreqRatio(0, 0)), 0.5),
         "shift_in_circle takes int steps, not float"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make()


def reference_reduction(ratio, system):
    """The comma power that moves the harmonic degree into the range, read
    off the range, and ``ratio * COMMA ** m``."""
    lo = system.harmonic_range[0]
    # u - 19*m (tritave scales) or v + 12*m (octave scales) in [lo, lo + n)
    m = (ratio.u - lo) // 19 if system.period == TRITAVE else -((ratio.v - lo) // 12)
    return ratio * COMMA ** m, m


def reduction(reduce, ratio, system):
    """``(u, v, m)`` of a reduction, or the message of the ValueError raised."""
    try:
        reduced, m = reduce(ratio, system)
    except ValueError as exc:
        return str(exc)
    return reduced.u, reduced.v, m


large = st.integers(-(2**62), 2**62)


@EXACT
@given(st.builds(FreqRatio, large | moderate, large | moderate), st.sampled_from([PYTH2, PYTH3]))
@example(FreqRatio(2**62, 2**62), PYTH2)
@example(FreqRatio(-(2**62), -(2**62)), PYTH2)
def test_reduce_to_fundamental_builds_what_the_comma_power_builds(ratio, system):
    # In the octave scales u moves by 19/12 of v, so large exponents of one
    # sign leave [-2**63, 2**63) and must raise the checked constructor's error.
    got = reduction(scales.reduce_to_fundamental, ratio, system)
    assert got == reduction(reference_reduction, ratio, system)
    if isinstance(got, str):
        assert re.fullmatch(r"exponent -?\d+ is outside \[-2\*\*63, 2\*\*63\)", got)


@pytest.mark.parametrize("ratio", [FreqRatio(-2**63, -2**40), FreqRatio(2**63 - 1, 2**40)])
def test_period_reduce_near_the_range_end_needs_no_power_of_the_period(ratio):
    # The shift is beyond 2**63, so period**shift has no FreqRatio; the
    # reduced note is built from exponents.
    rep, shift = scales.period_reduce(ratio, PYTH2)
    assert abs(shift) >= _INT64
    assert (rep.u + shift, rep.v) == (ratio.u, ratio.v)
    assert scales.in_fundamental_interval(rep, PYTH2)


# --- spelling by the degree table --------------------------------------------

def spelled(name, *args):
    """The name as a string, or the message of the ValueError raised."""
    try:
        return str(name(*args))
    except ValueError as exc:
        return str(exc)


def assert_spelled_as_the_reference(u, v):
    ratio = FreqRatio(u, v)
    for system, name in ((PYTH3, notation.name_of), (PYTH2, notation.pyth2_name_of)):
        want = spelled(reference_spelling, ratio, system)
        assert spelled(name, ratio) == want
        assert spelled(notation._name_in, ratio, system) == want


# Degrees one window either side of the harmonic ranges, and shifts up to
# 10**5 periods either way, or exponents at the ends of the range.
degrees = st.integers(-30, 30)
periods = st.integers(-10**5 - 30, 10**5 + 30) | edge


@EXACT
@given(degrees, periods)
def test_a_pyth3_spelling_is_that_of_period_reduce(u, v):
    assert_spelled_as_the_reference(u, v)


@EXACT
@given(periods, degrees)
def test_a_pyth2_spelling_is_that_of_period_reduce(u, v):
    assert_spelled_as_the_reference(u, v)


@pytest.mark.parametrize("system", (PYTH3, PYTH2), ids=lambda s: s.id)
def test_the_range_endpoints_spell_as_the_reference(system):
    lo, hi = system.harmonic_range
    for h in (lo - 1, lo, hi, hi + 1):
        for shift in (-10**5, -1, 0, 1, 10**5):
            note = FreqRatio(h, h) * system.period ** shift
            assert_spelled_as_the_reference(note.u, note.v)
    with pytest.raises(ValueError, match=r"^harmonic degree 10 outside \[-9, 9\]: not a "):
        notation.name_of(FreqRatio(10, 0))
    with pytest.raises(ValueError, match=r"^harmonic degree -6 outside \[-5, 6\]: not an "):
        notation.pyth2_name_of(FreqRatio(0, -6))


KEYS = range(-5000, 5001)


@pytest.mark.parametrize("system", (PYTH3, PYTH2), ids=lambda s: s.id)
def test_the_note_on_every_key_spells_as_the_reference(system):
    for key in KEYS:
        note = scales._just_note(key, system)
        assert notation._name_in(note, system) == reference_spelling(note, system)


def test_the_name_at_a_degree_is_that_of_the_just_note_there():
    for degree in KEYS:
        note = scales.note_at_scale_degree(degree, PYTH3, "just")
        assert notation.note_name_at_degree(degree) == notation.name_of(note)


def test_a_tritave_class_is_the_base_name_of_its_fundamental_note():
    for u in range(PYTH3.notes_per_period):
        note = scales.fundamental_note(scales._window(u, PYTH3), PYTH3)
        assert notation._TRITAVE_CLASSES[u] == reference_spelling(note, PYTH3)


# --- reading a name by one lookup ------------------------------------------------

ALL_BASES = sorted({*notation.BASE_NAMES_PYTH3, *notation.BASE_NAMES_PYTH2,
                    *notation.NAMES_EDO12})
MARKS = "^v',"
# The base names' characters, the four marks and one foreign character.
name_chars = sorted({*"".join(ALL_BASES), *MARKS, "x"})
short_names = st.text(st.sampled_from(name_chars), max_size=8)
# A base, a run of up to 10**4 of one mark, and maybe one more character.
long_names = st.builds(lambda base, mark, n, tail: base + mark * n + tail,
                       st.sampled_from(ALL_BASES), st.sampled_from(MARKS),
                       st.integers(0, 10**4), st.sampled_from(["", *MARKS, "x"]))


@EXACT
@given(short_names | long_names)
@example("")
@example("Ab^x")
@example("F#,,")
@example("Bb'^^")
@example("A'''")
@example("B" + "'" * 10**4)
def test_a_name_is_read_as_the_longest_prefix_reader_reads_it(text):
    for parse, oracle in READERS:
        assert read_outcome(parse, text) == read_outcome(oracle, text), text[:20]


# --- table JSON written without the indenting encoder --------------------------


def indented_json(header, rows):
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


# Every table, and difference ranges where no key differs.
@pytest.mark.parametrize("which, bounds", [
    *((which, ()) for which in exports.TABLE_IDS), ("diff", (0, 5)), ("diff", (-5, -1)),
    ("diff", (3, 3)),
])
def test_a_json_table_is_what_the_indenting_encoder_writes(which, bounds):
    header, rows = exports._table_rows(which, *bounds)
    assert bool(rows) == (bounds == ())
    assert exports.emit_table(which, "json", *bounds) == indented_json(header, rows)


# Text with quotes, backslashes, control characters and non-ASCII (surrogates
# too); ints past 2**64; bools, floats and None take `json.dumps`.
AWKWARD = '"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\u2028\U0001f600\ud800'
awkward_text = st.text(st.sampled_from(AWKWARD) | st.characters(), max_size=6)
cells = (awkward_text | st.integers() | st.integers(2**64, 2**200) | st.integers(-2**200, -2**64)
         | st.booleans() | st.floats() | st.none())
tables = st.lists(awkward_text, min_size=1, max_size=5, unique=True).flatmap(
    lambda header: st.tuples(st.just(header), st.lists(
        st.lists(cells, min_size=len(header), max_size=len(header)), max_size=4)))


@settings(EXACT, max_examples=150)
@given(tables)
@example((["a"], []))
@example((["n", "b", "x"], [[2**64 + 1, True, 0.1], [-(2**70), False, float("nan")]]))
def test_the_json_writer_writes_what_the_indenting_encoder_writes(table):
    header, rows = table
    assert exports._json_table(header, rows) == indented_json(header, rows)


# --- chords built without checks ----------------------------------------------


def reference_reduce(c, root=None):
    """`reduce_chord_to_domain` as a power and a quotient per note, checked."""
    if c.system != harmony.TONNETZ_234:
        raise ValueError("domain reduction by tritaves applies to 2:3:4 chords")
    root = c.notes[0] if root is None else root
    reduced = [n / TRITAVE ** _floor_log(n.u - root.u, n.v - root.v, 0, 1) for n in c.notes]
    if len(set(reduced)) != 3:
        raise ValueError("domain reduction collapses two notes onto one")
    return harmony.chord_234(reduced)


def reference_invert(c, direction):
    a, b, top = c.notes
    shift = c.system._shift
    notes = ((b, top, shift(a, c.system.period)) if direction == "first"
             else (shift(top, c.system.period, -1), a, b))
    return harmony.Chord(tuple(sorted(notes)), c.system)


def checked(chord):
    """The chord as the public constructor builds it from its own fields."""
    assert type(chord) is harmony.Chord and type(chord.notes) is tuple
    again = harmony.Chord(chord.notes, chord.system)
    assert again == chord and again.system is chord.system
    return chord


def chord_outcome(make, *args):
    """The checked chord built, or the message of the ValueError raised."""
    try:
        return checked(make(*args))
    except ValueError as exc:
        return str(exc)


roots_234 = st.builds(FreqRatio, st.integers(-40, 40), st.integers(-40, 40))
triads = (st.builds(tonnetz.Triad, st.just(harmony.TONNETZ_234), roots_234,
                    st.sampled_from([harmony.ChordQuality.MAJOR, harmony.ChordQuality.MINOR]))
          | st.builds(tonnetz.Triad, st.just(harmony.TONNETZ_456), st.integers(-60, 60),
                      st.sampled_from([harmony.ChordQuality.MAJOR, harmony.ChordQuality.MINOR])))
circle_steps = st.integers(-40, 40) | edge


def reference_stack(triad):
    """The triad's root, its third and the circle step above the root, written
    out: a fifth (major) or a fourth (minor) and an octave in 2:3:4, 4 or 3
    and 7 semitones in 4:5:6."""
    root, major = triad.root, triad.quality is harmony.ChordQuality.MAJOR
    if triad.system is harmony.TONNETZ_234:
        return (root, root * (FIFTH if major else FOURTH), root * OCTAVE)
    return (root, root + (4 if major else 3), root + 7)


@EXACT
@given(triads, circle_steps, roots_234)
def test_trusted_chords_are_those_the_checked_constructor_builds(triad, steps, root):
    chord = checked(triad.chord())
    assert chord.notes == reference_stack(triad)
    shifted = chord_outcome(harmony.shift_in_circle, chord, steps)
    system = chord.system
    assert shifted == chord_outcome(lambda: harmony.Chord(
        tuple(system._shift(n, system.horizontal, steps) for n in chord.notes), system))
    for direction in ("first", "second"):
        assert (chord_outcome(harmony.invert, chord, direction)
                == chord_outcome(reference_invert, chord, direction))
    if system is harmony.TONNETZ_234:
        for r in (root, None):
            assert (chord_outcome(harmony.reduce_chord_to_domain, chord, r)
                    == chord_outcome(reference_reduce, chord, r))
    if harmony.classify(chord) is harmony.ChordQuality.MAJOR:
        for sequence in (harmony.basic_sequence, harmony.cadence_sequence):
            for c in sequence(chord):
                checked(c)


def test_a_collapse_under_a_trusted_chord_is_refused_as_by_the_checked_one():
    x = FreqRatio(0, 0)
    spans_a_tritave = harmony.chord_234((x, x * OCTAVE, x * TRITAVE))
    for make, args in ((harmony.reduce_chord_to_domain, (spans_a_tritave,)),
                       (harmony.invert, (spans_a_tritave, "first")),
                       (harmony.invert, (spans_a_tritave, "second")),
                       (harmony.invert, (harmony.chord_456((0, 5, 12)), "first"))):
        reference = reference_reduce if make is harmony.reduce_chord_to_domain else reference_invert
        with pytest.raises(ValueError) as want:
            reference(*args)
        with pytest.raises(ValueError) as got:   # raised by the call itself, not by `checked`
            make(*args)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("steps, message_234, message_456", [
    (1.5, "shift_in_circle takes int steps, not float",
     "shift_in_circle takes int steps, not float"),
    (Fraction(1, 2), "shift_in_circle takes int steps, not Fraction",
     "shift_in_circle takes int steps, not Fraction"),
    (Fraction(2, 1), "shift_in_circle takes int steps, not Fraction",
     "shift_in_circle takes int steps, not Fraction"),
], ids=["float", "half", "whole-fraction"])
def test_a_shift_by_a_non_int_is_refused_as_at_the_checked_path(steps, message_234, message_456):
    for chord, message in ((harmony.major_triad_234(FreqRatio(0, 0)), message_234),
                           (harmony.chord_456((0, 4, 7)), message_456)):
        with pytest.raises(ValueError) as excinfo:
            harmony.shift_in_circle(chord, steps)
        assert str(excinfo.value) == message


A, B, C = FreqRatio(0, 0), FreqRatio(1, 0), FreqRatio(2, 0)


@pytest.mark.parametrize("notes, system, message", [
    ((0, 4, 7), "789", "unknown system '789'"),
    ((0, 4, 7), None, "unknown system None"),
    ((0, 4, 7), 456, "unknown system 456"),
    ((0, 4), "456", "a chord needs exactly 3 notes, not 2: (0, 4)"),
    ((0, 4, 7, 9), "456", "a chord needs exactly 3 notes, not 4: (0, 4, 7, 9)"),
    ((), "456", "a chord needs exactly 3 notes, not 0: ()"),
    ((0, 4, True), "456", "system 456 takes int notes, not True"),
    ((0, 4, 7.0), "456", "system 456 takes int notes, not 7.0"),
    ((0, A, 7), "456", "system 456 takes int notes, not FreqRatio(0, 0)"),
    ((A, B, 2), "234", "system 234 takes FreqRatio notes, not 2"),
    ((7, 4, 0), "456", "chord notes must be strictly ascending, not (7, 4, 0)"),
    ((0, 4, 4), "456", "chord notes must be strictly ascending, not (0, 4, 4)"),
    ((B, A, C), "234", "chord notes must be strictly ascending, "
     "not (FreqRatio(1, 0), FreqRatio(0, 0), FreqRatio(2, 0))"),
    ((A, A, C), "234", "chord notes must be strictly ascending, "
     "not (FreqRatio(0, 0), FreqRatio(0, 0), FreqRatio(2, 0))"),
])
def test_the_public_chord_constructor_keeps_every_check(notes, system, message):
    with pytest.raises(ValueError) as excinfo:
        harmony.Chord(notes, system)
    assert str(excinfo.value) == message


def text_outcome(make, *args):
    """The value returned, or the message of the ValueError raised."""
    try:
        return make(*args)
    except ValueError as exc:
        return str(exc)


# Exponents up to 10**4 either way, one window either side of each range,
# and the shifts past which a name would hold more than `MAX_MARKS` marks.
window_edges = st.sampled_from([-10, -9, 9, 10, -6, -5, 6, 7, 0])
too_many_marks = st.sampled_from([notation.MAX_MARKS + 2, -notation.MAX_MARKS - 2])


@EXACT
@given(st.integers(-10**4, 10**4) | window_edges | too_many_marks,
       st.integers(-10**4, 10**4) | window_edges | too_many_marks)
def test_the_just_names_are_the_per_scale_spellings(u, v):
    ratio = FreqRatio(u, v)
    assert (text_outcome(notation._just_names, u, v)
            == text_outcome(reference_just_names, ratio))


def test_the_just_names_at_every_window_edge_are_the_per_scale_spellings():
    edges = (-10, -9, 9, 10, -6, -5, 6, 7)
    for u in edges + (-10**4, 10**4):
        for v in edges + (-10**4, 10**4):
            ratio = FreqRatio(u, v)
            assert notation._just_names(u, v) == reference_just_names(ratio)


@EXACT
@given(st.integers(-10**4, 10**4) | edge, st.integers(-10**4, 10**4) | edge)
def test_both_parts_in_one_call_are_those_of_the_properties(u, v):
    from tritave.ratios import _parts

    ratio = FreqRatio(u, v)
    want = text_outcome(lambda: (ratio.numerator, ratio.denominator))
    assert text_outcome(_parts, u, v) == want


@pytest.mark.parametrize("u, v", [(MAX_POWER_BITS - 1, 0), (MAX_POWER_BITS, 0),
                                  (-MAX_POWER_BITS + 1, 0), (-MAX_POWER_BITS, 0),
                                  (MAX_POWER_BITS, -MAX_POWER_BITS)])
def test_the_parts_are_refused_at_the_bit_bound_with_the_check_message(u, v):
    from tritave.ratios import _part, _parts

    ratio = FreqRatio(u, v)
    for part, a, b in (("numerator", max(u, 0), max(v, 0)),
                       ("denominator", max(-u, 0), max(-v, 0))):
        if int(a + b * math.log2(3)) + 1 <= MAX_POWER_BITS:
            assert getattr(ratio, part) == 3 ** b << a
            continue
        with pytest.raises(ValueError) as want:
            _part(u, v, part)
        with pytest.raises(ValueError) as got:
            getattr(ratio, part)
        assert str(got.value) == str(want.value)
    want = text_outcome(lambda: (ratio.numerator, ratio.denominator))
    assert text_outcome(_parts, u, v) == want


class Tagged(str):
    """A note name whose repr is a tag, so a message shows which argument it quotes."""

    def __new__(cls, text, tag):
        name = super().__new__(cls, text)
        name.tag = tag
        return name

    def __repr__(self):
        return self.tag


# The refusals of three names with two or three equal notes, in every order
# of the names, as the dict-keyed parse before the sorted one wrote them.
REPEATS = {
    ("234", "A A E"): ["<A0> and <A1>", "<A0> and <A1>", "<A1> and <A0>",
                       "<A1> and <A0>", "<A0> and <A1>", "<A1> and <A0>"],
    ("234", "A A A"): ["<A0> and <A1>", "<A0> and <A2>", "<A1> and <A0>",
                       "<A1> and <A2>", "<A2> and <A0>", "<A2> and <A1>"],
    ("456", "C G C"): ["<C0> and <C2>", "<C0> and <C2>", "<C0> and <C2>",
                       "<C2> and <C0>", "<C2> and <C0>", "<C2> and <C0>"],
    ("456", "E E E"): ["<E0> and <E1>", "<E0> and <E2>", "<E1> and <E0>",
                       "<E1> and <E2>", "<E2> and <E0>", "<E2> and <E1>"],
}


@pytest.mark.parametrize("system_id, texts", list(REPEATS))
def test_a_repeated_note_is_refused_by_the_names_the_dict_parse_gave(system_id, texts):
    system = harmony._SYSTEMS[system_id]
    names = [Tagged(text, f"<{text}{i}>") for i, text in enumerate(texts.split())]
    for order, pair in zip(itertools.permutations(range(3)), REPEATS[system_id, texts]):
        with pytest.raises(ValueError) as excinfo:
            system.parse_chord([names[k] for k in order])
        assert str(excinfo.value) == f"chord notes must be distinct: {pair} are one note"


@pytest.mark.parametrize("names, message", [
    (["A", "A", "H"], "chord notes must be distinct: 'A' and 'A' are one note"),
    (["A", "H", "A"], "unknown note name 'H'"),
    (["H", "A", "A"], "unknown note name 'H'"),
    (["A", "E", "A", "A'"], "chord notes must be distinct: 'A' and 'A' are one note"),
    (["A", "E"], "a chord needs exactly 3 notes, not 2: (FreqRatio(-2, 1), FreqRatio(-3, 2))"),
    (["A", "E", "A'", "C"], "a chord needs exactly 3 notes, not 4: (FreqRatio(-2, 1), "
     "FreqRatio(3, -2), FreqRatio(-3, 2), FreqRatio(-1, 1))"),
])
def test_names_are_read_left_to_right_as_the_dict_parse_read_them(names, message):
    with pytest.raises(ValueError) as excinfo:
        harmony.TONNETZ_234.parse_chord(names)
    assert str(excinfo.value) == message


@EXACT
@given(triads, st.sampled_from("PLR"))
def test_a_trusted_move_image_is_the_triad_the_checked_constructor_builds(triad, move):
    image = tonnetz.apply_plr(triad, move)
    again = tonnetz.Triad(image.system, image.root, image.quality)
    assert image == again and repr(image) == repr(again)
    assert image.system is triad.system and type(image.root) is type(triad.root)
    assert tonnetz.apply_plr(image, move) == triad


def per_key_differences(degree_lo, degree_hi):
    """Every key of the range built from its exponents, then kept where
    reducing the PYTH3 note to PYTH2's range takes a comma."""
    out = []
    for n in range(degree_lo, degree_hi + 1):
        u, v = scales._key_exponents(n, PYTH3)
        m = (scales._window(v, PYTH2) - v) // COMMA.v
        if m:
            p3, p2 = FreqRatio(u, v), FreqRatio(u + m * COMMA.u, v + m * COMMA.v)
            out.append((n, notation.name_of(p3), notation.pyth2_name_of(p2), COMMA ** -m))
    return out


@pytest.mark.parametrize("bounds", [
    (scales.PIANO_DEGREE_LO, scales.PIANO_DEGREE_HI), (-300, 300), (-203, 222), (0, 5), (3, 3),
    (-scales.MAX_DEGREE, -scales.MAX_DEGREE + 400), (scales.MAX_DEGREE - 400, scales.MAX_DEGREE),
], ids=["piano", "300", "agreeing-span", "empty", "one-key", "max-low", "max-high"])
def test_the_differences_are_those_of_the_per_key_build(bounds):
    got = scales.pyth2_pyth3_differences(*bounds)
    assert got == per_key_differences(*bounds)
    assert (got == []) == (bounds in ((0, 5), (3, 3)))


def test_the_agreeing_keys_are_those_where_no_comma_is_taken():
    for n in range(-400, 401):
        u, v = scales._key_exponents(n, PYTH3)
        assert (n in scales._AGREEING_KEYS) == (scales._window(v, PYTH2) == v)
