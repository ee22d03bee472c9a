import time

import pytest
from hypothesis import given, settings, strategies as st

from tritave.ratios import OCTAVE, FreqRatio, TRITAVE
from tritave.scales import (
    PIANO_DEGREE_HI,
    PIANO_DEGREE_LO,
    PYTH2,
    PYTH3,
    fundamental_note,
    note_at_scale_degree,
)
from tritave.notation import (
    BASE_NAMES_PYTH2,
    BASE_NAMES_PYTH3,
    MAX_MARKS,
    NAMES_EDO12,
    NoteName,
    edo12_name,
    key_color_by_harmonic_degree,
    keyboard_labels,
    name_of,
    note_name_at_degree,
    parse_edo12_note,
    parse_note,
    parse_pyth2_note,
    pyth2_name_of,
)

from oracles import READERS, read_outcome


def test_name_of_examples():
    assert str(name_of(FreqRatio(3, -1))) == "C^"        # one tritave above the C
    assert name_of(FreqRatio(0, 0)) == NoteName("D", 0)
    assert str(name_of(FreqRatio(-7, 5))) == "F#,^"


def test_name_of_requires_fundamental_harmonic_degree():
    with pytest.raises(ValueError, match="reduce"):
        name_of(FreqRatio(-19, 12))


def test_parse_examples():
    assert parse_note("A'") == FreqRatio(-1, 1)
    assert parse_note("D") == FreqRatio(0, 0)
    assert parse_note("Bb'^^") == FreqRatio(7, -4) * TRITAVE**2


def test_parse_rejections():
    with pytest.raises(ValueError, match="octave-system"):
        parse_note("G'")
    with pytest.raises(ValueError, match="octave-system"):
        parse_note("C,")
    with pytest.raises(ValueError):
        parse_note("C^v")
    with pytest.raises(ValueError):
        parse_note("H")
    with pytest.raises(ValueError):
        parse_note("")


def test_parse_print_round_trip_exhaustive():
    for base in BASE_NAMES_PYTH3:
        for shift in range(-4, 5):
            name = NoteName(base, shift)
            ratio = name.ratio()
            assert name_of(ratio) == name
            assert parse_note(str(name)) == ratio


def test_a_note_name_ratio_is_its_base_note_times_a_tritave_power():
    # `oracle_parse_note` reads `NoteName.ratio`, so this pins it on its own
    for base in BASE_NAMES_PYTH3:
        for shift in (-10**6, -3, 0, 2, 10**6, 2**62):
            assert NoteName(base, shift).ratio() == parse_note(base) * TRITAVE ** shift


def test_unicode_rendering_is_display_only():
    name = name_of(parse_note("F#,^"))
    assert name.render() == "F#,^"
    pretty = name.render(unicode=True)
    assert "♯" in pretty and "ˆ" in pretty
    assert parse_note(str(name)) == name.ratio()


def test_pyth2_names():
    assert pyth2_name_of(FreqRatio(-3, 1)) == "A,"        # 3/8
    assert pyth2_name_of(FreqRatio(0, 1)) == "A''"        # 3
    assert pyth2_name_of(FreqRatio(-12, 6)) == "G#,,,"
    assert parse_pyth2_note("G#,,,") == FreqRatio(-12, 6)
    assert parse_pyth2_note("C'") == FreqRatio(4, -2)
    with pytest.raises(ValueError, match="reduce"):
        pyth2_name_of(FreqRatio(0, 7))


def test_keyboard_labels_88_keys():
    labels = keyboard_labels(21, 108)
    assert len(labels) == 88
    names = [str(label.name) for label in labels]
    assert len(set(names)) == 88
    assert names[0] == "Bvv"
    assert names[62 - 21] == "D"
    assert names[-1] == "Bb'^^"
    for prev, cur in zip(labels, labels[1:]):
        assert cur.scale_degree - prev.scale_degree == 1
    # standard piano geometry: A0 is white, Bb0 black
    assert labels[0].color == "white"
    assert labels[1].color == "black"


def test_keyboard_labels_validation():
    with pytest.raises(ValueError):
        keyboard_labels(-1, 10)
    with pytest.raises(ValueError):
        keyboard_labels(60, 20)


def test_keyboard_spot_labels():
    labels = {label.midi: str(label.name) for label in keyboard_labels(21, 108)}
    assert labels[24] == "Dvv"     # C1 carries the D two tritaves down
    assert labels[60] == "C"       # middle C keeps its name
    assert labels[69] == "A'"      # A4 is the note a fifth above D4


def test_key_color_by_harmonic_degree():
    assert key_color_by_harmonic_degree(0) == "white"
    assert key_color_by_harmonic_degree(-7) == "black"
    assert key_color_by_harmonic_degree(5) == "white"
    whites = [h for h in range(-9, 10) if key_color_by_harmonic_degree(h) == "white"]
    assert len(whites) == 11
    with pytest.raises(ValueError):
        key_color_by_harmonic_degree(12)


def test_note_name_at_degree_window_split():
    assert str(note_name_at_degree(-41)) == "Bvv"
    assert str(note_name_at_degree(46)) == "Bb'^^"
    assert str(note_name_at_degree(0)) == "D"
    assert str(note_name_at_degree(19)) == "D^"


def test_note_name_at_degree_names_the_just_note_there():
    for n in range(PIANO_DEGREE_LO, PIANO_DEGREE_HI + 1):
        assert note_name_at_degree(n) == name_of(note_at_scale_degree(n, PYTH3))


def test_edo12_names():
    assert edo12_name(0) == "C"
    assert edo12_name(-1) == "B"       # plain B sits below the plain C
    assert edo12_name(11) == "B'"
    assert edo12_name(-3) == "A,"
    assert parse_edo12_note("B") == -1
    assert parse_edo12_note("G") == 7
    assert parse_edo12_note("Eb'") == 15
    for s in range(-24, 25):
        assert parse_edo12_note(edo12_name(s)) == s


# One spelling per naming scheme: spell a note `shift` periods up, and parse it.
SPELLINGS = {
    "tritave": (lambda shift: str(NoteName("D", shift)), parse_note,
                lambda shift: TRITAVE ** shift),
    "octave": (lambda shift: pyth2_name_of(OCTAVE ** shift), parse_pyth2_note,
               lambda shift: OCTAVE ** shift),
    "edo12": (lambda shift: edo12_name(12 * shift), parse_edo12_note, lambda shift: 12 * shift),
}


@pytest.mark.parametrize("scheme", sorted(SPELLINGS))
@pytest.mark.parametrize("shift", [MAX_MARKS, -MAX_MARKS])
def test_names_at_the_mark_bound_round_trip(scheme, shift):
    spell, parse, note = SPELLINGS[scheme]
    assert parse(spell(shift)) == note(shift)


# An octave-system note cannot be shifted 10**19 periods: FreqRatio stops at 2**63.
@pytest.mark.parametrize("scheme, shift", [
    *((scheme, shift) for scheme in sorted(SPELLINGS)
      for shift in (MAX_MARKS + 1, -MAX_MARKS - 1, 10**15)),
    ("tritave", 10**19), ("edo12", 10**19),
])
def test_names_beyond_the_mark_bound_fail_fast_naming_the_shift(scheme, shift):
    spell = SPELLINGS[scheme][0]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"shift of {shift} periods"):
        spell(shift)
    assert time.perf_counter() - start < 0.5


def _with_one_other(run, others):
    """``run`` with one character of ``others`` put at its start, middle or end."""
    half = len(run) // 2
    for other in others:
        yield from (other + run, run[:half] + other + run[half:], run + other)


def _parser_inputs():
    """Names built from every base of the three tables, with the marks of both systems."""
    bases = sorted(set(BASE_NAMES_PYTH3) | set(BASE_NAMES_PYTH2) | set(NAMES_EDO12))
    marks = "^v',"
    for base in bases:
        yield base
        for mark in marks:
            yield from (base + mark * n for n in (1, 2, 10**5))
            others = marks.replace(mark, "") + "#bx é"
            yield from (base + run for run in _with_one_other(mark * 3, others))
    # Long mixed runs, after a base of each length.
    for base in ("D", "F#", "F#,", "Bb'"):
        for mark in marks:
            others = marks.replace(mark, "")
            yield from (base + run for run in _with_one_other(mark * 10**5, others))
    yield from ("", "H", "H^", "^", "'", ",", "v", "#", "b", "c", "d^", " D", "D ",
                "F#,,", "F#,'", "F#x", "Bb''", "Bbb", "Bbx", "C##", "Ebb", "A'b",
                "G#'^", "A''", "Ab'", "Bb'x", "F,x", "F#,,^", "Ab^x", "Bb'^^", "A'''",
                "B" + "'" * 10**4)


@pytest.mark.parametrize("parse, oracle", READERS, ids=["tritave", "octave", "edo12"])
def test_parsers_match_the_set_and_startswith_oracle(parse, oracle):
    for text in _parser_inputs():
        assert read_outcome(parse, text) == read_outcome(oracle, text), text[:20]


@pytest.mark.parametrize("parse", [parse_note, parse_pyth2_note, parse_edo12_note])
@pytest.mark.parametrize("value, kind", [
    (None, "NoneType"), (3, "int"), (b"C", "bytes"), (["C"], "list"),
])
def test_parsers_reject_a_non_str_naming_its_type(parse, value, kind):
    with pytest.raises(ValueError) as excinfo:
        parse(value)
    assert str(excinfo.value) == f"a note name must be a str, not {kind}"


ROUND_TRIP = settings(derandomize=True, database=None, deadline=None, max_examples=100)
SHIFTS = st.integers(-10**5, 10**5)


@ROUND_TRIP
@given(st.integers(*PYTH3.harmonic_range), SHIFTS)
def test_tritave_names_round_trip_up_to_1e5_tritaves(h, shift):
    ratio = fundamental_note(h, PYTH3) * TRITAVE ** shift
    assert parse_note(str(name_of(ratio))) == ratio


@ROUND_TRIP
@given(st.integers(*PYTH2.harmonic_range), SHIFTS)
def test_octave_names_round_trip_up_to_1e5_octaves(h, shift):
    ratio = fundamental_note(h, PYTH2) * OCTAVE ** shift
    assert parse_pyth2_note(pyth2_name_of(ratio)) == ratio
