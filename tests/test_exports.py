import json
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from tritave import exports
from tritave.exports import (
    ProgressionError,
    emit_scl,
    emit_table,
    emit_tonnetz_path,
    parse_progression,
    parse_scl,
    sample_progression_text,
)
from tritave.harmony import Chord, ChordQuality, basic_sequence, chord_234, classify
from tritave.notation import parse_note
from tritave.ratios import FreqRatio, cents
from tritave.scales import EDO12, EDT19, PYTH2, PYTH3, note_at_scale_degree


def test_scl_layout_pyth3():
    lines = emit_scl("pyth3").splitlines()
    assert lines[1] == "19"
    assert lines[2 + 6] == "3/2"          # degree 7
    assert lines[-1] == "3/1"
    assert len(lines) == 2 + 19


def test_scl_layout_edt19():
    lines = emit_scl("edt19").splitlines()
    assert lines[1] == "19"
    assert lines[2] == "100.10289"
    assert lines[-1] == "1901.95500"


def test_scl_layout_octave_scales():
    assert emit_scl("pyth2").splitlines()[-1] == "2/1"
    lines = emit_scl("edo12").splitlines()
    assert lines[1] == "12"
    assert lines[2] == "100.00000"
    assert lines[-1] == "1200.00000"


def test_scl_description_override():
    assert emit_scl("pyth3", "my scale").splitlines()[0] == "my scale"


def test_scl_round_trip_within_tolerance():
    systems = {"pyth3": PYTH3, "edt19": EDT19, "pyth2": PYTH2, "edo12": EDO12}
    for scale, system in systems.items():
        _, pitches = parse_scl(emit_scl(scale))
        assert len(pitches) == system.notes_per_period
        for degree, got in enumerate(pitches, start=1):
            pitch = note_at_scale_degree(degree, system)
            want = pitch if isinstance(pitch, float) else cents(pitch)
            assert abs(got - want) < 1e-4


def test_scl_reader_validates():
    with pytest.raises(ValueError):
        parse_scl("only description")
    with pytest.raises(ValueError):
        parse_scl("desc\n3\n100.0\n200.0")
    # an empty or whitespace-only pitch line is skipped, not counted
    assert parse_scl("x\n2\n100.0\n\n   \n3/2\n") == ("x", [100.0, cents(FreqRatio(-1, 1))])


def test_scl_reader_rejects_a_bad_count_line_naming_it():
    with pytest.raises(ValueError, match="count line 'abc': must be a note count"):
        parse_scl("x\nabc\n3/2")


def test_scl_empty_description_is_kept():
    assert emit_scl("pyth3", "").splitlines()[:2] == ["", "19"]
    assert emit_scl("pyth3").splitlines()[0] == emit_scl("pyth3", None).splitlines()[0] != ""


@pytest.mark.parametrize("pitch", ["1/0", "0", "-3/2"])
def test_scl_reader_rejects_non_positive_pitches_naming_the_line(pitch):
    with pytest.raises(ValueError, match=f"pitch line '{pitch}'"):
        parse_scl(f"x\n1\n{pitch}")


def test_scl_reader_takes_ratios_beyond_float_range():
    for text, want in [(f"{3 ** 700}/1", 700), (f"1/{3 ** 700}", -700)]:
        _, (got,) = parse_scl(f"x\n1\n{text}")
        assert abs(got - want * 1200 * math.log2(3)) < 1e-6 * abs(got)


def test_emitters_are_byte_stable():
    for scale in ("pyth3", "edt19"):
        assert emit_scl(scale) == emit_scl(scale)
    for table in exports.TABLE_IDS:
        assert emit_table(table) == emit_table(table)
        assert emit_table(table, "json") == emit_table(table, "json")
    chords = parse_progression(sample_progression_text())
    assert emit_tonnetz_path(chords) == emit_tonnetz_path(chords)


def test_table_t2_csv_content():
    text = emit_table("t2")
    lines = text.splitlines()
    assert lines[0].startswith("scale_degree,note,ratio")
    assert len(lines) == 1 + 21
    gs_row = next(ln for ln in lines if ln.startswith("6,"))
    assert "729/512" in gs_row and "+11.11" in gs_row


def test_table_t1_csv_content():
    lines = emit_table("t1").splitlines()
    assert len(lines) == 1 + 13
    a_row = next(ln for ln in lines if ln.startswith("-5,"))
    assert "3/4" in a_row and "+1.96" in a_row


def test_table_plr_rows():
    assert "8,19" in emit_table("plr234").splitlines()
    assert "3,12" in emit_table("plr456").splitlines()


def test_table_diff_empty_range_is_header_only():
    text = emit_table("diff", degree_lo=0, degree_hi=5)
    assert text.splitlines() == ["scale_degree,pyth3_note,pyth2_note,quotient,comma_power"]


def test_table_json_round_trips():
    rows = json.loads(emit_table("t2", "json"))
    assert len(rows) == 21
    assert rows[16]["ratio"] == "729/512"
    purity_rows = json.loads(emit_table("purity456", "json"))
    assert [r["d_base"] for r in purity_rows] == [4, 5, 3, 10, 12, 15, 16, 25]


def test_table_unknown_ids_rejected():
    with pytest.raises(ValueError):
        emit_table("t3")
    with pytest.raises(ValueError):
        emit_table("t1", "yaml")


def test_sample_progression_parses_to_ten_chords():
    chords = parse_progression(sample_progression_text())
    assert len(chords) == 10
    qualities = [classify(c) for c in chords]
    assert qualities == [
        ChordQuality.AUGMENTED,
        ChordQuality.MAJOR,
        ChordQuality.DIMINISHED,
        ChordQuality.DIMINISHED,
        ChordQuality.MINOR,
        ChordQuality.MAJOR,
        ChordQuality.DIMINISHED,
        ChordQuality.MINOR,
        ChordQuality.AUGMENTED,
        ChordQuality.MAJOR,
    ]
    # closes one tritave above the chord the piece is built on
    assert chords[-1] == chord_234(
        [parse_note(n) for n in ("A^", "E^", "A'^")]
    )


def test_parse_progression_reports_line_numbers():
    with pytest.raises(ProgressionError, match="line 2"):
        parse_progression("A E A'\nA E\n")
    with pytest.raises(ProgressionError, match="line 3"):
        parse_progression("# comment\n\nA E Q'\n")


def test_parse_progression_skips_comments_and_blanks():
    chords = parse_progression("# heading\n\nA E A'  # tonic\n")
    assert len(chords) == 1


def test_parse_progression_keeps_sharps_in_note_names():
    chords = parse_progression("F# B Eb\nA E A' #tonic\n# C# in a comment\n")
    assert chords == [
        chord_234([parse_note(n) for n in ("F#", "B", "Eb")]),
        chord_234([parse_note(n) for n in ("A", "E", "A'")]),
    ]


def test_tonnetz_path_sample_counts():
    dot = emit_tonnetz_path(parse_progression(sample_progression_text()))
    assert len(re.findall(r"^  chord\d+ \[", dot, re.M)) == 10
    assert len(re.findall(r"chord\d+ -> chord\d+", dot)) == 9


def test_tonnetz_path_single_chord():
    dot = emit_tonnetz_path([chord_234([parse_note(n) for n in ("A", "E", "A'")])])
    assert len(re.findall(r"^  chord\d+ \[", dot, re.M)) == 1
    assert not re.findall(r"chord\d+ -> chord\d+", dot)


def test_tonnetz_path_of_basic_sequence_unites_five_notes():
    seq = basic_sequence(chord_234([parse_note(n) for n in ("A", "E", "A'")]))
    union = {n for c in seq for n in c.notes}
    assert {str(n) for n in union} == {"3/4", "1", "9/8", "3/2", "27/16"}
    dot = emit_tonnetz_path(seq)
    note_nodes = re.findall(r'^  "([^"]+)" \[shape=circle', dot, re.M)
    assert sorted(note_nodes) == sorted(["A", "D", "E", "A'", "B'"])
    assert len(re.findall(r"^  chord\d+ \[", dot, re.M)) == 4


def test_tonnetz_path_flags_unclassified_chords():
    odd = chord_234([parse_note(n) for n in ("A", "C", "G")])
    dot = emit_tonnetz_path([odd])
    assert 'label="1?"' in dot


def test_tonnetz_path_labels_a_note_with_no_name_by_its_ratio():
    # 2^-15 * 3^10 lies 15 fifths from D, outside the 19-note degree table
    dot = emit_tonnetz_path([Chord((FreqRatio(0, 0), FreqRatio(-15, 10), FreqRatio(1, 0)))])
    note_nodes = re.findall(r'^  "([^"]+)" \[shape=circle', dot, re.M)
    assert note_nodes == ["59049/32768", "D", "G,^"]
    assert 'chord1 -> "59049/32768" [style=dotted' in dot


def test_tonnetz_path_labels_a_note_too_far_to_write_by_its_exponents():
    # past MAX_MARKS tritaves a note has no name, and its ratio is too long to write
    far = Chord((FreqRatio(-2, 10**6 + 2), FreqRatio(-3, 10**6 + 3), FreqRatio(-1, 10**6 + 2)))
    dot = emit_tonnetz_path([far])
    note_nodes = re.findall(r'^  "([^"]+)" \[shape=circle', dot, re.M)
    assert note_nodes == ["2^-3*3^1000003", "2^-2*3^1000002", "2^-1*3^1000002"]
    assert 'chord1 -> "2^-2*3^1000002" [style=dotted' in dot


def test_tonnetz_path_rejects_empty():
    with pytest.raises(ValueError):
        emit_tonnetz_path([])


# Every boundary `str.splitlines` splits on.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.text(max_size=12)
       | st.builds(lambda a, b, c: a + b + c, st.sampled_from(["", "!", " !"]),
                   st.text(max_size=4), st.sampled_from(_LINE_BREAKS + ["", "!"])))
@example("!x")
@example("a\nb")
@example("")
def test_scl_description_reads_back_or_is_rejected(description):
    # oracle: the file with the description written unchecked as line 1
    unchecked = description + "\n" + emit_scl("pyth3").split("\n", 1)[1]
    try:
        reads_back = parse_scl(unchecked)[0] == description
    except ValueError:
        reads_back = False
    if reads_back:
        assert emit_scl("pyth3", description) == unchecked
    else:
        with pytest.raises(ValueError) as excinfo:
            emit_scl("pyth3", description)
        assert repr(description) in str(excinfo.value)
