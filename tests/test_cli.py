import pytest

from tritave import cli, ratios, verify
from tritave.verify import SectionResult, VerifyReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scale_table(capsys):
    code, out, _ = run(capsys, "scale", "pyth3")
    assert code == 0
    assert "729/512" in out and "+11.11" in out


def test_scale_scl(capsys):
    code, out, _ = run(capsys, "scale", "edt19", "--scl")
    assert code == 0
    assert out.splitlines()[1] == "19"
    assert out.splitlines()[2] == "100.10289"


def test_scale_scl_with_empty_description(capsys):
    code, out, _ = run(capsys, "scale", "pyth3", "--scl", "--description", "")
    assert code == 0
    assert out.splitlines()[:2] == ["", "19"]


def test_scale_csv(capsys):
    code, out, _ = run(capsys, "scale", "pyth2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("scale_degree,")


def test_table_subcommand(capsys):
    code, out, _ = run(capsys, "table", "plr234")
    assert code == 0
    assert "8,19" in out


def test_reduce_note(capsys):
    code, out, _ = run(capsys, "reduce", "531441/524288")
    assert code == 0
    assert "comma power" in out


def test_reduce_accepts_octave_system_spellings(capsys):
    # G#, is one comma above the Ab that replaces it in the tritave system
    code, out, _ = run(capsys, "reduce", "G#,")
    assert code == 0
    assert "Ab" in out and "comma power -1" in out
    code, out, _ = run(capsys, "reduce", "G'")
    assert code == 0
    assert "C^" in out


def test_name_ratio(capsys):
    code, out, _ = run(capsys, "name", "3/2")
    assert code == 0
    assert out.strip() == "A'"


def test_name_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "name", "531441/524288")
    assert code == 2
    assert "reduce" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "name", "5/4")
    assert code == 2
    assert "not 3-smooth" in err


@pytest.mark.parametrize("command", ["name", "reduce"])
@pytest.mark.parametrize("text", ["2/3/4", "1/", "3//2", "3/x", "0/3"])
def test_malformed_ratio_is_named(capsys, command, text):
    code, out, err = run(capsys, command, text)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and text in err


def test_keyboard(capsys):
    code, out, _ = run(capsys, "keyboard", "--lo", "21", "--hi", "23")
    assert code == 0
    assert out.splitlines()[0].split()[1] == "Bvv"


def test_convergents(capsys):
    code, out, _ = run(capsys, "convergents", "-n", "7")
    assert code == 0
    assert "12/19" in out and "53/84" in out


def test_plr(capsys):
    code, out, _ = run(capsys, "plr", "A", "E", "A'", "P")
    assert code == 0
    assert "A D A'" in out


def test_plr_456(capsys):
    code, out, _ = run(capsys, "plr", "C", "E", "G", "R", "--system", "456")
    assert code == 0
    assert "A C' E'" in out    # the relative minor, printed from its root


@pytest.mark.parametrize("argv, move", [
    (("A", "E", "A'", "PX"), "X"),
    (("C", "E", "G", "PRZ", "--system", "456"), "Z"),
])
def test_plr_bad_move_prints_nothing(capsys, argv, move):
    code, out, err = run(capsys, "plr", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and repr(move) in err


def test_a_bad_name_of_1e5_marks_is_quoted_short(capsys):
    code, out, err = run(capsys, "plr", "A" + "^" * 10**5 + "v", "E", "A'", "P")
    assert code == 2
    assert out == ""
    assert err == ("error: bad shift marks in 'A^^^^^^^^^^^^^^^^^^^'... (100002 characters): "
                   "use only '^' or only 'v'\n")
    assert len(err.encode()) < 200


def test_sequence_without_a_name_prints_nothing(capsys):
    # the dominant of this tonic reaches harmonic degree 10, which has no
    # tritave-system name
    code, out, err = run(capsys, "sequence", "Eb", "Bb'", "Ab^")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "harmonic degree 10" in err


def test_reach(capsys):
    code, out, _ = run(capsys, "reach", "--k", "8")
    assert code == 0
    assert "19 classes" in out


def test_sequence(capsys):
    code, out, _ = run(capsys, "sequence", "A", "E", "A'")
    assert code == 0
    assert "A E B'" in out and "A D A'" in out


def test_sequence_cadence(capsys):
    code, out, _ = run(capsys, "sequence", "A", "E", "A'", "--cadence")
    assert code == 0
    assert "second dominant" in out


def test_purity(capsys):
    code, out, _ = run(capsys, "purity", "A", "E", "A'")
    assert code == 0
    assert "2:3:4" in out and "d_B = 2" in out


def test_tonnetz_path(tmp_path, capsys):
    path = tmp_path / "prog.txt"
    path.write_text("A E A'\nA E B'\n")
    code, out, _ = run(capsys, "tonnetz-path", str(path))
    assert code == 0
    assert "major" in out and "augmented" in out
    code, out, _ = run(capsys, "tonnetz-path", str(path), "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_tonnetz_path_missing_file(capsys):
    code, out, err = run(capsys, "tonnetz-path", "/nonexistent/prog.txt")
    assert code == 2
    assert (out, err) == ("", "error: cannot read '/nonexistent/prog.txt': "
                              "No such file or directory\n")


def test_tonnetz_path_unreadable_file_name_is_quoted_short(capsys):
    code, out, err = run(capsys, "tonnetz-path", "x" * 10**4)
    assert code == 2
    assert (out, err) == ("", "error: cannot read 'xxxxxxxxxxxxxxxxxxxx'... (10000 characters): "
                              "File name too long\n")


def test_verify_success(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "all sections passed" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = VerifyReport(
        [SectionResult("table_pyth3_vs_edt19", "table", False, ["boom"])]
    )
    monkeypatch.setattr(verify, "verify_tables", lambda: failing)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["scale", "nonsense"])
    assert excinfo.value.code == 2


def test_purity_failing_after_its_first_line_prints_nothing(capsys):
    # 2*10**4 tritaves up the base frequency has more digits than Python
    # converts to text, though the harmonics line before it is short
    up = "^" * 20000
    code, out, err = run(capsys, "purity", "A" + up, "E" + up, "A'" + up)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("notes, message", [
    # 10**4 tritaves up the base frequency's numerator has about 4772 digits
    (("A" + "^" * 10**4, "E" + "^" * 10**4, "A'" + "^" * 10**4),
     "'A^^^^^^^^^^^^^^^^^^^'... (10001 characters) 'E^^^^^^^^^^^^^^^^^^^'... "
     "(10001 characters) \"A'^^^^^^^^^^^^^^^^^^\"... (10002 characters): the base frequency"),
    # 4 * 3**9100 has 4343 digits
    (("A", "E", "A'" + "^" * 9100),
     "'A' 'E' \"A'^^^^^^^^^^^^^^^^^^\"... (9102 characters): the harmonics"),
    (("A", "E", "A'" + "^" * 9012),
     "'A' 'E' \"A'^^^^^^^^^^^^^^^^^^\"... (9014 characters): the harmonics"),
], ids=["1e4-marks-each", "9100-marks-on-top", "one-mark-past-the-bound"])
def test_purity_too_long_to_write_names_the_chord_and_the_line(capsys, notes, message):
    code, out, err = run(capsys, "purity", *notes)
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot write the purity of {message} line has a number of more "
                   f"than {ratios.MAX_STR_DIGITS} digits\n")


def test_purity_at_the_digit_bound_is_written(capsys):
    # 4 * 3**9011 has exactly MAX_STR_DIGITS digits
    code, out, err = run(capsys, "purity", "A", "E", "A'" + "^" * 9011)
    assert code == 0 and err == ""
    assert out.startswith(f"harmonics   2:3:{4 * 3**9011}  ")


def test_tonnetz_path_failing_on_a_later_chord_prints_nothing(tmp_path, capsys):
    # the second chord parses but cannot be spelled: its top note is
    # MAX_MARKS + 1 tritaves up
    path = tmp_path / "prog.txt"
    path.write_text("A E A'\nA E A'" + "^" * (10**6 + 1) + "\n")
    code, out, err = run(capsys, "tonnetz-path", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "1000001 periods" in err


@pytest.mark.parametrize("command", ["name", "reduce"])
@pytest.mark.parametrize("part", ["numerator", "denominator"])
def test_oversized_ratio_is_named_with_its_digit_count(capsys, command, part):
    text = "1" * 5000 if part == "numerator" else "3/" + "1" * 5000
    code, out, err = run(capsys, command, text)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert text[:20] in err and f"{part} has 5000 digits" in err


def test_reduce_of_a_note_too_long_to_write_as_a_ratio_is_named(capsys):
    # D is 1, so ten thousand tritaves up is 3**10000, a number of 4772 digits
    code, out, err = run(capsys, "reduce", "D" + "^" * 10**4)
    assert code == 2
    assert out == ""
    assert err == ("error: cannot write FreqRatio(0, 10000): its numerator has about "
                   "4772 digits, more than 4300\n")


@pytest.mark.parametrize("command", ["name", "reduce"])
def test_ratio_at_the_digit_bound_is_parsed(capsys, command):
    # 10**4299 = 2**4299 * 5**4299 has 4300 digits and is not 3-smooth
    code, out, err = run(capsys, command, "1" + "0" * (ratios.MAX_STR_DIGITS - 1))
    assert code == 2
    assert out == ""
    assert "not 3-smooth" in err


def test_reach_out_of_range_names_its_move_count(capsys):
    code, out, err = run(capsys, "reach", "--k", "20")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "20" in err


@pytest.mark.parametrize("description", ["!x", "a\nb"])
def test_scale_scl_description_that_cannot_read_back_is_rejected(capsys, description):
    code, out, err = run(capsys, "scale", "pyth3", "--scl", "--description", description)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and repr(description) in err


@pytest.mark.parametrize("argv, message", [
    (["scale", "edo12", "--format", "json"],
     "--format json applies to the just scales pyth3 and pyth2, not edo12"),
    (["scale", "edt19", "--format", "csv"],
     "--format csv applies to the just scales pyth3 and pyth2, not edt19"),
    (["scale", "pyth3", "--scl", "--format", "csv"], "--format csv does not apply to --scl output"),
    (["scale", "pyth3", "--description", "x"], "--description applies only to --scl output"),
    (["scale", "edo12", "--description", ""], "--description applies only to --scl output"),
], ids=["json-edo12", "csv-edt19", "csv-scl", "description-table", "empty-description-edo12"])
def test_scale_refuses_an_option_it_would_ignore(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["scale", "pyth3", "--scl", "--format", "table"],
                                  ["scale", "edo12", "--format", "table"]])
def test_scale_takes_the_default_format_when_written_out(capsys, argv):
    assert run(capsys, *argv) == run(capsys, *argv[:-2])
