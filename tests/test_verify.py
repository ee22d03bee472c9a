import itertools

import pytest

from tritave import verify
from tritave.scales import deviation_table
from tritave.verify import verify_tables


def test_fresh_build_passes_all_sections():
    report = verify_tables()
    assert report.passed
    assert all(section.passed for section in report.sections)


def test_report_has_seven_table_sections():
    report = verify_tables()
    tables = [s for s in report.sections if s.kind == "table"]
    assert len(tables) == 7


def test_render_lists_every_section():
    report = verify_tables()
    text = report.render()
    assert text.count("PASS") == len(report.sections)
    assert "all sections passed" in text


def test_fault_injection_fails_scale_tables(monkeypatch):
    # negative control: a comma-sized error in the deviation column must
    # trip the table sections
    def corrupted(pair="pyth3_edt19"):
        rows = deviation_table(pair)
        row = rows[0]
        broken = row.__class__(row.scale_degree, row.note, row.just_ratio, row.harmonic_degree,
                               row.equal_exponent, row.equal_value, row.deviation_cents + 23.46,
                               row.boundary)
        return [broken] + rows[1:]

    monkeypatch.setattr(verify.scales, "deviation_table", corrupted)
    report = verify_tables()
    assert not report.passed
    failing = {s.name for s in report.sections if not s.passed}
    assert "table_pyth2_vs_edo12" in failing
    assert "table_pyth3_vs_edt19" in failing
    assert "FAIL" in report.render()


def _drop_last_row(table):
    header, rows = table
    return header, rows[:-1]


def _only_in(system, edit):
    """Fault for an exports row builder that edits the table of one system."""
    return lambda f: lambda which, arg: edit(f(which, arg)) if which is system else f(which, arg)


# Section name, module, attribute read by that section, and the fault: a
# function of the original attribute returning its corrupted replacement.
SECTION_FAULTS = [
    ("table_pyth2_vs_edo12", verify.scales, "deviation_table",
     lambda f: lambda pair: f(pair)[:-1] if pair == "pyth2_edo12" else f(pair)),
    ("table_pyth3_vs_edt19", verify.scales, "deviation_table",
     lambda f: lambda pair: f(pair)[:-1] if pair == "pyth3_edt19" else f(pair)),
    ("table_differences", verify.scales, "pyth2_pyth3_differences",
     lambda f: lambda *args: f(*args)[:-1]),
    ("table_plr_456", verify.exports, "_plr_rows",
     _only_in(verify.harmony.TONNETZ_456, _drop_last_row)),
    ("table_plr_234", verify.exports, "_plr_rows",
     _only_in(verify.harmony.TONNETZ_234, _drop_last_row)),
    ("table_purity_234", verify.exports, "_purity_rows",
     _only_in(verify.harmony.TONNETZ_234, _drop_last_row)),
    ("table_purity_456", verify.exports, "_purity_rows",
     _only_in(verify.harmony.TONNETZ_456, _drop_last_row)),
    ("invariants", verify, "LOG2_3", lambda f: f + 0.01),
    ("continued_fractions", verify.temperament, "cf_coefficients",
     lambda f: lambda count: [a + 1 for a in f(count)]),
    ("keyboard", verify.notation, "keyboard_labels",
     lambda f: lambda lo, hi: f(lo, hi)[::-1]),
    ("harmony_identities", verify.harmony, "basic_sequence",
     lambda f: lambda tonic: f(tonic)[:-1]),
    ("scl_round_trip", verify.exports, "parse_scl",
     lambda f: lambda text: (f(text)[0], [c + 1.0 for c in f(text)[1]])),
]


def test_section_faults_cover_every_section():
    assert [fault[0] for fault in SECTION_FAULTS] == [s.name for s in verify_tables().sections]


@pytest.mark.parametrize("section, module, attribute, fault", SECTION_FAULTS,
                         ids=[fault[0] for fault in SECTION_FAULTS])
def test_fault_injection_fails_exactly_its_section(monkeypatch, section, module, attribute, fault):
    # negative control: each section must notice a fault in what it reads,
    # and no other section may
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    report = verify_tables()
    failing = [s for s in report.sections if not s.passed]
    assert [s.name for s in failing] == [section]
    assert failing[0].failures
    assert not report.passed


def _edit_cell(table, index, column, value):
    header, rows = table
    rows = [list(row) for row in rows]
    rows[index][header.index(column)] = value
    return header, rows


def _nudge_cents(rows, degree, by):
    return [row.__class__(row.scale_degree, row.note, row.just_ratio, row.harmonic_degree,
                          row.equal_exponent, row.equal_value, row.deviation_cents + by,
                          row.boundary) if row.scale_degree == degree else row for row in rows]


def _replace(items, index, value):
    return [value if i == index else item for i, item in enumerate(items)]


A7 = next(row for row in deviation_table("pyth3_edt19") if row.scale_degree == 7)
_CALLS = itertools.count()

# Section, module, attribute read by that section, fault (as in SECTION_FAULTS)
# and the exact failures the section reports: one fault per failure line of
# the table comparator and of the invariant checks.
MESSAGE_FAULTS = [
    ("table_purity_456", verify.exports, "_purity_rows",
     _only_in(verify.harmony.TONNETZ_456, lambda table: (table[0], table[1][1:])),
     ["expected 8 rows, got 7"]),
    ("table_plr_456", verify.exports, "_plr_rows",
     _only_in(verify.harmony.TONNETZ_456, lambda table: (table[0], table[1][::-1])),
     ["moves 0: misplaced row 3", "moves 1: misplaced row 2", "moves 2: misplaced row 1",
      "moves 3: misplaced row 0"]),
    ("table_purity_234", verify.exports, "_purity_rows",
     _only_in(verify.harmony.TONNETZ_234, lambda table: _edit_cell(table, 0, "base_note", "Ev")),
     ["quality major: base_note Ev != Ev=A,"]),
    ("table_purity_234", verify.exports, "_purity_rows",
     _only_in(verify.harmony.TONNETZ_234,
              lambda table: _edit_cell(table, 3, "harmonics", "9:12:15")),
     ["quality diminished: harmonics 9:12:15 != 9:12:16"]),
    ("table_pyth3_vs_edt19", verify.scales, "deviation_table",
     lambda f: lambda pair: _nudge_cents(f(pair), 7, 0.02) if pair == "pyth3_edt19" else f(pair),
     [f"scale_degree 7: deviation_cents {A7.deviation_cents + 0.02} != 1.24"]),
    ("invariants", verify, "COMMA", lambda f: f * f, ["comma is 46.9200 cents, expected 23.460"]),
    ("invariants", verify.scales, "PIANO_DEGREE_HI", lambda f: f + 3,
     ["12-EDO vs 19-EDT spread 5.042 not under 5 cents"]),
    ("invariants", verify.scales, "EDT19", lambda f: verify.scales.EDO12,
     ["just vs 19-EDT spread 15.640 not within 11.12 cents"]),
    ("continued_fractions", verify.temperament, "convergents",
     lambda f: lambda count: _replace(f(count), 4, verify.temperament.Convergent(7, 11)),
     ["convergent 5 is 7/11, expected 12/19"]),
    ("continued_fractions", verify.temperament, "convergents",
     lambda f: lambda count: _replace(f(count), 6, verify.temperament.Convergent(41, 65)),
     ["convergent 7 is 41/65, expected 53/84"]),
    ("keyboard", verify.notation, "keyboard_labels",
     lambda f: lambda lo, hi: _replace(f(lo, hi), 1, f(lo, hi)[2]),
     ["88 key names are not pairwise distinct"]),
    ("keyboard", verify.notation, "key_color_by_harmonic_degree",
     lambda f: lambda h: "black" if h == 0 else f(h), ["10 white keys per tritave, expected 11"]),
    ("harmony_identities", verify.tonnetz, "apply_plr",
     lambda f: lambda triad, move: f(triad, "L" if move == "P" else move),
     [f"root {root}: reduced dominant != P image" for root in ("1", "3/4", "8/9", "32/27")]),
    ("harmony_identities", verify.harmony, "invert", lambda f: lambda chord, direction: chord,
     [f"root {root}: triple first inversion != tritave shift"
      for root in ("1", "3/4", "8/9", "32/27")]),
    ("harmony_identities", verify.notation, "NAMES_EDO12", lambda f: f + ["X"],
     ["classes missing after 2 moves: ['F#', 'X'] != ['F#']"]),
    ("scl_round_trip", verify.exports, "emit_scl",
     lambda f: lambda scale: f(scale) + f"! call {next(_CALLS)}\n",
     [f"{scale}: emitter not byte-stable" for scale in verify.exports.SCL_SCALES]),
]


@pytest.mark.parametrize("section, module, attribute, fault, failures", MESSAGE_FAULTS,
                         ids=[f"{f[0]}-{f[2]}-{i}" for i, f in enumerate(MESSAGE_FAULTS)])
def test_fault_reports_exactly_its_messages(monkeypatch, section, module, attribute, fault,
                                            failures):
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    report = verify_tables()
    assert [(s.name, s.failures) for s in report.sections if not s.passed] == [(section, failures)]


def test_cents_are_compared_as_floats_within_the_tolerance(monkeypatch):
    # A' prints as +1.23, which is more than DEVIATION_TOL from the paper's 1.24;
    # its float is within it, and so is the float nudged by half the tolerance
    assert f"{A7.deviation_cents:+.2f}" == "+1.23"
    assert abs(1.23 - 1.24) > verify.DEVIATION_TOL
    original = verify.scales.deviation_table
    monkeypatch.setattr(verify.scales, "deviation_table",
                        lambda pair: _nudge_cents(original(pair), 7, verify.DEVIATION_TOL / 2))
    assert verify_tables().passed
