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
     lambda f: lambda system, moves: _drop_last_row(f(system, moves))
     if system is verify.harmony.TONNETZ_456 else f(system, moves)),
    ("table_plr_234", verify.exports, "_plr_rows",
     lambda f: lambda system, moves: _drop_last_row(f(system, moves))
     if system is verify.harmony.TONNETZ_234 else f(system, moves)),
    ("table_purity_234", verify.exports, "_purity_rows",
     lambda f: lambda system, rows: _drop_last_row(f(system, rows))
     if system is verify.harmony.TONNETZ_234 else f(system, rows)),
    ("table_purity_456", verify.exports, "_purity_rows",
     lambda f: lambda system, rows: _drop_last_row(f(system, rows))
     if system is verify.harmony.TONNETZ_456 else f(system, rows)),
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
