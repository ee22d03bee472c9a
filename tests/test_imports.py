"""The import graph follows the call graph.

Each check starts a fresh interpreter with ``-S``, so no ``site`` hook has
loaded modules before tritave does, as on a clean install.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tritave
from tritave import cli, exports

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that `import tritave` and the lookups `name` and `reduce` never load.
UNUSED_BY_LOOKUPS = {
    "dataclasses", "inspect", "json", "csv", "importlib.resources", "fractions", "decimal",
    "argparse", "gettext", "locale", "shutil", "tritave.temperament", "tritave.harmony",
    "tritave.tonnetz", "tritave.exports", "tritave.verify",
}

#: `from tritave import *` at the seed: the public API and the submodules.
SEED_NAMES = [
    "COMMA", "Cents", "Chord", "ChordQuality", "Convergent", "EDO12", "EDT19", "FIFTH",
    "FOURTH", "FreqRatio", "KeyLabel", "NotThreeSmoothError", "NoteName", "OCTAVE", "ONE",
    "PYTH2", "PYTH3", "ProgressionError", "PurityReport", "ReachLevel", "ScaleRow",
    "ScaleSystem", "TONNETZ_234", "TONNETZ_456", "TRITAVE", "TonnetzSystem", "Triad",
    "VerifyReport", "apply_plr", "apply_plr_sequence", "basic_sequence", "cadence_sequence",
    "cents", "cf_coefficients", "chord_234", "chord_456", "classify", "comma_for",
    "convergents", "deviation_table", "edo12_name", "emit_scl", "emit_table",
    "emit_tonnetz_path", "exports", "fundamental_note", "harmonic_degree",
    "harmonic_to_scale_degree", "harmony", "invert", "key_color_by_harmonic_degree",
    "keyboard_labels", "lattice_coordinates", "major_triad", "major_triad_234", "minor_triad",
    "minor_triad_234", "name_of", "notation", "note_at_scale_degree", "note_class",
    "note_coordinates", "parse_edo12_note", "parse_note", "parse_progression",
    "parse_pyth2_note", "parse_scl", "period_reduce", "purity", "pyth2_name_of",
    "pyth2_pyth3_differences", "ratios", "reachable_note_classes", "reduce_chord_to_domain",
    "reduce_to_fundamental", "sample_progression_text", "scale_to_harmonic", "scales",
    "shift_in_circle", "temperament", "tonnetz", "triad_from_chord", "verify", "verify_tables",
]


def fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports tritave from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return result.stdout


def loaded_after(*argv: str) -> set[str]:
    """Modules held after one `cli.main` call, whose own output is dropped."""
    code = ("import contextlib, io, sys\n"
            "from tritave import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({list(argv)!r})\n"
            "print(code, *sys.modules)\n")
    exit_code, *modules = fresh(code).split()
    assert exit_code == "0"
    return set(modules)


def test_a_name_lookup_loads_only_what_it_runs():
    assert loaded_after("name", "3/2") & UNUSED_BY_LOOKUPS == set()
    assert loaded_after("reduce", "G'") & UNUSED_BY_LOOKUPS == set()


def test_a_plr_call_adds_only_harmony_and_tonnetz():
    added = loaded_after("plr", "A", "E", "A'", "P") - loaded_after("name", "3/2")
    # `enum` serves `harmony.ChordQuality`; a lookup loads no `enum`
    assert added == {"tritave.harmony", "tritave.tonnetz", "enum"}


#: What `import fractions` loads; among the chord commands only `purity` needs
#: it, for the base and overtone frequencies of its report.
FRACTIONS = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("argv", [
    ("plr", "A", "E", "A'", "P"),
    ("sequence", "A", "E", "A'"),
    ("sequence", "--system", "456", "C", "E", "G"),
    ("reach", "--k", "8"),
    ("reach", "--system", "456", "--k", "3"),
], ids=" ".join)
def test_chord_commands_load_no_fractions(argv):
    assert loaded_after(*argv) & FRACTIONS == set()


def test_convergents_load_no_fractions():
    # Only `Convergent.value` builds a `Fraction`; the command prints p/q.
    assert loaded_after("convergents") & FRACTIONS == set()


def test_purity_loads_fractions_for_its_report_frequencies():
    assert loaded_after("purity", "--system", "456", "C", "E", "G") >= FRACTIONS
    assert loaded_after("purity", "A", "E", "A'") >= FRACTIONS


def test_verify_and_scale_tables_load_no_file_format_modules():
    for argv in (("verify",), ("scale", "pyth3")):
        assert loaded_after(*argv) & {"dataclasses", "inspect", "json", "csv",
                                      "importlib.resources"} == set()


def test_importing_the_package_loads_only_the_pitch_layers():
    modules = set(fresh("import sys, tritave\nprint(*sys.modules)").split())
    assert {m for m in modules if m.startswith("tritave.")} == {
        "tritave.ratios", "tritave.scales", "tritave.notation"}
    assert modules & UNUSED_BY_LOOKUPS == set()


def test_cli_table_ids_are_those_of_exports():
    assert cli.TABLE_IDS == exports.TABLE_IDS


def test_public_names_are_those_of_the_seed():
    assert sorted(tritave.__all__) == SEED_NAMES
    assert set(SEED_NAMES) <= set(dir(tritave))


def test_every_public_name_resolves_in_a_fresh_interpreter():
    code = ("import tritave\n"
            "for name in tritave.__all__:\n"
            "    getattr(tritave, name)\n"
            "from tritave import harmony, tonnetz, verify\n"
            "assert tritave.Chord is harmony.Chord and tritave.Triad is tonnetz.Triad\n"
            "assert tritave.verify_tables is verify.verify_tables\n"
            "star = {}\n"
            "exec('from tritave import *', star)\n"
            "print(sorted(set(tritave.__all__) - set(star)))\n")
    assert fresh(code) == "[]\n"


def test_an_unknown_name_is_an_attribute_error():
    code = ("import tritave\n"
            "try:\n"
            "    tritave.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n")
    assert fresh(code) == "module 'tritave' has no attribute 'no_such_name'\n"
