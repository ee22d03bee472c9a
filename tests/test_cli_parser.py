"""The argv parser: the command table's two consumers against argparse.

`cli._fast_args` reads plain argv without argparse and defers the rest to
`cli.build_parser()`, which is generated from the same table.  The
hand-written parser that the table replaced is kept below as the reference
for help text and usage errors, on whichever Python runs the tests.
"""

import argparse
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tritave import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def reference_parser() -> argparse.ArgumentParser:
    """`cli.build_parser` as it was written out by hand before the table."""
    parser = argparse.ArgumentParser(
        prog="tritave",
        description="Tritave-based Pythagorean scales, 2:3:4 harmony and Tonnetz tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale", help="print a scale table or a Scala .scl file")
    p.add_argument("system", choices=("pyth3", "pyth2", "edt19", "edo12"))
    p.add_argument("--scl", action="store_true", help="emit Scala .scl text")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--description", help=".scl description line")
    p.set_defaults(func=cli._cmd_scale)

    p = sub.add_parser("table", help="emit a reference table (csv/json)")
    p.add_argument("which", choices=cli.TABLE_IDS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cli._cmd_table)

    p = sub.add_parser("reduce", help="enharmonic + period reduction of a note")
    p.add_argument("note", help="note name or ratio like 531441/524288")
    p.add_argument("--system", choices=("pyth3", "pyth2"), default="pyth3")
    p.set_defaults(func=cli._cmd_reduce)

    p = sub.add_parser("name", help="name of a 3-smooth frequency ratio")
    p.add_argument("ratio", help="ratio like 3/2")
    p.set_defaults(func=cli._cmd_name)

    p = sub.add_parser("keyboard", help="key labels for a MIDI range")
    p.add_argument("--lo", type=int, default=21)
    p.add_argument("--hi", type=int, default=108)
    p.set_defaults(func=cli._cmd_keyboard)

    p = sub.add_parser("convergents", help="continued fraction of log2/log3")
    p.add_argument("-n", "--count", type=int, default=8)
    p.set_defaults(func=cli._cmd_convergents)

    p = sub.add_parser("plr", help="apply P/L/R moves to a triad")
    p.add_argument("notes", nargs=3, help="three note names")
    p.add_argument("moves", help="move string such as PLR")
    p.add_argument("--system", choices=("234", "456"), default="234")
    p.set_defaults(func=cli._cmd_plr)

    p = sub.add_parser("reach", help="note classes reachable by P/L/R moves")
    p.add_argument("--system", choices=("234", "456"), default="234")
    p.add_argument("--k", type=int, default=8, help="maximum number of moves")
    p.add_argument("--start", help="root of the starting major triad")
    p.set_defaults(func=cli._cmd_reach)

    p = sub.add_parser("sequence", help="basic or cadence sequence from a tonic")
    p.add_argument("notes", nargs=3, help="tonic chord as three note names")
    p.add_argument("--cadence", action="store_true")
    p.add_argument("--system", choices=("234", "456"), default="234")
    p.set_defaults(func=cli._cmd_sequence)

    p = sub.add_parser("purity", help="base-note and overtone distances of a chord")
    p.add_argument("notes", nargs=3, help="chord as three note names")
    p.add_argument("--system", choices=("234", "456"), default="234")
    p.set_defaults(func=cli._cmd_purity)

    p = sub.add_parser("tonnetz-path", help="lattice path of a progression file")
    p.add_argument("file", help="progression file, or - for stdin")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")
    p.set_defaults(func=cli._cmd_tonnetz_path)

    p = sub.add_parser("verify", help="recompute all reference tables")
    p.set_defaults(func=cli._cmd_verify)

    return parser


def subparsers(parser: argparse.ArgumentParser) -> dict:
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str]):
    """The namespace as a dict, or the exit code, stdout and stderr of a refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# --- help and usage errors ---------------------------------------------------


@pytest.fixture
def parsers(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    return cli.build_parser(), reference_parser()


def test_help_and_usage_match_the_reference(parsers):
    built, reference = parsers
    pairs = [(built, reference)] + [(subparsers(built)[name], subparsers(reference)[name])
                                    for name in cli.COMMANDS]
    for new, old in pairs:
        assert new.format_help() == old.format_help()
        assert new.format_usage() == old.format_usage()


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["Name", "3/2"], ["scale", "pyth4"], ["table", "t1", "--format", "xml"],
    ["keyboard", "--lo", "x"], ["convergents", "-n", "1.5"], ["plr", "A", "E"],
    ["name"], ["name", "3/2", "4/3"], ["name", "3/2", "--bogus"], ["reach", "--k"],
    ["reach", "--system=123"], ["verify", "--", "x"],
], ids=repr)
def test_usage_errors_match_the_reference(parsers, capsys, argv):
    code, out, err = parse_outcome(parsers[1], argv)
    assert code == 2 and out == "" and err.startswith("usage: tritave")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert (excinfo.value.code, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["name", "-h"], ["plr", "--help"],
                                  ["reach", "--k", "3", "-h"]], ids=repr)
def test_help_is_printed_as_the_reference_prints_it(parsers, capsys, argv):
    expected = parse_outcome(parsers[1], argv)
    assert expected[0] == 0 and expected[1].startswith("usage: tritave")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert (excinfo.value.code, *capsys.readouterr()) == expected


# --- the fast parser -----------------------------------------------------------


def catalogue_argv() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCHMARKS / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # for dataclasses
    spec.loader.exec_module(inputs)
    cases = inputs.cli_catalogue() + [c for cs in inputs.DEFECT_CLI_CASES.values() for c in cs]
    return [list(case.argv) for case in cases]


def test_every_benchmark_argv_takes_the_fast_path():
    parser = cli.build_parser()
    for argv in catalogue_argv():
        fast = cli._fast_args(argv)
        assert fast is not None, argv
        assert vars(fast) == parse_outcome(parser, argv)


PARSER = cli.build_parser()
REFERENCE = reference_parser()

#: Values any subcommand reads without doubt; a positional may also be "-".
PLAIN = ["A", "E", "A'", "C^", "Bb'v", "3/2", "531441/524288", "PLR", "", "x y", "verify",
         "name", "a=b"]
#: Tokens that put a reading in doubt, or that argparse reads its own way.
ODD = ["-h", "--help", "--", "-", "-5", "-x", "--sys", "--system=456", "--k=3", "-n5", "-n=5",
       "--coun", "--c", "--lo=1", "--scl=1", "--bogus", "--start", "--dot", "-1.5", "- x"]
#: Text for an int option: ints as `int()` reads them, and not.
INTS = ["0", "12", "127", "+7", " 8 ", "1_0", "٣", "-3", "x", "1.5", "", "0x10", "9" * 5000]
EVERY_FLAG = sorted({flag for c in cli.COMMANDS.values() for o in c[3] for flag in o[0]})


@st.composite
def argvs(draw):
    """An argv built from the table, and whether it is plain: the subcommand, its
    positionals as one run and options (some repeated) before or after it.  One
    value in three is odd, and up to three edits insert, drop or repeat a token
    or swap the subcommand; a plain argv has neither."""
    odd = []

    def value(choices, kind, plain):
        if draw(st.integers(0, 2)):
            return draw(st.sampled_from(choices or (["0", "12", "48"] if kind is int else plain)))
        odd.append(True)
        return draw(st.sampled_from(INTS if kind is int else [*(choices or ()), *PLAIN, *ODD]))

    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[name]
    run = [value(choices, None, PLAIN + ["-"]) for _, nargs, choices, _ in positionals
           for _ in range(nargs or 1)]
    before, after = [], []
    for flags, _, kind, _, choices, _ in options:
        for _ in range(draw(st.integers(0, 2))):
            tokens = [draw(st.sampled_from(flags))]
            if kind is not bool:
                tokens.append(value(choices, kind, PLAIN))
            (before if draw(st.booleans()) else after).extend(tokens)
    argv = [name, *before, *run, *after]
    edits = draw(st.lists(st.sampled_from(["insert", "insert", "drop", "repeat", "swap"]),
                          max_size=3))
    for edit in edits:
        i = draw(st.integers(0, len(argv)))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(PLAIN + ODD + INTS + EVERY_FLAG)))
        elif edit == "drop" and i < len(argv):
            del argv[i]
        elif edit == "repeat" and i < len(argv):
            argv.insert(draw(st.integers(0, len(argv))), argv[i])
        elif edit == "swap":
            argv[:1] = [draw(st.sampled_from(["nope", "-h", "nam", "Verify", *cli.COMMANDS]))]
    return argv, not (odd or edits)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(argvs())
# argparse refuses all but the last, which the fast parser must read
@example((["sequence", "A", "--cadence", "E", "A'"], False))
@example((["plr", "A", "E", "--system", "456", "A'", "P"], False))
@example((["reach", "--start", "-x"], False))
@example((["reach", "--start", "--"], False))
@example((["scale", "pyth3", "--description"], False))
@example((["tonnetz-path", "--dot", "-"], True))
def test_fast_parser_agrees_with_argparse_or_defers(case):
    argv, plain = case
    expected = parse_outcome(PARSER, argv)
    assert parse_outcome(REFERENCE, argv) == expected
    fast = cli._fast_args(argv)
    assert fast is None or vars(fast) == expected
    assert fast is not None or not plain
