"""`cli.main` over drawn argv: one error contract for every subcommand.

Whatever the argv, `main` returns 0, 1 (only `verify`) or 2, or argparse
exits on a usage error or help.  When `main` returns 2, stdout is empty and
stderr is one ``error: ...`` line; when argparse refuses an argv, stdout is
empty and stderr ends with argparse's own ``error:`` line.  Tokens are real
note names with runs of up to 10**4 marks, ratios, long digit strings and
junk, so the digit and mark bounds of every layer are reached.
"""

import contextlib
import io
import sys

from hypothesis import example, given, settings, strategies as st

from tritave import cli, notation, tonnetz
from tritave.harmony import TONNETZ_234, TONNETZ_456

NAMES = sorted({*notation.BASE_NAMES_PYTH3, *notation.BASE_NAMES_PYTH2, *notation.NAMES_EDO12})
#: Mark runs: none, short, long enough that 2:3:4 purity cannot write its numbers, the most.
RUNS = [0, 1, 2, 3, 9100, 10**4]
RATIOS = ["3/2", "4/3", "531441/524288", "1", "2/3", "1/19683", "10/7", "0/3", "3//2", "1/",
          "2/3/4", "3/x"]
DIGITS = ["9" * 20, "1" + "0" * 4299, "3" * 4301, "1/" + "3" * 4301, "2" * 4300 + "/3",
          "3" * 10**4]
JUNK = ["", "-", "--", "-h", "-5", "--k=3", "-n5", "--bogus", "x y", "Q", "H#", "A^'", "C,^",
        "é", "\x00", "٣", "1e9", "0x10", "PLR", "plrx", "P" * 40, "nan", " 8 "]
EVERY_FLAG = sorted({flag for c in cli.COMMANDS.values() for o in c[3] for flag in o[0]})


#: Values each free-text argument reads without doubt, by its dest.
PLAIN = {"notes": NAMES, "start": NAMES, "note": NAMES + RATIOS[:6], "ratio": RATIOS[:6],
         "moves": ["P", "L", "R", "PLR", "RRLP"], "file": ["-"], "description": ["x", ""]}
INTS = ["0", "3", "12", "60", "108"]
#: Major and minor triads of both systems, as three names.
TRIADS = [list(make(system._parse(root), system).chord().names())
          for system, roots in ((TONNETZ_234, ["A", "D", "F#", "Bb'"]), (TONNETZ_456, ["C", "Eb"]))
          for root in roots for make in (tonnetz.major_triad, tonnetz.minor_triad)]


@st.composite
def notes(draw):
    """A real name with a run of marks, now and then ending in the other kind."""
    marks = draw(st.sampled_from(["^", "v", "'", ","]))
    text = draw(st.sampled_from(NAMES)) + marks * draw(st.sampled_from(RUNS))
    return text + draw(st.sampled_from(["", "", "", "^", ","]))


TOKENS = st.one_of(notes(), notes(), st.sampled_from(RATIOS), st.sampled_from(DIGITS),
                   st.sampled_from(JUNK), st.sampled_from(EVERY_FLAG))


@st.composite
def argvs(draw):
    """A subcommand of the table with its positionals and options, each value
    (or the three notes of a chord) plain in two cases of three, then up to
    two inserted or dropped tokens."""
    def value(dest, choices, kind):
        if draw(st.integers(0, 2)):
            return draw(st.sampled_from(choices or (INTS if kind is int else PLAIN[dest])))
        return draw(TOKENS)

    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[name]
    argv = [name]
    for dest, nargs, choices, _ in positionals:
        if dest == "notes" and draw(st.integers(0, 2)):
            argv += draw(st.sampled_from(TRIADS))
        else:
            argv += [value(dest, choices, None) for _ in range(nargs or 1)]
    for flags, dest, kind, _, choices, _ in options:
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(flags)))
            argv += [] if kind is bool else [value(dest, choices, kind)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(i, draw(TOKENS))
        elif i < len(argv):
            del argv[i]
    return argv


def outcome(argv):
    """How `main` ended (its return value, or ``"exit"`` and argparse's exit
    code), with stdout and stderr; `tonnetz-path -` reads a short progression."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO("A E A'\nC E G\n")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                ended = cli.main(argv)
            except SystemExit as exc:
                ended = ("exit", exc.code)
    finally:
        sys.stdin = stdin
    return ended, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argvs())
@example(["purity", "A" + "^" * 10**4, "E" + "^" * 10**4, "A'" + "^" * 10**4])
@example(["purity", "A", "E", "A'" + "^" * 9100])
@example(["reduce", "D" + "^" * 10**4])
@example(["name", "3" * 4301])
@example(["plr", "C", "E", "G", "PLR", "--system", "456"])
@example(["tonnetz-path", "-", "--dot"])
@example(["verify"])
@example(["name", "-h"])
@example(["keyboard", "--lo", "9" * 5000])
def test_main_keeps_the_error_contract(argv):
    ended, out, err = outcome(argv)
    if isinstance(ended, tuple):        # argparse: help, or a usage error
        code = ended[1]
        assert code in (0, 2)
        if code == 0:
            assert out.startswith("usage: tritave") and err == ""
        else:
            *_, last = err.splitlines()
            assert out == "" and err.startswith("usage: tritave")
            assert last.startswith("tritave") and ": error: " in last
        return
    assert ended in (0, 1, 2)
    if ended == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == ""
        assert ended == 0 or argv[0] == "verify"
