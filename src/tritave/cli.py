"""Command-line interface.

Exit codes: 0 on success, 1 when `verify` finds a mismatch, 2 on usage or
parse errors.  Chords are given as three separate note-name arguments
(names may themselves contain commas, e.g. ``G,^``).

Each command imports the modules it runs when it runs, so a call loads
only what its subcommand needs; `notation` and `scales` serve them all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from . import notation, scales
from .ratios import FreqRatio

#: `exports.TABLE_IDS`, written out so the parser does not load `exports`.
TABLE_IDS = ("t1", "t2", "diff", "plr456", "plr234", "purity234", "purity456")

#: Longest numerator or denominator accepted, in digits: Python's default
#: limit for converting a digit string to an int.
MAX_RATIO_DIGITS = 4300


def _parse_ratio_or_note(text: str) -> FreqRatio:
    num, slash, den = text.partition("/")
    if num.isdecimal():
        if slash and not den.isdecimal():
            raise ValueError(f"bad ratio {text!r}: write a whole number N or a fraction N/D")
        for part, digits in (("numerator", num), ("denominator", den)):
            if len(digits) > MAX_RATIO_DIGITS:
                raise ValueError(f"ratio {text[:20]}...: the {part} has {len(digits)} digits, "
                                 f"more than {MAX_RATIO_DIGITS}")
        return FreqRatio.from_fraction(int(num), int(den) if slash else 1)
    try:
        return notation.parse_note(text)
    except ValueError as primary:
        # fall back to octave-system spellings such as G' or G#,; where the
        # two grammars overlap they agree on the frequency
        try:
            return notation.parse_pyth2_note(text)
        except ValueError:
            raise primary from None


def _chord_from_args(args):
    from . import harmony
    return harmony._SYSTEMS[args.system].parse_chord(args.notes)


def _note_names(chord) -> str:
    return " ".join(chord.names())


def _cmd_scale(args) -> int:
    from . import exports
    if args.scl:
        sys.stdout.write(exports.emit_scl(args.system, args.description))
        return 0
    system = scales._SYSTEMS[args.system]
    if system.just:
        table, pair = exports._DEVIATION_TABLES[system]
        if args.format in ("csv", "json"):
            sys.stdout.write(exports.emit_table(table, args.format))
            return 0
        for row in scales.deviation_table(pair):
            mark = " *" if row.boundary else ""
            print(
                f"{row.scale_degree:>4}  {row.note:<5} {str(row.just_ratio):>9}"
                f"  h={row.harmonic_degree:>3}  {row.equal_value:7.4f}"
                f"  {row.deviation_cents:+6.2f}c{mark}"
            )
        return 0
    for degree in range(0, system.notes_per_period + 1):
        print(f"{degree:>4}  {scales.note_at_scale_degree(degree, system):10.3f}c")
    return 0


def _cmd_table(args) -> int:
    from . import exports
    sys.stdout.write(exports.emit_table(args.which, args.format))
    return 0


def _cmd_reduce(args) -> int:
    ratio = _parse_ratio_or_note(args.note)
    system = scales._SYSTEMS[args.system]
    reduced, power = scales.reduce_to_fundamental(ratio, system)
    rep, shift = scales.period_reduce(reduced, system)
    name, rep_name = notation._name_in(reduced, system), notation._name_in(rep, system)
    print(f"input            {ratio}  (2^{ratio.u} * 3^{ratio.v})")
    print(f"enharmonic       {name}  = {reduced}  (comma power {power:+d})")
    print(f"class rep        {rep_name}  = {rep}  (period shift {shift:+d})")
    return 0


def _cmd_name(args) -> int:
    ratio = _parse_ratio_or_note(args.ratio)
    print(notation.name_of(ratio))
    return 0


def _cmd_keyboard(args) -> int:
    for label in notation.keyboard_labels(args.lo, args.hi):
        print(
            f"{label.midi:>4}  {str(label.name):<7} degree {label.scale_degree:>4}"
            f"  {label.color}"
        )
    return 0


def _cmd_convergents(args) -> int:
    from . import temperament
    coefficients = temperament.cf_coefficients(args.count)
    print("coefficients:", " ".join(str(a) for a in coefficients))
    for i, conv in enumerate(temperament.convergents(args.count), start=1):
        _, size = temperament.comma_for(conv.p, conv.q)
        print(f"{i:>3}  {str(conv):>12}  comma {size:10.4f}c")
    return 0


def _cmd_plr(args) -> int:
    from . import tonnetz
    triad = tonnetz.triad_from_chord(_chord_from_args(args))
    print(f"start  {_note_names(triad.chord())}  ({triad.quality})")
    for move in args.moves:
        triad = tonnetz.apply_plr(triad, move)
        print(f"{move.upper():<5}  {_note_names(triad.chord())}  ({triad.quality})")
    return 0


def _cmd_reach(args) -> int:
    from . import harmony, tonnetz
    system = harmony._SYSTEMS[args.system]
    start = tonnetz.major_triad(system.parse(args.start or system.home), system)
    for level in tonnetz.reachable_note_classes(start, args.k):
        names = " ".join(sorted(level.classes, key=system.class_names.index))
        print(f"{level.moves:>2} moves: {level.count:>2} classes  [{names}]")
    return 0


def _cmd_sequence(args) -> int:
    from . import harmony
    tonic = _chord_from_args(args)
    seq = (harmony.cadence_sequence if args.cadence else harmony.basic_sequence)(tonic)
    roles = (
        ["tonic", "dominant", "second dominant", "tonic"]
        if args.cadence
        else ["tonic", "subdominant", "dominant", "tonic"]
    )
    for role, chord in zip(roles, seq):
        print(f"{role:<16} {_note_names(chord)}  ({harmony.classify(chord)})")
    return 0


def _cmd_purity(args) -> int:
    from . import harmony
    report = harmony.purity(_chord_from_args(args))
    a, b, c = report.ratio
    x, y, z = report.reciprocal
    print(f"harmonics   {a}:{b}:{c}  (reciprocal 1/{x}:1/{y}:1/{z})")
    print(f"base        {'='.join(report.base_names) or report.base_frequency}"
          f"  = {report.base_frequency}  d_B = {report.d_base}")
    print(f"overtone    {'='.join(report.overtone_names) or report.overtone_frequency}"
          f"  = {report.overtone_frequency}  d_O = {report.d_overtone}")
    return 0


def _cmd_tonnetz_path(args) -> int:
    from . import exports, harmony
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    chords = exports.parse_progression(text)
    if args.dot:
        sys.stdout.write(exports.emit_tonnetz_path(chords))
        return 0
    for i, chord in enumerate(chords, start=1):
        print(f"{i:>3}  {_note_names(chord):<18} {harmony.classify(chord)}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    report = verify.verify_tables()
    print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("table", help="emit a reference table (csv/json)")
    p.add_argument("which", choices=TABLE_IDS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("reduce", help="enharmonic + period reduction of a note")
    p.add_argument("note", help="note name or ratio like 531441/524288")
    p.add_argument("--system", choices=("pyth3", "pyth2"), default="pyth3")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("name", help="name of a 3-smooth frequency ratio")
    p.add_argument("ratio", help="ratio like 3/2")
    p.set_defaults(func=_cmd_name)

    p = sub.add_parser("keyboard", help="key labels for a MIDI range")
    p.add_argument("--lo", type=int, default=21)
    p.add_argument("--hi", type=int, default=108)
    p.set_defaults(func=_cmd_keyboard)

    p = sub.add_parser("convergents", help="continued fraction of log2/log3")
    p.add_argument("-n", "--count", type=int, default=8)
    p.set_defaults(func=_cmd_convergents)

    p = sub.add_parser("plr", help="apply P/L/R moves to a triad")
    p.add_argument("notes", nargs=3, help="three note names")
    p.add_argument("moves", help="move string such as PLR")
    p.add_argument("--system", choices=("234", "456"), default="234")
    p.set_defaults(func=_cmd_plr)

    p = sub.add_parser("reach", help="note classes reachable by P/L/R moves")
    p.add_argument("--system", choices=("234", "456"), default="234")
    p.add_argument("--k", type=int, default=8, help="maximum number of moves")
    p.add_argument("--start", help="root of the starting major triad")
    p.set_defaults(func=_cmd_reach)

    p = sub.add_parser("sequence", help="basic or cadence sequence from a tonic")
    p.add_argument("notes", nargs=3, help="tonic chord as three note names")
    p.add_argument("--cadence", action="store_true")
    p.add_argument("--system", choices=("234", "456"), default="234")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("purity", help="base-note and overtone distances of a chord")
    p.add_argument("notes", nargs=3, help="chord as three note names")
    p.add_argument("--system", choices=("234", "456"), default="234")
    p.set_defaults(func=_cmd_purity)

    p = sub.add_parser("tonnetz-path", help="lattice path of a progression file")
    p.add_argument("file", help="progression file, or - for stdin")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")
    p.set_defaults(func=_cmd_tonnetz_path)

    p = sub.add_parser("verify", help="recompute all reference tables")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Output is held back until the command returns, so an error leaves
    # stdout empty whichever command raised it and wherever.
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
        sys.stdout.write(out.getvalue())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
