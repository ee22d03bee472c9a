"""Command-line interface.

Exit codes: 0 on success, 1 when `verify` finds a mismatch, 2 on usage or
parse errors.  Chords are given as three separate note-name arguments
(names may themselves contain commas, e.g. ``G,^``).

The 12 subcommands are written once, as data, in `COMMANDS`, and two
parsers read that table.  `_fast_args` reads plain argv by itself: an
exact subcommand name, its positionals as one run, and options by their
exact names, with values that do not start with ``-``, valid choices and
ints that `int` reads.  Any other argv (``-h``, ``--opt=value``, an
abbreviation, ``--``, a missing or extra positional, a bad value) goes to
the `argparse` parser that `build_parser` generates from the table, so
help text, usage errors and exit codes are argparse's own, and `argparse`
(with `gettext`, `locale` and `shutil`) loads only for them.

Each command imports the modules it runs when it runs, so a call loads
only what its subcommand needs; `notation` and `scales` serve them all.
"""

from __future__ import annotations

import contextlib
import io
import sys
import types

from . import notation, scales
from .ratios import MAX_STR_DIGITS, FreqRatio, _shown

#: `exports.TABLE_IDS`, written out so the parser does not load `exports`.
TABLE_IDS = ("t1", "t2", "diff", "plr456", "plr234", "purity234", "purity456")


def _parse_ratio_or_note(text: str) -> FreqRatio:
    num, slash, den = text.partition("/")
    if num.isdecimal():
        if slash and not den.isdecimal():
            raise ValueError(f"bad ratio {_shown(text)}: write a whole number N or a fraction N/D")
        for part, digits in (("numerator", num), ("denominator", den)):
            if len(digits) > MAX_STR_DIGITS:
                raise ValueError(f"ratio {_shown(text)}: the {part} has {len(digits)} digits, "
                                 f"more than {MAX_STR_DIGITS}")
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
    # An option the output would ignore is refused, not dropped.
    if args.scl and args.format != "table":
        raise ValueError(f"--format {args.format} does not apply to --scl output")
    if not args.scl and args.description is not None:
        raise ValueError("--description applies only to --scl output")
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
    if args.format != "table":
        raise ValueError(f"--format {args.format} applies to the just scales pyth3 and pyth2, "
                         f"not {args.system}")
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
    tonnetz._check_moves(args.moves)
    print(f"start  {_note_names(triad.chord())}  ({triad.quality})")
    for move in args.moves:
        triad = tonnetz.apply_plr(triad, move)
        print(f"{move.upper():<5}  {_note_names(triad.chord())}  ({triad.quality})")
    return 0


def _cmd_reach(args) -> int:
    from . import harmony, tonnetz
    system = harmony._SYSTEMS[args.system]
    start = tonnetz.major_triad(system._parse(args.start or system.home), system)
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
    # str() of an int past MAX_STR_DIGITS digits raises, naming no input.
    base, overtone, limit = report.base_frequency, report.overtone_frequency, 10**MAX_STR_DIGITS
    for label, numbers in (("harmonics", report.ratio), ("reciprocal", report.reciprocal),
                           ("base frequency", (base.numerator, base.denominator)),
                           ("overtone frequency", (overtone.numerator, overtone.denominator))):
        if max(numbers) >= limit:
            chord = " ".join(map(_shown, args.notes))
            raise ValueError(f"cannot write the purity of {chord}: the {label} line has a "
                             f"number of more than {MAX_STR_DIGITS} digits")
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
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:      # its str quotes the whole file name
            raise ValueError(f"cannot read {_shown(args.file)}: {exc.strerror}") from None
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


#: The subcommands, in help order: name -> (help, handler, positionals,
#: options).  A positional is (dest, nargs, choices, help) and an option
#: (flags, dest, type, default, choices, help), whose type is None for a
#: string, `int`, or `bool` for a flag that stores True.
_CHORD_SYSTEM = (("--system",), "system", None, "234", ("234", "456"), None)
COMMANDS = {
    "scale": ("print a scale table or a Scala .scl file", _cmd_scale,
              [("system", None, ("pyth3", "pyth2", "edt19", "edo12"), None)],
              [(("--scl",), "scl", bool, False, None, "emit Scala .scl text"),
               (("--format",), "format", None, "table", ("table", "csv", "json"), None),
               (("--description",), "description", None, None, None, ".scl description line")]),
    "table": ("emit a reference table (csv/json)", _cmd_table,
              [("which", None, TABLE_IDS, None)],
              [(("--format",), "format", None, "csv", ("csv", "json"), None)]),
    "reduce": ("enharmonic + period reduction of a note", _cmd_reduce,
               [("note", None, None, "note name or ratio like 531441/524288")],
               [(("--system",), "system", None, "pyth3", ("pyth3", "pyth2"), None)]),
    "name": ("name of a 3-smooth frequency ratio", _cmd_name,
             [("ratio", None, None, "ratio like 3/2")], []),
    "keyboard": ("key labels for a MIDI range", _cmd_keyboard, [],
                 [(("--lo",), "lo", int, 21, None, None), (("--hi",), "hi", int, 108, None, None)]),
    "convergents": ("continued fraction of log2/log3", _cmd_convergents, [],
                    [(("-n", "--count"), "count", int, 8, None, None)]),
    "plr": ("apply P/L/R moves to a triad", _cmd_plr,
            [("notes", 3, None, "three note names"),
             ("moves", None, None, "move string such as PLR")], [_CHORD_SYSTEM]),
    "reach": ("note classes reachable by P/L/R moves", _cmd_reach, [],
              [_CHORD_SYSTEM, (("--k",), "k", int, 8, None, "maximum number of moves"),
               (("--start",), "start", None, None, None, "root of the starting major triad")]),
    "sequence": ("basic or cadence sequence from a tonic", _cmd_sequence,
                 [("notes", 3, None, "tonic chord as three note names")],
                 [(("--cadence",), "cadence", bool, False, None, None), _CHORD_SYSTEM]),
    "purity": ("base-note and overtone distances of a chord", _cmd_purity,
               [("notes", 3, None, "chord as three note names")], [_CHORD_SYSTEM]),
    "tonnetz-path": ("lattice path of a progression file", _cmd_tonnetz_path,
                     [("file", None, None, "progression file, or - for stdin")],
                     [(("--dot",), "dot", bool, False, None, "emit DOT instead of a summary")]),
    "verify": ("recompute all reference tables", _cmd_verify, [], []),
}


def build_parser():
    """The `argparse` parser of `COMMANDS`, for help text and usage errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tritave",
        description="Tritave-based Pythagorean scales, 2:3:4 harmony and Tonnetz tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for dest, nargs, choices, text in positionals:
            p.add_argument(dest, nargs=nargs, choices=choices, help=text)
        for flags, dest, kind, default, choices, text in options:
            if kind is bool:
                p.add_argument(*flags, dest=dest, action="store_true", help=text)
            else:
                p.add_argument(*flags, dest=dest, type=kind, default=default, choices=choices,
                               help=text)
        p.set_defaults(func=func)
    return parser


def _fast_args(argv: list[str]) -> types.SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns, read off `COMMANDS`
    without argparse; None for any argv that is not plainly valid."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, positionals, options = COMMANDS[argv[0]]
    by_flag = {flag: option for option in options for flag in option[0]}
    args = {"command": argv[0], "func": func}
    args.update((dest, default) for _, dest, _, default, _, _ in options)
    run, ended = [], False          # the positionals, and whether an option followed them
    tokens = iter(argv[1:])
    for token in tokens:
        option = by_flag.get(token)
        if option is None:
            if ended or (token.startswith("-") and token != "-"):
                return None
            run.append(token)
            continue
        ended = bool(run)
        _, dest, kind, _, choices, _ = option
        if kind is bool:
            args[dest] = True
            continue
        value = next(tokens, "-")       # a missing value defers like one starting with "-"
        if value.startswith("-"):
            return None
        try:
            value = kind(value) if kind else value
        except ValueError:
            return None
        if choices and value not in choices:
            return None
        args[dest] = value
    if len(run) != sum(nargs or 1 for _, nargs, _, _ in positionals):
        return None
    for dest, nargs, choices, _ in positionals:
        args[dest], run = (run[:nargs], run[nargs:]) if nargs else (run[0], run[1:])
        if choices and args[dest] not in choices:
            return None
    return types.SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
