"""File emitters: Scala tuning files, CSV/JSON tables, DOT lattice paths.

All emitters are deterministic (byte-identical across runs): rows are
ordered by the data they describe, numbers use '.' decimals regardless of
locale, and nothing depends on time or environment.  `csv`, `json` and
`importlib.resources` are imported by the one function each that uses them.
"""

from __future__ import annotations

import io
import math

from . import harmony, notation, scales, tonnetz
from .ratios import MAX_STR_DIGITS, _check_type, _parts, _shown

__all__ = [
    "ProgressionError",
    "emit_scl",
    "parse_scl",
    "emit_table",
    "TABLE_IDS",
    "parse_progression",
    "sample_progression_text",
    "emit_tonnetz_path",
]

SCL_SCALES = ("pyth3", "edt19", "pyth2", "edo12")

_SCL_DESCRIPTIONS = {
    "pyth3": "Pythagorean scale of 19 notes per tritave (just intonation)",
    "edt19": "19 equal divisions of the tritave",
    "pyth2": "Pythagorean scale of 12 notes per octave (just intonation)",
    "edo12": "12 equal divisions of the octave",
}


def emit_scl(scale: str = "pyth3", description: str | None = None) -> str:
    """Scala .scl text for one of the four scales.

    Line 1 is the description, line 2 the note count, then one pitch per
    degree ascending: exact ``N/D`` ratios for the just scales, cents with
    five decimals for the equal ones.  The final entry is the period
    (``3/1`` for the tritave scales -- synths that assume octave repetition
    need to be told otherwise).  A description must read back as line 1:
    it may not start with ``!`` (a comment) or span lines.
    """
    if scale not in SCL_SCALES:
        raise ValueError(f"unknown scale {_shown(scale)}; choose from {SCL_SCALES}")
    if description is not None:
        _check_type(description, str, ".scl description must be")
        if description.startswith("!") or description.splitlines() not in ([], [description]):
            raise ValueError(f".scl description {_shown(description)} must not start with '!' "
                             "or span lines")
    system = scales._SYSTEMS[scale]
    n = system.notes_per_period
    lines = [_SCL_DESCRIPTIONS[scale] if description is None else description, str(n)]
    for degree in range(1, n + 1):
        if system.just:
            pitch = scales._just_note(degree, system)
            lines.append("%d/%d" % _parts(pitch.u, pitch.v))
        else:
            lines.append(f"{scales.note_at_scale_degree(degree, system):.5f}")
    return "\n".join(lines) + "\n"


def _digits(text: str) -> bool:
    """Whether a text is ASCII digits only, the one way a .scl file writes an integer."""
    return text.isascii() and text.isdigit()


_CENTS_FORM = "cents are written in the ASCII digits 0-9, one '.' and a sign only"
_RATIO_FORM = "a ratio is written in the ASCII digits 0-9 only"


def _scl_cents(token: str) -> float:
    """One .scl pitch: cents when it holds a '.', else a ratio ``N/D`` or ``N``."""
    if "." in token and "/" not in token:
        try:
            cents = float(token)
        except ValueError:      # refused by its form: Python's text repeats the token
            raise ValueError(_CENTS_FORM) from None
        if not math.isfinite(cents):
            raise ValueError("cents must be a finite number")
        if not _digits(token.lstrip("+-").replace(".", "", 1)):
            raise ValueError(_CENTS_FORM)
        return cents
    num_text, _, den_text = token.partition("/")
    if max(len(num_text), len(den_text)) > MAX_STR_DIGITS:    # before `int` refuses it
        raise ValueError(f"a ratio's integers have at most {MAX_STR_DIGITS} digits")
    try:
        num, den = int(num_text), int(den_text or 1)
    except ValueError:
        raise ValueError(_RATIO_FORM) from None
    if num <= 0 or den <= 0:
        raise ValueError("a ratio needs a positive numerator and denominator")
    if not _digits(num_text + den_text):
        raise ValueError(_RATIO_FORM)
    # Logs of the integers, not of their quotient, which can leave float range.
    return 1200.0 * (math.log2(num) - math.log2(den))


def parse_scl(text: str) -> tuple[str, list[float]]:
    """Minimal .scl reader: returns (description, pitches in cents).

    The note count and a ratio's integers are ASCII digits, and cents a
    finite signed decimal in ASCII digits, the forms a Scala file holds.
    """
    _check_type(text, str, ".scl text must be")
    lines = [ln for ln in text.splitlines() if not ln.startswith("!")]
    if len(lines) < 2:
        raise ValueError("truncated .scl: need a description and a note count")
    description = lines[0]
    text = lines[1].strip()
    if not _digits(text):
        raise ValueError(f"bad .scl count line {_shown(text)}: must be a note count")
    if len(text) > MAX_STR_DIGITS:
        raise ValueError(f"bad .scl count line {_shown(text)}: a note count has at most "
                         f"{MAX_STR_DIGITS} digits")
    count = int(text)
    pitches = []
    for raw in lines[2:]:
        token = raw.strip().split()[0] if raw.strip() else ""
        if not token:
            continue
        try:
            pitches.append(_scl_cents(token))
        except ValueError as exc:
            raise ValueError(f"bad .scl pitch line {_shown(raw.strip())}: {exc}") from None
    if len(pitches) != count:
        raise ValueError(f"expected {count} pitches, found {len(pitches)}")
    return description, pitches


TABLE_IDS = ("t1", "t2", "diff", "plr456", "plr234", "purity234", "purity456")

#: Table id and `scales.deviation_table` pair of each just scale.
_DEVIATION_TABLES = {scales.PYTH2: ("t1", "pyth2_edo12"), scales.PYTH3: ("t2", "pyth3_edt19")}

_PURITY_234_ROWS = [
    ("major", ("A", "E", "A'")),
    ("minor", ("A", "D", "A'")),
    ("augmented", ("A", "E", "B'")),
    ("diminished", ("A", "D", "G")),
]

_PURITY_456_ROWS = [
    ("major", ("C", "E", "G")),
    ("major, 1st inv", ("E", "G", "C'")),
    ("major, 2nd inv", ("G", "C'", "E'")),
    ("minor", ("A,", "C", "E")),
    ("minor, 1st inv", ("C", "E", "A")),
    ("minor, 2nd inv", ("E", "A", "C'")),
    ("augmented", ("C", "E", "G#")),
    ("diminished", ("B", "D", "F")),
]


def _deviation_rows(pair: str):
    header = ["scale_degree", "note", "ratio", "exponents", "harmonic_degree",
              "equal", "deviation_cents", "boundary"]
    rows = []
    for row in scales.deviation_table(pair):
        rows.append([
            row.scale_degree,
            row.note,
            str(row.just_ratio),
            notation._exponent_str(row.just_ratio),
            row.harmonic_degree,
            f"{row.equal_value:.4f}",
            f"{row.deviation_cents:+.2f}",
            int(row.boundary),
        ])
    return header, rows


def _diff_rows(degree_lo: int, degree_hi: int):
    header = ["scale_degree", "pyth3_note", "pyth2_note", "quotient", "comma_power"]
    rows = []
    for degree, p3, p2, quotient in scales.pyth2_pyth3_differences(degree_lo, degree_hi):
        power = quotient.v // 12          # quotient is always comma**(+-1)
        rows.append([degree, str(p3), p2, str(quotient), power])
    return header, rows


def _plr_rows(system: harmony.TonnetzSystem, max_moves: int):
    start = tonnetz.major_triad(system._parse(system.home), system)
    header = ["moves", "reachable"]
    rows = [[lvl.moves, lvl.count]
            for lvl in tonnetz.reachable_note_classes(start, max_moves)]
    return header, rows


def _purity_rows(system: harmony.TonnetzSystem, source_rows):
    header = ["quality", "chord", "harmonics", "reciprocal",
              "base_note", "d_base", "overtone_note", "d_overtone"]
    rows = []
    for label, notes in source_rows:
        chord = system.parse_chord(notes)
        report = harmony.purity(chord)
        a, b, c = report.ratio
        x, y, z = report.reciprocal
        rows.append([
            label,
            str(chord),
            f"{a}:{b}:{c}",
            f"1/{x}:1/{y}:1/{z}",
            "=".join(report.base_names),
            report.d_base,
            "=".join(report.overtone_names),
            report.d_overtone,
        ])
    return header, rows


def _table_rows(
    which: str,
    degree_lo: int = scales.PIANO_DEGREE_LO,
    degree_hi: int = scales.PIANO_DEGREE_HI,
):
    """Header and rows of one reference table (``which`` as for `emit_table`)."""
    _check_type(which, str, "a table id must be")
    tables = {
        "diff": lambda: _diff_rows(degree_lo, degree_hi),
        "plr456": lambda: _plr_rows(harmony.TONNETZ_456, 3),
        "plr234": lambda: _plr_rows(harmony.TONNETZ_234, 8),
        "purity234": lambda: _purity_rows(harmony.TONNETZ_234, _PURITY_234_ROWS),
        "purity456": lambda: _purity_rows(harmony.TONNETZ_456, _PURITY_456_ROWS),
    }
    key = which.lower()
    deviation_pairs = dict(_DEVIATION_TABLES.values())
    if key in deviation_pairs:
        return _deviation_rows(deviation_pairs[key])
    if key not in tables:
        raise ValueError(f"unknown table {_shown(which)}; choose from {TABLE_IDS}")
    return tables[key]()


def emit_table(
    which: str,
    format: str = "csv",
    degree_lo: int = scales.PIANO_DEGREE_LO,
    degree_hi: int = scales.PIANO_DEGREE_HI,
) -> str:
    """Render one of the package's reference tables as CSV or JSON.

    ``which`` is one of ``t1`` (12-per-octave vs 12-EDO), ``t2``
    (19-per-tritave vs 19-EDT), ``diff`` (degrees where the just scales
    differ; range configurable), ``plr234``/``plr456`` (note classes
    reachable by P/L/R moves) and ``purity234``/``purity456``.
    """
    header, rows = _table_rows(which, degree_lo, degree_hi)
    if format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if format == "json":
        return _json_table(header, rows)
    raise ValueError(f"format must be 'csv' or 'json', not {_shown(format)}")


def _json_table(header: list[str], rows) -> str:
    """``json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\\n"``
    for rows of scalar cells under distinct keys, one cell per key, written
    directly: with an indent, `json.dumps` takes the pure-Python encoder."""
    import json
    from json.encoder import encode_basestring_ascii as quote

    if not rows:
        return "[]\n"
    keys = [f"    {quote(key)}: " for key in header]

    def cell(value) -> str:
        if type(value) is str:
            return quote(value)
        return int.__repr__(value) if type(value) is int else json.dumps(value)

    objects = (",\n".join([key + cell(value) for key, value in zip(keys, row)]) for row in rows)
    return "[\n  {\n" + "\n  },\n  {\n".join(objects) + "\n  }\n]\n"


# --- progression files --------------------------------------------------


class ProgressionError(ValueError):
    """A progression file line failed to parse."""


def parse_progression(text: str) -> list[harmony.Chord]:
    """Parse a progression file: three note names per line, '#' comments.

    A comment starts at a word beginning with '#'; sharps in names stay.
    """
    _check_type(text, str, "progression text must be")
    chords = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if "#" in raw:      # the comment is cut at its first word, which `split` leaves non-empty
            for k, token in enumerate(tokens):
                if token[0] == "#":
                    del tokens[k:]
                    break
        if not tokens:
            continue
        if len(tokens) != 3:
            raise ProgressionError(
                f"line {lineno}: expected 3 note names, found {len(tokens)}"
            )
        try:
            chords.append(harmony.TONNETZ_234.parse_chord(tokens))
        except ValueError as exc:
            raise ProgressionError(f"line {lineno}: {exc}") from exc
    return chords


def sample_progression_text() -> str:
    """The bundled sample progression (a 2:3:4 closing sequence)."""
    from importlib import resources

    return (
        resources.files("tritave").joinpath("data/sample_progression.txt")
        .read_text(encoding="ascii")
    )


def emit_tonnetz_path(chords: list[harmony.Chord]) -> str:
    """DOT graph of a chord progression on the 2:3:4 lattice.

    One circle node per note (positioned at its lattice point), one filled
    triangle node per chord at the triangle's centroid, and a directed
    chain through the chord nodes in playing order.  Chords that are not
    major/minor/augmented/diminished are kept but flagged with '?'.  A note
    with no name is labelled by its ratio, or by its exponents, ``2^u*3^v``,
    when the ratio is too long to write.  Notes are keyed, sorted and placed
    by their exponents ``(u, v)``, read off the checked chords, and a chord's
    quality by the steps between them, as `harmony.classify` reads it.
    """
    chords = harmony._items(chords, "a progression")
    if not chords:
        raise ValueError("empty progression")
    notes, keyed = {}, []     # each note by its exponents; each chord's note keys
    for chord in chords:
        _check_type(chord, harmony.Chord, "emit_tonnetz_path takes")
        # Identity first, as in `harmony.reduce_chord_to_domain`.
        if chord.system is not harmony.TONNETZ_234 and chord.system != harmony.TONNETZ_234:
            raise ValueError("lattice paths are drawn for 2:3:4 progressions")
        a, b, c = chord.notes
        keys = (a.u, a.v), (b.u, b.v), (c.u, c.v)
        notes.update(zip(keys, chord.notes))
        keyed.append(keys)

    lines = [
        "digraph tonnetz_path {",
        "  // octave (+2,0), fifth (+1,+1), fourth (+1,-1)",
        "  node [fontsize=10];",
    ]
    for u, v in sorted(notes):      # each note at its `tonnetz.note_coordinates`
        notes[u, v] = label = notation._label(notes[u, v])
        lines.append(f'  "{label}" [shape=circle, pos="{2 * u + 3 * v},{v}!"];')
    qualities = harmony._QUALITIES[harmony.TONNETZ_234.id]
    for i, ((au, av), (bu, bv), (cu, cv)) in enumerate(keyed, start=1):
        if ((bu - au, bv - av), (cu - bu, cv - bv)) in qualities:
            label, fill = i, "lightgray"
        else:
            label, fill = f"{i}?", "white"
        u, v = au + bu + cu, av + bv + cv     # the centroid is a third of these
        lines.append(
            f'  chord{i} [label="{label}", shape=triangle, style=filled, '
            f'fillcolor={fill}, pos="{(2 * u + 3 * v) / 3:.4f},{v / 3:.4f}!"];\n'
            f'  chord{i} -> "{notes[au, av]}" [style=dotted, arrowhead=none];\n'
            f'  chord{i} -> "{notes[bu, bv]}" [style=dotted, arrowhead=none];\n'
            f'  chord{i} -> "{notes[cu, cv]}" [style=dotted, arrowhead=none];'
        )
    lines += [f"  chord{i} -> chord{i + 1} [penwidth=2];" for i in range(1, len(chords))]
    lines.append("}")
    return "\n".join(lines) + "\n"
