"""Machine-checkable reproduction of the package's reference numbers.

`verify_tables` recomputes every published table (scale comparisons, the
just-scale difference list, P/L/R reachability, purity measures) plus a
set of invariant spot checks, and reports pass/fail per section.  The
expected values are frozen here so a regression in any module trips the
matching section.  Each section is a ``(name, kind, check)`` entry in
`_SECTIONS`; its check is a generator that yields one message per failure,
and a section passes when it yields none.

The seven table sections share one comparator, `_rows`, whose column map
names the table column of each frozen field, row key first.  It reads the
rows the emitters print (`exports._table_rows`), except for the deviation
tables: their cents are compared as floats within `DEVIATION_TOL`, so those
rows are built from the `scales.deviation_table` records.  The printed
``+1.23`` of A' is 0.0100000000000001 from the paper's 1.24; its float is not.
"""

from __future__ import annotations

from . import exports, harmony, notation, scales, temperament, tonnetz
from .ratios import COMMA, FreqRatio, LOG2_3, _Record

__all__ = ["SectionResult", "VerifyReport", "verify_tables"]


class SectionResult(_Record):
    __slots__ = ("name", "kind", "passed", "failures")    # kind: "table" | "invariants"

    def __init__(self, name: str, kind: str, passed: bool,
                 failures: list[str] | None = None) -> None:
        _set_name(self, name)
        _set_kind(self, kind)
        _set_passed(self, passed)
        _set_failures(self, [] if failures is None else failures)


_set_name, _set_kind, _set_passed, _set_failures = SectionResult._setters


class VerifyReport(_Record):
    __slots__ = ("sections",)

    def __init__(self, sections: list[SectionResult]) -> None:
        self._set(sections)

    @property
    def passed(self) -> bool:
        return all(section.passed for section in self.sections)

    def render(self) -> str:
        lines = []
        for section in self.sections:
            status = "PASS" if section.passed else "FAIL"
            lines.append(f"{status} {section.name}")
            for failure in section.failures:
                lines.append(f"     {failure}")
        verdict = "all sections passed" if self.passed else "verification FAILED"
        lines.append(verdict)
        return "\n".join(lines)


# (degree, note, ratio, harmonic degree, printed deviation, boundary row)
EXPECTED_T2 = [
    (-10, "E,", "9/16", -4, 4.94, True),
    (-9, "F,", "16/27", 4, -4.94, False),
    (-8, "F#,", "81/128", -7, 8.64, False),
    (-7, "G,", "2/3", 1, -1.23, False),
    (-6, "Ab", "512/729", 9, -11.11, False),
    (-5, "A", "3/4", -2, 2.47, False),
    (-4, "Bb", "64/81", 6, -7.41, False),
    (-3, "B", "27/32", -5, 6.17, False),
    (-2, "C", "8/9", 3, -3.70, False),
    (-1, "C#", "243/256", -8, 9.88, False),
    (0, "D", "1", 0, 0.0, False),
    (1, "Eb", "256/243", 8, -9.88, False),
    (2, "E", "9/8", -3, 3.70, False),
    (3, "F", "32/27", 5, -6.17, False),
    (4, "F#", "81/64", -6, 7.41, False),
    (5, "G", "4/3", 2, -2.47, False),
    (6, "G#", "729/512", -9, 11.11, False),
    (7, "A'", "3/2", -1, 1.24, False),
    (8, "Bb'", "128/81", 7, -8.64, False),
    (9, "B'", "27/16", -4, 4.94, False),
    (10, "C'", "16/9", 4, -4.94, True),
]

EXPECTED_T1 = [
    (-6, "Ab", "512/729", -6, -11.73, True),
    (-5, "A", "3/4", 1, 1.96, False),
    (-4, "Bb", "64/81", -4, -7.82, False),
    (-3, "B", "27/32", 3, 5.87, False),
    (-2, "C", "8/9", -2, -3.91, False),
    (-1, "C#", "243/256", 5, 9.78, False),
    (0, "D", "1", 0, 0.0, False),
    (1, "Eb", "256/243", -5, -9.78, False),
    (2, "E", "9/8", 2, 3.91, False),
    (3, "F", "32/27", -3, -5.87, False),
    (4, "F#", "81/64", 4, 7.82, False),
    (5, "G", "4/3", -1, -1.96, False),
    (6, "G#", "729/512", 6, 11.73, False),
]

# (degree, tritave-system name, octave-system name, comma power of pyth3/pyth2)
EXPECTED_DIFF = [
    (-37, "Ebvv", "C#,,,", -1),
    (-30, "Bb'vv", "G#,,,", -1),
    (-25, "Abv", "C#,,", -1),
    (-18, "Ebv", "G#,,", -1),
    (-6, "Ab", "G#,", -1),
    (25, "G#^", "Eb''", 1),
    (37, "C#^^", "Eb'''", 1),
    (44, "G#^^", "Bb''''", 1),
]

EXPECTED_PLR_234 = [3, 5, 7, 9, 11, 13, 15, 17, 19]
EXPECTED_PLR_456 = [3, 6, 11, 12]

# (quality, harmonics, d_base, base names, d_overtone, overtone names)
EXPECTED_PURITY_234 = [
    ("major", (2, 3, 4), 2, ("Ev", "A,"), 3, ("A'^", "E''")),
    ("minor", (3, 4, 6), 3, ("Av", "D,,"), 2, ("D^", "A''")),
    ("augmented", (4, 6, 9), 4, ("B'vv", "A,,"), 4, ("A^^", "B'''")),
    ("diminished", (9, 12, 16), 9, ("Avv", "G,,,,"), 9, ("G^^", "A''''")),
]

EXPECTED_PURITY_456 = [
    ("major", (4, 5, 6), 4, ("C,,",), 10, ("B''''",)),
    ("major, 1st inv", (5, 6, 8), 5, ("C,,",), 15, ("B'''''",)),
    ("major, 2nd inv", (3, 4, 5), 3, ("C,",), 12, ("B'''''",)),
    ("minor", (10, 12, 15), 10, ("F,,,,",), 4, ("E''",)),
    ("minor, 1st inv", (12, 15, 20), 12, ("F,,,,",), 3, ("E''",)),
    ("minor, 2nd inv", (15, 20, 24), 15, ("F,,,,",), 5, ("E'''",)),
    ("augmented", (16, 20, 25), 16, ("C,,,,",), 16, ("G#''''",)),
    ("diminished", (25, 30, 36), 25, ("Eb,,,,,",), 25, ("C#'''''",)),
]

EXPECTED_CF_PREFIX = [1, 1, 1, 2, 2, 3, 1, 5]

DEVIATION_TOL = 0.01


_DEVIATION_COLUMNS = ("scale_degree", "note", "ratio", "harmonic_degree", "deviation_cents",
                      "boundary")
_PURITY_COLUMNS = ("quality", "harmonics", "d_base", "base_note", "d_overtone", "overtone_note")


def _deviation(pair: str):
    """A deviation table from its records: a tolerance on the printed cents
    would fail A' of t2 (``+1.23`` against 1.24) or need widening."""
    return _DEVIATION_COLUMNS, [
        (r.scale_degree, r.note, str(r.just_ratio), r.harmonic_degree, r.deviation_cents,
         r.boundary) for r in scales.deviation_table(pair)]


def _rows(table, expected, columns):
    """Compare a ``(header, rows)`` table with a frozen list, one message per
    differing cell.  ``columns`` names the column of each frozen field, row key
    first; a tuple field is compared as the emitters join it (``2:3:4``,
    ``Ev=A,``) and a float one within `DEVIATION_TOL`."""
    header, rows = table
    if len(rows) != len(expected):
        yield f"expected {len(expected)} rows, got {len(rows)}"
        return
    key, *places = [header.index(column) for column in columns]
    for row, (want_key, *wants) in zip(rows, expected):
        if row[key] != want_key:
            yield f"{columns[0]} {want_key}: misplaced row {row[key]}"
            continue
        for column, place, want in zip(columns[1:], places, wants):
            got = row[place]
            if isinstance(want, tuple):
                want = ("=" if isinstance(want[0], str) else ":").join(map(str, want))
            if abs(got - want) > DEVIATION_TOL if isinstance(want, float) else got != want:
                yield f"{columns[0]} {want_key}: {column} {got} != {want}"


def _invariants():
    comma_cents = COMMA.cents()
    if abs(comma_cents - 23.460) > 0.001:
        yield f"comma is {comma_cents:.4f} cents, expected 23.460"
    gap = 1200.0 * LOG2_3 / 19 - 100.0
    if abs(gap - 0.103) > 0.001:
        yield f"per-step gap {gap:.4f} != 0.103"
    worst_equal = max(
        abs(
            scales.note_at_scale_degree(n, scales.EDO12)
            - scales.note_at_scale_degree(n, scales.EDT19)
        )
        for n in range(scales.PIANO_DEGREE_LO, scales.PIANO_DEGREE_HI + 1)
    )
    if not worst_equal < 5.0:
        yield f"12-EDO vs 19-EDT spread {worst_equal:.3f} not under 5 cents"
    worst_just = max(
        abs(
            scales._just_note(n, scales.PYTH3).cents()
            - scales.note_at_scale_degree(n, scales.EDT19)
        )
        for n in range(scales.PIANO_DEGREE_LO, scales.PIANO_DEGREE_HI + 1)
    )
    if not worst_just <= 11.12:
        yield f"just vs 19-EDT spread {worst_just:.3f} not within 11.12 cents"


def _continued_fractions():
    prefix = temperament.cf_coefficients(8)
    if prefix != EXPECTED_CF_PREFIX:
        yield f"coefficients {prefix} != {EXPECTED_CF_PREFIX}"
    convs = temperament.convergents(8)
    if (convs[4].p, convs[4].q) != (12, 19):
        yield f"convergent 5 is {convs[4]}, expected 12/19"
    if (convs[6].p, convs[6].q) != (53, 84):
        yield f"convergent 7 is {convs[6]}, expected 53/84"


def _keyboard():
    labels = notation.keyboard_labels(21, 108)
    names = [str(label.name) for label in labels]
    if len(set(names)) != 88:
        yield "88 key names are not pairwise distinct"
    anchors = {21: "Bvv", 62: "D", 108: "Bb'^^"}
    for midi, expected in anchors.items():
        got = names[midi - 21]
        if got != expected:
            yield f"midi {midi} labelled {got}, expected {expected}"
    whites = sum(
        notation.key_color_by_harmonic_degree(h) == "white" for h in range(-9, 10)
    )
    if whites != 11:
        yield f"{whites} white keys per tritave, expected 11"


def _harmony_identities():
    tonic = harmony.chord_234([notation.parse_note(n) for n in ("A", "E", "A'")])
    seq = [str(c) for c in harmony.basic_sequence(tonic)]
    if seq != ["A-E-A'", "A-E-B'", "A-D-A'", "A-E-A'"]:
        yield f"basic sequence {seq}"
    for exponents in [(0, 0), (-2, 1), (3, -2), (5, -3)]:
        root = FreqRatio(*exponents)
        dom = harmony.reduce_chord_to_domain(
            harmony.shift_in_circle(harmony.major_triad_234(root), 1), root
        )
        p_image = tonnetz.apply_plr(tonnetz.major_triad(root), "P").chord()
        if dom != p_image:
            yield f"root {root}: reduced dominant != P image"
        triple = harmony.major_triad_234(root)
        for _ in range(3):
            triple = harmony.invert(triple, "first")
        lifted = harmony.chord_234(
            n * FreqRatio(0, 1) for n in harmony.major_triad_234(root).notes
        )
        if triple != lifted:
            yield f"root {root}: triple first inversion != tritave shift"
    # Two P/L/R moves from C major reach every 4:5:6 class but the tritone.
    start = tonnetz.major_triad(0, tonnetz.TONNETZ_456)
    missing = set(notation.NAMES_EDO12) - tonnetz.reachable_note_classes(start, 2)[2].classes
    if missing != {"F#"}:
        yield f"classes missing after 2 moves: {sorted(missing)} != ['F#']"


def _scl_round_trip():
    for scale in exports.SCL_SCALES:
        text = exports.emit_scl(scale)
        if text != exports.emit_scl(scale):
            yield f"{scale}: emitter not byte-stable"
        _, cents_list = exports.parse_scl(text)
        system = scales._SYSTEMS[scale]
        for degree, got in enumerate(cents_list, start=1):
            want = (scales._just_note(degree, system).cents() if system.just
                    else scales.note_at_scale_degree(degree, system))
            if abs(got - want) > 1e-4:
                yield f"{scale} degree {degree}: {got} != {want}"
                break


#: Every section in report order: (name, kind, check); a check yields its failures.
_SECTIONS = [
    ("table_pyth2_vs_edo12", "table",
     lambda: _rows(_deviation("pyth2_edo12"), EXPECTED_T1, _DEVIATION_COLUMNS)),
    ("table_pyth3_vs_edt19", "table",
     lambda: _rows(_deviation("pyth3_edt19"), EXPECTED_T2, _DEVIATION_COLUMNS)),
    ("table_differences", "table",
     lambda: _rows(exports._table_rows("diff"), EXPECTED_DIFF,
                   ("scale_degree", "pyth3_note", "pyth2_note", "comma_power"))),
    ("table_plr_456", "table", lambda: _rows(
        exports._table_rows("plr456"), list(enumerate(EXPECTED_PLR_456)), ("moves", "reachable"))),
    ("table_plr_234", "table", lambda: _rows(
        exports._table_rows("plr234"), list(enumerate(EXPECTED_PLR_234)), ("moves", "reachable"))),
    ("table_purity_234", "table",
     lambda: _rows(exports._table_rows("purity234"), EXPECTED_PURITY_234, _PURITY_COLUMNS)),
    ("table_purity_456", "table",
     lambda: _rows(exports._table_rows("purity456"), EXPECTED_PURITY_456, _PURITY_COLUMNS)),
    ("invariants", "invariants", _invariants),
    ("continued_fractions", "invariants", _continued_fractions),
    ("keyboard", "invariants", _keyboard),
    ("harmony_identities", "invariants", _harmony_identities),
    ("scl_round_trip", "invariants", _scl_round_trip),
]


def verify_tables() -> VerifyReport:
    """Recompute all reference tables and invariants; report per section."""
    sections = []
    for name, kind, check in _SECTIONS:
        failures = list(check())
        sections.append(SectionResult(name, kind, not failures, failures))
    return VerifyReport(sections)
