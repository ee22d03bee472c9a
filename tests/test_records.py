"""Value semantics of the 13 record classes.

Each record is built from its fields alone: its repr lists them, it equals
only a record of its own class with equal fields, the frozen ones hash as
their field tuple and refuse assignment, and copies and pickles compare
equal.  Keyword construction is checked with the names the library's own
builders use.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from tritave.harmony import TONNETZ_234, TONNETZ_456, Chord, ChordQuality, PurityReport
from tritave.notation import NAMES_EDO12, KeyLabel, NoteName
from tritave.ratios import FreqRatio
from tritave.scales import PYTH3, ScaleRow, ScaleSystem
from tritave.temperament import Convergent
from tritave.tonnetz import ReachLevel, Triad
from tritave.verify import SectionResult, VerifyReport

SYSTEM_456 = ("_OctaveSystem(id='456', horizontal=7, up_diagonal=4, down_diagonal=3, "
              f"period=12, home='C', class_names={tuple(NAMES_EDO12)!r})")

# (record, repr, field tuple); the first 11 are frozen.
CASES = [
    (FreqRatio(3, 5), "FreqRatio(3, 5)", (3, 5)),
    (PYTH3,
     "ScaleSystem(id='pyth3', period=FreqRatio(0, 1), notes_per_period=19, "
     "harmonic_range=(-9, 9), degree_multiplier=12, degree_multiplier_inv=8, just=True)",
     ("pyth3", FreqRatio(0, 1), 19, (-9, 9), 12, 8, True)),
    (ScaleRow(scale_degree=2, note="E", just_ratio=FreqRatio(-3, 2), harmonic_degree=-3,
              equal_exponent=Fraction(2, 19), equal_value=1.5, deviation_cents=3.5),
     "ScaleRow(scale_degree=2, note='E', just_ratio=FreqRatio(-3, 2), harmonic_degree=-3, "
     "equal_exponent=Fraction(2, 19), equal_value=1.5, deviation_cents=3.5, boundary=False)",
     (2, "E", FreqRatio(-3, 2), -3, Fraction(2, 19), 1.5, 3.5, False)),
    (NoteName("A", 1), "NoteName(base='A', tritave_shift=1)", ("A", 1)),
    (KeyLabel(midi=62, name=NoteName("D"), scale_degree=0, color="white"),
     "KeyLabel(midi=62, name=NoteName(base='D', tritave_shift=0), scale_degree=0, "
     "color='white')",
     (62, NoteName("D", 0), 0, "white")),
    (Convergent(12, 19), "Convergent(p=12, q=19)", (12, 19)),
    (TONNETZ_456, SYSTEM_456, ("456", 7, 4, 3, 12, "C", tuple(NAMES_EDO12))),
    (Chord((0, 4, 7), "456"), f"Chord(notes=(0, 4, 7), system={SYSTEM_456})",
     ((0, 4, 7), TONNETZ_456)),
    (PurityReport(ratio=(4, 5, 6), d_base=4, d_overtone=10, base_frequency=Fraction(1, 4),
                  overtone_frequency=Fraction(15, 2), base_names=("C,,",),
                  overtone_names=("B''''",)),
     "PurityReport(ratio=(4, 5, 6), d_base=4, d_overtone=10, "
     "base_frequency=Fraction(1, 4), overtone_frequency=Fraction(15, 2), "
     "base_names=('C,,',), overtone_names=(\"B''''\",))",
     ((4, 5, 6), 4, 10, Fraction(1, 4), Fraction(15, 2), ("C,,",), ("B''''",))),
    (Triad(TONNETZ_456, 0, ChordQuality.MAJOR),
     f"Triad(system={SYSTEM_456}, root=0, quality=<ChordQuality.MAJOR: 'major'>)",
     (TONNETZ_456, 0, ChordQuality.MAJOR)),
    (ReachLevel(1, 3, frozenset({"C"})), "ReachLevel(moves=1, count=3, classes=frozenset({'C'}))",
     (1, 3, frozenset({"C"}))),
    (SectionResult("keyboard", "invariants", True),
     "SectionResult(name='keyboard', kind='invariants', passed=True, failures=[])",
     ("keyboard", "invariants", True, [])),
    (VerifyReport([SectionResult("s", "table", False, ["boom"])]),
     "VerifyReport(sections=[SectionResult(name='s', kind='table', passed=False, "
     "failures=['boom'])])",
     ([SectionResult("s", "table", False, ["boom"])],)),
]
FROZEN = CASES[:11]

IDS = [type(record).__name__ for record, _, _ in CASES]


def test_every_record_class_is_covered():
    assert len(set(IDS)) == 13


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_repr_lists_the_fields(record, text, fields):
    assert repr(record) == text


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_equal_only_to_its_own_class_with_equal_fields(record, text, fields):
    twin = type(record)(*fields)
    assert twin == record and not twin != record
    assert record != fields
    others = [r for r, _, _ in CASES if type(r) is not type(record)]
    assert all(record != other and other != record for other in others)


#: The records of the reference tables' rows, each with its fields by keyword.
ROWS = [
    (ScaleRow, dict(scale_degree=2, note="E", just_ratio=FreqRatio(-3, 2), harmonic_degree=-3,
                    equal_exponent=Fraction(2, 19), equal_value=1.5, deviation_cents=3.5,
                    boundary=True)),
    (KeyLabel, dict(midi=62, name=NoteName("D"), scale_degree=0, color="white")),
    (ReachLevel, dict(moves=1, count=3, classes=frozenset({"C"}))),
    (SectionResult, dict(name="keyboard", kind="invariants", passed=False, failures=["boom"])),
]


@pytest.mark.parametrize("cls, fields", ROWS, ids=[cls.__name__ for cls, _ in ROWS])
def test_a_row_is_the_same_built_by_keyword_by_place_or_from_its_fields(cls, fields):
    by_keyword, by_place = cls(**fields), cls(*fields.values())
    assert cls._fields == tuple(fields)
    assert tuple(getattr(by_keyword, name) for name in cls._fields) == tuple(fields.values())
    rebuilt = cls(*by_keyword._key(by_keyword))
    assert by_keyword == by_place == rebuilt
    for record in (by_keyword, by_place, rebuilt):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record and repr(twin) == repr(by_keyword)


def test_same_fields_in_another_class_are_unequal():
    assert Convergent(3, 5) != FreqRatio(3, 5)
    assert FreqRatio(3, 5) != Convergent(3, 5)
    assert FreqRatio(0, 0) != 1 and FreqRatio(0, 0) != (0, 0)


def test_unequal_fields_are_unequal():
    assert NoteName("A", 1) != NoteName("A", 0)
    assert FreqRatio(3, 5) != FreqRatio(5, 3)
    assert SectionResult("s", "table", True) != SectionResult("s", "table", True, ["x"])
    assert TONNETZ_234 != TONNETZ_456


@pytest.mark.parametrize("record, text, fields", FROZEN, ids=IDS[:11])
def test_frozen_records_hash_as_their_field_tuple(record, text, fields):
    assert hash(record) == hash(fields)


@pytest.mark.parametrize("record, text, fields", CASES[11:], ids=IDS[11:])
def test_records_holding_lists_are_unhashable(record, text, fields):
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("record, text, fields", FROZEN, ids=IDS[:11])
def test_frozen_records_refuse_assignment_and_deletion(record, text, fields):
    name = "u" if isinstance(record, FreqRatio) else text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(record, text, fields):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == text


def test_defaults():
    assert NoteName("A") == NoteName("A", 0)
    assert Chord((FreqRatio(0, 0), FreqRatio(1, 0), FreqRatio(0, 1))).system is TONNETZ_234
    assert SectionResult("a", "table", True).failures == []
    fresh = SectionResult("a", "table", True), SectionResult("a", "table", True)
    assert fresh[0].failures is not fresh[1].failures
    assert ScaleRow(0, "D", FreqRatio(0, 0), 0, Fraction(0), 1.0, 0.0).boundary is False


def test_chord_resolves_its_system_id():
    assert Chord((0, 4, 7), "456").system is TONNETZ_456
    with pytest.raises(ValueError, match="unknown system '789'"):
        Chord((0, 4, 7), "789")


def test_construction_checks_run_in_init():
    with pytest.raises(ValueError, match="unknown base name 'H'"):
        NoteName("H")
    with pytest.raises(ValueError, match="a lattice triad is major or minor"):
        Triad(TONNETZ_456, 0, ChordQuality.OTHER)
    with pytest.raises(ValueError, match="does not hold 19 notes"):
        ScaleSystem("x", FreqRatio(0, 1), 19, (-9, 8), 12, 8, True)
    with pytest.raises(ValueError, match="not inverse modulo 19"):
        ScaleSystem("x", FreqRatio(0, 1), 19, (-9, 9), 12, 7, True)
