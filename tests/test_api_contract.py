"""The library's error contract, argument by argument.

Every callable in `tritave.__all__`, every public method of one instance of
each public record class and `FreqRatio`'s ``*``, ``/`` and ``**`` start from
one valid call each (`CALLS`).  Then each argument position in turn takes
each value of `WRONG`, the other arguments kept, and every such call must
return or raise `ValueError`: never `TypeError`, `AttributeError` or any
other exception.  A `ValueError`'s message is one line of at most
`MAX_MESSAGE` characters, and never Python's own refusal to write an int
past 4300 digits.  The counterpart of `tests/test_cli_fuzz.py` for the library;
it is deterministic and makes each call once.
"""

import math

import pytest

import tritave
from tritave import (COMMA, EDO12, FIFTH, OCTAVE, ONE, PYTH2, PYTH3, TONNETZ_234, TONNETZ_456,
                     ChordQuality, Convergent, FreqRatio, KeyLabel, NoteName, ReachLevel,
                     ScaleRow, Triad, VerifyReport)
from tritave.ratios import _Record, _shown

#: The wrong values each argument position takes in turn: the last four are
#: an int past `str`'s 4300 digits either way, a long str and a long tuple.
WRONG = [None, "x", 1.5, True, -1, 10**30, 2**64, math.nan, (), FreqRatio(3, -2), [], object(),
         10**5000, -10**5000, "x" * 10**5, tuple(range(10**5))]

#: Most characters a refusal's message may have: it quotes the caller's value cut short.
MAX_MESSAGE = 300

#: Names in `tritave.__all__` that are not fuzzed, each with its reason.
EXCLUDED = {
    "Cents": "`Cents` is `float`, whose constructor is Python's",
    "ChordQuality": "an enum: a call with more than one argument is `enum`'s functional API",
}

#: Callables that refuse every call; their valid call is what a concrete class would take.
ABSTRACT = {"TonnetzSystem"}

A_E_A = TONNETZ_234.parse_chord(["A", "E", "A'"])
C_E_G = TONNETZ_456.parse_chord(["C", "E", "G"])
A_MAJOR = Triad(TONNETZ_234, ONE, ChordQuality.MAJOR)

#: One instance of each public record class; the lattice systems are the two
#: instances of the abstract `TonnetzSystem`.
INSTANCES = {
    "FreqRatio": FreqRatio(3, -2),
    "ScaleSystem": PYTH3,
    "ScaleRow": ScaleRow(0, "D", ONE, 0, 0, 1.0, 0.0, False),
    "NoteName": NoteName("A", 1),
    "KeyLabel": KeyLabel(62, NoteName("D"), 0, "white"),
    "Convergent": Convergent(19, 12),
    "Chord": A_E_A,
    "PurityReport": tritave.purity(A_E_A),
    "TONNETZ_234": TONNETZ_234,
    "TONNETZ_456": TONNETZ_456,
    "Triad": A_MAJOR,
    "ReachLevel": ReachLevel(1, 5, frozenset({"A"})),
    "VerifyReport": VerifyReport([]),
}

SYSTEM_456 = tuple(getattr(TONNETZ_456, name) for name in TONNETZ_456._fields)

#: One valid call per callable: its arguments, every optional one included.
CALLS = {
    # ratios
    "FreqRatio": (3, -2),
    "NotThreeSmoothError": ("x",),
    "cents": (FIFTH,),
    "FreqRatio.__mul__": (FIFTH,),
    "FreqRatio.__truediv__": (FIFTH,),
    "FreqRatio.__pow__": (3,),
    "FreqRatio.as_fraction": (),
    "FreqRatio.cents": (),
    "FreqRatio.from_fraction": (3, 2),
    "FreqRatio.inverse": (),
    # scales
    "ScaleSystem": ("pyth2", OCTAVE, 12, (-5, 6), 7, 7, True),
    "ScaleRow": (0, "D", ONE, 0, 0, 1.0, 0.0, False),
    "deviation_table": ("pyth2_edo12",),
    "fundamental_note": (4, PYTH2),
    "harmonic_degree": (FIFTH, PYTH3),
    "harmonic_to_scale_degree": (2, PYTH3),
    "note_at_scale_degree": (46, EDO12, "equal"),
    "period_reduce": (FreqRatio(3, 100), PYTH3),
    "pyth2_pyth3_differences": (-5, 5),
    "reduce_to_fundamental": (COMMA, PYTH2),
    "scale_to_harmonic": (2, PYTH3),
    # notation
    "NoteName": ("A", 1),
    "NoteName.ratio": (),
    "NoteName.render": (True,),
    "KeyLabel": (62, NoteName("D"), 0, "white"),
    "edo12_name": (13,),
    "key_color_by_harmonic_degree": (3,),
    "keyboard_labels": (21, 108),
    "name_of": (FreqRatio(3, -2),),
    "parse_edo12_note": ("C'",),
    "parse_note": ("A'^",),
    "parse_pyth2_note": ("C'",),
    "pyth2_name_of": (FreqRatio(3, -2),),
    # temperament
    "Convergent": (19, 12),
    "cf_coefficients": (5,),
    "comma_for": (12, 19),
    "convergents": (5,),
    # harmony
    "Chord": ((0, 4, 7), "456"),
    "Chord.names": (),
    "PurityReport": ((2, 3, 4), 2, 3, 1, 12, ("A",), ("E^",)),
    "basic_sequence": (A_E_A,),
    "cadence_sequence": (C_E_G,),
    "chord_234": ((ONE, FIFTH, COMMA),),
    "chord_456": ((7, 0, 4),),
    "classify": (A_E_A,),
    "invert": (A_E_A, "second"),
    "major_triad_234": (ONE,),
    "minor_triad_234": (ONE,),
    "purity": (C_E_G,),
    "reduce_chord_to_domain": (A_E_A, FIFTH),
    "shift_in_circle": (C_E_G, 1),
    # tonnetz
    "TonnetzSystem": SYSTEM_456,
    "TONNETZ_234.check_note": (FIFTH,),
    "TONNETZ_234.class_name": (FIFTH,),
    "TONNETZ_234.parse_chord": (["A", "E", "A'"],),
    "TONNETZ_456.check_note": (4,),
    "TONNETZ_456.class_name": (4,),
    "TONNETZ_456.parse_chord": (["C", "E", "G"],),
    "Triad": (TONNETZ_456, 4, ChordQuality.MINOR),
    "Triad.chord": (),
    "Triad.notes": (),
    "ReachLevel": (1, 5, frozenset({"A"})),
    "apply_plr": (A_MAJOR, "R"),
    "apply_plr_sequence": (A_MAJOR, "PLR"),
    "lattice_coordinates": (A_MAJOR,),
    "major_triad": (4, TONNETZ_456),
    "minor_triad": (FIFTH, TONNETZ_234),
    "note_class": (FIFTH, TONNETZ_234),
    "note_coordinates": (FIFTH,),
    "reachable_note_classes": (A_MAJOR, 3),
    "triad_from_chord": (C_E_G,),
    # exports
    "ProgressionError": ("x",),
    "emit_scl": ("pyth3", "a description"),
    "emit_table": ("diff", "json", -2, 2),
    "emit_tonnetz_path": ([A_E_A],),
    "parse_progression": ("A E A'\nA D A'\n",),
    "parse_scl": ("x\n2\n100.0\n3/2\n",),
    "sample_progression_text": (),
    # verify
    "VerifyReport": ([],),
    "VerifyReport.render": (),
    "verify_tables": (),
}


def _public(obj) -> list[str]:
    return sorted(name for name in dir(obj)
                  if not name.startswith("_") and callable(getattr(obj, name)))


FUNCTIONS = {name: getattr(tritave, name) for name in tritave.__all__
             if name not in EXCLUDED and callable(getattr(tritave, name))}
METHODS = {f"{owner}.{name}": getattr(instance, name)
           for owner, instance in INSTANCES.items() for name in _public(instance)}
OPERATORS = {f"FreqRatio.{name}": getattr(INSTANCES["FreqRatio"], name)
             for name in ("__mul__", "__truediv__", "__pow__")}
CALLABLES = {**FUNCTIONS, **METHODS, **OPERATORS}


def test_every_public_record_class_has_an_instance():
    records = [value for value in FUNCTIONS.values()
               if isinstance(value, type) and issubclass(value, _Record)]
    assert [cls.__name__ for cls in records
            if not any(isinstance(instance, cls) for instance in INSTANCES.values())] == []


def test_every_callable_has_one_valid_call():
    assert sorted(CALLABLES) == sorted(CALLS)


def test_the_lattice_systems_keep_only_their_checked_methods():
    for system in (TONNETZ_234, TONNETZ_456):
        assert _public(system) == ["check_note", "class_name", "parse_chord"]


def _wrong_calls(args):
    """Each position of a call, in turn given each wrong value."""
    for place in range(len(args)):
        for wrong in WRONG:
            yield place, wrong, (*args[:place], wrong, *args[place + 1:])


@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_a_call_returns_or_raises_value_error(name):
    call = CALLABLES[name]
    assert name in CALLS, f"{name} has no valid call in CALLS"
    if name in ABSTRACT:
        with pytest.raises(ValueError, match="is abstract"):
            call(*CALLS[name])
    else:
        call(*CALLS[name])      # the valid call itself returns
    broken = []
    for place, wrong, args in _wrong_calls(CALLS[name]):
        try:
            call(*args)
        except ValueError as exc:
            message = str(exc)
            if "\n" in message or len(message) > MAX_MESSAGE or "Exceeds the limit" in message:
                broken.append(f"argument {place + 1} = {_shown(wrong)}: {_shown(message)}")
        except Exception as exc:        # noqa: BLE001 -- any other type breaks the contract
            broken.append(f"argument {place + 1} = {_shown(wrong)}: {type(exc).__name__}: "
                          f"{_shown(str(exc))}")
    assert not broken, f"{name}:\n" + "\n".join(broken)
