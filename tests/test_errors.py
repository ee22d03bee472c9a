"""Library errors name the value that failed, on one line."""

import math
import time

import pytest

from tritave import cli, exports, harmony, notation, ratios, scales, temperament, tonnetz
from tritave.ratios import FreqRatio


DIMINISHED = harmony.TONNETZ_234.parse_chord(["A", "D", "G"])
C_MAJOR_456 = harmony.chord_456((0, 4, 7))
LONG_C = "C" + "'" * 50     # 50 octaves up, quoted as its first 20 characters
QUOTED_LONG_C = '"C' + "'" * 19 + '"... (51 characters)'

FAR_MINOR = harmony.minor_triad_234(FreqRatio(-12, 0))      # no note has a name
FAR_AUGMENTED = harmony.chord_234((FreqRatio(-12, 0), FreqRatio(-13, 1), FreqRatio(-14, 2)))
PYTH2_FIELDS = ("pyth2", ratios.OCTAVE, 12, (-5, 6), 7, 7, True)


def scale_system(place, value):
    return scales.ScaleSystem(*PYTH2_FIELDS[:place], value, *PYTH2_FIELDS[place + 1:])


@pytest.mark.parametrize("make, message", [
    (lambda: tonnetz.reachable_note_classes(tonnetz.major_triad(FreqRatio(0, 0)), 20),
     "max_moves must be in [0, 12], not 20"),
    (lambda: notation.keyboard_labels(100, 50),
     "midi range must satisfy 0 <= lo <= hi <= 127, not lo=100, hi=50"),
    (lambda: harmony.Chord((FreqRatio(0, 0), FreqRatio(1, 0))),
     "a chord needs exactly 3 notes, not 2: (FreqRatio(0, 0), FreqRatio(1, 0))"),
    (lambda: harmony.Chord((FreqRatio(-2, 1), FreqRatio(-2, 1), FreqRatio(-3, 2))),
     "chord notes must be strictly ascending, "
     "not (FreqRatio(-2, 1), FreqRatio(-2, 1), FreqRatio(-3, 2))"),
    (lambda: harmony.Chord((7, 4, 0), harmony.TONNETZ_456),
     "chord notes must be strictly ascending, not (7, 4, 0)"),
    (lambda: scales.pyth2_pyth3_differences(5, 3), "degree_lo 5 exceeds degree_hi 3"),
    (lambda: temperament.comma_for(0, 19), "p and q must be positive, not p=0, q=19"),
    (lambda: temperament.comma_for(12, -1), "p and q must be positive, not p=12, q=-1"),
    (lambda: harmony.basic_sequence(DIMINISHED),
     "basic sequence needs a major tonic, not 'A-D-G' (diminished)"),
    (lambda: harmony.cadence_sequence(DIMINISHED),
     "cadence sequence needs a major tonic, not 'A-D-G' (diminished)"),
    (lambda: tonnetz.triad_from_chord(DIMINISHED),
     "P/L/R moves need a major or minor triad, not 'A-D-G' (diminished)"),
    (lambda: exports.emit_scl("pyth5"),
     "unknown scale 'pyth5'; choose from ('pyth3', 'edt19', 'pyth2', 'edo12')"),
    (lambda: exports.emit_tonnetz_path([C_MAJOR_456]),
     "lattice paths are drawn for 2:3:4 progressions"),
    (lambda: scales.deviation_table("x"), "unknown table pair 'x'"),
    (lambda: harmony.reduce_chord_to_domain(C_MAJOR_456),
     "domain reduction by tritaves applies to 2:3:4 chords"),
    (lambda: harmony.TONNETZ_234.parse_chord(["A", "E", "A"]),
     "chord notes must be distinct: 'A' and 'A' are one note"),
    (lambda: harmony.TONNETZ_456.parse_chord([LONG_C, "G", LONG_C]),
     f"chord notes must be distinct: {QUOTED_LONG_C} and {QUOTED_LONG_C} are one note"),
    (lambda: harmony.basic_sequence(FAR_MINOR),
     "basic sequence needs a major tonic, not '1/4096-1/3072-1/2048' (minor)"),
    (lambda: tonnetz.triad_from_chord(FAR_AUGMENTED),
     "P/L/R moves need a major or minor triad, not '1/4096-3/8192-9/16384' (augmented)"),
    (lambda: tonnetz.TonnetzSystem("456", 7, 4, 3, 12, "C", ()),
     "TonnetzSystem is abstract: use TONNETZ_234 or TONNETZ_456"),
    (lambda: harmony.TONNETZ_234.class_name(5), "system 234 takes FreqRatio notes, not 5"),
    (lambda: FreqRatio(3, -2) ** None, "exponent None is not an integer"),
    (lambda: FreqRatio(3, -2) ** True, "exponent True is not an integer"),
    (lambda: scale_system(2, "12"), "scale pyth2: notes_per_period must be an int, not '12'"),
    (lambda: scale_system(3, None), "scale pyth2: harmonic_range must be two ints, not None"),
    (lambda: scale_system(3, (-5, 6.0)),
     "scale pyth2: harmonic_range must be two ints, not (-5, 6.0)"),
    (lambda: scale_system(4, None), "scale pyth2: degree_multiplier must be an int, not None"),
    (lambda: scale_system(5, "x"), "scale pyth2: degree_multiplier_inv must be an int, not 'x'"),
], ids=["max_moves", "midi-range", "chord-size", "ascending-234", "ascending-456",
        "degree-range", "comma-p", "comma-q", "basic-sequence", "cadence-sequence", "plr-triad",
        "scl-scale", "path-456", "deviation-pair", "reduce-456", "repeated-name",
        "repeated-name-456-long", "far-sequence-tonic", "far-plr-triad", "abstract-system",
        "class-name", "power-none", "power-bool", "scale-count", "scale-range",
        "scale-range-float", "scale-multiplier", "scale-inverse"])
def test_error_names_the_failing_value(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


# Each degree argument, with the name its refusal gives it.
DEGREE_ARGUMENTS = {
    "note_at_scale_degree": ("degree", lambda x: scales.note_at_scale_degree(x, scales.PYTH3)),
    "fundamental_note": ("harmonic degree", lambda x: scales.fundamental_note(x, scales.PYTH3)),
    "scale_to_harmonic": ("degree", lambda x: scales.scale_to_harmonic(x, scales.PYTH3)),
    "harmonic_to_scale_degree": ("harmonic degree",
                                 lambda x: scales.harmonic_to_scale_degree(x, scales.PYTH3)),
    "differences-lo": ("degree_lo", lambda x: scales.pyth2_pyth3_differences(x, 5)),
    "differences-hi": ("degree_hi", lambda x: scales.pyth2_pyth3_differences(0, x)),
    "note_name_at_degree": ("degree", notation.note_name_at_degree),
    "keyboard-lo": ("midi_lo", lambda x: notation.keyboard_labels(x, 60)),
    "keyboard-hi": ("midi_hi", lambda x: notation.keyboard_labels(21, x)),
    "key_color": ("harmonic degree", notation.key_color_by_harmonic_degree),
}


@pytest.mark.parametrize("make, message", [
    *((lambda call=call, value=value: call(value), f"{name} must be an int, not {value!r}")
      for name, call in DEGREE_ARGUMENTS.values() for value in ("a", 1.5, True)),
    (lambda: scales.deviation_table([]), "unknown table pair []"),
], ids=[*(f"{function}-{kind}" for function in DEGREE_ARGUMENTS
          for kind in ("str", "float", "bool")), "deviation-pair-list"])
def test_a_degree_that_is_not_an_int_is_named(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("reduce", [scales.reduce_to_fundamental, scales.period_reduce,
                                    scales.in_fundamental_interval], ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", ["x", (0, 1), None, 1.5], ids=lambda v: type(v).__name__)
def test_a_reduction_refuses_a_non_ratio_by_its_type(reduce, value):
    with pytest.raises(ValueError) as excinfo:
        reduce(value, scales.PYTH3)
    assert str(excinfo.value) == f"a note must be a FreqRatio, not {type(value).__name__}"


# Each public `scales` function that takes a system, with a system of the wrong type.
SYSTEM_ARGUMENTS = {
    "harmonic_degree": lambda x: scales.harmonic_degree(FreqRatio(0, 0), x),
    "reduce_to_fundamental": lambda x: scales.reduce_to_fundamental(FreqRatio(0, 0), x),
    "period_reduce": lambda x: scales.period_reduce(FreqRatio(0, 0), x),
    "in_fundamental_interval": lambda x: scales.in_fundamental_interval(FreqRatio(0, 0), x),
    "scale_to_harmonic": lambda x: scales.scale_to_harmonic(1, x),
    "harmonic_to_scale_degree": lambda x: scales.harmonic_to_scale_degree(1, x),
    "fundamental_note": lambda x: scales.fundamental_note(1, x),
    "note_at_scale_degree": lambda x: scales.note_at_scale_degree(1, x),
}


@pytest.mark.parametrize("make, message", [
    *((lambda call=call, value=value: call(value),
       f"a scale system must be a ScaleSystem, not {type(value).__name__}")
      for call in SYSTEM_ARGUMENTS.values() for value in ("pyth3", None)),
    (lambda: scales.harmonic_degree("C", scales.PYTH3), "a note must be a FreqRatio, not str"),
    (lambda: notation.name_of("C"), "a note must be a FreqRatio, not str"),
    (lambda: notation.pyth2_name_of(3), "a note must be a FreqRatio, not int"),
], ids=[*(f"{function}-{kind}" for function in SYSTEM_ARGUMENTS for kind in ("str", "none")),
        "harmonic_degree-note", "name_of-str", "pyth2_name_of-int"])
def test_a_system_or_note_of_the_wrong_type_is_named(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: scales.pyth2_pyth3_differences(-10**4 - 1, 0),
     "degree_lo must be in [-10000, 10000], not int -10001"),
    (lambda: scales.pyth2_pyth3_differences(0, 10**7),
     "degree_hi must be in [-10000, 10000], not int 10000000"),
    (lambda: scales.pyth2_pyth3_differences(0, 10**5000),
     "degree_hi must be in [-10000, 10000], not int of 16610 bits"),
    (lambda: exports.emit_table("diff", degree_lo=-10**5),
     "degree_lo must be in [-10000, 10000], not int -100000"),
], ids=["lo-below", "hi-1e7", "hi-5001-digits", "emit-table"])
def test_a_difference_range_beyond_the_bound_is_refused_at_once(make, message):
    start = time.perf_counter()
    with pytest.raises(ValueError) as excinfo:
        make()
    assert time.perf_counter() - start < 1
    assert str(excinfo.value) == message


def test_the_difference_range_may_reach_the_bound():
    for degree in (-scales.MAX_DEGREE, scales.MAX_DEGREE):     # the scales differ there
        assert [row[0] for row in scales.pyth2_pyth3_differences(degree, degree)] == [degree]


ONE = FreqRatio(0, 0)


@pytest.mark.parametrize("make, message", [
    (lambda: notation.edo12_name("x"), "semitone must be an int, not 'x'"),
    (lambda: notation.edo12_name(1.5), "semitone must be an int, not 1.5"),
    (lambda: notation.edo12_name(True), "semitone must be an int, not True"),
    (lambda: FreqRatio(True, False), "exponent True is not an integer"),
    (lambda: FreqRatio.from_fraction("a"), "numerator must be an int, not 'a'"),
    (lambda: temperament.cf_coefficients(True), "count must be an int, not True"),
    (lambda: temperament.convergents(True), "count must be an int, not True"),
    (lambda: temperament.comma_for("a", 2), "p must be an int, not 'a'"),
    (lambda: temperament.comma_for(True, True), "p must be an int, not True"),
    (lambda: exports.emit_table(5), "a table id must be a str, not int"),
    (lambda: exports.emit_scl("pyth3", 5), ".scl description must be a str, not int"),
    (lambda: exports.parse_scl(5), ".scl text must be a str, not int"),
    (lambda: exports.parse_progression(5), "progression text must be a str, not int"),
    (lambda: exports.emit_tonnetz_path([1]), "emit_tonnetz_path takes a Chord, not int"),
    (lambda: tonnetz.major_triad(ONE, "234"),
     "a lattice system must be a TonnetzSystem, not str"),
    (lambda: tonnetz.minor_triad(ONE, "234"),
     "a lattice system must be a TonnetzSystem, not str"),
    (lambda: tonnetz.note_class(ONE, "234"), "a lattice system must be a TonnetzSystem, not str"),
    (lambda: harmony.Chord(5), "chord notes must be a tuple, not int"),
    (lambda: harmony.chord_456(5), "chord notes must be iterable, not int"),
], ids=["edo12-str", "edo12-float", "edo12-bool", "ratio-bool", "from_fraction-str",
        "cf-bool", "convergents-bool", "comma-str", "comma-bool", "emit_table-int",
        "scl-description-int", "parse_scl-int", "progression-int", "path-int",
        "major_triad-id", "minor_triad-id", "note_class-id", "chord-int", "chord_456-int"])
def test_a_library_argument_of_the_wrong_type_is_named(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: FreqRatio(1, 0) * 5, "a note must be a FreqRatio, not int"),
    (lambda: FreqRatio(1, 0) / "a", "a note must be a FreqRatio, not str"),
    (lambda: ratios.cents(5), "a note must be a FreqRatio, not int"),
    (lambda: tonnetz.note_coordinates(5), "a note must be a FreqRatio, not int"),
    (lambda: exports.emit_tonnetz_path(5), "a progression must be iterable, not int"),
    (lambda: harmony.TONNETZ_234.parse_chord(5), "chord names must be iterable, not int"),
], ids=["mul-int", "truediv-str", "cents-int", "note_coordinates-int", "path-int",
        "parse_chord-int"])
def test_a_non_ratio_or_non_iterable_is_refused_by_its_type(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


TRIAD = tonnetz.major_triad(FreqRatio(0, 0))


@pytest.mark.parametrize("make, message", [
    (lambda: tonnetz.reachable_note_classes(TRIAD, 2.0), "max_moves must be an int, not 2.0"),
    (lambda: tonnetz.reachable_note_classes(TRIAD, "3"), "max_moves must be an int, not '3'"),
    (lambda: tonnetz.reachable_note_classes(TRIAD, True), "max_moves must be an int, not True"),
    (lambda: tonnetz.reachable_note_classes(TRIAD.chord(), 2),
     "start must be a Triad, not Chord D-A'-G,^"),
    (lambda: tonnetz.apply_plr(TRIAD, 5), "move must be P, L or R, not 5"),
    (lambda: tonnetz.apply_plr_sequence(TRIAD, 5),
     "moves must be a string of P, L and R, not 5"),
    (lambda: tonnetz.apply_plr_sequence(TRIAD, "PLRLX"),
     "move 5 of 'PLRLX' must be P, L or R, not 'X'"),
    (lambda: tonnetz.note_class("A", tonnetz.TONNETZ_234),
     "system 234 takes FreqRatio notes, not 'A'"),
    (lambda: tonnetz.note_class(1.5, tonnetz.TONNETZ_456), "system 456 takes int notes, not 1.5"),
], ids=["max_moves-float", "max_moves-str", "max_moves-bool", "start-chord", "move-int",
        "moves-int", "moves-place", "note-class-str", "note-class-float"])
def test_tonnetz_errors_name_the_failing_value(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


CHORD = TRIAD.chord()


@pytest.mark.parametrize("make, message", [
    (lambda: tonnetz.apply_plr(CHORD, "P"), "apply_plr takes a Triad, not Chord"),
    (lambda: tonnetz.lattice_coordinates(CHORD), "lattice_coordinates takes a Triad, not Chord"),
    (lambda: tonnetz.triad_from_chord(TRIAD), "triad_from_chord takes a Chord, not Triad"),
    (lambda: tonnetz.note_class(True, tonnetz.TONNETZ_456), "system 456 takes int notes, not True"),
    (lambda: tonnetz.major_triad(False, tonnetz.TONNETZ_456),
     "system 456 takes int notes, not False"),
    (lambda: harmony.Chord((0, 4, True), harmony.TONNETZ_456),
     "system 456 takes int notes, not True"),
], ids=["apply_plr-chord", "lattice-chord", "triad_from_chord-triad", "note-class-bool",
        "triad-bool", "chord-bool"])
def test_tonnetz_records_and_notes_of_the_wrong_type_are_named(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: harmony.purity("A-E-A'"), "purity takes a Chord, not str"),
    (lambda: harmony.classify("A-E-A'"), "classify takes a Chord, not str"),
    (lambda: harmony.basic_sequence("A-E-A'"), "basic_sequence takes a Chord, not str"),
    (lambda: harmony.cadence_sequence(TRIAD), "cadence_sequence takes a Chord, not Triad"),
    (lambda: harmony.shift_in_circle("A-E-A'", 1), "shift_in_circle takes a Chord, not str"),
    (lambda: harmony.invert(None), "invert takes a Chord, not NoneType"),
    (lambda: harmony.reduce_chord_to_domain(CHORD.notes),
     "reduce_chord_to_domain takes a Chord, not tuple"),
    (lambda: harmony.reduce_chord_to_domain(CHORD, 5),
     "reduce_chord_to_domain takes a FreqRatio root, not int"),
    (lambda: harmony.shift_in_circle(CHORD, "a"), "shift_in_circle takes int steps, not str"),
    (lambda: harmony.shift_in_circle(C_MAJOR_456, "a"), "shift_in_circle takes int steps, not str"),
    (lambda: harmony.shift_in_circle(CHORD, None), "shift_in_circle takes int steps, not NoneType"),
    (lambda: harmony.shift_in_circle(C_MAJOR_456, [1]),
     "shift_in_circle takes int steps, not list"),
], ids=["purity-str", "classify-str", "basic-str", "cadence-triad", "shift-str", "invert-none",
        "reduce-tuple", "reduce-root-int", "shift-steps-str-234", "shift-steps-str-456",
        "shift-steps-none", "shift-steps-list-456"])
def test_chord_functions_name_an_argument_of_the_wrong_type(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


FAR = 12 * 10**9    # semitones: 10**9 octaves up


@pytest.mark.parametrize("notes, message", [
    ((FreqRatio(0, 0), FreqRatio(0, 1), FreqRatio(0, 2**40)),
     "cannot build FreqRatio(0, 1099511627776): its numerator has about 1742684699132 bits, "
     "more than 16777216"),
    ((FreqRatio(-2**40, 0), FreqRatio(0, 0), FreqRatio(0, 1)),
     "cannot build FreqRatio(1099511627776, 0): its numerator has about 1099511627777 bits, "
     "more than 16777216"),
    ((FreqRatio(0, 2**30), FreqRatio(-1, 2**30 + 1), FreqRatio(1, 2**30 + 1)),
     "cannot spell a shift of 1073741823 periods: more than 1000000 marks"),
    ((FAR, FAR + 4, FAR + 7),
     "cannot spell a shift of 999999998 periods: more than 1000000 marks"),
    # A-E-A' a million tritaves up: the overtone needs one mark too many
    ((FreqRatio(-2, 1 + 10**6), FreqRatio(-3, 2 + 10**6), FreqRatio(-1, 1 + 10**6)),
     "cannot spell a shift of 1000001 periods: more than 1000000 marks"),
], ids=["span-2**40-tritaves", "span-2**40-octaves", "small-span-2**30-tritaves-up",
        "456-10**9-octaves-up", "234-10**6-tritaves-up"])
def test_purity_of_a_chord_too_large_to_write_is_refused_at_once(notes, message):
    system = harmony.TONNETZ_234 if isinstance(notes[0], FreqRatio) else harmony.TONNETZ_456
    chord = harmony.Chord(notes, system)
    start = time.perf_counter()
    with pytest.raises(ValueError) as excinfo:
        harmony.purity(chord)
    assert time.perf_counter() - start < 1
    assert str(excinfo.value) == message


@pytest.mark.parametrize("base, message", [
    ("x" * 10**5, "unknown base name 'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)"),
    ([1] * 10**5, "a base name must be a str, not list [1, 1, 1, 1, 1, 1, 1..."),
    (10**5000, "a base name must be a str, not int of 16610 bits"),
    (None, "a base name must be a str, not NoneType None"),
], ids=["str-1e5", "list-1e5", "int-5001-digits", "none"])
def test_a_bad_note_name_base_is_quoted_short(base, message):
    with pytest.raises(ValueError) as excinfo:
        notation.NoteName(base)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("shift, message", [
    (1.5, "a tritave shift must be an int, not float 1.5"),
    ("2", "a tritave shift must be an int, not str '2'"),
    (True, "a tritave shift must be an int, not bool True"),
    ("^" * 10**5, "a tritave shift must be an int, not str '^^^^^^^^^^^^^^^^^^^..."),
    (None, "a tritave shift must be an int, not NoneType None"),
], ids=["float", "str", "bool", "str-1e5", "none"])
def test_a_note_name_shift_that_is_not_an_int_is_refused(shift, message):
    with pytest.raises(ValueError) as excinfo:
        notation.NoteName("C", shift)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: harmony.chord_456((0, 4.9, 7)), "system 456 takes int notes, not 4.9"),
    (lambda: harmony.chord_456((0, True, 7)), "system 456 takes int notes, not True"),
    (lambda: harmony.chord_456(["C", "E", "G"]), "system 456 takes int notes, not 'C'"),
    (lambda: harmony.chord_234([FreqRatio(0, 0), 1, FreqRatio(1, 0)]),
     "system 234 takes FreqRatio notes, not 1"),
    (lambda: harmony.major_triad_234(3), "system 234 takes FreqRatio notes, not 3"),
    (lambda: harmony.minor_triad_234(None), "system 234 takes FreqRatio notes, not None"),
], ids=["456-float", "456-bool", "456-str", "234-int", "major-234-int", "minor-234-none"])
def test_chord_builders_check_each_note_before_the_sort(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("argv, message", [
    (["purity", "A", "A", "E"], "chord notes must be distinct: 'A' and 'A' are one note"),
    (["sequence", "C", "G", "C", "--system", "456"],
     "chord notes must be distinct: 'C' and 'C' are one note"),
    (["plr", "A", "E", "A'", "PXQ"], "move 2 of 'PXQ' must be P, L or R, not 'X'"),
    (["plr", "C", "E", "G", "prz", "--system", "456"],
     "move 3 of 'prz' must be P, L or R, not 'z'"),
    (["plr", "A", "E", "A'", "P" * 50 + "?"],
     "move 51 of 'PPPPPPPPPPPPPPPPPPPP'... (51 characters) must be P, L or R, not '?'"),
    (["purity", "C", "E", "G'", "--system", "456"],
     "no just interpretation of \"C-E-G'\": a step of 15 semitones "
     "(4:5:6 purity takes 1 to 11)"),
], ids=["purity-repeated-name", "sequence-repeated-name-456", "plr-move-2", "plr-move-3-456",
        "plr-move-51", "purity-no-just-step-456"])
def test_cli_errors_name_the_input_as_typed(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("degree, message", [
    (10**308, "degree of 1024 bits is too far out for edo12 cents in float range"),
    (2**1030, "degree of 1031 bits is too far out for edo12 cents in float range"),
    (-2**1030, "degree of 1031 bits is too far out for edo12 cents in float range"),
], ids=["cents-overflow", "quotient-overflow", "quotient-overflow-down"])
def test_an_equal_pitch_past_float_range_is_refused_by_its_degree(degree, message):
    with pytest.raises(ValueError) as excinfo:
        scales.note_at_scale_degree(degree, scales.EDO12)
    assert str(excinfo.value) == message


def test_an_equal_pitch_just_inside_float_range_is_finite():
    assert scales.note_at_scale_degree(10**306, scales.EDO12) == 10**306 / 12 * 1200.0
    assert scales.note_at_scale_degree(-10**306, scales.EDT19, "equal") < 0


def test_a_negative_scl_count_is_refused_as_a_bad_count_line():
    with pytest.raises(ValueError) as excinfo:
        exports.parse_scl("x\n-1\n")
    assert str(excinfo.value) == "bad .scl count line '-1': must be a note count"


@pytest.mark.parametrize("u, v, shown", [(True, 1.5, "True"), (1.5, True, "1.5"), (0, True, "True"),
                                         (0, "3", "'3'"), (None, 0, "None")])
def test_the_ratio_constructor_names_the_first_bad_exponent(u, v, shown):
    with pytest.raises(ValueError) as excinfo:
        FreqRatio(u, v)
    assert str(excinfo.value) == f"exponent {shown} is not an integer"


CENTS_FORM = "cents are written in the ASCII digits 0-9, one '.' and a sign only"


@pytest.mark.parametrize("text, message", [
    ("x\n1_0\n" + "100.0\n" * 10, "bad .scl count line '1_0': must be a note count"),
    ("x\n+1\n3/2", "bad .scl count line '+1': must be a note count"),
    ("x\n١\n3/2", "bad .scl count line '١': must be a note count"),
    ("x\n1\n1_0/3", "bad .scl pitch line '1_0/3': a ratio is written in the ASCII digits 0-9 only"),
    ("x\n1\n3/1_0", "bad .scl pitch line '3/1_0': a ratio is written in the ASCII digits 0-9 only"),
    ("x\n1\n+1", "bad .scl pitch line '+1': a ratio is written in the ASCII digits 0-9 only"),
    ("x\n1\n١٢", "bad .scl pitch line '١٢': a ratio is written in the ASCII digits 0-9 only"),
    ("x\n1\n1.e999", "bad .scl pitch line '1.e999': cents must be a finite number"),
    ("x\n1\n-" + "9" * 400 + ".", "bad .scl pitch line '-" + "9" * 400 + ".': "
     "cents must be a finite number"),
    ("x\n1\n1_0.5", "bad .scl pitch line '1_0.5': " + CENTS_FORM),
    ("x\n1\n1.5e3", "bad .scl pitch line '1.5e3': " + CENTS_FORM),
    ("x\n1\n١.٥", "bad .scl pitch line '١.٥': " + CENTS_FORM),
    # refused before: the same messages
    ("x\n1\n-3/2",
     "bad .scl pitch line '-3/2': a ratio needs a positive numerator and denominator"),
    ("x\n1\nabc", "bad .scl pitch line 'abc': invalid literal for int() with base 10: 'abc'"),
], ids=["count-underscore", "count-plus", "count-arabic-indic", "numerator-underscore",
        "denominator-underscore", "ratio-plus", "ratio-arabic-indic", "cents-overflow",
        "cents-long-overflow", "cents-underscore", "cents-exponent", "cents-arabic-indic",
        "ratio-negative", "ratio-letters"])
def test_an_scl_file_is_read_in_its_own_forms_only(text, message):
    with pytest.raises(ValueError) as excinfo:
        exports.parse_scl(text)
    assert str(excinfo.value) == message


def test_the_scl_forms_still_read():
    assert exports.parse_scl("x\n 4 \n-5.0\n100.\n+.5\n 3/ foo\n")[1] == [
        -5.0, 100.0, 0.5, 1200 * math.log2(3)]

