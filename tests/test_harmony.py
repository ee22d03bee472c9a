import random
import re
from fractions import Fraction

import pytest

from tritave.harmony import (
    Chord,
    ChordQuality,
    basic_sequence,
    cadence_sequence,
    chord_234,
    chord_456,
    classify,
    invert,
    major_triad_234,
    minor_triad_234,
    purity,
    reduce_chord_to_domain,
    shift_in_circle,
)
from tritave.notation import parse_note
from tritave.ratios import FreqRatio, OCTAVE, TRITAVE
from tritave.tonnetz import TONNETZ_234, TONNETZ_456, apply_plr, major_triad


def c234(*names):
    return chord_234([parse_note(n) for n in names])


def test_chord_validation():
    with pytest.raises(ValueError):
        Chord((parse_note("A"), parse_note("A"), parse_note("E")), "234")
    with pytest.raises(ValueError):
        Chord((parse_note("A"), parse_note("E")), "234")
    with pytest.raises(ValueError):
        Chord((1, 2, 3), "789")


@pytest.mark.parametrize("notes, system, message", [
    ((1, 2, 3), TONNETZ_234, "system 234 takes FreqRatio notes, not 1"),
    ((FreqRatio(0, 0), FreqRatio(1, 0), FreqRatio(2, 0)), TONNETZ_456,
     "system 456 takes int notes, not FreqRatio(0, 0)"),
    ((FreqRatio(0, 0), 1, FreqRatio(2, 0)), TONNETZ_234,
     "system 234 takes FreqRatio notes, not 1"),
    ((0, 4, FreqRatio(2, 0)), "456", "system 456 takes int notes, not FreqRatio(2, 0)"),
])
def test_chord_rejects_notes_of_the_other_system_naming_them(notes, system, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Chord(notes, system)


def test_chord_system_by_id_is_the_system_object():
    notes = (parse_note("A"), parse_note("E"), parse_note("A'"))
    by_id = Chord(notes, "234")
    assert by_id.system is TONNETZ_234
    assert by_id == chord_234(notes) and hash(by_id) == hash(chord_234(notes))
    assert Chord((0, 4, 7), "456").system is TONNETZ_456
    assert len({major_triad(0, TONNETZ_456), major_triad(0, TONNETZ_456)}) == 1


def test_classify_234():
    assert classify(c234("A", "E", "A'")) is ChordQuality.MAJOR
    assert classify(c234("A", "D", "A'")) is ChordQuality.MINOR
    assert classify(c234("A", "D", "G")) is ChordQuality.DIMINISHED
    assert classify(c234("A", "E", "B'")) is ChordQuality.AUGMENTED
    assert classify(c234("A", "C", "G")) is ChordQuality.OTHER


def test_classify_456():
    assert classify(chord_456((0, 4, 7))) is ChordQuality.MAJOR
    assert classify(chord_456((9, 12, 16))) is ChordQuality.MINOR
    assert classify(chord_456((0, 4, 8))) is ChordQuality.AUGMENTED
    assert classify(chord_456((-1, 2, 5))) is ChordQuality.DIMINISHED
    assert classify(chord_456((0, 5, 7))) is ChordQuality.OTHER


def test_invert_examples():
    tonic = c234("A", "E", "A'")
    first = invert(tonic, "first")
    assert first == c234("E", "A'", "A^")
    assert classify(first) is ChordQuality.MINOR
    second = invert(first, "first")
    assert classify(second) is ChordQuality.AUGMENTED
    third = invert(second, "first")
    assert third.notes == tuple(n * TRITAVE for n in tonic.notes)
    assert invert(first, "second") == tonic


def test_inversion_qualities_for_any_major_triad():
    rng = random.Random(53)
    for _ in range(30):
        root = FreqRatio(rng.randint(-8, 8), rng.randint(-5, 5))
        first = invert(major_triad_234(root), "first")
        assert classify(first) is ChordQuality.MINOR
        assert classify(invert(first, "first")) is ChordQuality.AUGMENTED


def test_invert_rejects_unknown_direction():
    with pytest.raises(ValueError):
        invert(c234("A", "E", "A'"), "third")


def test_shift_in_circle():
    tonic = c234("A", "E", "A'")
    dominant = shift_in_circle(tonic, 1)
    assert dominant.notes == tuple(n * OCTAVE for n in tonic.notes)
    assert shift_in_circle(tonic, 0) == tonic
    assert shift_in_circle(shift_in_circle(tonic, 1), -1) == tonic
    sub = shift_in_circle(tonic, -1)
    assert sub.notes == tuple(n / OCTAVE for n in tonic.notes)


def test_reduce_chord_to_domain_examples():
    a = parse_note("A")
    # one octave below the tonic chord comes back as A-E-B'
    sub = shift_in_circle(c234("A", "E", "A'"), -1)
    assert reduce_chord_to_domain(sub, a) == c234("A", "E", "B'")
    # one octave above comes back as A-D-A'
    dom = shift_in_circle(c234("A", "E", "A'"), 1)
    assert reduce_chord_to_domain(dom, a) == c234("A", "D", "A'")
    # a chord already in the window is untouched
    tonic = c234("A", "E", "A'")
    assert reduce_chord_to_domain(tonic) == tonic


def test_reduce_chord_idempotent_and_class_preserving():
    rng = random.Random(17)
    built = 0
    while built < 60:
        root = FreqRatio(rng.randint(-6, 6), rng.randint(-4, 4))
        notes = {
            root * FreqRatio(rng.randint(-2, 2), rng.randint(-2, 2))
            for _ in range(3)
        }
        if len(notes) != 3:
            continue
        chord = chord_234(notes)
        try:
            reduced = reduce_chord_to_domain(chord, root)
        except ValueError:
            continue  # reduction may collapse artificial chords
        built += 1
        assert reduce_chord_to_domain(reduced, root) == reduced
        assert sorted(n.u for n in reduced.notes) == sorted(n.u for n in chord.notes)
        for note in reduced.notes:
            rel = note.as_fraction() / root.as_fraction()
            assert 1 <= rel < 3


def test_basic_sequence_234():
    tonic = c234("A", "E", "A'")
    seq = basic_sequence(tonic)
    assert seq == [
        tonic,
        c234("A", "E", "B'"),
        c234("A", "D", "A'"),
        tonic,
    ]


def test_basic_sequence_covariant_under_transposition():
    seq_a = basic_sequence(major_triad_234(parse_note("A")))
    seq_c = basic_sequence(major_triad_234(parse_note("C")))
    shift = parse_note("C") / parse_note("A")
    for chord_a, chord_c in zip(seq_a, seq_c):
        assert tuple(n * shift for n in chord_a.notes) == chord_c.notes


def test_basic_sequence_456():
    seq = basic_sequence(chord_456((0, 4, 7)))
    assert [c.notes for c in seq] == [(0, 4, 7), (0, 5, 9), (-1, 2, 7), (0, 4, 7)]
    assert str(seq[1]) == "C-F-A"
    assert str(seq[2]) == "B-D-G"


def test_basic_sequence_needs_major_tonic():
    with pytest.raises(ValueError, match="major"):
        basic_sequence(c234("A", "D", "A'"))


def test_cadence_sequence():
    tonic = c234("A", "E", "A'")
    seq = cadence_sequence(tonic)
    assert seq[0] == seq[-1] == tonic
    # second dominant by hand: raise two octaves, pull back by tritaves
    expected = chord_234(
        [
            n * OCTAVE**2 * TRITAVE**-1
            for n in tonic.notes
        ]
    )
    assert seq[2] == expected
    tonic_classes = {n.u % 19 for n in tonic.notes}
    dom2_classes = {n.u % 19 for n in seq[2].notes}
    assert 1 <= len(dom2_classes - tonic_classes) <= 3


def test_reduced_dominant_is_p_image():
    rng = random.Random(29)
    for _ in range(40):
        root = FreqRatio(rng.randint(-7, 7), rng.randint(-4, 4))
        tonic = major_triad_234(root)
        dom = reduce_chord_to_domain(shift_in_circle(tonic, 1), root)
        assert dom == apply_plr(major_triad(root), "P").chord()
        assert dom == minor_triad_234(root)


def test_purity_table_234():
    expected = [
        (("A", "E", "A'"), (2, 3, 4), 2, 3, ("Ev", "A,"), ("A'^", "E''")),
        (("A", "D", "A'"), (3, 4, 6), 3, 2, ("Av", "D,,"), ("D^", "A''")),
        (("A", "E", "B'"), (4, 6, 9), 4, 4, ("B'vv", "A,,"), ("A^^", "B'''")),
        (("A", "D", "G"), (9, 12, 16), 9, 9, ("Avv", "G,,,,"), ("G^^", "A''''")),
    ]
    for names, ratio, d_b, d_o, base, over in expected:
        report = purity(c234(*names))
        assert report.ratio == ratio
        assert (report.d_base, report.d_overtone) == (d_b, d_o)
        assert report.base_names == base
        assert report.overtone_names == over
        # the defining identities
        a, _, c = ratio
        lcm = report.reciprocal[0] * a
        assert report.d_overtone == lcm // c


def test_purity_table_456():
    expected = [
        ((0, 4, 7), (4, 5, 6), 4, 10, "C,,", "B''''"),
        ((4, 7, 12), (5, 6, 8), 5, 15, "C,,", "B'''''"),
        ((7, 12, 16), (3, 4, 5), 3, 12, "C,", "B'''''"),
        ((-3, 0, 4), (10, 12, 15), 10, 4, "F,,,,", "E''"),
        ((0, 4, 9), (12, 15, 20), 12, 3, "F,,,,", "E''"),
        ((4, 9, 12), (15, 20, 24), 15, 5, "F,,,,", "E'''"),
        ((0, 4, 8), (16, 20, 25), 16, 16, "C,,,,", "G#''''"),
        ((-1, 2, 5), (25, 30, 36), 25, 25, "Eb,,,,,", "C#'''''"),
    ]
    for notes, ratio, d_b, d_o, base, over in expected:
        report = purity(chord_456(notes))
        assert report.ratio == ratio
        assert (report.d_base, report.d_overtone) == (d_b, d_o)
        assert report.base_names == (base,)
        assert report.overtone_names == (over,)


def test_purity_reciprocal_form():
    report = purity(c234("A", "E", "A'"))
    assert report.reciprocal == (6, 4, 3)     # reads as 1/6 : 1/4 : 1/3
    assert report.base_frequency == Fraction(3, 8)
    assert report.overtone_frequency == Fraction(9, 2)


def test_purity_distance_bounds():
    # the three 2:3:4 shapes stay close to one overtone series
    for names in [("A", "E", "A'"), ("A", "D", "A'"), ("A", "E", "B'")]:
        report = purity(c234(*names))
        assert report.d_base <= 4 and report.d_overtone <= 4
    # 4:5:6 minor triads sit far from their base note
    for notes in [(-3, 0, 4), (0, 4, 9), (4, 9, 12)]:
        assert purity(chord_456(notes)).d_base >= 10


def test_purity_rejects_uninterpretable_456_steps():
    with pytest.raises(ValueError):
        purity(chord_456((0, 12, 24)))
