import random
import re

import pytest

from tritave.harmony import ChordQuality, chord_234
from tritave.notation import parse_note
from tritave.ratios import FreqRatio
from tritave.tonnetz import (
    TONNETZ_234,
    TONNETZ_456,
    Triad,
    apply_plr,
    apply_plr_sequence,
    lattice_coordinates,
    major_triad,
    minor_triad,
    note_class,
    note_coordinates,
    reachable_note_classes,
    triad_from_chord,
)

A = parse_note("A")


def chord_names(triad):
    return str(triad.chord())


def test_plr_examples_234():
    start = major_triad(A)
    assert chord_names(apply_plr(start, "P")) == "A-D-A'"
    assert chord_names(apply_plr(start, "R")) == "B'v-A-E"
    assert chord_names(apply_plr(start, "L")) == "E-A'-A^"


def test_plr_examples_456():
    c_major = major_triad(0, TONNETZ_456)
    assert apply_plr(c_major, "P").notes() == (0, 3, 7)     # C-Eb-G
    assert apply_plr(c_major, "R").notes() == (9, 0, 4)     # A-C-E
    assert apply_plr(c_major, "L").notes() == (4, 7, 11)    # E-G-B


def random_triads(seed, count):
    rng = random.Random(seed)
    triads = []
    for _ in range(count):
        root_234 = FreqRatio(rng.randint(-9, 9), rng.randint(-6, 6))
        quality = rng.choice([ChordQuality.MAJOR, ChordQuality.MINOR])
        triads.append(Triad(TONNETZ_234, root_234, quality))
        triads.append(Triad(TONNETZ_456, rng.randrange(12), quality))
    return triads


def test_plr_moves_are_involutions():
    for triad in random_triads(23, 100):
        for move in "PLR":
            assert apply_plr(apply_plr(triad, move), move) == triad


def test_plr_456_moves_are_involutions_for_every_integer_root():
    for root in range(-24, 36):
        for quality in (ChordQuality.MAJOR, ChordQuality.MINOR):
            triad = Triad(TONNETZ_456, root, quality)
            for move in "PLR":
                image = apply_plr(triad, move)
                assert apply_plr(image, move) == triad
                assert image.root // 12 == root // 12    # octave block kept
                assert image.notes() == apply_plr(
                    Triad(TONNETZ_456, root % 12, quality), move
                ).notes()


def test_system_rejects_diagonals_that_miss_the_horizontal_step():
    with pytest.raises(ValueError, match="horizontal"):
        type(TONNETZ_456)("456", 7, 4, 4, 12, "C", TONNETZ_456.class_names)


def test_plr_toggles_quality_and_changes_one_note():
    for triad in random_triads(31, 50):
        for move in "PLR":
            image = apply_plr(triad, move)
            assert image.quality != triad.quality
            shared = set(triad.notes()) & set(image.notes())
            assert len(shared) == 2


def test_p_move_shifts_middle_note_by_two_degrees():
    for triad in random_triads(37, 30):
        if triad.system is not TONNETZ_234 or triad.quality is not ChordQuality.MAJOR:
            continue
        image = apply_plr(triad, "P")
        changed_out = (set(triad.notes()) - set(image.notes())).pop()
        changed_in = (set(image.notes()) - set(triad.notes())).pop()
        assert changed_out / changed_in == FreqRatio.from_fraction(9, 8)


def test_reachability_234_counts():
    levels = reachable_note_classes(major_triad(A), 8)
    assert [lvl.count for lvl in levels] == [3, 5, 7, 9, 11, 13, 15, 17, 19]
    assert levels[0].classes == frozenset({"A", "E", "A'"})


def test_reachability_456_counts_and_gap():
    levels = reachable_note_classes(major_triad(0, TONNETZ_456), 3)
    assert [lvl.count for lvl in levels] == [3, 6, 11, 12]
    assert len(levels[2].classes) == 11
    missing = {"C", "C#", "D", "Eb", "E", "F", "F#", "G", "G#", "A", "Bb", "B"} - set(
        levels[2].classes
    )
    assert missing == {"F#"}


def test_reachability_monotone_and_bounded():
    for start, cap in [(major_triad(A), 19), (major_triad(5, TONNETZ_456), 12)]:
        levels = reachable_note_classes(start, 10)
        counts = [lvl.count for lvl in levels]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] <= cap
        assert levels[0].count == 3


def test_reachability_validates_depth():
    with pytest.raises(ValueError):
        reachable_note_classes(major_triad(A), 13)


def test_note_class_identifies_tritaves_and_commas():
    assert note_class(parse_note("A"), TONNETZ_234) == "A"
    assert note_class(parse_note("A^"), TONNETZ_234) == "A"
    assert note_class(parse_note("A") * FreqRatio(-19, 12), TONNETZ_234) == "A"


def test_lattice_coordinates_examples():
    assert note_coordinates(FreqRatio(0, 0)) == (0, 0)
    assert note_coordinates(FreqRatio(-2, 1)) == (-1, 1)
    # octave step moves two to the right
    r = FreqRatio(3, -2)
    x, y = note_coordinates(r)
    assert note_coordinates(r * FreqRatio(1, 0)) == (x + 2, y)
    assert lattice_coordinates(major_triad(A)) == ((-1, 1), (0, 2), (1, 1))


def test_triangles_are_unit_height_width_two():
    for triad in random_triads(41, 40):
        if triad.system is not TONNETZ_234:
            continue
        (x0, y0), (x1, y1), (x2, y2) = lattice_coordinates(triad)
        assert (x2 - x0, y2 - y0) == (2, 0)
        assert x1 - x0 == 1
        assert y1 - y0 == (1 if triad.quality is ChordQuality.MAJOR else -1)


def test_plr_images_share_an_edge():
    for triad in random_triads(43, 40):
        if triad.system is not TONNETZ_234:
            continue
        mine = set(lattice_coordinates(triad))
        for move in "PLR":
            theirs = set(lattice_coordinates(apply_plr(triad, move)))
            assert len(mine & theirs) == 2


def test_lattice_coordinates_need_234():
    with pytest.raises(ValueError):
        lattice_coordinates(major_triad(0, TONNETZ_456))


def test_apply_sequence_and_chord_conversion():
    start = major_triad(A)
    assert apply_plr_sequence(start, "PP") == start
    assert triad_from_chord(start.chord()) == start
    augmented = chord_234([parse_note(n) for n in ("A", "E", "B'")])
    with pytest.raises(ValueError):
        triad_from_chord(augmented)


def test_system_invariant():
    assert TONNETZ_234.up_diagonal * TONNETZ_234.down_diagonal == TONNETZ_234.horizontal
    assert TONNETZ_456.up_diagonal + TONNETZ_456.down_diagonal == TONNETZ_456.horizontal


@pytest.mark.parametrize("make, root, system, message", [
    (major_triad, "A", TONNETZ_234, "system 234 takes FreqRatio notes, not 'A'"),
    (minor_triad, 0, TONNETZ_234, "system 234 takes FreqRatio notes, not 0"),
    (major_triad, A, TONNETZ_456, "system 456 takes int notes, not FreqRatio(-2, 1)"),
])
def test_triad_rejects_a_root_of_the_other_system_naming_it(make, root, system, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(root, system)
