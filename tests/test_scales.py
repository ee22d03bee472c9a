import math
import random
from fractions import Fraction

import pytest

from tritave.ratios import COMMA, FIFTH, OCTAVE, FreqRatio, TRITAVE, cents
from tritave.scales import (
    EDO12,
    EDT19,
    PYTH2,
    PYTH3,
    ScaleSystem,
    deviation_table,
    fundamental_note,
    harmonic_to_scale_degree,
    in_fundamental_interval,
    note_at_scale_degree,
    period_reduce,
    pyth2_pyth3_differences,
    reduce_to_fundamental,
    scale_to_harmonic,
)

LOG2_3 = math.log2(3)


def brute_force_comma_power(r: FreqRatio, system) -> int:
    # independent oracle: search the comma power that lands in range
    lo, hi = system.harmonic_range
    for m in range(-5, 6):
        cand = r * COMMA**m
        degree = cand.u if system is PYTH3 else cand.v
        if lo <= degree <= hi:
            return m
    raise AssertionError("no comma power found")


def test_reduce_to_fundamental_examples():
    r = FreqRatio(10, 0)
    assert brute_force_comma_power(r, PYTH3) == 1
    assert reduce_to_fundamental(r, PYTH3) == (FreqRatio(-9, 12), 1)

    assert reduce_to_fundamental(FreqRatio(-2, 1), PYTH3) == (FreqRatio(-2, 1), 0)

    # the G# of the octave system maps onto the Ab, one comma down
    assert reduce_to_fundamental(FreqRatio(-10, 6), PYTH3) == (FreqRatio(9, -6), -1)


def test_reduce_to_fundamental_matches_brute_force():
    rng = random.Random(5)
    for system in (PYTH2, PYTH3):
        for _ in range(100):
            r = FreqRatio(rng.randint(-30, 30), rng.randint(-18, 18))
            reduced, m = reduce_to_fundamental(r, system)
            assert m == brute_force_comma_power(r, system)
            assert reduced == r * COMMA**m


def test_reduce_to_fundamental_idempotent():
    rng = random.Random(6)
    for system in (PYTH2, PYTH3):
        for _ in range(50):
            r = FreqRatio(rng.randint(-40, 40), rng.randint(-25, 25))
            reduced, m = reduce_to_fundamental(r, system)
            again, m2 = reduce_to_fundamental(reduced, system)
            assert again == reduced and m2 == 0
            # exponent identity: reduction only ever moves along the comma
            assert (reduced.u - r.u, reduced.v - r.v) == (-19 * m, 12 * m)


def test_period_reduce_examples():
    # one tritave above the A comes back to the A
    a_up = FreqRatio(-2, 2)
    rep, shift = period_reduce(a_up, PYTH3)
    assert (rep, shift) == (FreqRatio(-2, 1), 1)
    # boundary check in cents: the class representative is within half a tritave
    assert abs(cents(rep)) <= 1200 * LOG2_3 / 2 + 1e-9

    assert period_reduce(FreqRatio(0, 0), PYTH3) == (FreqRatio(0, 0), 0)

    # 9/16 is the class of the B' = 27/16
    assert period_reduce(FreqRatio(-4, 2), PYTH3) == (FreqRatio(-4, 3), -1)


def test_period_reduce_identity():
    rng = random.Random(9)
    for system in (PYTH2, PYTH3):
        for _ in range(100):
            r = FreqRatio(rng.randint(-20, 20), rng.randint(-12, 12))
            rep, shift = period_reduce(r, system)
            assert rep * system.period**shift == r
            assert in_fundamental_interval(rep, system)
            # the harmonic degree never moves
            if system is PYTH3:
                assert rep.u == r.u
            else:
                assert rep.v == r.v


def test_fundamental_interval_brackets():
    # tritave interval (1/sqrt3, sqrt3]: B' = 27/16 is in, its neighbours out
    assert in_fundamental_interval(FreqRatio(-4, 3), PYTH3)
    assert not in_fundamental_interval(FreqRatio(-4, 2), PYTH3)   # 9/16
    assert not in_fundamental_interval(FreqRatio(4, -2), PYTH3)   # 16/9
    # octave interval (comma/sqrt2, comma*sqrt2]: G# in, Ab out
    assert in_fundamental_interval(FreqRatio(-9, 6), PYTH2)
    assert not in_fundamental_interval(FreqRatio(9, -6), PYTH2)


def test_degree_maps_are_inverse_bijections():
    for system in (PYTH2, PYTH3):
        lo, hi = system.harmonic_range
        degrees = [harmonic_to_scale_degree(h, system) for h in range(lo, hi + 1)]
        assert sorted(degrees) == list(range(lo, hi + 1))
        for h in range(lo, hi + 1):
            assert scale_to_harmonic(harmonic_to_scale_degree(h, system), system) == h


def test_degree_map_examples():
    assert harmonic_to_scale_degree(1, PYTH3) == -7
    assert harmonic_to_scale_degree(0, PYTH3) == 0
    assert harmonic_to_scale_degree(-1, PYTH3) == 7
    with pytest.raises(ValueError):
        harmonic_to_scale_degree(10, PYTH3)


def test_note_at_scale_degree_just():
    assert note_at_scale_degree(6, PYTH3) == FreqRatio(-9, 6)       # 729/512
    assert note_at_scale_degree(0, PYTH3) == FreqRatio(0, 0)
    # periodic extension: one tritave above degree -9
    assert note_at_scale_degree(10, PYTH3) == fundamental_note(4, PYTH3) * TRITAVE


def test_note_at_scale_degree_equal():
    assert note_at_scale_degree(0, EDT19) == 0.0
    expected = 1200 * LOG2_3 * 9 / 19      # derived: 900.93 cents
    assert abs(note_at_scale_degree(9, EDT19) - expected) < 1e-9
    assert abs(note_at_scale_degree(9, EDT19) - 900.93) < 0.01
    assert note_at_scale_degree(12, EDO12) == 1200.0
    # intonation override on the just systems
    assert note_at_scale_degree(12, PYTH2, "equal") == 1200.0


def test_deviation_table_pyth3_shape_and_rows():
    rows = deviation_table("pyth3_edt19")
    assert len(rows) == 21
    by_degree = {r.scale_degree: r for r in rows}
    gs = by_degree[6]
    assert (gs.note, str(gs.just_ratio), gs.harmonic_degree) == ("G#", "729/512", -9)
    assert abs(gs.deviation_cents - 11.11) < 0.01
    assert by_degree[0].deviation_cents == 0.0
    assert by_degree[-10].boundary and by_degree[10].boundary
    assert not by_degree[9].boundary
    # deviation definition holds exactly
    for r in rows:
        equal = float(r.equal_exponent) * cents(PYTH3.period)
        assert abs(r.deviation_cents - (cents(r.just_ratio) - equal)) < 1e-6


def test_deviation_table_pyth2_rows():
    rows = deviation_table("pyth2_edo12")
    assert len(rows) == 13
    by_degree = {r.scale_degree: r for r in rows}
    assert abs(by_degree[-5].deviation_cents - 1.96) < 0.01       # the A
    assert abs(by_degree[6].deviation_cents - 11.73) < 0.01       # the G#
    assert by_degree[-6].note == "Ab" and by_degree[-6].boundary


def test_difference_table_over_full_keyboard():
    diffs = pyth2_pyth3_differences(-41, 46)
    assert [d for d, *_ in diffs] == [-37, -30, -25, -18, -6, 25, 37, 44]
    for degree, p3, p2, quotient in diffs:
        assert quotient in (COMMA, COMMA.inverse())
        if degree < 0 or degree == -6:
            assert quotient == COMMA.inverse()
        else:
            assert quotient == COMMA


def test_difference_table_degree_minus_six():
    (degree, p3, p2, quotient) = next(
        row for row in pyth2_pyth3_differences(-10, 0) if row[0] == -6
    )
    assert str(p3) == "Ab" and p2 == "G#,"
    assert note_at_scale_degree(-6, PYTH3) == FreqRatio(9, -6)
    assert note_at_scale_degree(-6, PYTH2) == FreqRatio(-10, 6)
    assert quotient == COMMA.inverse()


def test_difference_table_empty_window():
    assert pyth2_pyth3_differences(0, 5) == []


def test_equal_temperament_gaps():
    step_gap = 1200 * LOG2_3 / 19 - 100
    assert abs(step_gap - 0.103) < 0.001
    for n in range(-41, 47):
        edo = note_at_scale_degree(n, EDO12)
        edt = note_at_scale_degree(n, EDT19)
        assert abs(edo - edt) < 5.0
        just = note_at_scale_degree(n, PYTH3)
        assert abs(cents(just) - edt) <= 11.11 + 1e-2


def test_scale_system_invariants_raise_value_error():
    # an 11-degree harmonic range cannot hold 12 notes per period
    with pytest.raises(ValueError, match=r"\(-5, 5\)"):
        ScaleSystem("x", OCTAVE, 12, (-5, 5), 7, 7, True)
    with pytest.raises(ValueError, match="not inverse"):
        ScaleSystem("x", OCTAVE, 12, (-5, 6), 7, 5, True)


@pytest.mark.parametrize("period, shown", [
    (FIFTH, "FreqRatio(-1, 1)"), ("x", "'x'"), (2, "2"), (None, "None"),
], ids=["fifth", "str", "int", "none"])
def test_a_scale_system_refuses_a_period_other_than_the_octave_or_the_tritave(period, shown):
    # Every table that reduces or spells a note is keyed by these two periods.
    with pytest.raises(ValueError) as excinfo:
        ScaleSystem("x", period, 12, (-5, 6), 7, 7, True)
    assert str(excinfo.value) == f"scale x: period {shown} is not OCTAVE or TRITAVE"
    assert ScaleSystem("x", FreqRatio(1, 0), 12, (-5, 6), 7, 7, True).period == OCTAVE


def test_note_at_scale_degree_rejects_unknown_intonation():
    with pytest.raises(ValueError, match="'bogus'"):
        note_at_scale_degree(1, PYTH3, "bogus")
    assert note_at_scale_degree(1, PYTH3, "just") == note_at_scale_degree(1, PYTH3)
