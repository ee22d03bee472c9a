"""The pitch layers' fast paths against the checked constructor and big integers.

Arithmetic builds its results through `ratios._ratio`, which checks only
the exponent range; `numerator`, `denominator` and `str` build ``2**a``
and ``3**b`` directly; and `scales` reads just pitches off a table of
fundamental notes built at import.  Each is compared here with the path
it replaced: the public `FreqRatio` constructor, `Fraction` powers, and
the step-at-a-time period reduction of ``6**h``.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tritave import harmony, scales
from tritave.ratios import _INT64, MAX_STR_DIGITS, OCTAVE, TRITAVE, FreqRatio
from tritave.scales import EDO12, EDT19, PYTH2, PYTH3

EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=300)

SYSTEMS = (PYTH2, PYTH3, EDO12, EDT19)

moderate = st.integers(-20_000, 20_000)
# Exponents a few steps from either end of [-2**63, 2**63), where sums and
# products leave the range.
edge = st.integers(_INT64 - 4, _INT64 - 1) | st.integers(-_INT64, -_INT64 + 3)
exponents = moderate | edge
ratios = st.builds(FreqRatio, exponents, exponents)


def outcome(make, *args):
    """The exponent pair built, or the message of the ValueError raised."""
    try:
        ratio = make(*args)
    except ValueError as exc:
        return str(exc)
    assert type(ratio.u) is int and type(ratio.v) is int
    return ratio.u, ratio.v


@EXACT
@given(ratios, ratios, st.integers(-3, 3) | exponents)
def test_arithmetic_builds_what_the_checked_constructor_builds(a, b, k):
    assert outcome(lambda: a * b) == outcome(FreqRatio, a.u + b.u, a.v + b.v)
    assert outcome(lambda: a / b) == outcome(FreqRatio, a.u - b.u, a.v - b.v)
    assert outcome(lambda: a ** k) == outcome(FreqRatio, a.u * k, a.v * k)
    assert outcome(a.inverse) == outcome(FreqRatio, -a.u, -a.v)


@EXACT
@given(moderate, moderate)
def test_parts_and_text_are_those_of_the_fraction(u, v):
    ratio, exact = FreqRatio(u, v), Fraction(2) ** u * Fraction(3) ** v
    assert (ratio.numerator, ratio.denominator) == (exact.numerator, exact.denominator)
    assert ratio.as_fraction() == exact
    if max(exact.numerator, exact.denominator) < 10**MAX_STR_DIGITS:
        assert str(ratio) == str(exact)
    else:
        with pytest.raises(ValueError, match=r"^cannot write FreqRatio\("):
            str(ratio)


def reference_fundamental_note(h, system):
    """``6**h`` moved one period at a time into the fundamental interval.

    The interval is ``(c/sqrt(P), c*sqrt(P)]`` around the centre c, 1 for
    the tritave scales and the comma for the octave ones; squared, its
    bounds are rational, so the test is on Fractions.
    """
    period = Fraction(system.period.numerator, system.period.denominator)
    centre = Fraction(531441, 524288) if system.period == OCTAVE else Fraction(1)
    note = Fraction(6) ** h
    while note ** 2 > centre ** 2 * period:
        note /= period
    while note ** 2 <= centre ** 2 / period:
        note *= period
    return FreqRatio.from_fraction(note.numerator, note.denominator)


def reference_note_at_scale_degree(degree, system):
    """The formula the table replaced: reduce, then shift by whole periods."""
    t, s = scales._split_degree(degree, system)
    note = reference_fundamental_note(scales.scale_to_harmonic(s, system), system)
    return note * system.period ** t


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.id)
def test_the_table_holds_the_reduced_sixes(system):
    lo, hi = system.harmonic_range
    for h in range(lo, hi + 1):
        note = scales.fundamental_note(h, system)
        assert note == reference_fundamental_note(h, system)
        assert note == scales.period_reduce(FreqRatio(h, h), system)[0]
        assert scales.in_fundamental_interval(note, system)
        assert scales.harmonic_degree(note, system) == h


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.id)
def test_just_pitches_are_those_of_the_reference_formula(system):
    for degree in range(-300, 301):
        want = reference_note_at_scale_degree(degree, system)
        assert scales.note_at_scale_degree(degree, system, "just") == want
        assert scales._just_note(degree, system) == want


def test_the_fast_paths_keep_the_checked_errors():
    cases = [
        (lambda: FreqRatio(2**62, 0) ** 4, "exponent 18446744073709551616 is outside"),
        (lambda: FreqRatio(2**63 - 1, 0) * OCTAVE, "exponent 9223372036854775808 is outside"),
        (lambda: FreqRatio(0, -2**63) / TRITAVE, "exponent -9223372036854775809 is outside"),
        (lambda: FreqRatio(1, 0) ** 1.5, "exponent 1.5 is not an integer"),
        (lambda: harmony.shift_in_circle(harmony.major_triad_234(FreqRatio(0, 0)), 0.5),
         "exponent 0.5 is not an integer"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make()


@pytest.mark.parametrize("ratio", [FreqRatio(-2**63, -2**40), FreqRatio(2**63 - 1, 2**40)])
def test_period_reduce_near_the_range_end_needs_no_power_of_the_period(ratio):
    # The shift is beyond 2**63, so period**shift has no FreqRatio; the
    # reduced note is built from exponents.
    rep, shift = scales.period_reduce(ratio, PYTH2)
    assert abs(shift) >= _INT64
    assert (rep.u + shift, rep.v) == (ratio.u, ratio.v)
    assert scales.in_fundamental_interval(rep, PYTH2)
