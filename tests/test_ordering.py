"""Exact ordering from exponents, checked against independent oracles.

`FreqRatio` ordering, `in_fundamental_interval`, `period_reduce`,
`reduce_chord_to_domain` and the floor-log behind them all decide the sign
of ``du + dv*log2(3)`` without building ``2**u * 3**v``; in the period's
window of harmonic degrees `period_reduce` reads its shift off the key
instead.  Here each is checked against `oracles.oracle_sign`, the sign of
``2**du * 3**dv - 1`` as a big-integer `Fraction` where that is affordable,
and of 100-digit `decimal` logarithms for exponents near 2**53 and 2**62,
where the float test cannot decide and the rational enclosure must;
`period_reduce` against `oracles.oracle_period_shift`, which searches the
shift by that sign alone.
"""

import decimal
import time
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from tritave import notation
from tritave.harmony import chord_234, reduce_chord_to_domain
from tritave.ratios import (
    LOG2_3,
    OCTAVE,
    ONE,
    TRITAVE,
    FreqRatio,
    _FLOAT_ERROR,
    _floor_log,
    _log_ratio_bounds,
    _log_sign,
)
from tritave.scales import (EDO12, EDT19, PYTH2, PYTH3, ScaleSystem, in_fundamental_interval,
                            period_reduce)

from oracles import CTX, DEC_LOG2_3, oracle_in_domain, oracle_period_shift, oracle_sign

# Reproducible in CI: the examples depend only on the test code.
EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=300)

def nearest_multiple(dv: int) -> int:
    """The integer nearest to dv*log2(3)."""
    return int(CTX.multiply(dv, DEC_LOG2_3).to_integral_value())


small = st.integers(-300, 300)
small_ratios = st.builds(FreqRatio, small, small)


@st.composite
def near_convergents(draw):
    """Exponent pairs k*(19, -12) or k*(84, -53) plus a small offset.

    These quotients are powers of the Pythagorean comma and of the 53-comma
    times a small ratio, so the log nearly cancels."""
    pu, pv = draw(st.sampled_from([(19, -12), (84, -53)]))
    k = draw(st.one_of(st.integers(-200, 200), st.integers(-(2**55), 2**55)))
    return k * pu + draw(st.integers(-3, 3)), k * pv + draw(st.integers(-3, 3))


@st.composite
def beyond_floats(draw):
    """Exponent pairs near 2**53 or 2**62 whose log lies within the float
    rounding bound of 0, so only the rational enclosure decides."""
    bits = draw(st.sampled_from([53, 62]))
    dv = draw(st.integers(2 ** (bits - 2), 2 ** (bits - 1))) * draw(st.sampled_from([1, -1]))
    du = -nearest_multiple(dv) + draw(st.integers(-8, 8))
    assert abs(du + dv * LOG2_3) <= (abs(du) + abs(dv)) * _FLOAT_ERROR
    return du, dv


exponent_pairs = st.one_of(st.tuples(small, small), near_convergents(), beyond_floats())


def above_one(pair: tuple[int, int]) -> tuple[int, int]:
    """The exponent pair or its negation, whichever is a ratio above 1."""
    du, dv = pair
    return pair if oracle_sign(du, dv) > 0 else (-du, -dv)


def log2_3_convergents(count: int) -> list[tuple[int, int]]:
    """The first convergents p/q of log2(3), from its 100-digit value."""
    x, (p0, q0), (p, q) = DEC_LOG2_3, (0, 1), (1, 0)
    out = []
    for _ in range(count):
        a = int(x)
        (p0, q0), (p, q) = (p, q), (a * p + p0, a * q + q0)
        out.append((p, q))
        x = CTX.divide(1, x - a)
    return out


# Ratios 3**q / 2**p just above or below 1: the remainders of Euclid's
# algorithm on log(3)/log(2).  The float log of the 17th rounds to 0.
CF_BASES = [above_one((-p, q)) for p, q in log2_3_convergents(30)]
DEPTH_17_BASE = (-85137581, 53715833)


def test_log2_3_constant_is_within_its_stated_error():
    # `_FLOAT_ERROR` assumes LOG2_3 within 2**-53 of log2(3).
    lo, hi = _log_ratio_bounds(40)
    assert 1 / hi - Fraction(2) ** -53 < Fraction(LOG2_3) < 1 / lo + Fraction(2) ** -53
    assert abs(decimal.Decimal(LOG2_3) - DEC_LOG2_3) < decimal.Decimal(2) ** -53


@EXACT
@given(st.tuples(st.integers(-2000, 2000), st.integers(-2000, 2000)))
def test_decimal_oracle_agrees_with_fractions(pair):
    du, dv = pair
    x = CTX.add(du, CTX.multiply(dv, DEC_LOG2_3))
    assert (x > 0) - (x < 0) == oracle_sign(du, dv)


@EXACT
@given(exponent_pairs)
def test_log_sign_matches_the_oracle(pair):
    assert _log_sign(*pair) == oracle_sign(*pair)


@EXACT
@given(small_ratios, exponent_pairs)
def test_ordering_matches_the_oracle(a, pair):
    du, dv = pair
    b = a * FreqRatio(du, dv)
    want = oracle_sign(du, dv)
    assert (a < b, a <= b, a > b, a >= b) == (want > 0, want >= 0, want < 0, want <= 0)


@EXACT
@given(exponent_pairs, st.one_of(
    exponent_pairs.filter(lambda pair: pair != (0, 0)).map(above_one),
    st.sampled_from(CF_BASES),
))
@example((0, 1), DEPTH_17_BASE)
# The float proposal is wrong, so the widening and the bisection run: 13
# tritaves over a tritave rounds down to 12; 6**(k-1)*3 with k near 2**51
# over 6 rounds up by one; and 3**v/2 with v near 2**60.5 over a tritave
# rounds up by 53.
@example((0, 13), (0, 1))
@example((2145811534074223, 2145811534074224), (1, 1))
@example((-1, 1658567017948744396), (0, 1))
def test_floor_log_matches_the_oracle(pair, base):
    # The largest n with base**n <= 2**u * 3**v: base**n fits and base**(n+1) does not.
    (u, v), (pu, pv) = pair, base
    n = _floor_log(u, v, pu, pv)
    assert oracle_sign(u - n * pu, v - n * pv) >= 0
    assert oracle_sign(u - (n + 1) * pu, v - (n + 1) * pv) < 0


systems = st.sampled_from([PYTH2, PYTH3])


@st.composite
def domain_probes(draw):
    """Ratios at, near and far from a domain bound (exponents below 2**60)."""
    system = draw(systems)
    base = draw(st.one_of(small_ratios, near_convergents().map(lambda p: FreqRatio(*p))))
    edge = system.period ** draw(st.integers(-1, 1))
    far = draw(st.integers(-(2**60), 2**60))
    twist = FreqRatio(far, 0) if system is PYTH3 else FreqRatio(0, far)
    return draw(st.sampled_from([base, base * edge, period_reduce(base, system)[0] * edge, twist])), system


@EXACT
@given(domain_probes())
def test_fundamental_interval_matches_the_oracle(probe):
    ratio, system = probe
    assert in_fundamental_interval(ratio, system) == oracle_in_domain(ratio, system)


@EXACT
@given(domain_probes())
def test_period_reduce_lands_in_the_domain_by_whole_periods(probe):
    ratio, system = probe
    rep, shift = period_reduce(ratio, system)
    assert rep == ratio / system.period ** shift
    assert oracle_in_domain(rep, system)
    assert period_reduce(rep, system) == (rep, 0)


def outcome(call, *args):
    """What a call returns, or the message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


# Systems whose harmonic ranges are not their period's window: a note's
# reduction by whole periods depends on the period alone.
OTHER_RANGES = (ScaleSystem("octave-0", OCTAVE, 12, (0, 11), 7, 7, True),
                ScaleSystem("octave-11", OCTAVE, 12, (-11, 0), 7, 7, False),
                ScaleSystem("tritave-0", TRITAVE, 19, (0, 18), 12, 8, True),
                ScaleSystem("tritave-18", TRITAVE, 19, (-18, 0), 12, 8, False))
INT64_ENDS = st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1])


@st.composite
def period_probes(draw):
    """A system and a note whose harmonic degree lies in or up to two past the
    window of the system's period, or far out; the other exponent up to 2**62
    either way or at the ends of the exponent range."""
    system = draw(st.sampled_from([PYTH2, PYTH3, EDO12, EDT19, *OTHER_RANGES]))
    lo, hi = (PYTH2 if system.period == OCTAVE else PYTH3).harmonic_range
    h = draw(st.integers(lo - 2, hi + 2) | st.integers(-(2**62), 2**62) | INT64_ENDS)
    other = draw(st.integers(-300, 300) | st.integers(-(2**62), 2**62) | INT64_ENDS)
    return FreqRatio(other, h) if system.period == OCTAVE else FreqRatio(h, other), system


@EXACT
@given(period_probes())
@example((FreqRatio(-2**63, 8), OTHER_RANGES[0]))
@example((FreqRatio(2**63 - 1, -11), OTHER_RANGES[1]))
@example((FreqRatio(18, -2**63), OTHER_RANGES[2]))
@example((FreqRatio(-11, 2**63 - 1), OTHER_RANGES[3]))
@example((FreqRatio(0, 2**63 - 1), PYTH2))
def test_period_reduce_and_the_domain_test_are_those_of_the_sign_oracle(probe):
    ratio, system = probe
    shift = oracle_period_shift(ratio, system.period)
    rep = outcome(FreqRatio, ratio.u - shift * system.period.u, ratio.v - shift * system.period.v)

    def want(system):
        """The note and its shift, or the refusal of a representative past int64
        by the note and the system."""
        return (rep, shift) if isinstance(rep, FreqRatio) else (
            f"{ratio!r} is too far out to reduce by whole {system.id} periods: its "
            "representative's exponents leave [-2**63, 2**63)")
    assert outcome(period_reduce, ratio, system) == want(system)
    # The domain test builds no representative: a far note is just outside.
    assert in_fundamental_interval(ratio, system) == (shift == 0)
    same = PYTH2 if system.period == OCTAVE else PYTH3
    assert outcome(period_reduce, ratio, same) == want(same)


def oracle_in_tritave_above(note: FreqRatio, root: FreqRatio) -> bool:
    du, dv = note.u - root.u, note.v - root.v
    return oracle_sign(du, dv) >= 0 and oracle_sign(du, dv - 1) < 0


@EXACT
@given(small_ratios, st.sampled_from([1, 700, 10**6, 2**40, 2**60]), st.data())
def test_chord_reduction_lands_in_the_tritave_above_the_root(root, spread, data):
    spreads = st.integers(-spread, spread)
    notes = {root * FreqRatio(u, data.draw(spreads)) for u in (0, 1, 2)}
    reduced = reduce_chord_to_domain(chord_234(notes), root)
    assert sorted(n.u for n in reduced.notes) == sorted(n.u for n in notes)
    for note in reduced.notes:
        assert oracle_in_tritave_above(note, root)
    assert reduce_chord_to_domain(reduced, root) == reduced


def test_chord_notes_700_tritaves_apart_reduce():
    chord = chord_234([FreqRatio(0, 0), FreqRatio(1, 700), FreqRatio(2, -700)])
    reduced = reduce_chord_to_domain(chord, ONE)
    assert reduced.notes == (FreqRatio(0, 0), FreqRatio(2, -1), FreqRatio(1, 0))
    # The default root is the lowest note, 4 * 3**-700.
    assert reduce_chord_to_domain(chord).notes[0] == FreqRatio(2, -700)


def _seconds(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def test_huge_exponents_are_named_and_compared_at_once():
    # Building 3**(10**15) would exhaust memory; 3**631000 takes seconds.
    name, took = _seconds(lambda: notation.name_of(FreqRatio(0, 10**15)))
    assert (name.base, name.tritave_shift) == ("D", 10**15)
    assert took < 0.5
    lt, took = _seconds(lambda: FreqRatio(-10**6, 0) < FreqRatio(0, 631000))
    assert lt and took < 0.5
    gt, took = _seconds(lambda: FreqRatio(0, 631000) < FreqRatio(-10**6, 0))
    assert not gt and took < 0.5
    assert period_reduce(FreqRatio(0, 10**15) * TRITAVE, PYTH3)[1] == 10**15 + 1
