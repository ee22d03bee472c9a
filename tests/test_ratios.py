import operator
import random
import re
import time
from fractions import Fraction

import pytest

from tritave.ratios import (
    COMMA,
    FIFTH,
    FOURTH,
    MAX_POWER_BITS,
    MAX_STR_DIGITS,
    OCTAVE,
    ONE,
    TRITAVE,
    FreqRatio,
    NotThreeSmoothError,
    cents,
)
from tritave.scales import PYTH2, PYTH3, note_at_scale_degree


def test_from_fraction_examples():
    assert FreqRatio.from_fraction(3, 4) == FreqRatio(-2, 1)
    assert FreqRatio.from_fraction(1, 1) == FreqRatio(0, 0)
    assert FreqRatio.from_fraction(531441, 524288) == COMMA


def test_from_fraction_rejects_other_primes():
    for num, den in [(5, 4), (7, 1), (15, 8), (2, 10)]:
        with pytest.raises(NotThreeSmoothError):
            FreqRatio.from_fraction(num, den)


def test_from_fraction_rejects_nonpositive():
    with pytest.raises(ValueError):
        FreqRatio.from_fraction(0, 1)
    with pytest.raises(ValueError):
        FreqRatio.from_fraction(3, 0)


def test_from_fraction_exhaustive_small_powers():
    for a in range(21):
        for b in range(21):
            assert FreqRatio.from_fraction(2**a * 3**b) == FreqRatio(a, b)


def best_of_3(call) -> float:
    """Least process time of three calls: a growth ratio, unmoved by other processes."""
    times = []
    for _ in range(3):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return min(times)


def test_from_fraction_far_up_is_cheap():
    # the gcd and the repeated divisions took 10.6 s at this height
    far = 6**10**6 * 2**7
    start = time.perf_counter()
    assert FreqRatio.from_fraction(far, 3**5) == FreqRatio(10**6 + 7, 10**6 - 5)
    assert time.perf_counter() - start < 0.5
    # 8x the exponent: one Karatsuba power of 3 reads about 27x, the divisions 64x
    low, high = (6**n * 2**7 for n in (10**5, 8 * 10**5))
    growth = (best_of_3(lambda: FreqRatio.from_fraction(high, 3**5))
              / best_of_3(lambda: FreqRatio.from_fraction(low, 3**5)))
    assert growth < 40


def test_round_trip_through_fraction():
    for u in range(-30, 31):
        for v in range(-30, 31):
            r = FreqRatio(u, v)
            f = r.as_fraction()
            assert FreqRatio.from_fraction(f.numerator, f.denominator) == r


def test_multiply_examples():
    assert FreqRatio(-2, 1) * OCTAVE == FreqRatio(-1, 1)
    assert FreqRatio(-2, 1) * ONE == FreqRatio(-2, 1)
    assert FreqRatio(-2, 1) * COMMA == FreqRatio(-21, 13)


def test_multiply_matches_fraction_arithmetic():
    # independent oracle: big-integer fraction multiplication
    rng = random.Random(7)
    for _ in range(200):
        a = FreqRatio(rng.randint(-40, 40), rng.randint(-40, 40))
        b = FreqRatio(rng.randint(-40, 40), rng.randint(-40, 40))
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
        assert (a / b).as_fraction() == a.as_fraction() / b.as_fraction()


def test_group_laws():
    rng = random.Random(11)
    ratios = [FreqRatio(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(20)]
    for a in ratios:
        assert a * a.inverse() == ONE
        assert a * ONE == a
        for b in ratios[:5]:
            assert a * b == b * a
            for c in ratios[:3]:
                assert (a * b) * c == a * (b * c)


def test_exponent_overflow_signalled():
    big = FreqRatio(2**62, 0)
    with pytest.raises(ValueError, match=r"^exponent 9223372036854775808 is outside"):
        big * big
    with pytest.raises(ValueError, match=r"^exponent 9223372036854775808 is outside"):
        FreqRatio(2**63, 0)


@pytest.mark.parametrize("make, message", [
    (lambda: FreqRatio(0, -2**63 - 1), "exponent -9223372036854775809 is outside"),
    (lambda: FreqRatio(-2**63, 2**63), "exponent 9223372036854775808 is outside"),
    (lambda: OCTAVE ** 2**63, "exponent 9223372036854775808 is outside"),
    (lambda: FreqRatio(10**5000, 0), "exponent of 16610 bits is outside"),
    (lambda: FreqRatio(0, -10**5000), "negative exponent of 16610 bits is outside"),
    (lambda: note_at_scale_degree(10**30, PYTH3), "degree of 100 bits is too far out for pyth3 "
     "exponents in"),
    (lambda: note_at_scale_degree(10**30, PYTH2), "degree of 100 bits is too far out for pyth2 "
     "exponents in"),
    (lambda: note_at_scale_degree(-10**30, PYTH3), "negative degree of 100 bits is too far out "
     "for pyth3 exponents in"),
], ids=["v-below", "v-above", "octave-power", "5000-digits", "negative-5000-digits", "degree-1e30",
        "degree-1e30-pyth2", "degree-minus-1e30"])
def test_exponent_out_of_range_is_a_value_error_naming_it(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message + ' [-2**63, 2**63)')}$"):
        make()


@pytest.mark.parametrize("exponent", [1.5, 2.0, Fraction(1, 2), "3", None])
def test_non_integer_exponents_rejected_naming_the_value(exponent):
    for args in [(exponent, 0), (0, exponent)]:
        with pytest.raises(ValueError, match=f"exponent {re.escape(repr(exponent))} is not an integer"):
            FreqRatio(*args)


def test_cents_examples():
    assert abs(cents(COMMA) - 23.460) < 0.001
    assert cents(ONE) == 0.0
    assert abs(cents(OCTAVE) - 1200.0) < 1e-9


def test_cents_is_homomorphism():
    rng = random.Random(3)
    for _ in range(300):
        a = FreqRatio(rng.randint(-64, 64), rng.randint(-64, 64))
        b = FreqRatio(rng.randint(-64, 64), rng.randint(-64, 64))
        assert abs(cents(a * b) - (cents(a) + cents(b))) < 1e-9


def test_interval_constants():
    assert FIFTH * FOURTH == OCTAVE
    assert OCTAVE * FIFTH == TRITAVE
    assert COMMA.as_fraction() == Fraction(531441, 524288)


def test_ordering_is_exact():
    # comma vs unity decided by big integers, not floats
    assert COMMA > ONE
    assert COMMA.inverse() < ONE
    assert sorted([TRITAVE, ONE, FIFTH]) == [ONE, FIFTH, TRITAVE]


def test_all_four_orderings_agree_with_fractions():
    notes = [ONE, COMMA, COMMA.inverse(), FreqRatio(84, -53), FreqRatio(-84, 53), TRITAVE]
    for a in notes:
        for b in notes:
            x, y = a.as_fraction(), b.as_fraction()
            assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)


@pytest.mark.parametrize("other", [1, 1.0, Fraction(1), "1", None],
                         ids=["int", "float", "Fraction", "str", "None"])
def test_ordering_against_other_types_raises_type_error(other):
    a = FreqRatio(0, 0)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(a, other)


def test_str_renders_reduced_fraction():
    assert str(FreqRatio(-9, 6)) == "729/512"
    assert str(ONE) == "1"
    assert str(FreqRatio(-2, 1)) == "3/4"


@pytest.mark.parametrize("ratio, part, digits", [
    (FreqRatio(10**6, 0), "numerator", 301030),
    (FreqRatio(0, -10**4), "denominator", 4772),
    (FreqRatio(-14285, 3), "denominator", 4301),
])
def test_str_past_the_digit_bound_names_the_ratio_before_building_it(ratio, part, digits):
    message = f"cannot write {ratio!r}: its {part} has about {digits} digits, more than 4300"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        str(ratio)


def test_str_at_the_digit_bound_is_written_out():
    # 2**14284 has 4300 digits, 2**14285 has 4301
    assert MAX_STR_DIGITS == 4300
    assert str(FreqRatio(14284, 0)) == str(2**14284)
    assert str(FreqRatio(-14284, 0)) == f"1/{2**14284}"
    assert str(FreqRatio(14284, -9000)) == f"{2**14284}/{3**9000}"
    with pytest.raises(ValueError, match="numerator has about 4301 digits"):
        str(FreqRatio(14285, 0))



# Just past the bound 2**(2**24) takes a tenth of a second to build, and
# 2**(2**62) would not finish: the check must come first.
@pytest.mark.parametrize("ratio, part, bits", [
    (FreqRatio(MAX_POWER_BITS, 0), "numerator", MAX_POWER_BITS + 1),
    (FreqRatio(-MAX_POWER_BITS, 5), "denominator", MAX_POWER_BITS + 1),
    (FreqRatio(2**62, 0), "numerator", 2**62 + 1),
    (FreqRatio(0, -2**62), "denominator", 7309349404307464193),
])
def test_parts_past_the_bit_bound_name_the_ratio_before_building_it(ratio, part, bits):
    message = f"cannot build {ratio!r}: its {part} has about {bits} bits, more than {2**24}"
    for build in (operator.attrgetter(part), FreqRatio.as_fraction):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(ratio)
        assert time.perf_counter() - start < 1.0


def test_parts_at_the_bit_bound_are_built():
    assert MAX_POWER_BITS == 2**24
    assert FreqRatio(MAX_POWER_BITS - 1, 0).numerator == 1 << (MAX_POWER_BITS - 1)
    assert FreqRatio(1 - MAX_POWER_BITS, 0).denominator == 1 << (MAX_POWER_BITS - 1)
