import math

import pytest

from tritave.ratios import FreqRatio
from tritave.temperament import cf_coefficients, comma_for, convergents


def mpmath_cf(count: int) -> list[int]:
    # independent oracle: high-precision expansion of ln2/ln3
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    x = mpmath.log(2) / mpmath.log(3)
    terms = []
    for _ in range(count + 1):
        a = int(mpmath.floor(x))
        terms.append(a)
        x = 1 / (x - a)
    return terms[1:]


def test_coefficient_prefix():
    assert cf_coefficients(8) == [1, 1, 1, 2, 2, 3, 1, 5]


def test_first_coefficient():
    assert cf_coefficients(1) == [1]


def test_ninth_coefficient_against_oracle():
    assert cf_coefficients(9) == mpmath_cf(9)


def test_deep_expansion_against_oracle():
    assert cf_coefficients(20) == mpmath_cf(20)


def test_count_validation():
    with pytest.raises(ValueError):
        cf_coefficients(0)
    with pytest.raises(ValueError):
        cf_coefficients(21)
    with pytest.raises(ValueError, match="not 2.5"):
        cf_coefficients(2.5)


def test_convergent_values():
    convs = convergents(8)
    assert (convs[0].p, convs[0].q) == (1, 1)
    assert (convs[4].p, convs[4].q) == (12, 19)
    assert (convs[6].p, convs[6].q) == (53, 84)


def test_convergent_value_is_its_exact_fraction():
    from fractions import Fraction

    assert [c.value for c in convergents(8)[4::2]] == [Fraction(12, 19), Fraction(53, 84)]


def test_convergent_recurrence_and_coprimality():
    coeffs = cf_coefficients(10)
    convs = convergents(10)
    for k in range(2, len(convs)):
        assert convs[k].p == coeffs[k] * convs[k - 1].p + convs[k - 2].p
        assert convs[k].q == coeffs[k] * convs[k - 1].q + convs[k - 2].q
    for conv in convs:
        assert math.gcd(conv.p, conv.q) == 1


def cmp_to_log_ratio(p: int, q: int) -> int:
    # sign of p/q - log2/log3, decided exactly: p/q > log2/log3 iff 3**p > 2**q
    lhs, rhs = 3**p, 2**q
    return (lhs > rhs) - (lhs < rhs)


def test_convergents_alternate_and_approximate():
    convs = convergents(8)
    signs = [cmp_to_log_ratio(c.p, c.q) for c in convs]
    assert all(s != 0 for s in signs)
    assert all(a == -b for a, b in zip(signs, signs[1:]))
    # classical bound |x - p/q| < 1/q**2, i.e. x between (pq-1)/q^2 and
    # (pq+1)/q^2; both endpoint comparisons are exact big-integer checks
    for conv in convs:
        assert cmp_to_log_ratio(conv.p * conv.q + 1, conv.q**2) > 0
        assert cmp_to_log_ratio(conv.p * conv.q - 1, conv.q**2) < 0


def test_comma_sizes():
    ratio, size = comma_for(12, 19)
    assert ratio == FreqRatio(-19, 12)
    assert abs(size - 23.460) < 0.001

    _, fourth = comma_for(1, 2)
    assert abs(fourth - 1200 * math.log2(4 / 3)) < 1e-9
    assert abs(fourth - 498.04) < 0.01

    _, mercator = comma_for(53, 84)
    assert abs(mercator - 1200 * (53 * math.log2(3) - 84)) < 1e-9
    assert abs(mercator - 3.615) < 0.001


def test_comma_sizes_decrease_along_convergents():
    sizes = [comma_for(c.p, c.q)[1] for c in convergents(8)]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_comma_for_validation():
    with pytest.raises(ValueError):
        comma_for(0, 19)
