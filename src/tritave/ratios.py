"""Exact arithmetic for 3-smooth frequency ratios.

Every pitch handled by this package is a rational number of the form
``2**u * 3**v`` relative to a fixed reference note.  Ratios are stored as
the integer exponent pair ``(u, v)`` and nothing is ever rounded; floating
point enters only through :func:`cents`, which measures a ratio on the
usual logarithmic scale (1200 cents per octave), and as the first try of
the exact sign test :func:`_log_sign` that orders ratios.

The exponents double as the two harmonic degrees of a note: ``u`` is the
2-adic valuation (its position in the circle of octaves) and ``v`` the
3-adic valuation (its position in the circle of fifths).
"""

from __future__ import annotations

import functools
import math
import operator

__all__ = [
    "Cents",
    "FreqRatio",
    "NotThreeSmoothError",
    "cents",
    "LOG2_3",
    "ONE",
    "OCTAVE",
    "TRITAVE",
    "FIFTH",
    "FOURTH",
    "COMMA",
]

#: log2(3) at full double precision, the only irrational constant that
#: orders or reduces notes.
LOG2_3 = math.log2(3)

_LOG10_2 = math.log10(2)    # for digit counts only

#: Cents are plain floats; 1200 per octave, about 1901.955 per tritave.
Cents = float

_INT64 = 1 << 63
_INT64_MIN = -_INT64    # negated once: each negation would build a new big int

#: Most digits of a numerator or denominator that `str` writes or the CLI
#: reads: Python's default limit for converting an int to or from digits.
MAX_STR_DIGITS = 4300

#: Most bits a numerator or denominator may have when it is built, about
#: five million digits; 2:3:4 purity 2*10**5 tritaves up needs 3.2e5.
MAX_POWER_BITS = 2**24

# Bound on the rounding error of ``du + dv * LOG2_3`` in floats, per unit of
# abs(du) + abs(dv).  With unit roundoff e = 2**-53: converting du and dv
# to floats costs e*abs(du) and e*abs(dv) (exact below 2**53), LOG2_3 is
# within e of log2(3) (a test checks it against the rational enclosure),
# and the product and the sum round once each.  Summed, the error is at
# most e*(2.01*abs(du) + 5.8*abs(dv)) < 2**-50*(abs(du) + abs(dv)); the
# bound used is twice that, which also covers rounding the bound itself.
_FLOAT_ERROR = 2.0 ** -49


class NotThreeSmoothError(ValueError):
    """A fraction had a prime factor other than 2 or 3."""


_SHOWN_BELOW = 10**20      # `_shown` writes an int this large by its bit count


def _shown(value) -> str:
    """The caller's value as an error message writes it, on one short line: a str
    past 40 characters as its first 20, ``...`` and its length; an int of more than
    20 digits as ``of N bits``, after a noun (``degree of 1024 bits``); any other repr
    past 200 characters as its first 20 and ``...``, or by type if it cannot be written."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"
    if isinstance(value, int) and not -_SHOWN_BELOW < value < _SHOWN_BELOW:
        return f"of {value.bit_length()} bits"
    try:
        shown = repr(value)
    except ValueError:      # an int inside is past the digit limit
        return f"a {type(value).__name__} too long to write"
    return shown if len(shown) <= 200 else shown[:20] + "..."


def _check_type(value, kind: type, what: str) -> None:
    """Refuse a non-``kind`` by its type; ``what`` has the verb: ``"classify takes"``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} a {kind.__name__}, not {type(value).__name__}")


def _named(noun: str, value) -> str:
    """``noun`` and a value as `_shown` writes it, with ``negative`` in front of an
    int it writes by its bit count alone: ``negative degree of 100 bits``."""
    negative = isinstance(value, int) and value <= -_SHOWN_BELOW
    return f"{'negative ' if negative else ''}{noun} {_shown(value)}"


def _check_int(value, name: str) -> None:
    if type(value) is not int:      # no bool either
        raise ValueError(f"{name} must be an int, not {_shown(value)}")


def _strip(n: int, p: int) -> tuple[int, int]:
    """``(m, k)`` with ``n = m * p**k`` and p not dividing m; O(log k) divisions."""
    if n % p:
        return n, 0
    m, j = _strip(n // p, p * p)   # n // p = m * p**(2j), at most one p left in m
    return (m // p, 2 * j + 2) if m % p == 0 else (m, 2 * j + 1)


@functools.cache
def _fraction_type() -> type:
    """`fractions.Fraction`, imported on the first call: the package loads
    `fractions` only where a `Fraction` is asked for."""
    from fractions import Fraction

    return Fraction


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)`` for coprime parts and a positive
    denominator, built with no gcd: `Fraction` has no public constructor that
    skips it, so its two slots are set directly, as `Fraction` itself does."""
    fraction = object.__new__(_fraction_type())
    fraction._numerator, fraction._denominator = numerator, denominator
    return fraction


def _atanh_bounds(inv: int, terms: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds for atanh(1/inv)."""
    Fraction = _fraction_type()
    x = Fraction(1, inv)
    x2 = x * x
    total = Fraction(0)
    term = x
    for k in range(terms):
        total += term / (2 * k + 1)
        term *= x2
    tail = term / ((2 * terms + 1) * (1 - x2))
    return total, total + tail


@functools.lru_cache(maxsize=8)
def _log_ratio_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Enclosure of log(2)/log(3) from ln2 = 2 atanh(1/3), ln(3/2) = 2 atanh(1/5).

    The width shrinks about ninefold per term (about 1e-40 at 40 terms).
    """
    lo2, hi2 = _atanh_bounds(3, terms)
    lo32, hi32 = _atanh_bounds(5, terms)
    ln2 = (2 * lo2, 2 * hi2)
    ln3 = (2 * (lo2 + lo32), 2 * (hi2 + hi32))
    return ln2[0] / ln3[1], ln2[1] / ln3[0]


def _log_sign(du: int, dv: int) -> int:
    """The sign (-1, 0 or 1) of ``du + dv*log2(3)``, i.e. of log2 of ``2**du * 3**dv``.

    log2(3) is irrational, so the sign is 0 only for du = dv = 0.  Floats
    decide it whenever the sum clears its rounding bound ``_FLOAT_ERROR``;
    that fails only where the sum nearly cancels, near the convergents
    19/12, 84/53, ... of log2(3) with exponents beyond about 1e7.  Then the
    sign of ``du*log(2)/log(3) + dv`` is read off a rational enclosure of
    log(2)/log(3), refined until it excludes 0; no power of 2 or 3 is built.
    `FreqRatio.__lt__` and `_floor_log` run the same float test inline, under
    the same bound.
    """
    if not dv:  # exact, and the only way to get 0
        return (du > 0) - (du < 0)
    x = du + dv * LOG2_3
    if abs(x) > (abs(du) + abs(dv)) * _FLOAT_ERROR:
        return 1 if x > 0 else -1
    terms = 40
    while True:  # ends: the enclosure shrinks onto an irrational point
        lo, hi = _log_ratio_bounds(terms)
        a, b = du * lo + dv, du * hi + dv
        if min(a, b) > 0:
            return 1
        if max(a, b) < 0:
            return -1
        terms *= 2


def _floor_log(u: int, v: int, pu: int, pv: int) -> int:
    """``floor(log(2**u * 3**v) / log(2**pu * 3**pv))`` for a base above 1, exactly.

    That is the largest ``n`` with ``base**n <= 2**u * 3**v``.  A float
    proposes ``n`` and two sign tests confirm it, `_log_sign`'s float test
    inline for both and a close call by `_log_sign`.  Where the proposal is
    wrong (an exact integer quotient rounded down, or exponents beyond
    about 2**48) the search widens in doubling steps and bisects; it starts
    at 0 for a base too close to 1 for its float log to clear the bound.
    """
    base = pu + pv * LOG2_3
    lo = math.floor((u + v * LOG2_3) / base) if base > (abs(pu) + abs(pv)) * _FLOAT_ERROR else 0
    du, dv = u - lo * pu, v - lo * pv
    x, y = du + dv * LOG2_3, du - pu + (dv - pv) * LOG2_3
    if (x > (abs(du) + abs(dv)) * _FLOAT_ERROR and -y > (abs(du - pu) + abs(dv - pv)) * _FLOAT_ERROR
            or _log_sign(du, dv) >= 0 and _log_sign(du - pu, dv - pv) < 0):
        return lo

    def fits(n: int) -> bool:
        return _log_sign(u - n * pu, v - n * pv) >= 0

    hi, step = lo + 1, 1
    while not fits(lo):
        lo, hi, step = lo - step, lo, 2 * step
    while fits(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields in ``__slots__`` and sets each one once in
    its own ``__init__``, through `_set`, which takes the values in field
    order, or through the slots' own setters, ``_setters``; the fields are
    those of the ``__slots__`` along the MRO, base first, and ``__init__``
    takes them as parameters in that order, so ``cls(*fields)`` rebuilds a
    record.  The base supplies the rest of a value type: equality with a
    record of the same class whose fields are equal (``NotImplemented`` for
    any other object), the hash of the field tuple, the repr
    ``QualName(field=value, ...)``, an ``AttributeError`` on assigning or
    deleting an attribute, and copies and pickles that call the class with
    the fields.

    The build path follows the cost.  The hot records, `FreqRatio`,
    `NoteName` and `PurityReport`, the rows of the reference tables,
    `ScaleRow`, `KeyLabel`, `ReachLevel` and `SectionResult`, and the
    trusted builders `_ratio`, `notation._note_name`, `harmony._chord` and
    `tonnetz._triad` call the slots' setters one by one: an eight-field
    `ScaleRow` takes about 0.73 us to build that way against 1.16 us through
    `_set`'s loop (best of 6 processes of 9 x 20000 builds).  The checked
    `Chord` and `Triad` constructors and the rarely built records go through
    `_set`.  One builder for all, `_set` and a trusted ``_new`` generated
    with ``exec`` once per field count, costs start-up: on the benchmark's
    cli-mix workload (6 alternating 20 s pairs, 2-vCPU VM) ``op_cpu_ms_p50``
    read x1.024 and ``work_per_cpu_s`` x0.973, worse in 5 of 6 pairs each.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        get = operator.attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def _set(self, *values) -> None:
        for set_field, value in zip(self._setters, values):   # the slots' own setters
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)


@functools.total_ordering
class FreqRatio(_Record):
    """The exact ratio ``2**u * 3**v``."""

    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int) -> None:
        if type(u) is not int or type(v) is not int:    # no bool either
            raise ValueError(f"exponent {_shown(v if type(u) is int else u)} is not an integer")
        if not (_INT64_MIN <= u < _INT64 and _INT64_MIN <= v < _INT64):
            raise ValueError(f"{_named('exponent', v if _INT64_MIN <= u < _INT64 else u)} is "
                             "outside [-2**63, 2**63)")
        _set_u(self, u)
        _set_v(self, v)

    @classmethod
    def from_fraction(cls, numerator: int, denominator: int = 1) -> FreqRatio:
        """Factor a positive fraction into powers of 2 and 3.

        Each part's exponents are read off its bits.  The 2-exponent is the
        index of the lowest set bit.  ``3**b`` has ``floor(b*log2(3)) + 1``
        bits, so the odd rest's 3-exponent is proposed as ``ceil((bits - 1) /
        log2(3))`` and confirmed by one ``3**b == rest``: the float only
        proposes.  When both parts are confirmed, the ratio is the difference
        of their exponents, where common factors cancel with no gcd.  Anything
        else, a cancelling pair such as 42/7 or a part with another prime,
        takes the gcd and the repeated divisions, so a refusal still runs the
        gcd path and is worded off the reduced fraction.

        Raises :class:`NotThreeSmoothError` if the reduced fraction has any
        other prime factor.
        """
        _check_int(numerator, "numerator")
        _check_int(denominator, "denominator")
        if numerator < 1 or denominator < 1:
            raise ValueError("numerator and denominator must be positive integers, "
                             f"not {_shown(numerator)}/{_shown(denominator)}")
        a = (numerator & -numerator).bit_length() - 1
        c = (denominator & -denominator).bit_length() - 1
        num, den = numerator >> a, denominator >> c
        b = math.ceil((num.bit_length() - 1) / LOG2_3)
        d = math.ceil((den.bit_length() - 1) / LOG2_3)
        if 3 ** b == num and 3 ** d == den:
            return _ratio(a - c, b - d)
        g = math.gcd(numerator, denominator)
        numerator, denominator = numerator // g, denominator // g
        num, nu = _strip(numerator, 2)
        num, nv = _strip(num, 3)
        den, du = _strip(denominator, 2)
        den, dv = _strip(den, 3)
        if num != 1 or den != 1:
            raise NotThreeSmoothError(f"not 3-smooth: numerator {_shown(numerator)} and "
                                      f"denominator {_shown(denominator)} keep the factor "
                                      f"{_shown(num * den)}")
        return _ratio(nu - du, nv - dv)

    def __mul__(self, other: FreqRatio) -> FreqRatio:
        _check_type(other, FreqRatio, "a note must be")
        return _ratio(self.u + other.u, self.v + other.v)

    def __truediv__(self, other: FreqRatio) -> FreqRatio:
        _check_type(other, FreqRatio, "a note must be")
        return _ratio(self.u - other.u, self.v - other.v)

    def __pow__(self, exponent: int) -> FreqRatio:
        if type(exponent) is not int:       # no bool either
            raise ValueError(f"exponent {_shown(exponent)} is not an integer")
        return _ratio(self.u * exponent, self.v * exponent)

    def inverse(self) -> FreqRatio:
        return _ratio(-self.u, -self.v)

    @property
    def numerator(self) -> int:
        a, b = _part(self.u, self.v, "numerator")
        return 3 ** b << a

    @property
    def denominator(self) -> int:
        a, b = _part(self.u, self.v, "denominator")
        return 3 ** b << a

    def as_fraction(self) -> Fraction:
        """The exact value as a big-integer fraction.  Its parts ``2**a * 3**b`` and
        ``2**c * 3**d`` are coprime by construction, so it is built with no gcd."""
        return _coprime_fraction(*_parts(self.u, self.v))

    def cents(self) -> Cents:
        return 1200.0 * (self.u + self.v * LOG2_3)

    # Order comparisons are exact (the sign test on the exponents of the
    # quotient), so they are safe to use on fundamental-domain boundaries.
    # The other three come from `functools.total_ordering`; equality compares
    # the exponents, since equal exponents are equal ratios.
    def __lt__(self, other: FreqRatio) -> bool:
        if not isinstance(other, FreqRatio):
            return NotImplemented
        du, dv = other.u - self.u, other.v - self.v
        x = du + dv * LOG2_3    # `_log_sign`'s float test, inline; close calls go to it
        return x > 0 if abs(x) > (abs(du) + abs(dv)) * _FLOAT_ERROR else _log_sign(du, dv) > 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __str__(self) -> str:
        """``N/D``, or ``N`` for a whole number; checked against `MAX_STR_DIGITS` first."""
        u, v = self.u, self.v
        # A part 2**a * 3**b is counted at ``int(x) + 1`` digits from its exponents,
        # ``x = (a + b*LOG2_3) * _LOG10_2 >= 0``, so no power is built to count them;
        # it is refused exactly when ``x >= MAX_STR_DIGITS``.  Both parts have
        # ``a <= abs(u)`` and ``b <= abs(v)``, and int-to-float conversion and
        # correctly rounded float products and sums are monotone, so each x is at
        # most the value tested here: under it, no part is refused.
        if (abs(u) + abs(v) * LOG2_3) * _LOG10_2 >= MAX_STR_DIGITS:
            for part, a, b in (("numerator", max(u, 0), max(v, 0)),
                               ("denominator", max(-u, 0), max(-v, 0))):
                digits = int((a + b * LOG2_3) * _LOG10_2) + 1
                if digits > MAX_STR_DIGITS:
                    raise ValueError(f"cannot write FreqRatio({u}, {v}): its {part} has "
                                     f"about {digits} digits, more than {MAX_STR_DIGITS}")
        numerator, denominator = _parts(u, v)
        return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)

    def __repr__(self) -> str:
        return f"FreqRatio({self.u}, {self.v})"


_set_u, _set_v = FreqRatio._setters


def _ratio(u: int, v: int) -> FreqRatio:
    """``FreqRatio(u, v)`` for int exponents, as built by the package's own
    arithmetic: only the range is checked, and out of range the public
    constructor raises its error."""
    if _INT64_MIN <= u < _INT64 and _INT64_MIN <= v < _INT64:
        ratio = object.__new__(FreqRatio)
        _set_u(ratio, u)
        _set_v(ratio, v)
        return ratio
    return FreqRatio(u, v)


def _part(u: int, v: int, part: str) -> tuple[int, int]:
    """The exponents ``(a, b)`` of the numerator or denominator ``2**a * 3**b`` of
    ``2**u * 3**v`` (2 and 3 are coprime), refused if its ``int(a + b*LOG2_3) + 1``
    bits pass `MAX_POWER_BITS`; nothing is built."""
    a, b = (u, v) if part == "numerator" else (-u, -v)
    a, b = a if a > 0 else 0, b if b > 0 else 0     # cheaper than two `max` calls
    if a + b * LOG2_3 >= MAX_POWER_BITS:
        raise ValueError(f"cannot build FreqRatio({u}, {v}): its {part} has about "
                         f"{int(a + b * LOG2_3) + 1} bits, more than {MAX_POWER_BITS}")
    return a, b


def _parts(u: int, v: int) -> tuple[int, int]:
    """Numerator and denominator of ``2**u * 3**v``, each refused by `_part`.
    Neither part has more bits than ``abs(u) + abs(v)*LOG2_3``, so only a
    pair past `MAX_POWER_BITS` by that sum goes to `_part`'s two checks."""
    if abs(u) + abs(v) * LOG2_3 >= MAX_POWER_BITS:
        _part(u, v, "numerator")
        _part(u, v, "denominator")
    return ((3 ** v if v > 0 else 1) << (u if u > 0 else 0),
            (3 ** -v if v < 0 else 1) << (-u if u < 0 else 0))


def cents(ratio: FreqRatio) -> Cents:
    """1200 * log2 of the ratio."""
    _check_type(ratio, FreqRatio, "a note must be")
    return ratio.cents()


ONE = FreqRatio(0, 0)
OCTAVE = FreqRatio(1, 0)
TRITAVE = FreqRatio(0, 1)
FIFTH = FreqRatio(-1, 1)
FOURTH = FreqRatio(2, -1)

#: The Pythagorean comma 3**12 / 2**19, about 23.46 cents.  Two notes are
#: enharmonic when their quotient is a power of this ratio.
COMMA = FreqRatio(-19, 12)
