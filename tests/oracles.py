"""The test oracles the package is checked against, one home for each.

Each oracle reaches its answer by another route than the code it checks,
and never calls that code:

* `oracle_sign`: the sign of ``log(2**du * 3**dv)`` from big-integer
  `Fraction`s, or from 100-digit `decimal` logarithms for large exponents.
* `oracle_period_shift`: how many periods a note sits above its class's
  note in the fundamental interval, searched by `oracle_sign` alone on the
  squared domain bounds `DOMAIN_BOUNDS`, which never reads a key;
  `oracle_in_domain`: whether a note lies between those bounds, by the same
  sign.
* `oracle_parse_note`, `oracle_parse_pyth2_note`, `oracle_parse_edo12_note`:
  the three name readers as they read names before the prefix lookup and
  the str.count mark check, a longest-first startswith scan and ``set()``
  over the marks.  `READERS` pairs each parser with its oracle.
* `oracle_from_fraction`: `FreqRatio.from_fraction` from `Fraction`'s
  reduction, the binary digits' trailing zeros and division by ``3**64``
  and 3 while they divide.
* `reference_spelling`: a just note's name, its base name that of its
  harmonic degree's scale degree and its marks counted by
  `oracle_period_shift`; `reference_just_names`: those names in each just
  scale whose window holds the note's harmonic degree.  Neither reads a key.
* `reference_domain`: the squared bounds of the fundamental interval as
  `Fraction`s; `reference_fundamental_note`: ``6**h`` moved one period at a
  time between them; `reference_note_at_scale_degree`: that note of the
  degree's harmonic degree times whole periods.  None of the three reads a
  key.  `reference_deviation_rows`: a deviation table's rows from the just
  notes of `scales._just_note`, each boundary note a `FreqRatio` product,
  each equal exponent the `Fraction` that ``Fraction(n, d)`` reduces and
  each row built by keyword.
* `oracle_ratio_str`: `str` of a `FreqRatio` with each part's digit count
  estimated and checked, then both parts built by powers.
* `oracle_reduce_chord_to_domain`: each note of a 2:3:4 chord moved by
  whole tritaves into [root, 3*root), each step decided by cross-multiplying
  integer parts; `exact` is a chord note's value, which sorts the notes.
* `assert_same_fraction`: a `Fraction` built with no gcd against one that
  `Fraction(n, d)` reduced, in all that a `Fraction` shows.

The refusals are worded through the package's own message rule,
`ratios._shown`, and `read_outcome` compares a call and its oracle by the
value, or by the exception's type and message.  The spellings write their
marks with `notation._marks` and refuse a note outside the window through
`scales._check_harmonic`, so their messages are the package's.
"""

import decimal
import math
import operator
import pickle
from fractions import Fraction

from tritave import harmony, notation, scales
from tritave.harmony import TONNETZ_234
from tritave.notation import (BASE_NAMES_PYTH2, BASE_NAMES_PYTH3, NAMES_EDO12, NoteName, _marks,
                              parse_edo12_note, parse_note, parse_pyth2_note)
from tritave.ratios import (COMMA, LOG2_3, MAX_STR_DIGITS, OCTAVE, TRITAVE, FreqRatio,
                            NotThreeSmoothError, _shown)
from tritave.scales import PYTH2, PYTH3, note_at_scale_degree

CTX = decimal.Context(prec=100)
DEC_LOG2_3 = CTX.divide(decimal.Decimal(3).ln(CTX), decimal.Decimal(2).ln(CTX))

# Exponents up to this size are cheap enough for the Fraction oracle.
_FRACTION_LIMIT = 20_000


def read_outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:            # the exception type and message must match too
        return type(exc), str(exc)


def oracle_sign(du: int, dv: int) -> int:
    """Sign of log(2**du * 3**dv), from Fractions or 100-digit decimals."""
    if max(abs(du), abs(dv)) <= _FRACTION_LIMIT:
        x = Fraction(2) ** du * Fraction(3) ** dv - 1
    else:
        x = CTX.add(du, CTX.multiply(dv, DEC_LOG2_3))
        # |du + dv*log2(3)| exceeds 1e-40 for every exponent below 2**66
        # (continued-fraction bound); 100 digits leave no doubt.
        assert abs(x) > decimal.Decimal("1e-40")
    return (x > 0) - (x < 0)


# Squared fundamental-domain bounds by period, written out independently of
# `scales`: (1/3, 3] for the tritave scales, (c**2/2, 2*c**2] with c the comma
# for the octave scales.
DOMAIN_BOUNDS = {TRITAVE: ((0, -1), (0, 1)), OCTAVE: ((-39, 24), (-37, 24))}


def oracle_period_shift(ratio: FreqRatio, period: FreqRatio) -> int:
    """How many periods a note sits above its class's note in the fundamental
    interval: the least s with ``(ratio / period**s)**2`` at or under the upper
    squared bound, searched from a float guess by `oracle_sign` alone."""
    (lu, lv), (hu, hv) = DOMAIN_BOUNDS[period]
    pu, pv = period.u, period.v

    def fits(s: int) -> bool:
        return oracle_sign(hu - 2 * (ratio.u - s * pu), hv - 2 * (ratio.v - s * pv)) >= 0

    log2_3 = math.log2(3)
    lo = hi = math.ceil(((2 * ratio.u - hu) + (2 * ratio.v - hv) * log2_3)
                        / (2 * (pu + pv * log2_3)))
    step = 1
    while not fits(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while fits(lo):
        lo, hi, step = lo - step, lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    # One squared period under the upper bound is the lower one: the note is inside.
    assert oracle_sign(2 * (ratio.u - hi * pu) - lu, 2 * (ratio.v - hi * pv) - lv) > 0
    return hi


def oracle_in_domain(ratio: FreqRatio, system) -> bool:
    """Whether a note is in its system's fundamental interval: its square
    above the lower squared bound and at or under the upper, by `oracle_sign`."""
    (lu, lv), (hu, hv) = DOMAIN_BOUNDS[system.period]
    u, v = 2 * ratio.u, 2 * ratio.v
    return oracle_sign(u - lu, v - lv) > 0 and oracle_sign(hu - u, hv - v) >= 0


def oracle_split(text, bases):
    for base in sorted(bases, key=len, reverse=True):
        if text.startswith(base):
            return base, text[len(base):]
    raise ValueError(f"unknown note name {_shown(text)}")


def oracle_shift(text, marks, up, down, kind):
    if marks and set(marks) not in ({up}, {down}):
        raise ValueError(f"bad {kind} marks in {_shown(text)}: use only {up!r} or only {down!r}")
    return len(marks) if marks.startswith(up) else -len(marks)


def oracle_parse_note(text):
    base, marks = oracle_split(text, BASE_NAMES_PYTH3)
    if marks and set(marks) in ({"'"}, {","}):
        raise ValueError(
            f"{_shown(text)} uses octave-system marks; in the tritave system write "
            "whole-tritave shifts with '^' and 'v'"
        )
    return NoteName(base, oracle_shift(text, marks, "^", "v", "shift")).ratio()


def oracle_parse_pyth2_note(text):
    base, marks = oracle_split(text, BASE_NAMES_PYTH2)
    degree = PYTH2.harmonic_range[0] + BASE_NAMES_PYTH2.index(base)
    note = note_at_scale_degree(degree, PYTH2)
    return note * OCTAVE ** oracle_shift(text, marks, "'", ",", "octave")


def oracle_parse_edo12_note(text):
    base, marks = oracle_split(text, NAMES_EDO12)
    shift = oracle_shift(text, marks, "'", ",", "octave")
    pc = NAMES_EDO12.index(base)
    return (pc - 12 if pc == 11 else pc) + 12 * shift


#: Each parser with its oracle.
READERS = ((parse_note, oracle_parse_note), (parse_pyth2_note, oracle_parse_pyth2_note),
           (parse_edo12_note, oracle_parse_edo12_note))


def oracle_from_fraction(numerator, denominator=1):
    """``numerator / denominator`` as a `FreqRatio`, or the refusal
    `FreqRatio.from_fraction` words, from the fraction `Fraction` reduces."""
    for name, part in (("numerator", numerator), ("denominator", denominator)):
        if type(part) is not int:
            raise ValueError(f"{name} must be an int, not {_shown(part)}")
    if numerator < 1 or denominator < 1:
        raise ValueError("numerator and denominator must be positive integers, "
                         f"not {_shown(numerator)}/{_shown(denominator)}")
    reduced = Fraction(numerator, denominator)
    exponents, rests = [], []
    for part in (reduced.numerator, reduced.denominator):
        digits = bin(part)
        twos = len(digits) - len(digits.rstrip("0"))
        rest, threes = part // 2 ** twos, 0
        for power, count in ((3**64, 64), (3, 1)):
            while rest % power == 0:
                rest, threes = rest // power, threes + count
        exponents.append((twos, threes))
        rests.append(rest)
    if rests != [1, 1]:
        raise NotThreeSmoothError(f"not 3-smooth: numerator {_shown(reduced.numerator)} and "
                                  f"denominator {_shown(reduced.denominator)} keep the factor "
                                  f"{_shown(rests[0] * rests[1])}")
    (a, b), (c, d) = exponents
    return FreqRatio(a - c, b - d)


SPELLINGS = {   # per just scale: base names, marks up and down, error hint
    PYTH3.id: (BASE_NAMES_PYTH3, "^", "v", "a tritave"),
    PYTH2.id: (BASE_NAMES_PYTH2, "'", ",", "an octave"),
}


def reference_spelling(ratio, system) -> str:
    """A note's name with the shift taken from `oracle_period_shift`.

    The base name is that of the note's scale degree in the window; the
    shift is how many periods the note sits above its representative in
    the fundamental interval, found by sign tests on the squared bounds.
    """
    names, up, down, kind = SPELLINGS[system.id]
    h = scales.harmonic_degree(ratio, system)
    scales._check_harmonic(
        h, system, f": not {kind}-system note, reduce to the fundamental set first")
    base = names[scales.harmonic_to_scale_degree(h, system) - system.harmonic_range[0]]
    return base + _marks(oracle_period_shift(ratio, system.period), up, down)


def reference_just_names(ratio):
    """`reference_spelling` in each just scale whose harmonic range holds the
    note's degree there, each degree read by `scales.harmonic_degree`."""
    return tuple(reference_spelling(ratio, system) for system in (PYTH3, PYTH2)
                 if system.harmonic_range[0] <= scales.harmonic_degree(ratio, system)
                 <= system.harmonic_range[1])


def reference_domain(system):
    """The squared bounds ``(c**2/P, c**2*P)`` of the fundamental interval.

    The interval is ``(c/sqrt(P), c*sqrt(P)]`` around the centre c, 1 for
    the tritave scales and the comma for the octave ones; squared, its
    bounds are rational, so the test is on Fractions.
    """
    period = Fraction(system.period.numerator, system.period.denominator)
    centre = Fraction(531441, 524288) if system.period == OCTAVE else Fraction(1)
    return centre ** 2 / period, centre ** 2 * period


def reference_fundamental_note(h, system):
    """``6**h`` moved one period at a time into the fundamental interval."""
    period = Fraction(system.period.numerator, system.period.denominator)
    lower, upper = reference_domain(system)
    note = Fraction(6) ** h
    while note ** 2 > upper:
        note /= period
    while note ** 2 <= lower:
        note *= period
    return FreqRatio.from_fraction(note.numerator, note.denominator)


def reference_note_at_scale_degree(degree, system):
    """The formula the degree map replaced: reduce, then shift by whole periods."""
    lo = system.harmonic_range[0]
    t, place = divmod(degree - lo, system.notes_per_period)
    note = reference_fundamental_note(scales.scale_to_harmonic(lo + place, system), system)
    return note * system.period ** t


def reference_deviation_rows(pair):
    """The rows as built one `FreqRatio` product and one `Fraction` at a time."""
    system, degrees, boundary, boundary_names = scales._TABLE_PAIRS[pair]
    rows = []
    for n in degrees:
        just = scales._just_note(n, system) * COMMA ** boundary.get(n, 0)
        equal_exp = Fraction(n, system.notes_per_period)
        rows.append(scales.ScaleRow(
            scale_degree=n,
            note=notation._name_in(just, boundary_names if n in boundary else system),
            just_ratio=just,
            harmonic_degree=scales.harmonic_degree(just, system),
            equal_exponent=equal_exp,
            equal_value=float(system.period.numerator) ** float(equal_exp),
            deviation_cents=just.cents() - n / system.notes_per_period * system.period.cents(),
            boundary=n in boundary,
        ))
    return rows


def oracle_ratio_str(ratio) -> str:
    """`str` of a `FreqRatio` as it was written part by part: each part's digit
    count estimated from its exponents and refused past `MAX_STR_DIGITS`, then
    both parts built and written as `Fraction` writes them."""
    parts = []
    for part, a, b in (("numerator", max(ratio.u, 0), max(ratio.v, 0)),
                       ("denominator", max(-ratio.u, 0), max(-ratio.v, 0))):
        digits = int((a + b * LOG2_3) * math.log10(2)) + 1
        if digits > MAX_STR_DIGITS:
            raise ValueError(f"cannot write FreqRatio({ratio.u}, {ratio.v}): its {part} has "
                             f"about {digits} digits, more than {MAX_STR_DIGITS}")
        parts.append(3 ** b << a)
    numerator, denominator = parts
    return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)


def exact(note) -> Fraction:
    """A chord note's exact value: the ratio of a 2:3:4 note, the semitone of a 4:5:6 one."""
    if isinstance(note, FreqRatio):
        return Fraction(2) ** note.u * Fraction(3) ** note.v
    return Fraction(note)


def _parts(note) -> tuple[int, int]:
    """A 2:3:4 note's numerator and denominator, built in integers."""
    return (2 ** max(note.u, 0) * 3 ** max(note.v, 0),
            2 ** max(-note.u, 0) * 3 ** max(-note.v, 0))


def _below(a, b) -> bool:
    """``a < b`` for two 2:3:4 notes, by cross-multiplying their parts."""
    (an, ad), (bn, bd) = _parts(a), _parts(b)
    return an * bd < bn * ad


def oracle_reduce_chord_to_domain(chord, root=None):
    """Each note moved by whole tritaves until it is at or over the root and
    under three roots, each step decided by integer cross-multiplication."""
    if chord.system is not TONNETZ_234:
        raise ValueError("domain reduction by tritaves applies to 2:3:4 chords")
    root = chord.notes[0] if root is None else root
    top = FreqRatio(root.u, root.v + 1)
    reduced = []
    for note in chord.notes:
        while not _below(note, top):
            note = FreqRatio(note.u, note.v - 1)
        while _below(note, root):
            note = FreqRatio(note.u, note.v + 1)
        reduced.append(note)
    if len(set(reduced)) < 3:
        raise ValueError("domain reduction collapses two notes onto one")
    return harmony.Chord(tuple(sorted(reduced, key=exact)), TONNETZ_234)


def assert_same_fraction(got, want: Fraction) -> None:
    """``got`` is ``want`` in all that a `Fraction` shows: its type, its parts,
    its value and hash, its arithmetic, and its repr, str and pickle round trip,
    or their refusal of parts past the digit limit."""
    assert type(got) is Fraction and type(got.numerator) is int and type(got.denominator) is int
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)
    for other in (1, Fraction(-2, 3), want):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.floordiv,
                   operator.mod, operator.lt, operator.eq):
            assert read_outcome(op, got, other) == read_outcome(op, want, other)
            assert read_outcome(op, other, got) == read_outcome(op, other, want)
    assert (-got, abs(got), got ** 2, math.floor(got), round(got)) == (
        -want, abs(want), want ** 2, math.floor(want), round(want))
    for show in (float, repr, str, lambda f: repr(pickle.loads(pickle.dumps(f)))):
        assert read_outcome(show, got) == read_outcome(show, want)
