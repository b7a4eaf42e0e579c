from __future__ import annotations

import random
from fractions import Fraction
from fractions import Fraction as Fr
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthcert import exactnum
from widthcert.exactnum import (
    IntervalDomainError,
    QSqrt2,
    RatInterval,
    ScalarLike,
    SQRT2,
    UndecidedComparison,
    alg,
    cbrt,
    certify_less,
    interval_eval,
    nth_root_enclosure,
    sqrt,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
qsqrt2s = st.builds(QSqrt2, rationals, rationals)
nonzero_qsqrt2s = qsqrt2s.filter(lambda x: bool(x))


# -- arithmetic ----------------------------------------------------------------


def test_square_of_two_plus_sqrt2():
    a = QSqrt2(2, 1)
    assert a * a == QSqrt2(6, 4)


def test_conjugate_product_is_rational():
    assert QSqrt2(1, 1) * QSqrt2(-1, 1) == QSqrt2(1)


def test_cube_of_two_plus_sqrt2():
    assert QSqrt2(2, 1) ** 3 == QSqrt2(20, 14)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QSqrt2(1) / QSqrt2(0)


def test_inverse_via_conjugate():
    a = QSqrt2(Fr(3, 4), Fr(-2, 7))
    assert a * a.inverse() == QSqrt2(1)


@given(qsqrt2s, qsqrt2s, qsqrt2s)
def test_field_axioms_add_mul(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(nonzero_qsqrt2s)
def test_field_axioms_inverse(a):
    assert a * a.inverse() == QSqrt2(1)


# -- sign and floor --------------------------------------------------------------


def test_sign_examples():
    assert QSqrt2(0, 0).sign() == 0
    assert QSqrt2(-1, 1).sign() == 1
    # difference of the two linear-form coefficient sums
    assert (QSqrt2(112, 64) - QSqrt2(192, 128)).sign() == -1
    assert QSqrt2(-80, -64).sign() == -1


def test_floor_examples():
    assert SQRT2.floor() == 1
    assert QSqrt2(2, 1).floor() == 3
    assert (-QSqrt2(2, 1)).floor() == -4
    assert QSqrt2(Fr(7, 2)).floor() == 3
    assert QSqrt2(-3).floor() == -3


@given(qsqrt2s)
@settings(max_examples=200)
def test_sign_matches_interval_evaluation(a):
    enc = a.enclosure(Fr(1, 10**30))
    if enc.lo > 0:
        assert a.sign() == 1
    elif enc.hi < 0:
        assert a.sign() == -1
    else:
        # only the exact zero straddles at this precision
        assert a.sign() == 0 or enc.width() > 0


@given(qsqrt2s)
def test_floor_brackets_value(a):
    f = a.floor()
    assert (a - f).sign() >= 0
    assert (a - (f + 1)).sign() < 0


def _isqrt_sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt2 from floor(b*sqrt2) by `math.isqrt`: for b != 0,
    b*sqrt2 is irrational, so a + b*sqrt2 lies strictly between the
    consecutive integers a + floor(b*sqrt2) and that plus one."""
    if b == 0:
        return (a > 0) - (a < 0)
    m = isqrt(2 * b * b)
    low = a + (m if b > 0 else -m - 1)
    return 1 if low >= 0 else -1


def _sign_near_ties():
    """(+-a, +-b) with a^2 - 2b^2 = +-1 up to about 2^256, where |a| and
    |b|*sqrt2 differ by less than 1/|a|, and their neighbours a +- 1."""
    a, b = 1, 1
    while a < 2**257:
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            yield sa * a, sb * b
            yield sa * a + 1, sb * b
            yield sa * a - 1, sb * b
        a, b = a + 2 * b, a + b


def test_integer_sign_on_pell_near_ties():
    cases = list(_sign_near_ties())
    assert max(abs(a) for a, _ in cases).bit_length() >= 256
    assert {abs(a * a - 2 * b * b) for a, b in cases[::3]} == {1}
    for a, b in cases:
        assert exactnum._sign(a, b) == _isqrt_sign(a, b), (a, b)
        assert exactnum._sign(-a, -b) == -exactnum._sign(a, b)


@given(st.integers(-(2**300), 2**300), st.integers(-(2**300), 2**300))
@settings(max_examples=300)
def test_integer_sign_matches_isqrt_oracle(a, b):
    assert exactnum._sign(a, b) == _isqrt_sign(a, b)
    # a nearby point on the line a = -b*sqrt2: the hardest region for any sign
    near = -(isqrt(2 * b * b) if b > 0 else -isqrt(2 * b * b))
    for da in (-1, 0, 1):
        assert exactnum._sign(near + da, b) == _isqrt_sign(near + da, b)


def test_ordering_total():
    values = [QSqrt2(2, -1), QSqrt2(0, 1), QSqrt2(1), QSqrt2(-1, 1)]
    ordered = sorted(values)
    signs = [(ordered[i + 1] - ordered[i]).sign() for i in range(len(ordered) - 1)]
    assert all(s >= 0 for s in signs)


# -- intervals ---------------------------------------------------------------------


def test_interval_requires_order():
    with pytest.raises(ValueError):
        RatInterval(Fr(1), Fr(0))


def test_intervals_neither_order_nor_behave_as_tuples():
    a, b = RatInterval(Fr(0), Fr(1)), RatInterval(Fr(2), Fr(3))
    with pytest.raises(TypeError):
        a < b
    with pytest.raises(TypeError):
        iter(a)
    with pytest.raises(TypeError):
        a + (Fr(2), Fr(3))
    assert a != (Fr(0), Fr(1))
    assert (a + b).lo == 2 and (a + b).hi == 4


def test_interval_mul_contains_products():
    a = RatInterval(Fr(-2), Fr(3))
    b = RatInterval(Fr(1, 2), Fr(5))
    prod = a * b
    for x in (Fr(-2), Fr(0), Fr(3)):
        for y in (Fr(1, 2), Fr(2), Fr(5)):
            assert prod.lo <= x * y <= prod.hi


def test_interval_reciprocal_zero_raises():
    with pytest.raises(IntervalDomainError):
        RatInterval(Fr(-1), Fr(1)).reciprocal()


def test_cbrt_of_eight():
    enc = interval_eval(cbrt(8), Fr(1, 10**6))
    assert enc.lo <= 2 <= enc.hi
    assert enc.width() <= Fr(1, 10**6)


def test_flatness_cap_enclosure():
    expr = 1 + 2 / sqrt(3) + 2 * cbrt(Fr(3, 4))
    enc = interval_eval(expr, Fr(1, 10**6))
    assert Fr("3.9718") < enc.lo and enc.hi < Fr("3.9719")


def test_volume_floor_enclosure():
    expr = alg(QSqrt2(2, 1)) ** 3 / 15
    enc = interval_eval(expr, Fr(1, 10**6))
    assert Fr("2.6532") < enc.lo and enc.hi < Fr("2.6534")
    # the exact value is (20 + 14 sqrt2)/15
    exact = (QSqrt2(2, 1) ** 3) / 15
    assert exact == QSqrt2(Fr(20, 15), Fr(14, 15))


def test_interval_eval_rejects_bad_precision():
    with pytest.raises(ValueError):
        interval_eval(alg(1), Fr(0))


def test_division_by_exact_zero_interval_raises():
    with pytest.raises(IntervalDomainError):
        interval_eval(alg(1) / (alg(1) - alg(1)), Fr(1, 100))


@given(st.fractions(min_value=Fr(1, 100), max_value=100, max_denominator=100), st.integers(2, 3))
def test_nth_root_enclosure_contains_root(x, n):
    enc = nth_root_enclosure(RatInterval.point(x), n, 80)
    assert enc.lo**n <= x <= enc.hi**n


def fraction_root_bisection(x, n, steps, lower):
    """`steps` halvings on `Fraction` midpoints of [0, max(1, floor(x) + 1)],
    keeping lo^n <= x < hi^n; a negative x (odd n) mirrors -x.  The oracle of
    `exactnum._nth_root_point`."""
    if x == 0:
        return Fr(0)
    if x < 0:
        return -fraction_root_bisection(-x, n, steps, not lower)
    lo, hi = Fr(0), Fr(max(1, x.numerator // x.denominator + 1))
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo if lower else hi


def test_nth_root_point_is_the_fraction_bisection():
    xs = [Fr(0), Fr(1, 3), Fr(999, 1000), Fr(1, 10**40), Fr(1), Fr(2), Fr(7, 3),
          Fr(10**30 + 1, 7), Fr(4), Fr(8), Fr(9, 16), Fr(27, 64), Fr(1, 9), Fr(5**6),
          Fr(17**6, 3**6)]
    rng = random.Random(31)
    xs += [Fr(rng.randint(1, 10**rng.randint(1, 30)), rng.randint(1, 10**rng.randint(1, 30)))
           for _ in range(40)]
    for n in (2, 3):
        for steps in (16, 17, 64, 100, 256):
            for x in xs + [-x for x in xs if n % 2]:
                for lower in (True, False):
                    assert (exactnum._nth_root_point(x, n, steps, lower)
                            == fraction_root_bisection(x, n, steps, lower)), (x, n, steps, lower)


def test_enclosure_refinement_is_nested():
    expr = 1 + 2 / sqrt(3) + 2 * cbrt(Fr(3, 4))
    coarse = interval_eval(expr, Fr(1, 10**3))
    fine = interval_eval(expr, Fr(1, 10**9))
    finer = interval_eval(expr, Fr(1, 10**15))
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    assert fine.lo <= finer.lo and finer.hi <= fine.hi


def test_interval_eval_contains_high_precision_reference():
    cases = [
        1 + 2 / sqrt(3) + 2 * cbrt(Fr(3, 4)),
        alg(QSqrt2(2, 1)) ** 3 / 15,
        1 - (1 + 2 / sqrt(3)) / alg(QSqrt2(2, 1)),
    ]
    for expr in cases:
        rough = interval_eval(expr, Fr(1, 10**6))
        reference = interval_eval(expr, Fr(1, 10**100))
        assert rough.lo <= reference.lo <= rough.hi
        assert rough.lo <= reference.hi <= rough.hi


# -- certified comparisons ------------------------------------------------------------


def test_certify_less_simple():
    assert certify_less(alg(QSqrt2(2, 1)), alg(Fr("3.4143")))


def test_certify_less_flatness():
    expr = 1 + 2 / sqrt(3) + 2 * cbrt(Fr(3, 4))
    assert certify_less(expr, alg(Fr("3.972")))


def test_certify_less_reciprocal_cube_both_directions():
    shrink = 1 - (1 + 2 / sqrt(3)) / alg(QSqrt2(2, 1))
    bound = 1 / shrink**3
    assert certify_less(alg(Fr("19.919")), bound) is False
    assert certify_less(bound, alg(Fr("19.919"))) is True


def test_certify_less_equal_values_undecided():
    with pytest.raises(UndecidedComparison):
        certify_less(sqrt(2), sqrt(2))


def _near_pole():
    # 1 / (sqrt2 - 1.41421): the divisor's enclosure straddles zero at 16
    # bisection steps and separates at 32
    return 1 / (sqrt(2) - alg(Fr(141421, 100000)))


def test_deepening_retries_past_a_straddling_divisor():
    enc = interval_eval(_near_pole(), Fr(1, 10**6))
    assert enc.width() <= Fr(1, 10**6)
    assert 280711 < enc.lo and enc.hi < 280712
    assert certify_less(alg(280711), _near_pole())
    assert certify_less(_near_pole(), alg(280712))


def test_deepening_failures_once_the_steps_run_out(monkeypatch):
    monkeypatch.setattr(exactnum, "_MAX_STEPS", 64)
    # a skipped depth is re-raised even when deeper ones evaluated
    with pytest.raises(IntervalDomainError):
        interval_eval(_near_pole(), Fr(1, 10**100))
    with pytest.raises(UndecidedComparison, match="within 64 bisection steps"):
        interval_eval(sqrt(2), Fr(1, 10**100))
    # a comparison never re-raises it: it is undecided
    with pytest.raises(UndecidedComparison):
        certify_less(1 / (alg(1) - alg(1)), alg(1))
    with pytest.raises(UndecidedComparison):
        certify_less(_near_pole(), _near_pole() + Fr(1, 10**100))


# -- the integer scalar against the two-Fraction scalar it replaced ---------------------
#
# `FractionQSqrt2` is the earlier implementation of `QSqrt2`, which stored
# the two parts as `Fraction`s; it is kept here unchanged (bar its name) as
# the oracle for the (a, b, d) form.


class FractionQSqrt2:
    """Element ``rat + irr*sqrt(2)`` of the real quadratic field Q(sqrt 2).

    Values are immutable and canonical: two elements are equal iff their
    rational and irrational parts are equal.  Comparisons are exact, decided
    by `sign` without any numeric approximation.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rat: ScalarLike = 0, irr: ScalarLike = 0):
        if isinstance(rat, FractionQSqrt2) or isinstance(irr, FractionQSqrt2):
            raise TypeError("components of QSqrt2 must be rational")
        object.__setattr__(self, "rat", Fraction(rat))
        object.__setattr__(self, "irr", Fraction(irr))

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt2 is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def coerce(x: ScalarLike) -> "FractionQSqrt2":
        if isinstance(x, FractionQSqrt2):
            return x
        return FractionQSqrt2(x)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = FractionQSqrt2.coerce(other)
        return FractionQSqrt2(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __neg__(self):
        return FractionQSqrt2(-self.rat, -self.irr)

    def __sub__(self, other):
        other = FractionQSqrt2.coerce(other)
        return FractionQSqrt2(self.rat - other.rat, self.irr - other.irr)

    def __rsub__(self, other):
        return FractionQSqrt2.coerce(other) - self

    def __mul__(self, other):
        other = FractionQSqrt2.coerce(other)
        return FractionQSqrt2(
            self.rat * other.rat + 2 * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FractionQSqrt2":
        """Field inverse via the conjugate: 1/(a+b*sqrt2) = (a-b*sqrt2)/(a^2-2b^2)."""
        norm = self.rat * self.rat - 2 * self.irr * self.irr
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return FractionQSqrt2(self.rat / norm, -self.irr / norm)

    def __truediv__(self, other):
        return self * FractionQSqrt2.coerce(other).inverse()

    def __rtruediv__(self, other):
        return FractionQSqrt2.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = FractionQSqrt2(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of ``rat + irr*sqrt(2)`` as a real number.

        Decided by comparing the signs of the two parts and, when they
        disagree, by comparing ``rat**2`` against ``2*irr**2``.
        """
        a, b = self.rat, self.irr
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # parts of opposite sign: |a| vs |b|*sqrt2, i.e. a^2 vs 2 b^2
        big_rational = a * a > 2 * b * b
        if a > 0:
            return 1 if big_rational else -1
        return -1 if big_rational else 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FractionQSqrt2)):
            other = FractionQSqrt2.coerce(other)
            return self.rat == other.rat and self.irr == other.irr
        return NotImplemented

    def __hash__(self):
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr))

    def __lt__(self, other):
        return (self - FractionQSqrt2.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - FractionQSqrt2.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - FractionQSqrt2.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - FractionQSqrt2.coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return self.rat != 0 or self.irr != 0

    # -- rounding and enclosures ----------------------------------------------

    def floor(self) -> int:
        """Greatest integer <= self, computed from rational brackets of sqrt2."""
        if self.irr == 0:
            return self.rat.numerator // self.rat.denominator
        lo, hi = _SQRT2_SEED
        while True:
            if self.irr > 0:
                vlo, vhi = self.rat + self.irr * lo, self.rat + self.irr * hi
            else:
                vlo, vhi = self.rat + self.irr * hi, self.rat + self.irr * lo
            flo = vlo.numerator // vlo.denominator
            fhi = vhi.numerator // vhi.denominator
            if flo == fhi:
                return flo
            # value is irrational, so the bracket eventually settles
            lo, hi = _refine_sqrt2(lo, hi)

    def enclosure(self, tol: Fraction = Fraction(1, 10**12)) -> "RatInterval":
        """Rational interval containing self, of width <= tol."""
        if self.irr == 0:
            return RatInterval(self.rat, self.rat)
        lo, hi = _SQRT2_SEED
        while (hi - lo) * abs(self.irr) > tol:
            lo, hi = _refine_sqrt2(lo, hi)
        if self.irr > 0:
            return RatInterval(self.rat + self.irr * lo, self.rat + self.irr * hi)
        return RatInterval(self.rat + self.irr * hi, self.rat + self.irr * lo)

    # -- display ----------------------------------------------------------------

    def __repr__(self):
        return f"QSqrt2({self.rat!r}, {self.irr!r})"

    def __str__(self):
        if self.irr == 0:
            return str(self.rat)
        if self.rat == 0:
            return f"{self.irr}*sqrt2"
        sep = "+" if self.irr > 0 else "-"
        return f"{self.rat} {sep} {abs(self.irr)}*sqrt2"


_SQRT2_SEED = (Fraction(1), Fraction(3, 2))


def _refine_sqrt2(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    mid = (lo + hi) / 2
    if mid * mid < 2:
        return mid, hi
    return lo, mid


# zero parts, negative parts and denominators above 2^64
wide_rationals = st.one_of(
    st.just(Fr(0)),
    rationals,
    st.builds(Fr, st.integers(-(2**90), 2**90), st.integers(1, 2**90)),
    st.builds(Fr, st.integers(-5, 5), st.integers(2**64 + 1, 2**70)),
)
pairs = st.tuples(wide_rationals, wide_rationals)
TOLS = (Fr(1), Fr(1, 3), Fr(1, 10**12), Fr(7, 2**70), Fr(1, 10**40))


def both(pair):
    return QSqrt2(*pair), FractionQSqrt2(*pair)


def agrees(new, old) -> bool:
    return (new.rat, new.irr, str(new), repr(new)) == (old.rat, old.irr, str(old), repr(old))


def is_canonical(x: QSqrt2) -> bool:
    return x.d > 0 and gcd(x.a, x.b, x.d) == 1


@given(pairs, pairs)
@settings(max_examples=300)
def test_arithmetic_matches_fraction_scalar(p, q):
    (x, fx), (y, fy) = both(p), both(q)
    pairs_out = [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy), (-x, -fx),
                 (x + p[0], fx + p[0]), (p[1] - x, p[1] - fx), (p[0] * y, p[0] * fy)]
    if fy:
        pairs_out += [(x / y, fx / fy), (y.inverse(), fy.inverse()), (p[0] / y, p[0] / fy)]
    for n in (-3, -1, 0, 2, 5):
        if n >= 0 or fx:
            pairs_out.append((x ** n, fx ** n))
    for new, old in pairs_out:
        assert agrees(new, old)
        assert is_canonical(new)


@given(pairs, pairs)
@settings(max_examples=300)
def test_order_matches_fraction_scalar(p, q):
    (x, fx), (y, fy) = both(p), both(q)
    assert x.sign() == fx.sign()
    assert ((x < y, x <= y, x > y, x >= y, x == y)
            == (fx < fy, fx <= fy, fx > fy, fx >= fy, fx == fy))
    assert (x < p[1], x >= p[1], x == p[0]) == (fx < p[1], fx >= p[1], fx == p[0])
    assert x.floor() == fx.floor()


@given(pairs)
@settings(max_examples=200)
def test_enclosure_matches_fraction_scalar(p):
    x, fx = both(p)
    for tol in TOLS:
        assert x.enclosure(tol) == fx.enclosure(tol)
    assert x.enclosure() == fx.enclosure()


def _pell_pairs():
    """(a, -b) and (-a, b) with a^2 - 2b^2 = +-1, where the sign is hardest to decide."""
    a, b = 1, 1
    for _ in range(40):
        yield from ((a, -b), (-a, b), (Fr(a, 7), Fr(-b, 7)))
        a, b = a + 2 * b, a + b


def test_oracle_cases_at_the_edges():
    edges = [(0, 0), (0, Fr(-1, 2**65 + 1)), (Fr(-(2**80), 3), 0), (2**70 + 1, -(2**69))]
    for p in edges + list(_pell_pairs()):
        x, fx = both(p)
        assert agrees(x, fx) and x.floor() == fx.floor() and x.sign() == fx.sign()
        assert all(x.enclosure(tol) == fx.enclosure(tol) for tol in TOLS)


# -- the (a, b, d) representation --------------------------------------------------------


@given(pairs)
def test_constructor_is_canonical(p):
    x = QSqrt2(*p)
    assert is_canonical(x)
    assert (x.rat, x.irr) == (Fr(p[0]), Fr(p[1]))
    assert type(x.rat) is Fraction and type(x.irr) is Fraction


def test_triple_examples():
    x = QSqrt2(Fr(1, 2), Fr(-1, 3))
    assert (x.a, x.b, x.d) == (3, -2, 6)
    assert (x * 6).d == 1 and (x * 6).a == 3
    y = QSqrt2(Fr(2, 4), Fr(3, 6))
    assert (y.a, y.b, y.d) == (1, 1, 2)
    assert QSqrt2(1, 1).inverse() == QSqrt2(-1, 1)


@pytest.mark.parametrize("name", ["rat", "irr", "a", "b", "d", "other"])
def test_attributes_are_read_only(name):
    x = QSqrt2(Fr(1, 2), 3)
    with pytest.raises(AttributeError):
        setattr(x, name, 1)
    assert x == QSqrt2(Fr(1, 2), 3)


def test_rational_values_hash_as_int_and_fraction():
    assert QSqrt2(3) == 3 and hash(QSqrt2(3)) == hash(3)
    half = QSqrt2(Fr(1, 2))
    assert half == Fr(1, 2) and hash(half) == hash(Fr(1, 2))
    table = {Fr(1, 2): "half", 3: "three"}
    assert table[half] == "half" and table[QSqrt2(3)] == "three"
    assert {half: 1}[Fr(1, 2)] == 1
    assert hash(QSqrt2(1, 1)) == hash(QSqrt2(Fr(2, 2), Fr(3, 3)))
