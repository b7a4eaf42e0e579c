"""Exact scalar arithmetic: rationals, the field Q(sqrt 2), and outward-rounded
rational interval arithmetic for expressions involving square and cube roots.

All certification in this package bottoms out in this module.  Nothing here
ever touches floating point: signs are decided by integer comparisons, and
radicals are only ever represented by rational enclosures produced by
bisection, so every comparison made through `certify_less` is unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

ScalarLike = Union[int, Fraction, "QSqrt2"]


class ExactNumError(Exception):
    """Base class for errors raised by the exact scalar layer."""


class UndecidedComparison(ExactNumError):
    """An enclosure refinement hit its depth limit without separating values."""


class IntervalDomainError(ExactNumError):
    """Interval operation left its domain (division by an interval containing
    zero, or an even root of a negative interval)."""


# ---------------------------------------------------------------------------
# Q(sqrt 2)
# ---------------------------------------------------------------------------


class QSqrt2:
    """Element ``rat + irr*sqrt(2)`` of the real quadratic field Q(sqrt 2).

    Values are immutable and canonical: two elements are equal iff their
    rational and irrational parts are equal.  Comparisons are exact, decided
    by `sign` without any numeric approximation.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rat: ScalarLike = 0, irr: ScalarLike = 0):
        if isinstance(rat, QSqrt2) or isinstance(irr, QSqrt2):
            raise TypeError("components of QSqrt2 must be rational")
        object.__setattr__(self, "rat", Fraction(rat))
        object.__setattr__(self, "irr", Fraction(irr))

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt2 is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def coerce(x: ScalarLike) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        return QSqrt2(x)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = QSqrt2.coerce(other)
        return QSqrt2(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.rat, -self.irr)

    def __sub__(self, other):
        other = QSqrt2.coerce(other)
        return QSqrt2(self.rat - other.rat, self.irr - other.irr)

    def __rsub__(self, other):
        return QSqrt2.coerce(other) - self

    def __mul__(self, other):
        other = QSqrt2.coerce(other)
        return QSqrt2(
            self.rat * other.rat + 2 * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        """Field inverse via the conjugate: 1/(a+b*sqrt2) = (a-b*sqrt2)/(a^2-2b^2)."""
        norm = self.rat * self.rat - 2 * self.irr * self.irr
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return QSqrt2(self.rat / norm, -self.irr / norm)

    def __truediv__(self, other):
        return self * QSqrt2.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QSqrt2.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = QSqrt2(1)
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
        if isinstance(other, (int, Fraction, QSqrt2)):
            other = QSqrt2.coerce(other)
            return self.rat == other.rat and self.irr == other.irr
        return NotImplemented

    def __hash__(self):
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr))

    def __lt__(self, other):
        return (self - QSqrt2.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - QSqrt2.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QSqrt2.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - QSqrt2.coerce(other)).sign() >= 0

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


SQRT2 = QSqrt2(0, 1)
QS2_ZERO = QSqrt2(0)
QS2_ONE = QSqrt2(1)

_SQRT2_SEED = (Fraction(1), Fraction(3, 2))


def _refine_sqrt2(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    mid = (lo + hi) / 2
    if mid * mid < 2:
        return mid, hi
    return lo, mid


# ---------------------------------------------------------------------------
# Rational interval arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with rational endpoints.  Every operation returns an
    enclosure of the exact image, so chains of operations stay sound."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "RatInterval":
        x = Fraction(x)
        return RatInterval(x, x)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other):
        other = _as_interval(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __mul__(self, other):
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            raise IntervalDomainError("reciprocal of interval containing zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _as_interval(other).reciprocal()

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def pow_int(self, n: int) -> "RatInterval":
        if n == 0:
            return RatInterval.point(1)
        if n < 0:
            return self.pow_int(-n).reciprocal()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def strictly_below(self, other: "RatInterval") -> bool:
        return self.hi < other.lo


def _as_interval(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    if isinstance(x, QSqrt2):
        return x.enclosure()
    return RatInterval.point(x)


def nth_root_enclosure(value: RatInterval, n: int, steps: int) -> RatInterval:
    """Outward enclosure of the n-th root, by bisection with rational endpoints.

    For even n the input must be non-negative.  `steps` halvings are applied
    per endpoint starting from an integer bracket, so deeper calls refine the
    same bisection and the results are nested.
    """
    if n < 2:
        raise ValueError("root index must be >= 2")
    if n % 2 == 0 and value.lo < 0:
        if value.hi < 0:
            raise IntervalDomainError(f"even root of negative interval {value}")
        # partially negative input clipped at zero keeps the enclosure valid
        value = RatInterval(Fraction(0), value.hi)
    lo_root = _nth_root_point(value.lo, n, steps, lower=True)
    hi_root = _nth_root_point(value.hi, n, steps, lower=False)
    return RatInterval(lo_root, hi_root)


def _nth_root_point(x: Fraction, n: int, steps: int, lower: bool) -> Fraction:
    if x == 0:
        return Fraction(0)
    if x < 0:
        # odd roots only reach here
        return -_nth_root_point(-x, n, steps, lower=not lower)
    lo = Fraction(0)
    hi = Fraction(max(1, x.numerator // x.denominator + 1))
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo if lower else hi


# ---------------------------------------------------------------------------
# Algebraic expression trees
# ---------------------------------------------------------------------------


class AlgExpr:
    """Expression over rationals, Q(sqrt2) constants, +, -, *, /, integer
    powers and sqrt/cbrt, evaluated only through rational enclosures."""

    def __add__(self, other):
        return _Binary("+", self, alg(other))

    def __radd__(self, other):
        return _Binary("+", alg(other), self)

    def __sub__(self, other):
        return _Binary("-", self, alg(other))

    def __rsub__(self, other):
        return _Binary("-", alg(other), self)

    def __mul__(self, other):
        return _Binary("*", self, alg(other))

    def __rmul__(self, other):
        return _Binary("*", alg(other), self)

    def __truediv__(self, other):
        return _Binary("/", self, alg(other))

    def __rtruediv__(self, other):
        return _Binary("/", alg(other), self)

    def __pow__(self, n: int):
        return _Power(self, n)

    def __neg__(self):
        return _Binary("-", alg(0), self)

    def _eval(self, steps: int) -> RatInterval:
        raise NotImplementedError


class _Const(AlgExpr):
    def __init__(self, value: QSqrt2):
        self.value = value

    def _eval(self, steps: int) -> RatInterval:
        if self.value.irr == 0:
            return RatInterval.point(self.value.rat)
        # reuse the root machinery so refinement is nested
        r2 = nth_root_enclosure(RatInterval.point(2), 2, steps)
        return RatInterval.point(self.value.rat) + r2 * self.value.irr

    def __str__(self):
        return str(self.value)


class _Binary(AlgExpr):
    def __init__(self, op: str, left: AlgExpr, right: AlgExpr):
        self.op = op
        self.left = left
        self.right = right

    def _eval(self, steps: int) -> RatInterval:
        a = self.left._eval(steps)
        b = self.right._eval(steps)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


class _Power(AlgExpr):
    def __init__(self, base: AlgExpr, n: int):
        if not isinstance(n, int):
            raise TypeError("power exponent must be an integer")
        self.base = base
        self.n = n

    def _eval(self, steps: int) -> RatInterval:
        return self.base._eval(steps).pow_int(self.n)

    def __str__(self):
        return f"({self.base})^{self.n}"


class _Root(AlgExpr):
    def __init__(self, arg: AlgExpr, index: int):
        self.arg = arg
        self.index = index

    def _eval(self, steps: int) -> RatInterval:
        return nth_root_enclosure(self.arg._eval(steps), self.index, steps)

    def __str__(self):
        name = {2: "sqrt", 3: "cbrt"}.get(self.index, f"root{self.index}")
        return f"{name}({self.arg})"


def alg(x) -> AlgExpr:
    """Lift a scalar (int, Fraction, QSqrt2) to an expression leaf."""
    if isinstance(x, AlgExpr):
        return x
    if isinstance(x, QSqrt2):
        return _Const(x)
    return _Const(QSqrt2(Fraction(x)))


def sqrt(x) -> AlgExpr:
    return _Root(alg(x), 2)


def cbrt(x) -> AlgExpr:
    return _Root(alg(x), 3)


_MAX_STEPS = 1 << 14


def interval_eval(expr: AlgExpr, precision: Fraction) -> RatInterval:
    """Enclosure of the exact value of `expr` with width <= precision.

    Radical leaves are refined by iterative deepening; since deeper runs
    extend the same bisections, successive enclosures are nested.
    """
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    steps = 16
    last_error: ExactNumError | None = None
    while steps <= _MAX_STEPS:
        try:
            result = expr._eval(steps)
        except IntervalDomainError as err:
            # a divisor enclosure straddling zero may separate on refinement
            last_error = err
            steps *= 2
            continue
        if result.width() <= precision:
            return result
        steps *= 2
    if last_error is not None:
        raise last_error
    raise UndecidedComparison(
        f"could not reach precision {precision} within {_MAX_STEPS} bisection steps"
    )


def certify_less(e1, e2, min_width: Fraction = Fraction(1, 10**20)) -> bool:
    """True iff refinement separates e1 strictly below e2, False for the
    reverse separation.  Raises UndecidedComparison if the enclosures still
    overlap at width `min_width` (values too close, or equal)."""
    e1, e2 = alg(e1), alg(e2)
    steps = 16
    while steps <= _MAX_STEPS:
        try:
            a = e1._eval(steps)
            b = e2._eval(steps)
        except IntervalDomainError:
            steps *= 2
            continue
        if a.strictly_below(b):
            return True
        if b.strictly_below(a):
            return False
        if max(a.width(), b.width()) < min_width:
            break
        steps *= 2
    raise UndecidedComparison(f"undecided at enclosure width {min_width}: {e1} vs {e2}")
