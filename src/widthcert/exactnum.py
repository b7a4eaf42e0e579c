"""Exact scalar arithmetic: rationals, the field Q(sqrt 2), and outward-rounded
rational interval arithmetic for expressions involving square and cube roots.

All certification in this package bottoms out in this module.  Nothing here
ever touches floating point.  An element of Q(sqrt 2) is three Python ints
(a, b, d) meaning (a + b*sqrt2)/d, so its arithmetic, sign and floor are
integer operations; radicals are only ever represented by rational
enclosures produced by bisection, so every comparison made through
`certify_less` is unconditional.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from math import gcd, isqrt, lcm
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
    """Element ``(a + b*sqrt2)/d`` of the real quadratic field Q(sqrt 2).

    Values are immutable and canonical: a, b and d are Python ints with
    d > 0 and gcd(a, b, d) = 1, so two elements are equal iff their triples
    are.  Each operation does its integer arithmetic and then one gcd, in
    `from_ints`.  Polynomial arithmetic does not go through these operations:
    `MvPoly` sums Python-int numerators over a common denominator per
    monomial and normalizes each result term once, with `from_ints`.
    `rat` and `irr` are the parts a/d and b/d as `Fraction`s.  Comparisons
    are exact, decided by `sign` without any numeric approximation.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, rat: ScalarLike = 0, irr: ScalarLike = 0):
        if isinstance(rat, QSqrt2) or isinstance(irr, QSqrt2):
            raise TypeError("components of QSqrt2 must be rational")
        if type(rat) is int and type(irr) is int:
            return QSqrt2.from_ints(rat, irr, 1)
        rat, irr = Fraction(rat), Fraction(irr)
        d = lcm(rat.denominator, irr.denominator)
        return QSqrt2.from_ints(rat.numerator * (d // rat.denominator),
                                irr.numerator * (d // irr.denominator), d)

    def __setattr__(self, name, value):
        raise AttributeError("QSqrt2 is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def coerce(x: ScalarLike) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        return QSqrt2(x)

    @staticmethod
    def from_ints(a: int, b: int, d: int) -> "QSqrt2":
        """The element (a + b*sqrt2)/d of Python ints with d > 0, reduced by one gcd."""
        if d != 1:
            g = gcd(d, a, b)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        x = _NEW(QSqrt2)
        _SET_A(x, a)
        _SET_B(x, b)
        _SET_D(x, d)
        return x

    # the parts a/d and b/d, read-only
    rat = property(lambda self: Fraction(self.a, self.d))
    irr = property(lambda self: Fraction(self.b, self.d))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = QSqrt2.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return QSqrt2.from_ints(self.a + other.a, self.b + other.b, d1)
        return QSqrt2.from_ints(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2.from_ints(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = QSqrt2.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return QSqrt2.from_ints(self.a - other.a, self.b - other.b, d1)
        return QSqrt2.from_ints(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other):
        return QSqrt2.coerce(other) - self

    def __mul__(self, other):
        other = QSqrt2.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QSqrt2.from_ints(a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        """Field inverse via the conjugate: d/(a+b*sqrt2) = d*(a-b*sqrt2)/(a^2-2b^2)."""
        a, b, d = self.a, self.b, self.d
        norm = a * a - 2 * b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        if norm < 0:
            a, b, norm = -a, -b, -norm
        return QSqrt2.from_ints(d * a, -d * b, norm)

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
        """Exact sign of ``(a + b*sqrt(2))/d`` as a real number (see `_sign`)."""
        return _sign(self.a, self.b)

    def _cmp(self, other) -> int:
        """Sign of self - other, from the numerator over the product of denominators."""
        other = QSqrt2.coerce(other)
        d1, d2 = self.d, other.d
        return _sign(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1)

    def __eq__(self, other):
        if type(other) is not QSqrt2:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QSqrt2(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.rat)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- rounding and enclosures ----------------------------------------------

    def floor(self) -> int:
        """Greatest integer <= self.  For b != 0, 2b^2 is not a square, so
        b*sqrt2 lies strictly between m = floor(b*sqrt2) and m + 1, and the
        floor of (a + b*sqrt2)/d is (a + m) // d."""
        a, b = self.a, self.b
        if b > 0:
            a += isqrt(2 * b * b)
        elif b < 0:
            a -= isqrt(2 * b * b) + 1
        return a // self.d

    def enclosure(self, tol: Fraction = Fraction(1, 10**12)) -> "RatInterval":
        """Rational interval containing self, of width <= tol.

        It is the image of the first bracket [j/2^e, (j+1)/2^e] of sqrt2 in the
        bisection of [1, 3/2] with |b|/(d*2^e) <= tol.  The bisection never
        hits sqrt2, so that bracket has j = floor(sqrt2*2^e) = isqrt(2^(2e+1))."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return RatInterval.point(self.rat)
        tol = Fraction(tol)
        need = -(-abs(b) * tol.denominator // (tol.numerator * d))  # 2^e >= need
        e = max(1, (need - 1).bit_length())
        j = isqrt(1 << (2 * e + 1))
        ends = sorted(Fraction((a << e) + b * k, d << e) for k in (j, j + 1))
        return RatInterval(*ends)

    # -- display ----------------------------------------------------------------

    def __repr__(self):
        return f"QSqrt2({self.rat!r}, {self.irr!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.rat)
        if self.a == 0:
            return f"{self.irr}*sqrt2"
        sep = "+" if self.b > 0 else "-"
        return f"{self.rat} {sep} {abs(self.irr)}*sqrt2"


_NEW = object.__new__
_SET_A, _SET_B, _SET_D = (QSqrt2.__dict__[name].__set__ for name in QSqrt2.__slots__)

SQRT2 = QSqrt2(0, 1)
QS2_ZERO = QSqrt2(0)
QS2_ONE = QSqrt2(1)


def _sign(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt2 for ints a, b: the common sign of the parts,
    or, when they disagree, that of the larger of a^2 and 2b^2."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0 or a * a < 2 * b * b:
        return sb
    return sa


# ---------------------------------------------------------------------------
# Rational interval arithmetic
# ---------------------------------------------------------------------------


class RatInterval:
    """Closed interval [lo, hi] with rational endpoints, lo <= hi.  Every
    operation returns an enclosure of the exact image, so chains of
    operations stay sound.  Immutable; intervals are equal when their ends
    are, and they have no order."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        _SET_LO(self, lo)
        _SET_HI(self, hi)

    def __setattr__(self, name, value):
        raise AttributeError("RatInterval is immutable")

    def __eq__(self, other):
        if type(other) is not RatInterval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RatInterval(lo={self.lo!r}, hi={self.hi!r})"

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


_SET_LO, _SET_HI = (RatInterval.__dict__[name].__set__ for name in RatInterval.__slots__)


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
    """The lower (or upper) end after `steps` halvings of the bisection of
    [0, H], H = max(1, floor(x) + 1), that keeps lo^n <= x < hi^n.

    Its ends are H*j/2^steps and H*(j+1)/2^steps for the largest integer j
    with (H*j/2^steps)^n <= x, that is, the integer n-th root of
    floor(num * 2^(steps*n) / (den * H^n)) for x = num/den; no halving is
    run.  A negative x (odd n) is the mirror image of -x."""
    if x == 0:
        return Fraction(0)
    if x < 0:
        # odd roots only reach here
        return -_nth_root_point(-x, n, steps, lower=not lower)
    num, den = x.numerator, x.denominator
    h = max(1, num // den + 1)
    j = _iroot((num << (steps * n)) // (den * h**n), n)
    return Fraction(h * (j if lower else j + 1), 1 << steps)


def _iroot(y: int, n: int) -> int:
    """The largest j >= 0 with j^n <= y, for ints y >= 0 and n >= 2: `isqrt`,
    or Newton's iteration on ints from 2^ceil(bits(y)/n), which is above the
    root, down to the first step that does not decrease."""
    if n == 2:
        return isqrt(y)
    if y == 0:
        return 0
    j = 1 << -(-y.bit_length() // n)
    while True:
        k = ((n - 1) * j + y // j ** (n - 1)) // n
        if k >= j:
            return j
        j = k


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


def _deepening(*exprs: AlgExpr):
    """Enclosures of `exprs` at 16, 32, ..., _MAX_STEPS bisection steps.

    Deeper runs extend the same bisections of the radical leaves, so
    successive enclosures are nested.  A depth at which a divisor enclosure
    straddles zero is skipped, as it may separate on refinement; the last
    such error is raised once the depths run out.
    """
    last_error: IntervalDomainError | None = None
    steps = 16
    while steps <= _MAX_STEPS:
        try:
            enclosures = [e._eval(steps) for e in exprs]
        except IntervalDomainError as err:
            last_error = err
        else:
            yield enclosures
        steps *= 2
    if last_error is not None:
        raise last_error


def interval_eval(expr: AlgExpr, precision: Fraction) -> RatInterval:
    """Enclosure of the exact value of `expr` with width <= precision."""
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    for (result,) in _deepening(expr):
        if result.width() <= precision:
            return result
    raise UndecidedComparison(
        f"could not reach precision {precision} within {_MAX_STEPS} bisection steps"
    )


#: the enclosure width at which `certify_less` gives up
CERTIFY_MIN_WIDTH = Fraction(1, 10**20)


def certify_less(e1, e2) -> bool:
    """True iff refinement separates e1 strictly below e2, False for the
    reverse separation.  Raises UndecidedComparison if the enclosures still
    overlap at width CERTIFY_MIN_WIDTH (values too close, or equal)."""
    e1, e2 = alg(e1), alg(e2)
    with suppress(IntervalDomainError):  # out of depths after a skipped one: undecided
        for a, b in _deepening(e1, e2):
            if a.strictly_below(b):
                return True
            if b.strictly_below(a):
                return False
            if max(a.width(), b.width()) < CERTIFY_MIN_WIDTH:
                break
    raise UndecidedComparison(f"undecided at enclosure width {CERTIFY_MIN_WIDTH}: {e1} vs {e2}")
