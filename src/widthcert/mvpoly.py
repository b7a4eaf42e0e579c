"""Sparse multivariate polynomials over Q(sqrt2), plus the univariate
coefficient-companion machinery that turns a polynomial's coefficients into a
certified lower bound on the size of its smallest zero.

Polynomials are immutable maps from exponent tuples to nonzero QSqrt2
coefficients; equality is term-map equality, and `repr` lists the terms in
graded lexicographic order.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .exactnum import QS2_ONE, QS2_ZERO, QSqrt2, _sign

Monomial = tuple[int, ...]


def graded_lex_key(m: Monomial):
    """Sort key for the graded lexicographic term order."""
    return (sum(m), tuple(-e for e in m))


def _add_terms(terms: dict[Monomial, QSqrt2], other: Mapping[Monomial, QSqrt2]) -> None:
    """Add the terms of `other` into the term map `terms`, dropping zeros."""
    for m, c in other.items():
        s = terms.get(m, QS2_ZERO) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)


class MvPoly:
    """Sparse polynomial in `nvars` variables over QSqrt2.

    The public constructor checks and cleans every term.  `_of_clean_terms`
    adopts a term map without a check; its caller guarantees the invariant
    that the constructor establishes: every key is a tuple of `nvars`
    non-negative ints, every value a nonzero `QSqrt2`, and no one else holds
    the dict.  The ring operations below and `fastdet` build such maps."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, QSqrt2] | None = None):
        clean: dict[Monomial, QSqrt2] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"monomial {m} does not have {nvars} exponents")
                if any(e < 0 for e in m):
                    raise ValueError(f"negative exponent in monomial {m}")
                c = QSqrt2.coerce(c)
                if c:
                    clean[tuple(m)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MvPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _of_clean_terms(nvars: int, terms: dict[Monomial, QSqrt2]) -> "MvPoly":
        """The polynomial with term map `terms`, adopted as it is (see the
        class docstring for the invariant the caller guarantees)."""
        poly = object.__new__(MvPoly)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        return poly

    @staticmethod
    def zero(nvars: int) -> "MvPoly":
        return MvPoly(nvars)

    @staticmethod
    def constant(c, nvars: int) -> "MvPoly":
        return MvPoly(nvars, {(0,) * nvars: QSqrt2.coerce(c)})

    @staticmethod
    def variable(i: int, nvars: int, coeff=QS2_ONE) -> "MvPoly":
        e = [0] * nvars
        e[i] = 1
        return MvPoly(nvars, {tuple(e): QSqrt2.coerce(coeff)})

    @staticmethod
    def linear_form(coeffs: Sequence) -> "MvPoly":
        n = len(coeffs)
        terms: dict[Monomial, QSqrt2] = {}
        for i, c in enumerate(coeffs):
            c = QSqrt2.coerce(c)
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return MvPoly(n, terms)

    # -- ring operations --------------------------------------------------------

    def _check_compatible(self, other: "MvPoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MvPoly") -> "MvPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        _add_terms(terms, other.terms)
        return MvPoly._of_clean_terms(self.nvars, terms)

    def __neg__(self) -> "MvPoly":
        return MvPoly._of_clean_terms(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MvPoly") -> "MvPoly":
        return self + (-other)

    def __mul__(self, other: "MvPoly") -> "MvPoly":
        self._check_compatible(other)
        terms: dict[Monomial, QSqrt2] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, QS2_ZERO) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return MvPoly._of_clean_terms(self.nvars, terms)

    def __pow__(self, n: int) -> "MvPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = MvPoly.constant(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "MvPoly":
        c = QSqrt2.coerce(c)
        if not c:
            return MvPoly.zero(self.nvars)
        return MvPoly._of_clean_terms(self.nvars, {m: cc * c for m, cc in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MvPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def graded_part(self, d: int) -> "MvPoly":
        return MvPoly(self.nvars, {m: c for m, c in self.terms.items() if sum(m) == d})

    def constant_term(self) -> QSqrt2:
        return self.terms.get((0,) * self.nvars, QS2_ZERO)

    def partial(self, i: int) -> "MvPoly":
        terms: dict[Monomial, QSqrt2] = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            e = list(m)
            coeff = c * e[i]
            e[i] -= 1
            terms[tuple(e)] = terms.get(tuple(e), QS2_ZERO) + coeff
        return MvPoly(self.nvars, terms)

    def gradient(self) -> list["MvPoly"]:
        return [self.partial(i) for i in range(self.nvars)]

    def gradient_at_zero(self) -> list[QSqrt2]:
        out = [QS2_ZERO] * self.nvars
        for m, c in self.terms.items():
            if sum(m) == 1:
                out[m.index(1)] = c
        return out

    def hessian(self) -> list[list["MvPoly"]]:
        firsts = self.gradient()
        return [[firsts[i].partial(j) for j in range(self.nvars)] for i in range(self.nvars)]

    def evaluate(self, point: Sequence) -> QSqrt2:
        """Exact value at a point of Q(sqrt2)^nvars, summed on Python-int
        pairs (a, b) meaning a + b*sqrt2.

        With D the lcm of the point's denominators `d` and C that of the
        coefficients', X = D*point is integral and C * D^maxdeg * self(point)
        is the sum over terms of (C*c_m) * D^(maxdeg - |m|) * X^m, an element
        of Z[sqrt2]; one gcd at the end gives the canonical value."""
        pt = [QSqrt2.coerce(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError("evaluation point has wrong dimension")
        den_x = lcm(*(x.d for x in pt))
        den_c = lcm(*(c.d for c in self.terms.values()))
        maxdeg = max(map(sum, self.terms), default=0)
        weights = [den_x ** (maxdeg - d) for d in range(maxdeg + 1)]
        powers = [[(1, 0), (x.a * (den_x // x.d), x.b * (den_x // x.d))] for x in pt]
        total_a = total_b = 0
        for m, c in self.terms.items():
            a, b = c.a * (den_c // c.d), c.b * (den_c // c.d)
            deg = 0
            for i, e in enumerate(m):
                if e:
                    deg += e
                    cache = powers[i]
                    while len(cache) <= e:
                        (pa, pb), (xa, xb) = cache[-1], cache[1]
                        cache.append((pa * xa + 2 * pb * xb, pa * xb + pb * xa))
                    xa, xb = cache[e]
                    a, b = a * xa + 2 * b * xb, a * xb + b * xa
            total_a += a * weights[deg]
            total_b += b * weights[deg]
        return QSqrt2.from_ints(total_a, total_b, den_c * den_x ** maxdeg)

    def substitute_linear(self, matrix: Sequence[Sequence]) -> "MvPoly":
        """Compose with a linear change of variables: returns p(A*x).

        `matrix` is nvars x nvars (row i gives the expansion of old variable i
        in the new variables); degree never increases.
        """
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("substitution matrix must be square of matching dimension")
        images = [MvPoly.linear_form(row) for row in matrix]
        # cache powers of each image to keep repeated exponents cheap
        powers: list[list[MvPoly]] = [[MvPoly.constant(1, n)] for _ in range(n)]
        terms: dict[Monomial, QSqrt2] = {}
        for m, c in self.terms.items():
            term = MvPoly.constant(c, n)
            for i, e in enumerate(m):
                if not e:
                    continue
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * images[i])
                term = term * cache[e]
            _add_terms(terms, term.terms)
        return MvPoly._of_clean_terms(n, terms)

    def __repr__(self):
        if not self.terms:
            return f"MvPoly.zero({self.nvars})"
        parts = []
        for m in sorted(self.terms, key=graded_lex_key):
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(m) if e)
            c = str(self.terms[m])
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Univariate polynomials and the coefficient companion bound
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over QSqrt2, coefficients by ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [QSqrt2.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x) -> QSqrt2:
        x = QSqrt2.coerce(x)
        total = QS2_ZERO
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def cauchy_companion(f: MvPoly) -> UniPoly:
    """Collapse a multivariate polynomial into the univariate comparison
    polynomial whose unique positive root bounds the size of f's zeros.

    Coefficient of degree j is the sum of |c| over all total-degree-j terms
    (absolute value taken in QSqrt2 as a real number); the constant term is
    -|f(0)|, which must be nonzero.  The sums run on integers: each term
    c = (a + b*sqrt2)/d adds the signed pair (a, b) of |c| to the sum of its
    degree and d, and each sum becomes one `QSqrt2`.  The sign of c is
    `exactnum._sign(a, b)`.
    """
    const = f.constant_term()
    if not const:
        raise ValueError("companion bound requires a nonzero constant term")
    sums: defaultdict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0])
    for m, c in f.terms.items():
        a, b = c.a, c.b
        if _sign(a, b) < 0:
            a, b = -a, -b
        pair = sums[sum(m), c.d]
        pair[0] += a
        pair[1] += b
    out = [QS2_ZERO] * (max(degree for degree, _ in sums) + 1)
    for (degree, d), (a, b) in sums.items():
        out[degree] += QSqrt2.from_ints(a, b, d)
    out[0] = -abs(const)
    return UniPoly(out)


def companion_root_enclosure(f0: UniPoly, tol: Fraction = Fraction(1, 10**7)) -> tuple[Fraction, Fraction]:
    """Bracket [lo, hi] around the unique positive root of f0 with
    hi - lo <= tol and f0(lo) < 0 <= f0(hi); lo is the certified lower bound.

    Requires the single-sign-change shape produced by `cauchy_companion`
    (negative constant term, non-negative higher coefficients, at least one
    positive); this is verified.

    The bisection halves [0, P/Q] from `_companion_bracket` until its width
    P/(Q*2^k) is at most tol, so after k halvings the bracket is
    [P*j, P*(j+1)]/(Q*2^k) for an integer j, and each midpoint is
    P*(2j+1)/(Q*2^(k+1)).  Its sign is decided on integers by
    `_sign_at_ratio`."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _, hi = _companion_bracket(f0)
    pairs = _integer_pairs(f0)
    p, q = hi.numerator, hi.denominator
    steps = 0
    while p * tol.denominator > tol.numerator * (q << steps):
        steps += 1
    j = 0
    for k in range(1, steps + 1):
        j = 2 * j + 1
        if _sign_at_ratio(pairs, p * j, q << k) >= 0:
            j -= 1
    return Fraction(p * j, q << steps), Fraction(p * (j + 1), q << steps)


def _integer_pairs(f0: UniPoly) -> list[tuple[int, int]]:
    """f0's coefficients as pairs (A_i, B_i) over one positive denominator L:
    c_i = (A_i + B_i*sqrt2)/L."""
    den = lcm(*(c.d for c in f0.coeffs))
    return [(c.a * (den // c.d), c.b * (den // c.d)) for c in f0.coeffs]


def _sign_at_ratio(pairs: list[tuple[int, int]], m: int, q: int) -> int:
    """Sign of f0(m/q) for q > 0, f0 given by `_integer_pairs`: that of
    sum_i (A_i + B_i*sqrt2) * m^i * q^(n-i), n = deg f0, by a homogeneous
    Horner scheme on ints."""
    ha, hb = pairs[-1]
    q_power = 1
    for a, b in reversed(pairs[:-1]):
        q_power *= q
        ha = ha * m + a * q_power
        hb = hb * m + b * q_power
    return _sign(ha, hb)


def _companion_bracket(f0: UniPoly) -> tuple[Fraction, Fraction]:
    coeffs = f0.coeffs
    if len(coeffs) < 2:
        raise ValueError("companion polynomial must have positive degree")
    if coeffs[0].sign() >= 0:
        raise ValueError("companion polynomial must have negative constant term")
    non_const_signs = [c.sign() for c in coeffs[1:]]
    if any(s < 0 for s in non_const_signs):
        raise ValueError("companion polynomial has a negative non-constant coefficient")
    if all(s == 0 for s in non_const_signs):
        raise ValueError("companion polynomial has no positive coefficient")
    # start from 1 + (sum of non-constant coefficients)/|constant| and grow
    # until the value is verifiably positive; the growth loop terminates
    # because the leading coefficient is positive
    total = QS2_ZERO
    for c in coeffs[1:]:
        total = total + c
    ratio = (total / abs(coeffs[0])).enclosure(Fraction(1, 4))
    hi = 1 + ratio.hi
    pairs = _integer_pairs(f0)
    while _sign_at_ratio(pairs, hi.numerator, hi.denominator) <= 0:
        hi = 2 * hi + 1
    return Fraction(0), hi
