"""Sparse multivariate polynomials over Q(sqrt2), plus the coefficient
companion that turns a polynomial's coefficients into a certified lower
bound on the size of its smallest zero: `cauchy_companion` collapses them
into one univariate coefficient tuple, and `companion_root_enclosure`
brackets that polynomial's positive root by a bisection on integer pairs.

Polynomials are immutable maps from exponent tuples to nonzero QSqrt2
coefficients; equality is term-map equality, and `repr` lists the terms in
graded lexicographic order.

The ring operations normalize once per result term.  A sum, difference,
product, linear combination or linear substitution brings its operands'
coefficients to one common denominator D, adds up the Python-int
numerators (A, B) of (A + B*sqrt2)/D per monomial, and makes each nonzero
sum one canonical `QSqrt2` with `QSqrt2.from_ints`; `scale` and `partial`
call `from_ints` once per term, and `graded_part` keeps its terms as they
are.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .exactnum import QS2_ONE, QS2_ZERO, QSqrt2, _sign

Monomial = tuple[int, ...]
#: a polynomial's terms over one denominator D: (D, [(m, A, B), ...]) with the
#: coefficient of m equal to (A + B*sqrt2)/D
Numerators = tuple[int, list[tuple[Monomial, int, int]]]

_MINUS_ONE = QSqrt2(-1)


def graded_lex_key(m: Monomial):
    """Sort key for the graded lexicographic term order."""
    return (sum(m), tuple(-e for e in m))


def _numerators(terms: Mapping[Monomial, QSqrt2]) -> Numerators:
    """The terms over the lcm of their denominators."""
    den = lcm(*{c.d for c in terms.values()})
    return den, [(m, c.a * f, c.b * f) for m, c in terms.items() for f in (den // c.d,)]


def _combine(nvars: int, parts: Iterable[tuple[QSqrt2, int, list]]) -> "MvPoly":
    """sum_k c_k * P_k over parts (c_k, D_k, items_k), P_k the polynomial with
    numerators items_k over D_k: the one accumulation behind every ring
    operation but `scale` and `partial`.  Every product is brought to the
    lcm D of the c_k.d * D_k, whose factor D / (c_k.d * D_k) the weight's
    numerators absorb; the sums are kept per monomial, and each nonzero sum
    becomes one `QSqrt2`."""
    parts = [part for part in parts if part[0] and part[2]]
    den = lcm(*{c.d * d for c, d, _ in parts})
    sums: dict[Monomial, list[int]] = {}
    get = sums.get
    for c, d, items in parts:
        f = den // (c.d * d)
        ca, cb = c.a * f, c.b * f
        cb_twice = 2 * cb
        for m, a, b in items:
            a, b = ca * a + cb_twice * b, ca * b + cb * a
            pair = get(m)
            if pair is None:
                sums[m] = [a, b]
            else:
                pair[0] += a
                pair[1] += b
    from_ints = QSqrt2.from_ints
    return MvPoly._of_clean_terms(
        nvars, {m: from_ints(a, b, den) for m, (a, b) in sums.items() if a or b})


def linear_combination(nvars: int, pairs: Iterable[tuple]) -> "MvPoly":
    """sum_k c_k * p_k over the pairs (c_k, p_k) of a scalar and a polynomial
    in `nvars` variables, as one accumulation: one `from_ints` per term of
    the result, however many pairs share a monomial."""
    parts = []
    for c, p in pairs:
        if p.nvars != nvars:
            raise ValueError(f"variable count mismatch: {p.nvars} vs {nvars}")
        parts.append((QSqrt2.coerce(c), *_numerators(p.terms)))
    return _combine(nvars, parts)


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
    def variable(i: int, nvars: int) -> "MvPoly":
        e = [0] * nvars
        e[i] = 1
        return MvPoly(nvars, {tuple(e): QS2_ONE})

    # -- ring operations --------------------------------------------------------

    def _check_compatible(self, other: "MvPoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MvPoly") -> "MvPoly":
        return linear_combination(self.nvars, ((QS2_ONE, self), (QS2_ONE, other)))

    def __neg__(self) -> "MvPoly":
        return MvPoly._of_clean_terms(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MvPoly") -> "MvPoly":
        return linear_combination(self.nvars, ((QS2_ONE, self), (_MINUS_ONE, other)))

    def __mul__(self, other: "MvPoly") -> "MvPoly":
        # the sum over self's terms c * x^m of c times other shifted by m
        self._check_compatible(other)
        den, items = _numerators(other.terms)
        return _combine(self.nvars, [(c, den, [(tuple(map(add, m, y)), a, b) for y, a, b in items])
                                     for m, c in self.terms.items()])

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
        ca, cb, cd = c.a, c.b, c.d
        from_ints = QSqrt2.from_ints
        return MvPoly._of_clean_terms(self.nvars, {
            m: from_ints(ca * t.a + 2 * cb * t.b, ca * t.b + cb * t.a, cd * t.d)
            for m, t in self.terms.items()})

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
        return MvPoly._of_clean_terms(self.nvars,
                                      {m: c for m, c in self.terms.items() if sum(m) == d})

    def constant_term(self) -> QSqrt2:
        return self.terms.get((0,) * self.nvars, QS2_ZERO)

    def partial(self, i: int) -> "MvPoly":
        # m -> m - e_i is injective on the terms with m_i > 0, so every image
        # term is a single nonzero product
        from_ints = QSqrt2.from_ints
        terms: dict[Monomial, QSqrt2] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                terms[m[:i] + (e - 1,) + m[i + 1:]] = from_ints(c.a * e, c.b * e, c.d)
        return MvPoly._of_clean_terms(self.nvars, terms)

    def gradient(self) -> list["MvPoly"]:
        return [self.partial(i) for i in range(self.nvars)]

    def gradient_at_zero(self) -> list[QSqrt2]:
        out = [QS2_ZERO] * self.nvars
        for m, c in self.terms.items():
            if sum(m) == 1:
                out[m.index(1)] = c
        return out

    def hessian(self) -> list[list["MvPoly"]]:
        """The matrix of second partials.  Mixed partials commute, so each
        entry (i, j) with i <= j is one `partial` of a first partial, and
        (j, i) is the same polynomial."""
        n = self.nvars
        firsts = self.gradient()
        rows: list[list[MvPoly]] = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = firsts[i].partial(j)
        return rows

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

    def substitute_linear(self, matrix: "Sequence[Sequence] | LinearSubstitution") -> "MvPoly":
        """Compose with a linear change of variables: returns p(A*x).

        `matrix` is nvars x nvars (row i gives the expansion of old variable i
        in the new variables), or a `LinearSubstitution` of such a matrix,
        whose monomial images are reused and kept; degree never increases.
        The result is the linear combination of the images with p's
        coefficients, accumulated once (`_combine`).
        """
        sub = matrix if isinstance(matrix, LinearSubstitution) else LinearSubstitution(matrix)
        if sub.nvars != self.nvars:
            raise ValueError("substitution matrix must be square of matching dimension")
        image = sub.monomial_image
        return _combine(self.nvars, [(c, *image(m)) for m, c in self.terms.items()])

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


class LinearSubstitution:
    """The change of variables x = A*y for a square matrix A over QSqrt2,
    with the y-image of every monomial in x that it has expanded.

    Row i of A expands the old variable x_i in the new variables y.  The
    image of x^m is that of x^(m - e_i) times the linear form of row i, for
    the last i with m_i > 0; each is expanded once and kept, as numerators
    over one denominator, so every polynomial that `MvPoly.substitute_linear`
    rewrites through the same substitution reuses the images of the
    monomials seen before.
    """

    __slots__ = ("nvars", "_rows", "_images")

    def __init__(self, matrix: Sequence[Sequence]):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("substitution matrix must be square")
        self.nvars = n
        self._rows = [[(j, c) for j, c in enumerate(map(QSqrt2.coerce, row)) if c]
                      for row in matrix]
        one = (0,) * n
        self._images: dict[Monomial, Numerators] = {one: (1, [(one, 1, 0)])}

    def monomial_image(self, m: Monomial) -> Numerators:
        """The terms of (A*y)^m over one denominator, kept by the
        substitution: not to be modified."""
        image = self._images.get(m)
        if image is None:
            i = max(k for k, e in enumerate(m) if e)
            den, items = self.monomial_image(m[:i] + (m[i] - 1,) + m[i + 1:])
            # the sum over row i's entries A_ij of A_ij times that image shifted by y_j
            product = _combine(self.nvars, [
                (a, den, [(y[:j] + (y[j] + 1,) + y[j + 1:], p, q) for y, p, q in items])
                for j, a in self._rows[i]])
            image = self._images[m] = _numerators(product.terms)
        return image


# ---------------------------------------------------------------------------
# The coefficient companion bound
# ---------------------------------------------------------------------------


def cauchy_companion(f: MvPoly) -> tuple[QSqrt2, ...]:
    """Collapse a multivariate polynomial into the coefficients, by ascending
    degree, of the univariate comparison polynomial whose unique positive
    root bounds the size of f's zeros.

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
    return tuple(out)


def companion_root_enclosure(coeffs: Sequence[QSqrt2],
                             tol: Fraction = Fraction(1, 10**7)) -> tuple[Fraction, Fraction]:
    """Bracket [lo, hi] around the unique positive root of the polynomial f0
    with the coefficients `coeffs` by ascending degree, with hi - lo <= tol
    and f0(lo) < 0 <= f0(hi); lo is the certified lower bound.

    Requires the single-sign-change shape produced by `cauchy_companion`
    (negative constant term, non-negative higher coefficients, at least one
    positive); this is verified.  Trailing zero coefficients are dropped,
    and the others become pairs (A_i, B_i) of ints over one positive
    denominator L, c_i = (A_i + B_i*sqrt2)/L, which the bracket and the
    bisection share.

    The bisection halves [0, P/Q] from `_companion_bracket` until its width
    P/(Q*2^k) is at most tol, so after k halvings the bracket is
    [P*j, P*(j+1)]/(Q*2^k) for an integer j, and each midpoint is
    P*(2j+1)/(Q*2^(k+1)).  Its sign is decided on integers by
    `_sign_at_ratio`."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    den = lcm(*(c.d for c in coeffs))
    pairs = [(c.a * (den // c.d), c.b * (den // c.d)) for c in coeffs]
    hi = _companion_bracket(pairs)
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


def _sign_at_ratio(pairs: list[tuple[int, int]], m: int, q: int) -> int:
    """Sign of f0(m/q) for q > 0, f0 given by the pairs (A_i, B_i) of
    `companion_root_enclosure`: that of sum_i (A_i + B_i*sqrt2) * m^i *
    q^(n-i), n = deg f0, by a homogeneous Horner scheme on ints."""
    ha, hb = pairs[-1]
    q_power = 1
    for a, b in reversed(pairs[:-1]):
        q_power *= q
        ha = ha * m + a * q_power
        hb = hb * m + b * q_power
    return _sign(ha, hb)


def _companion_bracket(pairs: list[tuple[int, int]]) -> Fraction:
    """The upper end hi of a bracket [0, hi] of f0's positive root, f0(hi) > 0,
    after checking f0's shape; f0 as in `_sign_at_ratio`."""
    if len(pairs) < 2:
        raise ValueError("companion polynomial must have positive degree")
    if _sign(*pairs[0]) >= 0:
        raise ValueError("companion polynomial must have negative constant term")
    # the last pair is nonzero (`companion_root_enclosure` trims zeros), so
    # with no negative one there is a positive one
    if any(_sign(a, b) < 0 for a, b in pairs[1:]):
        raise ValueError("companion polynomial has a negative non-constant coefficient")
    # start from 1 + (sum of non-constant coefficients)/|constant|, in which
    # L cancels, and grow until the value is verifiably positive; the growth
    # loop terminates because the leading coefficient is positive
    total = QSqrt2.from_ints(sum(a for a, _ in pairs[1:]), sum(b for _, b in pairs[1:]), 1)
    hi = 1 + (total / abs(QSqrt2.from_ints(*pairs[0], 1))).enclosure(Fraction(1, 4)).hi
    while _sign_at_ratio(pairs, hi.numerator, hi.denominator) <= 0:
        hi = 2 * hi + 1
    return hi
