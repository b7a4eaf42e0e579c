"""Lattice width and hollowness for 3-polytopes with QSqrt2 vertex
coordinates over affine lattices.

Both computations run in three steps: reduction, then box, then fibres.

Reduction.  Three independent vertex differences d_j of K and the dual
basis give G[i][j] = dual_i . d_j, the values of the dual basis functionals
on edges of K.  The rows of G are LLL-reduced exactly over Q(sqrt2) (delta =
3/4) into a unimodular U (Lenstra, Lenstra and Lovasz 1982).  The reduced
dual basis U . duals consists of short functionals on K, whatever the skew
of the given basis or the length of K (Lenstra 1983), and the reduced
lattice basis U^-T . basis comes from the integer adjugate of U.  Width and
hollowness of the same (K, L) share one reduction.

Box (width).  The reduction also tabulates the reduced duals' values on
K's vertices as integer pairs (A, B) over one denominator D, meaning
(A + B sqrt2)/D, so the functional sum_k c'_k (reduced dual k) takes the
value (sum_k c'_k A_k, sum_k c'_k B_k) on a vertex: a candidate costs
integer products and exact integer signs.  The shortest reduced dual gives
an upper bound w0, the reduced rows U . G (the reduced duals on the same
edges) give an exact box of reduced dual coefficient vectors whose
direction could do at least as well, and the box is swept on the table.
Each attaining vector c' maps back to the coefficients c = U^T c' of the
given dual basis, so the minimizers come out in the same order as a sweep
in the given basis would give; only they become functionals, each checked
to attain the width.

Fibres (hollowness, for simplices: the only case the certification pipeline
needs).  In reduced lattice coordinates, whose ranges over K come from the
same table, the two coordinates with the shortest ranges span a box of
fibres; along each fibre the four facet inequalities give an exact open
interval of the third coordinate, and only the integers in it are tested.

`MAX_SWEEP` caps both the width candidates and the hollowness fibres of one
call; a larger sweep raises `SweepTooLargeError` before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from typing import Sequence

from .exactnum import QS2_ONE, QS2_ZERO, QSqrt2, _sign
from .exactlinalg import QMatrix, SingularMatrixError, _cross, det_field, inverse_field

Vec3 = tuple[QSqrt2, QSqrt2, QSqrt2]

#: the most width candidates, and the most hollowness fibres, one call sweeps
MAX_SWEEP = 10**6


def _vec(v: Sequence) -> Vec3:
    if len(v) != 3:
        raise ValueError("expected a 3-vector")
    return tuple(QSqrt2.coerce(x) for x in v)  # type: ignore[return-value]


def _dot(a: Sequence[QSqrt2], b: Sequence[QSqrt2]) -> QSqrt2:
    return sum((x * y for x, y in zip(a, b)), QS2_ZERO)


def _vsub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


class DegeneratePolytopeError(ValueError):
    pass


class SweepTooLargeError(ValueError):
    """A width or hollowness sweep would exceed `MAX_SWEEP`."""


class Polytope:
    """V-representation polytope in R^3 (vertex list, duplicates rejected)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Sequence]):
        verts = tuple(_vec(v) for v in vertices)
        if not verts:
            raise ValueError("polytope needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertices")
        object.__setattr__(self, "vertices", verts)

    def __setattr__(self, name, value):
        raise AttributeError("Polytope is immutable")

    def is_simplex(self) -> bool:
        if len(self.vertices) != 4:
            return False
        v0 = self.vertices[0]
        return bool(det_field(QMatrix([_vsub(v, v0) for v in self.vertices[1:]])))

    def require_simplex(self):
        if not self.is_simplex():
            raise DegeneratePolytopeError("operation requires a non-degenerate simplex")


class AffineLattice:
    """Affine lattice origin + Z b1 + Z b2 + Z b3 with QSqrt2 coordinates."""

    __slots__ = ("origin", "basis")

    def __init__(self, origin: Sequence, basis: Sequence[Sequence]):
        org = _vec(origin)
        rows = tuple(_vec(b) for b in basis)
        if len(rows) != 3:
            raise ValueError("lattice needs exactly three basis vectors")
        if not det_field(QMatrix(rows)):
            raise SingularMatrixError("lattice basis is linearly dependent")
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "basis", rows)

    def __setattr__(self, name, value):
        raise AttributeError("AffineLattice is immutable")

    @staticmethod
    def standard() -> "AffineLattice":
        return AffineLattice((0, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def basis_matrix(self) -> QMatrix:
        return QMatrix(self.basis)

    def point(self, coeffs: Sequence[int]) -> Vec3:
        out = list(self.origin)
        for c, b in zip(coeffs, self.basis):
            for i in range(3):
                out[i] = out[i] + b[i] * c
        return tuple(out)  # type: ignore[return-value]


class Functional:
    """Linear functional x -> f . x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        object.__setattr__(self, "coeffs", _vec(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Functional is immutable")

    def __call__(self, x: Sequence) -> QSqrt2:
        return _dot(self.coeffs, _vec(x))

    def canonical_sign(self) -> "Functional":
        """Flip so the first nonzero coordinate is positive (f and -f give the
        same width, so minimizer lists keep one representative)."""
        for c in self.coeffs:
            s = c.sign()
            if s:
                return self if s > 0 else Functional([-x for x in self.coeffs])
        return self

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Functional(({', '.join(map(str, self.coeffs))}))"


@dataclass(frozen=True)
class WidthResult:
    width: QSqrt2
    minimizers: tuple[Functional, ...]


def width_in_direction(K: Polytope, f: Functional) -> QSqrt2:
    """Length of the segment f(K): max - min of f over the vertices."""
    values = [f(v) for v in K.vertices]
    lo = hi = values[0]
    for v in values[1:]:
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
    return hi - lo


def dual_lattice(L: AffineLattice) -> list[Functional]:
    """Dual basis: columns of the inverse of the basis matrix, so that
    basis_i . dual_j = delta_ij exactly."""
    inv = inverse_field(L.basis_matrix())
    duals = [Functional([inv.rows[r][c] for r in range(3)]) for c in range(3)]
    for i, b in enumerate(L.basis):
        for j, d in enumerate(duals):
            expected = QS2_ONE if i == j else QS2_ZERO
            if d(b) != expected:
                raise AssertionError("dual basis pairing failed")
    return duals


def dual_functional(duals: Sequence[Functional], u: Sequence[int]) -> Functional:
    """The functional sum_k u_k * duals[k] of an integer dual coefficient vector."""
    return Functional([
        sum((duals[k].coeffs[r] * u[k] for k in range(3)), QS2_ZERO)
        for r in range(3)
    ])


def _independent_differences(K: Polytope) -> tuple[Vec3, Vec3, Vec3]:
    """The first three linearly independent differences v - v0 of K's vertices."""
    v0 = K.vertices[0]
    diffs = [_vsub(v, v0) for v in K.vertices[1:]]
    for indep in combinations(diffs, 3):
        if det_field(QMatrix(indep)):
            return indep  # type: ignore[return-value]
    raise DegeneratePolytopeError("lattice width needs a full-dimensional polytope")


def _coefficient_box(G: Sequence[Sequence[QSqrt2]], w0: QSqrt2) -> list[int]:
    """Exact per-coordinate bounds B with the guarantee: if G[i][j] =
    dual_i . d_j for three linearly independent vertex differences d_j of K,
    any nonzero integer vector c whose functional f = sum c_i dual_i gives
    width <= w0 on K satisfies |c_i| <= B_i.

    Each |f . d_j| = |(c^T G)_j| is at most the width, so c^T = y^T G^{-1}
    with |y_j| <= w0; the column sums of |G^{-1}| therefore bound the
    coefficients.
    """
    inv = inverse_field(QMatrix(G)).rows
    return [(sum((abs(inv[j][i]) for j in range(3)), QS2_ZERO) * w0).floor()
            for i in range(3)]


def _lll(rows: Sequence[Sequence[QSqrt2]]
         ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[QSqrt2, ...], ...]]:
    """LLL reduction (delta = 3/4) of linearly independent rows over Q(sqrt2),
    in exact arithmetic.  Returns the unimodular U and the reduced rows
    U . rows."""
    n = len(rows)
    b = [list(r) for r in rows]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    half = QSqrt2.from_ints(1, 0, 2)
    k = 1
    while k < n:
        # Gram-Schmidt of the current rows: squared norms of b*_i and mu[i][j]
        star: list[list[QSqrt2]] = []
        norms: list[QSqrt2] = []
        mu = [[QS2_ZERO] * n for _ in range(n)]
        for i in range(n):
            v = b[i]
            for j in range(i):
                mu[i][j] = _dot(b[i], star[j]) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms.append(_dot(v, v))
        # size-reduce row k; this leaves every b*_i unchanged
        for j in range(k - 1, -1, -1):
            q = (mu[k][j] + half).floor()
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                U[k] = [x - q * y for x, y in zip(U[k], U[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        # Lovasz: |b*_k|^2 >= (3/4 - mu^2) |b*_(k-1)|^2, times 4
        if 4 * norms[k] >= (3 - 4 * mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            U[k - 1], U[k] = U[k], U[k - 1]
            k = max(k - 1, 1)
    return tuple(map(tuple, U)), tuple(map(tuple, b))


@lru_cache(maxsize=1)
def _reduce(K: Polytope, L: AffineLattice) -> tuple[
        AffineLattice, tuple[Functional, ...], tuple[tuple[int, ...], ...],
        tuple[tuple[QSqrt2, ...], ...], tuple[int, tuple[tuple[int, ...], ...]]]:
    """Change L's basis by a unimodular U that makes the dual basis short on K.
    Returns L with the basis U^-T . basis, its dual basis U . duals, U, the
    values G[i][j] of the reduced duals on K's independent differences, and
    the table (D, columns) of the reduced duals on K's vertices: one column
    (A_0, A_1, A_2, B_0, B_1, B_2) per vertex, dual k taking the value
    (A_k + B_k sqrt2)/D there.  Both classes hash by identity, so the one
    cached entry serves `lattice_width` and `hollow_check` on the same
    objects."""
    duals = dual_lattice(L)
    diffs = _independent_differences(K)
    U, G = _lll([[d(e) for e in diffs] for d in duals])
    reduced = tuple(dual_functional(duals, row) for row in U)
    # U^-T = (adjugate of U)^T / det U, and det U = +-1; row i of the
    # cofactor matrix is the cross product of the other two rows of U
    cof = [_cross(U[(i + 1) % 3], U[(i + 2) % 3]) for i in range(3)]
    det = sum(U[0][j] * cof[0][j] for j in range(3))
    if det not in (1, -1):
        raise AssertionError("LLL transform is not unimodular")
    basis = [[sum((L.basis[k][r] * (det * cof[i][k]) for k in range(3)), QS2_ZERO)
              for r in range(3)] for i in range(3)]
    values = [[f(v) for f in reduced] for v in K.vertices]
    D = lcm(*(x.d for column in values for x in column))
    columns = tuple(tuple(x.a * (D // x.d) for x in column)
                    + tuple(x.b * (D // x.d) for x in column) for column in values)
    return AffineLattice(L.origin, basis), reduced, U, G, (D, columns)


def _extremes(columns: Sequence[Sequence[int]], c: Sequence[int]) -> tuple[int, int, int, int]:
    """The least and the greatest value (A + B sqrt2)/D of the functional
    sum_k c_k (reduced dual k) on K's vertices, as (A_lo, B_lo, A_hi, B_hi),
    from the columns of `_reduce`'s table: integer products and exact signs."""
    c0, c1, c2 = c
    (la, lb), *rest = [(c0 * a0 + c1 * a1 + c2 * a2, c0 * b0 + c1 * b1 + c2 * b2)
                       for a0, a1, a2, b0, b1, b2 in columns]
    ha, hb = la, lb
    for a, b in rest:
        if _sign(a - la, b - lb) < 0:
            la, lb = a, b
        elif _sign(a - ha, b - hb) > 0:
            ha, hb = a, b
    return la, lb, ha, hb


def _check_sweep(size: int, what: str) -> None:
    if size > MAX_SWEEP:
        raise SweepTooLargeError(
            f"{what} sweep of {size} exceeds the cap of {MAX_SWEEP} (MAX_SWEEP)")


def lattice_width(K: Polytope, L: AffineLattice) -> WidthResult:
    """Exact lattice width of K over the dual of the linear lattice of L,
    together with the complete set of attaining functionals (one per +/-
    pair, first nonzero coordinate positive, sorted by their coefficient
    vectors in the dual basis of L)."""
    _, reduced_duals, U, G, (D, columns) = _reduce(K, L)
    # the shortest reduced dual's width (A + B sqrt2)/D bounds the box
    best_a = best_b = None
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        la, lb, ha, hb = _extremes(columns, e)
        if best_a is None or _sign(ha - la - best_a, hb - lb - best_b) < 0:
            best_a, best_b = ha - la, hb - lb
    bounds = _coefficient_box(G, QSqrt2.from_ints(best_a, best_b, D))
    size = 1
    for b in bounds:
        size *= 2 * b + 1
    _check_sweep(size // 2, "lattice width candidate")
    best_coeffs: list[tuple[int, int, int]] = []
    for c in product(*[range(-b, b + 1) for b in bounds]):
        if c == (0, 0, 0):
            continue
        first = next(x for x in c if x)
        if first < 0:
            continue  # -c covered by c
        la, lb, ha, hb = _extremes(columns, c)
        cmp = _sign(ha - la - best_a, hb - lb - best_b)
        if cmp < 0:
            best_a, best_b = ha - la, hb - lb
            best_coeffs = [c]
        elif cmp == 0:
            best_coeffs.append(c)
    best = QSqrt2.from_ints(best_a, best_b, D)
    # sort by the coefficients c = U^T c' in the dual basis of L, each with
    # its first nonzero coordinate positive
    keyed = []
    for reduced in best_coeffs:
        c = tuple(sum(U[i][k] * reduced[i] for i in range(3)) for k in range(3))
        if next(x for x in c if x) < 0:
            c = tuple(-x for x in c)
        keyed.append((c, reduced))
    keyed.sort()
    minimizers = tuple(dual_functional(reduced_duals, reduced).canonical_sign()
                       for _, reduced in keyed)
    if not minimizers:
        raise AssertionError("width enumeration produced no minimizer")
    for f in minimizers:
        if width_in_direction(K, f) != best:
            raise AssertionError("minimizer does not attain the reported width")
    return WidthResult(width=best, minimizers=minimizers)


@dataclass(frozen=True)
class AffineFunctional:
    """x -> normal . x + offset; vanishes on a facet, positive inside."""

    normal: Vec3
    offset: QSqrt2

    def __call__(self, x: Sequence) -> QSqrt2:
        return _dot(self.normal, _vec(x)) + self.offset


def facet_hyperplanes(K: Polytope) -> list[AffineFunctional]:
    """Inward-normalized affine functionals of the four facets of a simplex;
    entry i vanishes on the facet opposite vertex i and is positive there."""
    K.require_simplex()
    out = []
    for i in range(4):
        others = [K.vertices[j] for j in range(4) if j != i]
        n = _cross(_vsub(others[1], others[0]), _vsub(others[2], others[0]))
        offset = -_dot(n, others[0])
        value_at_opposite = _dot(n, K.vertices[i]) + offset
        s = value_at_opposite.sign()
        if s == 0:
            raise DegeneratePolytopeError("degenerate simplex facet")
        if s < 0:
            n = tuple(-x for x in n)  # type: ignore[assignment]
            offset = -offset
        out.append(AffineFunctional(normal=n, offset=offset))
    return out


def barycentric_coordinates(point: Sequence, simplex: Polytope) -> list[QSqrt2]:
    """Affine coordinates of `point` relative to the simplex vertices."""
    simplex.require_simplex()
    p = _vec(point)
    v = simplex.vertices
    rows = [_vsub(v[i], v[0]) for i in range(1, 4)]
    inv = inverse_field(QMatrix(rows).transpose())
    coords = inv.apply(_vsub(p, v[0]))
    b0 = QS2_ONE - sum(coords, QS2_ZERO)
    return [b0, *coords]


@dataclass(frozen=True)
class HollownessResult:
    hollow: bool
    witness: Vec3 | None


def hollow_check(K: Polytope, L: AffineLattice) -> HollownessResult:
    """Simplex hollowness by fibres of reduced lattice coordinates: every
    integer point strictly inside the interval a fibre meets K in is tested
    against the four facet inequalities.  Returns an interior witness if any."""
    facets = facet_hyperplanes(K)
    lattice, duals, _, _, (D, columns) = _reduce(K, L)
    origin, basis = lattice.origin, lattice.basis
    # the integers strictly inside the range of each reduced coordinate over K
    ranges = []
    for d, e in zip(duals, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        la, lb, ha, hb = _extremes(columns, e)
        at_origin = d(origin)
        lo = QSqrt2.from_ints(la, lb, D) - at_origin
        hi = QSqrt2.from_ints(ha, hb, D) - at_origin
        ranges.append(range(lo.floor() + 1, -((-hi).floor())))
    counts = [max(0, r.stop - r.start) for r in ranges]  # len() overflows past 2^63
    axis = max(range(3), key=counts.__getitem__)
    a, b = (i for i in range(3) if i != axis)
    _check_sweep(counts[a] * counts[b], "hollowness fibre")
    # facet value at origin + ca*basis[a] + cb*basis[b] + t*basis[axis]
    lines = [(f(origin), _dot(f.normal, basis[a]), _dot(f.normal, basis[b]),
              _dot(f.normal, basis[axis])) for f in facets]
    coeffs = [0, 0, 0]
    for ca, cb in product(ranges[a], ranges[b]):
        lo, hi = ranges[axis].start, ranges[axis].stop - 1
        for value0, step_a, step_b, slope in lines:
            value = value0 + step_a * ca + step_b * cb
            s = slope.sign()
            if s == 0:
                if value.sign() <= 0:
                    hi = lo - 1
                continue
            root = -value / slope  # the facet value is positive on one side of t = root
            if s > 0:
                lo = max(lo, root.floor() + 1)
            else:
                hi = min(hi, -((-root).floor()) - 1)
        coeffs[a], coeffs[b] = ca, cb
        for t in range(lo, hi + 1):
            coeffs[axis] = t
            x = lattice.point(coeffs)
            if all(f(x).sign() > 0 for f in facets):
                return HollownessResult(hollow=False, witness=x)
    return HollownessResult(hollow=True, witness=None)
