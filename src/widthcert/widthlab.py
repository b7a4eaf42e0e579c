"""Lattice width and hollowness for 3-polytopes with QSqrt2 vertex
coordinates over affine lattices.

Width enumeration is exact: a first dual-basis direction gives an upper bound
w0, vertex differences of the body give an exact box containing every integer
dual coefficient vector whose direction could do at least as well, and the
box is swept with exact comparisons.  Hollowness is implemented for simplices
(the only case the certification pipeline needs), where the facet structure
is immediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .exactnum import QS2_ONE, QS2_ZERO, QSqrt2
from .exactlinalg import QMatrix, SingularMatrixError, det_field, inverse_field

Vec3 = tuple[QSqrt2, QSqrt2, QSqrt2]


def _vec(v: Sequence) -> Vec3:
    if len(v) != 3:
        raise ValueError("expected a 3-vector")
    return tuple(QSqrt2.coerce(x) for x in v)  # type: ignore[return-value]


def _dot(a: Sequence[QSqrt2], b: Sequence[QSqrt2]) -> QSqrt2:
    return sum((x * y for x, y in zip(a, b)), QS2_ZERO)


def _vsub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


class DegeneratePolytopeError(ValueError):
    pass


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

    def coordinates(self, x: Sequence) -> Vec3:
        """Coefficients of x - origin in the lattice basis."""
        diff = _vsub(_vec(x), self.origin)
        inv = inverse_field(self.basis_matrix().transpose())
        return inv.apply(diff)  # type: ignore[return-value]


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


def _coefficient_box(K: Polytope, L: AffineLattice, w0: QSqrt2) -> list[int]:
    """Exact per-coordinate bounds B with the guarantee: any nonzero integer
    vector c whose functional sum(c_i dual_i) gives width <= w0 on K satisfies
    |c_i| <= B_i.

    Writing f = sum c_i dual_i and picking three linearly independent vertex
    differences d_j of K, each |f . d_j| is at most the width, and
    c = M_basis . f with f = D^{-1} y, |y_j| <= w0; the row sums of
    M_basis . D^{-1} therefore bound the coefficients.
    """
    v0 = K.vertices[0]
    diffs = [_vsub(v, v0) for v in K.vertices[1:]]
    for indep in combinations(diffs, 3):
        if det_field(QMatrix(indep)):
            break
    else:
        raise DegeneratePolytopeError("lattice width needs a full-dimensional polytope")
    D = QMatrix(indep)
    MB = L.basis_matrix().matmul(inverse_field(D))
    bounds = []
    for i in range(3):
        row_norm = sum((abs(MB.rows[i][j]) for j in range(3)), QS2_ZERO)
        bounds.append((row_norm * w0).floor())
    return bounds


def lattice_width(K: Polytope, L: AffineLattice) -> WidthResult:
    """Exact lattice width of K over the dual of the linear lattice of L,
    together with the complete set of attaining functionals (one per +/-
    pair, first nonzero coordinate positive, sorted deterministically)."""
    duals = dual_lattice(L)
    w0 = None
    for d in duals:
        w = width_in_direction(K, d)
        if w0 is None or w < w0:
            w0 = w
    assert w0 is not None
    bounds = _coefficient_box(K, L, w0)
    best = w0
    best_coeffs: list[tuple[int, int, int]] = []
    for c in product(*[range(-b, b + 1) for b in bounds]):
        if c == (0, 0, 0):
            continue
        first = next(x for x in c if x)
        if first < 0:
            continue  # -c covered by c
        w = width_in_direction(K, dual_functional(duals, c))
        cmp = (w - best).sign()
        if cmp < 0:
            best = w
            best_coeffs = [c]
        elif cmp == 0:
            best_coeffs.append(c)
    best_coeffs.sort()
    minimizers = tuple(dual_functional(duals, c).canonical_sign() for c in best_coeffs)
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
    """Simplex hollowness: sweep lattice points in the bounding box of K (in
    lattice coordinates) and test strict interiority against the four facet
    inequalities.  Returns the first interior witness if any."""
    K.require_simplex()
    facets = facet_hyperplanes(K)
    lows = [None, None, None]
    highs = [None, None, None]
    for v in K.vertices:
        coords = L.coordinates(v)
        for i, x in enumerate(coords):
            if lows[i] is None or x < lows[i]:
                lows[i] = x
            if highs[i] is None or x > highs[i]:
                highs[i] = x
    ranges = []
    for lo, hi in zip(lows, highs):
        ceil_hi = -((-hi).floor())
        ranges.append(range(lo.floor(), ceil_hi + 1))
    for coeffs in product(*ranges):
        x = L.point(coeffs)
        if all(f(x).sign() > 0 for f in facets):
            return HollownessResult(hollow=False, witness=x)
    return HollownessResult(hollow=True, witness=None)
