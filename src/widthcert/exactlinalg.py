"""Exact linear algebra over Q(sqrt2) and over polynomial entries:
determinants, inverses, kernels, quadratic-form restriction, and the
Sylvester definiteness test.  Everything is exact; there is no numerical
(floating point) path in this module.

Every field operation derives from one forward elimination, `_echelon`:
the determinant is the signed product of its pivots, the rank is their
number, kernels and inverses back-substitute from its echelon rows, and
Sylvester's test reads the pivot signs (the k-th pivot of a swap-free pass
is D_k / D_{k-1}, the ratio of consecutive leading principal minors).
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .exactnum import QS2_ONE, QS2_ZERO, QSqrt2
from .mvpoly import MvPoly


class SingularMatrixError(ValueError):
    pass


def _coerce_vector(v: Sequence) -> tuple[QSqrt2, ...]:
    return tuple(QSqrt2.coerce(x) for x in v)


class QMatrix:
    """Dense matrix over QSqrt2."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        rs = tuple(_coerce_vector(r) for r in rows)
        if not rs:
            raise ValueError("matrix needs at least one row")
        ncols = len(rs[0])
        if any(len(r) != ncols for r in rs):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i + 1, self.ncols)
        )

    def transpose(self) -> "QMatrix":
        return QMatrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        return QMatrix([
            [
                sum((self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)), QS2_ZERO)
                for j in range(other.ncols)
            ]
            for i in range(self.nrows)
        ])

    def apply(self, v: Sequence) -> tuple[QSqrt2, ...]:
        v = _coerce_vector(v)
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(
            sum((self.rows[i][k] * v[k] for k in range(self.ncols)), QS2_ZERO)
            for i in range(self.nrows)
        )

    def __repr__(self):
        return "QMatrix([" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "])"


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[QSqrt2]], list[int], int]:
    """The one elimination loop of this module: forward elimination, pivoting
    on the first nonzero entry of each column, without rescaling rows, and
    updating only the columns right of the pivot.  Returns the echelon rows
    (zero past the last pivot row), the pivot columns and the row swaps."""
    work = [list(_coerce_vector(r)) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    swaps = 0
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            swaps += 1
        top = work[r]
        inv = top[col].inverse()
        for row in work[r + 1:]:
            if row[col]:
                factor = row[col] * inv
                row[col] = QS2_ZERO
                for j in range(col + 1, ncols):
                    row[j] = row[j] - factor * top[j]
        pivots.append(col)
    return work, pivots, swaps


def _back_substitute(echelon: list[list[QSqrt2]], pivots: list[int]) -> list[tuple[QSqrt2, ...]]:
    """One kernel vector of the echelon rows per free column: 1 there, 0 at
    the other free columns, pivot entries solved from the last pivot row up."""
    ncols = len(echelon[0]) if echelon else 0
    solve = [(row, pc, row[pc].inverse()) for row, pc in zip(echelon, pivots)][::-1]
    basis = []
    for fc in (j for j in range(ncols) if j not in pivots):
        v = [QS2_ZERO] * ncols
        v[fc] = QS2_ONE
        for row, pc, inv in solve:
            acc = sum((row[j] * v[j] for j in range(pc + 1, ncols) if v[j]), QS2_ZERO)
            v[pc] = -(acc * inv)
        basis.append(tuple(v))
    return basis


def det_field(matrix: QMatrix) -> QSqrt2:
    """Exact determinant: the signed product of the `_echelon` pivots."""
    if not matrix.is_square():
        raise ValueError("determinant of non-square matrix")
    echelon, pivots, swaps = _echelon(matrix.rows)
    if len(pivots) < matrix.nrows:
        return QS2_ZERO
    det = QS2_ONE
    for row, pc in zip(echelon, pivots):
        det = det * row[pc]
    return -det if swaps % 2 else det


def inverse_field(matrix: QMatrix) -> QMatrix:
    """Exact inverse: eliminate [M | -I]; the kernel vector of its free column
    n + j carries column j of M^{-1} in its first n entries."""
    if not matrix.is_square():
        raise ValueError("inverse of non-square matrix")
    n = matrix.nrows
    echelon, pivots, _ = _echelon([
        list(r) + [-QS2_ONE if i == j else QS2_ZERO for j in range(n)]
        for i, r in enumerate(matrix.rows)
    ])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    cols = _back_substitute(echelon, pivots)
    return QMatrix([[col[i] for col in cols] for i in range(n)])


def rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[1])


def kernel_basis(rows: Sequence[Sequence]) -> list[tuple[QSqrt2, ...]]:
    """Basis of the common kernel {v : row . v = 0 for every row}, one vector
    per free column of the echelon form."""
    echelon, pivots, _ = _echelon(rows)
    return _back_substitute(echelon, pivots)


def spans_same_space(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    """Mutual containment of row spans, checked by rank."""
    ra, rb = rank(basis_a), rank(basis_b)
    return ra == rb == rank([*basis_a, *basis_b])


def restrict_quadratic_form(H: QMatrix, basis: Sequence[Sequence]) -> QMatrix:
    """B^T H B for the matrix B whose columns are the basis vectors."""
    if not H.is_symmetric():
        raise ValueError("quadratic form restriction requires a symmetric matrix")
    vecs = [_coerce_vector(v) for v in basis]
    if any(len(v) != H.nrows for v in vecs):
        raise ValueError("basis vector dimension mismatch")
    images = [H.apply(v) for v in vecs]
    return QMatrix([
        [sum((vecs[i][k] * images[j][k] for k in range(H.nrows)), QS2_ZERO)
         for j in range(len(vecs))]
        for i in range(len(vecs))
    ])


def is_negative_definite(H: QMatrix) -> bool:
    """Sylvester's criterion read off one `_echelon` pass: while no swap is
    made, the k-th pivot is D_k / D_{k-1}, the ratio of consecutive leading
    principal minors.  So H is negative definite iff the pass makes no swap
    (a swap means some D_k = 0), yields n pivots, and every pivot is
    negative; all signs are decided exactly."""
    if not H.is_symmetric():
        raise ValueError("definiteness test requires a symmetric matrix")
    echelon, pivots, swaps = _echelon(H.rows)
    return (swaps == 0 and len(pivots) == H.nrows
            and all(row[pc].sign() < 0 for row, pc in zip(echelon, pivots)))


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Dense matrix with MvPoly entries (all over the same variable count)."""

    __slots__ = ("rows", "nrows", "ncols", "nvars")

    def __init__(self, rows: Sequence[Sequence[MvPoly]]):
        rs = tuple(tuple(r) for r in rows)
        if not rs:
            raise ValueError("matrix needs at least one row")
        ncols = len(rs[0])
        if any(len(r) != ncols for r in rs):
            raise ValueError("ragged matrix")
        nv = rs[0][0].nvars
        for r in rs:
            for e in r:
                if not isinstance(e, MvPoly) or e.nvars != nv:
                    raise ValueError("entries must be MvPoly over a common variable set")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "nvars", nv)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(e) for e in row] for row in self.rows])

    def evaluate(self, point: Sequence) -> QMatrix:
        return QMatrix([[e.evaluate(point) for e in row] for row in self.rows])

    def max_entry_degree(self) -> int:
        return max(e.degree() for row in self.rows for e in row)

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols}, nvars={self.nvars})"


def det_poly(M: PolyMatrix) -> MvPoly:
    """Exact polynomial determinant by the certified multi-modular engine
    (`fastdet.det_poly_modular`): evaluation on a grid cut from the simplex
    by Leibniz degree caps, elimination at every point and interpolation,
    over several word-size primes, with the integer coefficients
    reconstructed through a certified CRT bound and checked against exact
    field determinants.
    """
    # imported on first use: fastdet imports this module, and callers that
    # need no determinant do not pay for loading numpy
    from .fastdet import det_poly_modular

    return det_poly_modular(M)


def adjugate_poly(M: PolyMatrix) -> PolyMatrix:
    """Adjugate of a 3x3 polynomial matrix with rows r0, r1, r2: its columns
    are the cross products r1 x r2, r2 x r0 and r0 x r1, so that
    M . adj(M) = det(M) . I.  Other sizes raise `ValueError`."""
    if (M.nrows, M.ncols) != (3, 3):
        raise ValueError(f"adjugate_poly takes a 3x3 matrix, not {M.nrows}x{M.ncols}")
    cols = [_cross(M.rows[(j + 1) % 3], M.rows[(j + 2) % 3]) for j in range(3)]
    return PolyMatrix([[cols[j][i] for j in range(3)] for i in range(3)])


_R = TypeVar("_R")  # a ring element: int, `QSqrt2` or `MvPoly`


def _cross(a: Sequence[_R], b: Sequence[_R]) -> tuple[_R, _R, _R]:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])
