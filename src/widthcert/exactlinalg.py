"""Exact linear algebra over Q(sqrt2) and over polynomial entries:
determinants, inverses, kernels, quadratic-form restriction, and the
Sylvester definiteness test.  Everything is exact; there is no numerical
(floating point) path in this module.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

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

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[QS2_ONE if i == j else QS2_ZERO for j in range(n)] for i in range(n)])

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


def det_field(matrix: QMatrix) -> QSqrt2:
    """Exact determinant by fraction-producing Gaussian elimination (QSqrt2 is
    a field, so exact division is fine)."""
    if not matrix.is_square():
        raise ValueError("determinant of non-square matrix")
    n = matrix.nrows
    rows = [list(r) for r in matrix.rows]
    det = QS2_ONE
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot_row is None:
            return QS2_ZERO
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for i in range(col + 1, n):
            if rows[i][col]:
                factor = rows[i][col] * inv
                for j in range(col, n):
                    rows[i][j] = rows[i][j] - factor * rows[col][j]
    return det


def inverse_field(matrix: QMatrix) -> QMatrix:
    """Exact inverse by Gauss-Jordan elimination."""
    if not matrix.is_square():
        raise ValueError("inverse of non-square matrix")
    n = matrix.nrows
    aug = [list(r) + [QS2_ONE if i == j else QS2_ZERO for j in range(n)]
           for i, r in enumerate(matrix.rows)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return QMatrix([row[n:] for row in aug])


def rref(rows: Sequence[Sequence]) -> tuple[list[list[QSqrt2]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(_coerce_vector(r)) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][col].inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows: Sequence[Sequence]) -> list[tuple[QSqrt2, ...]]:
    """Basis of the common kernel {v : row . v = 0 for every row}."""
    work = [list(_coerce_vector(r)) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    reduced, pivots = rref(work)
    free_cols = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fc in free_cols:
        v = [QS2_ZERO] * ncols
        v[fc] = QS2_ONE
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        basis.append(tuple(v))
    return basis


def spans_same_space(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    """Mutual containment of row spans, checked by rank."""
    a = [list(_coerce_vector(r)) for r in basis_a]
    b = [list(_coerce_vector(r)) for r in basis_b]
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(a + b)


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


def leading_principal_minors(H: QMatrix) -> list[QSqrt2]:
    return [
        det_field(QMatrix([row[: k + 1] for row in H.rows[: k + 1]]))
        for k in range(H.nrows)
    ]


def is_negative_definite(H: QMatrix) -> bool:
    """Sylvester criterion: (-1)^k * (k-th leading principal minor) > 0 for
    every k, all signs decided exactly."""
    if not H.is_symmetric():
        raise ValueError("definiteness test requires a symmetric matrix")
    for k, minor in enumerate(leading_principal_minors(H), start=1):
        expected = 1 if k % 2 == 0 else -1
        if minor.sign() != expected:
            return False
    return True


def characteristic_polynomial(H: QMatrix) -> list[QSqrt2]:
    """Coefficients (ascending) of det(x*I - H), via the Faddeev-LeVerrier
    recurrence; used as an eigenvalue-free definiteness oracle in tests."""
    if not H.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = H.nrows
    coeffs = [QS2_ZERO] * (n + 1)
    coeffs[n] = QS2_ONE
    M = QMatrix.identity(n)
    for k in range(1, n + 1):
        HM = H.matmul(M)
        trace = sum((HM.rows[i][i] for i in range(n)), QS2_ZERO)
        c = -(trace / k)
        coeffs[n - k] = c
        M = QMatrix([
            [HM.rows[i][j] + (c if i == j else QS2_ZERO) for j in range(n)]
            for i in range(n)
        ])
    return coeffs


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

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i + 1, self.ncols)
        )

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
    (`fastdet.det_poly_modular`): a Laplace expansion along rows with the
    2^n table of column-subset minors, run densely over several word-size
    primes, with the integer coefficients reconstructed through a certified
    CRT bound and checked against exact field determinants.
    """
    # imported on first use: fastdet imports this module, and callers that
    # need no determinant do not pay for loading numpy
    from .fastdet import det_poly_modular

    return det_poly_modular(M)


def _det_laplace(M: PolyMatrix) -> MvPoly:
    """The same row expansion directly on MvPoly terms: used for the small
    minors of `adjugate_poly` and as the reference `det_poly` is tested
    against."""
    n = M.nrows
    zero = MvPoly.zero(M.nvars)
    minors: dict[tuple[int, ...], MvPoly] = {(): MvPoly.constant(1, M.nvars)}
    for k in range(1, n + 1):
        level: dict[tuple[int, ...], MvPoly] = {}
        row = M.rows[k - 1]
        for subset in combinations(range(n), k):
            acc = zero
            for pos, j in enumerate(subset):
                entry = row[j]
                if not entry:
                    continue
                rest = subset[:pos] + subset[pos + 1:]
                term = entry * minors[rest]
                acc = acc - term if (k - 1 + pos) % 2 else acc + term
            level[subset] = acc
        minors = level
    return minors[tuple(range(n))]


def adjugate_poly(M: PolyMatrix) -> PolyMatrix:
    """Adjugate (transpose of the cofactor matrix); M . adj(M) = det(M) . I."""
    if not M.is_square():
        raise ValueError("adjugate of non-square matrix")
    n = M.nrows
    if n == 1:
        return PolyMatrix([[MvPoly.constant(1, M.nvars)]])
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = PolyMatrix([
                [M.rows[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ])
            minor = _det_laplace(sub)
            cof[i][j] = -minor if (i + j) % 2 else minor
    return PolyMatrix([[cof[j][i] for j in range(n)] for i in range(n)])
