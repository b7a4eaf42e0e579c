import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from widthcert.exactnum import QS2_ONE, QS2_ZERO, QSqrt2
from widthcert.exactlinalg import (
    PolyMatrix,
    QMatrix,
    SingularMatrixError,
    adjugate_poly,
    det_field,
    det_poly,
    inverse_field,
    is_negative_definite,
    kernel_basis,
    rank,
    restrict_quadratic_form,
    spans_same_space,
)
from widthcert.mvpoly import MvPoly


def det_laplace(M: PolyMatrix) -> MvPoly:
    """Determinant by a memoized Laplace expansion along rows, directly on
    MvPoly terms: the reference `det_poly` and `adjugate_poly` are tested
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


def identity(n: int) -> QMatrix:
    return QMatrix([[QS2_ONE if i == j else QS2_ZERO for j in range(n)] for i in range(n)])


def characteristic_polynomial(H: QMatrix) -> list[QSqrt2]:
    """Coefficients (ascending) of det(x*I - H), via the Faddeev-LeVerrier
    recurrence; used as an eigenvalue-free definiteness oracle in tests."""
    if not H.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = H.nrows
    coeffs = [QS2_ZERO] * (n + 1)
    coeffs[n] = QS2_ONE
    M = identity(n)
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


def test_det_identity():
    assert det_field(identity(3)) == QSqrt2(1)


def test_det_lattice_basis_is_sixteen(delta_model):
    assert det_field(delta_model.lattice.basis_matrix()) == QSqrt2(16)


def test_inverse_triangular():
    m = QMatrix([[1, QSqrt2(0, 1)], [0, 1]])
    assert inverse_field(m) == QMatrix([[1, QSqrt2(0, -1)], [0, 1]])


def test_inverse_of_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse_field(QMatrix([[1, 1], [1, 1]]))
    # rank 2: a pivot exists in every column, but not on the diagonal
    with pytest.raises(SingularMatrixError):
        inverse_field(QMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))


def test_inverse_times_matrix_is_identity():
    rng = random.Random(3)
    for _ in range(10):
        m = QMatrix([[QSqrt2(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(3)]
                     for _ in range(3)])
        if not det_field(m):
            continue
        assert m.matmul(inverse_field(m)) == identity(3)
    # a zero at (0, 0) forces a row swap before the first pivot
    m = QMatrix([[0, 1, QSqrt2(0, 1)], [2, 0, 1], [1, 3, 0]])
    inv = inverse_field(m)
    assert m.matmul(inv) == inv.matmul(m) == identity(3)


# -- kernels ---------------------------------------------------------------------


def test_kernel_of_single_row():
    rows = [[1, 0, 0, 0, 0, 0, 0, 0]]
    basis = kernel_basis(rows)
    assert len(basis) == 7
    for v in basis:
        assert sum((QSqrt2.coerce(r) * x for r, x in zip(rows[0], v)), QSqrt2(0)) == QSqrt2(0)
    # pivots in columns 1 and 3 leave the free columns 0 and 2; the basis by
    # hand is e0 and e2 - 2 e1
    gap = kernel_basis([[0, 1, 2, 0], [0, 0, 0, 1]])
    assert gap == [tuple(QSqrt2(x) for x in v) for v in ((1, 0, 0, 0), (0, -2, 1, 0))]


def test_gradient_kernel_rank_and_dimension(pipeline):
    grads = [h.gradient_at_zero() for h in pipeline.h_polys]
    assert rank(grads) == 5
    basis = kernel_basis(grads)
    assert len(basis) == 3
    for v in basis:
        for g in grads:
            assert sum((a * b for a, b in zip(g, v)), QSqrt2(0)) == QSqrt2(0)


def test_kernel_matches_pinned_parametrization(pipeline):
    from widthcert.deltacert import KERNEL_PARAMETRIZATION

    grads = [h.gradient_at_zero() for h in pipeline.h_polys]
    assert spans_same_space(kernel_basis(grads), KERNEL_PARAMETRIZATION)


# -- quadratic forms ------------------------------------------------------------------


def test_restriction_to_coordinate_plane():
    H = identity(4)
    basis = [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert restrict_quadratic_form(H, basis) == identity(2)


def test_restriction_of_zero_form():
    H = QMatrix([[0] * 3 for _ in range(3)])
    out = restrict_quadratic_form(H, [[1, 1, 0], [0, 1, 1]])
    assert out == QMatrix([[0, 0], [0, 0]])


def test_restriction_requires_symmetry():
    with pytest.raises(ValueError):
        restrict_quadratic_form(QMatrix([[0, 1], [0, 0]]), [[1, 0]])


def _random_symmetric(rng, n):
    entries = [[QSqrt2(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = QSqrt2(Fr(rng.randint(-8, 8), rng.randint(1, 3)), rng.randint(-2, 2))
            entries[i][j] = v
            entries[j][i] = v
    return QMatrix(entries)


def test_restriction_output_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        H = _random_symmetric(rng, 4)
        basis = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        assert restrict_quadratic_form(H, basis).is_symmetric()


def test_negative_definite_examples():
    assert is_negative_definite(QMatrix([[-1, 0], [0, -1]]))
    assert not is_negative_definite(QMatrix([[-1, 0], [0, 0]]))
    # D1 = 0: elimination must swap rows, and the form is indefinite
    assert not is_negative_definite(QMatrix([[0, 1], [1, -1]]))
    # indefinite (eigenvalues 1 and -1), though swapping its rows would
    # leave two negative pivots
    assert not is_negative_definite(QMatrix([[0, -1], [-1, 0]]))
    # D1 = -1 < 0 but D2 = -3 < 0, so the second pivot D2/D1 is positive
    assert not is_negative_definite(QMatrix([[-1, 2], [2, -1]]))
    # D1 = -2, D2 = 1: both pivots negative
    assert is_negative_definite(QMatrix([[-2, 1], [1, -1]]))
    # singular: D2 = 0 although D1 and the last diagonal entry are negative
    assert not is_negative_definite(QMatrix([[-1, 1, 0], [1, -1, 0], [0, 0, -1]]))
    with pytest.raises(ValueError):
        is_negative_definite(QMatrix([[0, 1], [0, 0]]))


def test_negative_definite_agrees_with_char_poly_oracle():
    # a symmetric matrix is real-rooted, so all eigenvalues are negative iff
    # every coefficient of det(xI - H) is strictly positive
    rng = random.Random(9)
    seen = set()
    for n in range(2, 6):
        for _ in range(30):
            H = _random_symmetric(rng, n)
            # a diagonal shift makes negative definite samples common
            shift = rng.choice((0, 8, 16, 32))
            H = QMatrix([[x - shift if i == j else x for j, x in enumerate(row)]
                         for i, row in enumerate(H.rows)])
            coeffs = characteristic_polynomial(H)
            oracle = all(c.sign() > 0 for c in coeffs)
            assert is_negative_definite(H) == oracle
            seen.add(oracle)
    assert seen == {True, False}


def test_det_agrees_with_char_poly_constant_term():
    # det(H) = (-1)^n * chi_H(0); a zero at (0, 0) and sparse entries make
    # the elimination swap rows, so the sign of every swap is checked
    rng = random.Random(21)
    nonzero = 0
    for n in range(2, 6):
        for _ in range(20):
            entries = [[QSqrt2(rng.randint(-3, 3), rng.randint(-1, 1))
                        if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
            entries[0][0] = 0
            H = QMatrix(entries)
            det = det_field(H)
            assert det == (-1) ** n * characteristic_polynomial(H)[0]
            nonzero += bool(det)
    assert nonzero >= 20


# -- polynomial matrices -----------------------------------------------------------------


def _poly_matrix_of_lattice(pipeline):
    return pipeline.ring.matrix


def test_perturbed_matrix_degrees(pipeline):
    M = _poly_matrix_of_lattice(pipeline)
    det = det_laplace(M)
    adj = adjugate_poly(M)
    assert det.degree() == 3
    assert max(e.degree() for row in adj.rows for e in row) == 2


def test_adjugate_identity_on_perturbed_matrix(pipeline):
    M = _poly_matrix_of_lattice(pipeline)
    det = det_laplace(M)
    adj = adjugate_poly(M)
    n = M.nrows
    for i in range(n):
        for j in range(n):
            acc = MvPoly.zero(M.nvars)
            for k in range(n):
                acc = acc + M[i, k] * adj[k, j]
            expected = det if i == j else MvPoly.zero(M.nvars)
            assert acc == expected


@pytest.mark.parametrize("n", [1, 2, 4])
def test_adjugate_refuses_sizes_other_than_three(n):
    x = MvPoly.variable(0, 1)
    with pytest.raises(ValueError):
        adjugate_poly(PolyMatrix([[x] * n for _ in range(n)]))
    with pytest.raises(ValueError):
        adjugate_poly(PolyMatrix([[x] * 3 for _ in range(n)]))


def test_det_of_diagonal_poly_matrix():
    x0 = MvPoly.variable(0, 2)
    x1 = MvPoly.variable(1, 2)
    zero = MvPoly.zero(2)
    M = PolyMatrix([[x0, zero], [zero, x1]])
    assert det_laplace(M) == det_poly(M) == x0 * x1


def test_det_poly_matches_field_det_at_random_points(pipeline):
    rng = random.Random(13)
    M = _poly_matrix_of_lattice(pipeline)
    det = det_laplace(M)
    for _ in range(20):
        point = [QSqrt2(Fr(rng.randint(-4, 4), rng.randint(1, 4)),
                        Fr(rng.randint(-2, 2), rng.randint(1, 3)))
                 for _ in range(M.nvars)]
        assert det.evaluate(point) == det_field(M.evaluate(point))
