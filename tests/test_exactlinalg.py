import random
from fractions import Fraction as Fr

import pytest

from widthcert.exactnum import QSqrt2, qs2_sign
from widthcert.exactlinalg import (
    PolyMatrix,
    QMatrix,
    SingularMatrixError,
    _det_laplace,
    adjugate_poly,
    characteristic_polynomial,
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


def test_det_identity():
    assert det_field(QMatrix.identity(3)) == QSqrt2(1)


def test_det_lattice_basis_is_sixteen(delta_model):
    assert det_field(delta_model.lattice.basis_matrix()) == QSqrt2(16)


def test_inverse_triangular():
    m = QMatrix([[1, QSqrt2(0, 1)], [0, 1]])
    assert inverse_field(m) == QMatrix([[1, QSqrt2(0, -1)], [0, 1]])


def test_inverse_of_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse_field(QMatrix([[1, 1], [1, 1]]))


def test_inverse_times_matrix_is_identity():
    rng = random.Random(3)
    for _ in range(10):
        m = QMatrix([[QSqrt2(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(3)]
                     for _ in range(3)])
        if not det_field(m):
            continue
        assert m.matmul(inverse_field(m)) == QMatrix.identity(3)


# -- kernels ---------------------------------------------------------------------


def test_kernel_of_single_row():
    rows = [[1, 0, 0, 0, 0, 0, 0, 0]]
    basis = kernel_basis(rows)
    assert len(basis) == 7
    for v in basis:
        assert sum((QSqrt2.coerce(r) * x for r, x in zip(rows[0], v)), QSqrt2(0)) == QSqrt2(0)


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
    H = QMatrix.identity(4)
    basis = [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert restrict_quadratic_form(H, basis) == QMatrix.identity(2)


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
    with pytest.raises(ValueError):
        is_negative_definite(QMatrix([[0, 1], [0, 0]]))


def test_negative_definite_agrees_with_char_poly_oracle():
    # a symmetric matrix is real-rooted, so all eigenvalues are negative iff
    # every coefficient of det(xI - H) is strictly positive
    rng = random.Random(9)
    for n in (3, 4):
        for _ in range(30):
            H = _random_symmetric(rng, n)
            coeffs = characteristic_polynomial(H)
            oracle = all(qs2_sign(c) > 0 for c in coeffs)
            assert is_negative_definite(H) == oracle


# -- polynomial matrices -----------------------------------------------------------------


def _poly_matrix_of_lattice(pipeline):
    return pipeline.ring.matrix


def test_perturbed_matrix_degrees(pipeline):
    M = _poly_matrix_of_lattice(pipeline)
    det = _det_laplace(M)
    adj = adjugate_poly(M)
    assert det.degree() == 3
    assert max(e.degree() for row in adj.rows for e in row) == 2


def test_adjugate_identity_on_perturbed_matrix(pipeline):
    M = _poly_matrix_of_lattice(pipeline)
    det = _det_laplace(M)
    adj = adjugate_poly(M)
    n = M.nrows
    for i in range(n):
        for j in range(n):
            acc = MvPoly.zero(M.nvars)
            for k in range(n):
                acc = acc + M[i, k] * adj[k, j]
            expected = det if i == j else MvPoly.zero(M.nvars)
            assert acc == expected


def test_det_of_diagonal_poly_matrix():
    x0 = MvPoly.variable(0, 2)
    x1 = MvPoly.variable(1, 2)
    zero = MvPoly.zero(2)
    M = PolyMatrix([[x0, zero], [zero, x1]])
    assert _det_laplace(M) == det_poly(M) == x0 * x1


def test_det_poly_matches_field_det_at_random_points(pipeline):
    rng = random.Random(13)
    M = _poly_matrix_of_lattice(pipeline)
    det = _det_laplace(M)
    for _ in range(20):
        point = [QSqrt2(Fr(rng.randint(-4, 4), rng.randint(1, 4)),
                        Fr(rng.randint(-2, 2), rng.randint(1, 3)))
                 for _ in range(M.nvars)]
        assert det.evaluate(point) == det_field(M.evaluate(point))
