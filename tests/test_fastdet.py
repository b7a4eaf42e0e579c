"""The modular determinant engine must agree with the direct term-level
expansion everywhere, its kernel must agree with a plain-Python reference,
and its evaluation check must catch a wrong coefficient."""

import random
from fractions import Fraction as Fr
from math import isqrt

import numpy as np
import pytest

from widthcert import _kernels
from widthcert.exactnum import QSqrt2
from widthcert.exactlinalg import PolyMatrix, _det_laplace
from widthcert.fastdet import (
    _integerize,
    _is_prime,
    _verify_against_field_det,
    coefficient_norm_bound,
    det_poly_modular,
    monomial_table,
    primes_below,
)
from widthcert.mvpoly import MvPoly


def _random_poly_matrix(rng, n, nvars, max_degree=2, density=0.7):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            table = monomial_table(nvars, max_degree)
            size = table.size_up_to[max_degree]
            for idx in range(size):
                if rng.random() > density:
                    continue
                m = tuple(int(x) for x in table.exps[idx])
                terms[m] = QSqrt2(Fr(rng.randint(-20, 20), rng.choice((1, 2, 4))),
                                  Fr(rng.randint(-20, 20), rng.choice((1, 2, 4))))
            row.append(MvPoly(nvars, terms))
        rows.append(row)
    return PolyMatrix(rows)


def test_monomial_table_sizes():
    table = monomial_table(8, 16)
    assert table.size_up_to[0] == 1
    assert table.size_up_to[2] == 45
    assert table.size_up_to[16] == 735471


def test_primes_are_prime_and_descending():
    ps = primes_below(1 << 25, 5)
    assert ps == sorted(ps, reverse=True)
    for p in ps:
        assert p < 1 << 25
        for q in range(2, 200):
            assert p % q != 0 or p == q


def test_norm_bound_dominates_small_case():
    rng = random.Random(1)
    M = _random_poly_matrix(rng, 3, 2)
    entries = [[{m: (int(c.rat * 4), int(c.irr * 4)) for m, c in e.terms.items()}
                for e in row] for row in M.rows]
    bound = coefficient_norm_bound(entries)
    det = _det_laplace(M)
    for c in det.terms.values():
        assert abs(c.rat * 64) <= bound
        assert abs(c.irr * 64) <= bound


@pytest.mark.parametrize("n,nvars", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_modular_matches_laplace_random(n, nvars):
    rng = random.Random(100 * n + nvars)
    M = _random_poly_matrix(rng, n, nvars)
    assert det_poly_modular(M) == _det_laplace(M)


def test_modular_matches_laplace_linear_entries(pipeline):
    M = pipeline.ring.matrix
    assert det_poly_modular(M) == _det_laplace(M)


def test_modular_on_hessian_section_matches_laplace():
    # the 8x8 second-derivative matrix restricted to a 2-variable section is
    # small enough for the direct expansion yet exercises the full pipeline
    from widthcert import deltacert

    matrix = deltacert.hessian_matrix_s(Fr(39, 4))

    def section(p):
        terms = {}
        for m, coeff in p.terms.items():
            if any(m[i] for i in range(2, 8)):
                continue
            terms[m[:2]] = coeff
        return MvPoly(2, terms)

    reduced = matrix.map_entries(section)
    fast = det_poly_modular(reduced)
    slow = _det_laplace(reduced)
    assert fast == slow
    assert fast.degree() <= 16
    assert len(fast.terms) > 50


def _reference_level(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows, p):
    """One Laplace level in Python ints: the oracle for `level_pass`."""
    nsub, k, nq = coeff_a.shape
    size_k = maps.shape[1]
    out_a = np.zeros((nsub, size_k), dtype=np.int64)
    out_b = np.zeros((nsub, size_k), dtype=np.int64)
    for si in range(nsub):
        for r in range(size_k):
            acc_a = acc_b = 0
            for t in range(k):
                row = int(src_rows[si, t])
                for q in range(nq):
                    ca, cb = int(coeff_a[si, t, q]), int(coeff_b[si, t, q])
                    m = int(maps[q, r])
                    sa, sb = int(prev_a[row, m]), int(prev_b[row, m])
                    acc_a += ca * sa + 2 * cb * sb
                    acc_b += ca * sb + cb * sa
            out_a[si, r] = acc_a % p
            out_b[si, r] = acc_b % p
    return out_a, out_b


def _level_inputs(rng, p, nsub=3, k=2, nq=6, size_k=40, size_prev=30, extreme=False):
    """Seeded kernel inputs; the last source column is the zero pad slot.
    Coefficient pairs cycle through (0, 0), (a, 0), (0, b) and (a, b), and
    maps hit the pad sentinel.  `extreme` sets every residue to p - 1."""
    nrows = nsub + 1

    def residue():
        return p - 1 if extreme else rng.randrange(p)

    prev_a = np.zeros((nrows, size_prev + 1), dtype=np.int64)
    prev_b = np.zeros((nrows, size_prev + 1), dtype=np.int64)
    for row in range(nrows):
        for m in range(size_prev):
            prev_a[row, m], prev_b[row, m] = residue(), residue()
    maps = np.array([[size_prev if rng.random() < 0.2 else rng.randrange(size_prev)
                      for _ in range(size_k)] for _ in range(nq)], dtype=np.int32)
    coeff_a = np.zeros((nsub, k, nq), dtype=np.int64)
    coeff_b = np.zeros((nsub, k, nq), dtype=np.int64)
    for si in range(nsub):
        for t in range(k):
            for q in range(nq):
                kind = (si + t + q) % 4
                coeff_a[si, t, q] = residue() if kind in (1, 3) else 0
                coeff_b[si, t, q] = residue() if kind in (2, 3) else 0
    src_rows = np.array([[rng.randrange(nrows) for _ in range(k)] for _ in range(nsub)],
                        dtype=np.int32)
    return prev_a, prev_b, maps, coeff_a, coeff_b, src_rows


def _run_level(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows, p):
    # outputs carry a pad column, as in the determinant, so rows are strided
    nsub, size_k = coeff_a.shape[0], maps.shape[1]
    out_a = np.full((nsub, size_k + 1), -1, dtype=np.int64)
    out_b = np.full((nsub, size_k + 1), -1, dtype=np.int64)
    _kernels.level_pass(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows,
                        out_a[:, :size_k], out_b[:, :size_k], p)
    return out_a[:, :size_k], out_b[:, :size_k]


def _largest_admitted_prime(k, nq):
    # the guard admits p exactly when k*nq*3*(p-1)^2 < 2^63
    limit = 1 + isqrt((2**63 - 1) // (3 * k * nq))
    return primes_below(limit + 1, 1)[0]


@pytest.mark.parametrize("seed,p,extreme", [
    (1, 7, False),
    (2, 1_000_003, False),
    (3, None, False),
    (4, None, True),
])
def test_level_pass_matches_python_reference(seed, p, extreme):
    rng = random.Random(seed)
    if p is None:
        p = _largest_admitted_prime(2, 6)
    inputs = _level_inputs(rng, p, extreme=extreme)
    got_a, got_b = _run_level(*inputs, p)
    want_a, want_b = _reference_level(*inputs, p)
    assert np.array_equal(got_a, want_a)
    assert np.array_equal(got_b, want_b)


def test_level_pass_guard_rejects_next_prime():
    p = _largest_admitted_prime(2, 6)
    q = p + 2
    while not _is_prime(q):
        q += 2
    inputs = _level_inputs(random.Random(5), 7)
    with pytest.raises(OverflowError):
        _run_level(*inputs, q)
    _run_level(*inputs, p)


def test_level_pass_rejects_map_past_pad_slot():
    prev_a, prev_b, maps, coeff_a, coeff_b, src_rows = _level_inputs(random.Random(6), 7)
    maps[0, 0] = prev_a.shape[1]
    with pytest.raises(IndexError):
        _run_level(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows, 7)


def test_verify_catches_a_single_tampered_coefficient():
    rng = random.Random(12)
    M = _random_poly_matrix(rng, 3, 2)
    det = det_poly_modular(M)
    _, scale = _integerize(M)
    delta = Fr(1, scale**M.nrows)
    for m in det.terms:
        tampered = dict(det.terms)
        tampered[m] = tampered[m] + delta
        with pytest.raises(AssertionError):
            _verify_against_field_det(M, MvPoly(M.nvars, tampered))


def test_constant_matrix_determinant():
    M = PolyMatrix([[MvPoly.constant(QSqrt2(2, 1), 2), MvPoly.constant(1, 2)],
                    [MvPoly.constant(1, 2), MvPoly.constant(QSqrt2(2, -1), 2)]])
    det = det_poly_modular(M)
    # (2+s)(2-s) - 1 = 4 - 2 - 1 = 1
    assert det == MvPoly.constant(1, 2)
