"""The modular determinant engine must agree with the direct term-level
expansion everywhere, its kernel must agree with a plain-Python reference,
and its evaluation check must catch a wrong coefficient."""

import random
from fractions import Fraction as Fr
from itertools import islice
from math import isqrt, prod

import numpy as np
import pytest

from widthcert import _kernels
from widthcert.exactnum import QSqrt2
from widthcert.exactlinalg import PolyMatrix
from widthcert.fastdet import (
    _MonomialTable,
    _det_one_prime,
    _integerize,
    _is_prime,
    _setup,
    _split_primes_below,
    _verify_against_field_det,
    coefficient_norm_bound,
    crt_primes,
    det_poly_modular,
    monomial_table,
)
from widthcert.mvpoly import MvPoly

from test_exactlinalg import det_laplace


def split_primes_below(bound, count):
    return list(islice(_split_primes_below(bound), count))


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
    ps = split_primes_below(1 << 25, 5)
    assert ps == sorted(ps, reverse=True)
    for p in ps:
        assert p < 1 << 25
        assert p % 8 == 7
        for q in range(2, 200):
            assert p % q != 0 or p == q
    # none is skipped, whatever the residue of the bound mod 8
    for bound in range(2, 300):
        want = [p for p in range(bound - 1, 1, -1)
                if p % 8 == 7 and all(p % q for q in range(2, p))]
        assert list(_split_primes_below(bound)) == want


def test_norm_bound_dominates_small_case():
    rng = random.Random(1)
    M = _random_poly_matrix(rng, 3, 2)
    entries = [[{m: (int(c.rat * 4), int(c.irr * 4)) for m, c in e.terms.items()}
                for e in row] for row in M.rows]
    bound = coefficient_norm_bound(entries)
    det = det_laplace(M)
    for c in det.terms.values():
        assert abs(c.rat * 64) <= bound
        assert abs(c.irr * 64) <= bound


@pytest.mark.parametrize("n,nvars", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_modular_matches_laplace_random(n, nvars):
    rng = random.Random(100 * n + nvars)
    M = _random_poly_matrix(rng, n, nvars)
    assert det_poly_modular(M) == det_laplace(M)


def test_modular_matches_laplace_linear_entries(pipeline):
    M = pipeline.ring.matrix
    assert det_poly_modular(M) == det_laplace(M)


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
    slow = det_laplace(reduced)
    assert fast == slow
    assert fast.degree() <= 16
    assert len(fast.terms) > 50


def _reference_lane(prev, maps, coeff, src_rows, p):
    """One Laplace level of one scalar lane in Python ints: the oracle for
    each lane of `level_pass`."""
    nsub, k, nq = coeff.shape
    size_k = maps.shape[1]
    out = np.zeros((nsub, size_k), dtype=np.int64)
    for si in range(nsub):
        for r in range(size_k):
            acc = 0
            for t in range(k):
                row = int(src_rows[si, t])
                for q in range(nq):
                    acc += int(coeff[si, t, q]) * int(prev[row, int(maps[q, r])])
            out[si, r] = acc % p
    return out


def _level_inputs(rng, p, nsub=3, k=2, nq=6, size_k=40, size_prev=30, extreme=False):
    """Seeded kernel inputs; the last source column is the zero pad slot.
    Coefficients of the two lanes cycle through (0, 0), (a, 0), (0, b) and
    (a, b), and maps hit the pad sentinel.  `extreme` sets every residue to
    p - 1."""
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


def _assert_fewest_primes(primes, bound, terms):
    # the primes are the largest split primes of their bit size, within the
    # overflow guard, so no fewer primes of that size can clear 4*bound
    assert primes == split_primes_below(1 << primes[0].bit_length(), len(primes))
    assert all(p % 8 == 7 for p in primes)
    assert terms * (primes[0] - 1) ** 2 < 2**63
    assert prod(primes) > 4 * bound
    assert len(primes) == 1 or prod(primes[:-1]) <= 4 * bound


@pytest.mark.parametrize("bound", [0, 1, 2**23, 2**24, 2**49, 2**144, 3**200],
                         ids=lambda b: f"{b.bit_length()}-bits")
def test_crt_primes_are_the_fewest(bound):
    for terms in (1, 8 * 45, 10**6):
        _assert_fewest_primes(crt_primes(bound, terms), bound, terms)


@pytest.mark.parametrize("keep_vars,bits,count", [(8, 144, 6), (6, 137, 6)])
def test_hessian_determinant_uses_the_fewest_primes(keep_vars, bits, count):
    # condition (iv) at c = 39/4 and its 6-variable section; only the bound is
    # computed, no determinant
    from widthcert import deltacert as dc

    matrix = dc.hessian_matrix_s(Fr(39, 4)).map_entries(
        lambda p: MvPoly(keep_vars, {m[:keep_vars]: c for m, c in p.terms.items()
                                     if not any(m[keep_vars:])}))
    bound = coefficient_norm_bound(_integerize(matrix)[0])
    assert bound.bit_length() == bits
    terms = 8 * monomial_table(keep_vars, 2).size_up_to[2]
    primes = crt_primes(bound, terms)
    assert len(primes) == count
    assert all(p < 1 << 25 for p in primes)
    _assert_fewest_primes(primes, bound, terms)


def _run_level(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows, p):
    # outputs carry a pad column, as in the determinant, so rows are strided
    nsub, size_k = coeff_a.shape[0], maps.shape[1]
    out_a = np.full((nsub, size_k + 1), -1, dtype=np.int64)
    out_b = np.full((nsub, size_k + 1), -1, dtype=np.int64)
    _kernels.level_pass(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows,
                        out_a[:, :size_k], out_b[:, :size_k], p)
    return out_a[:, :size_k], out_b[:, :size_k]


def _largest_admitted_prime(k, nq):
    # the guard admits p exactly when k*nq*(p-1)^2 < 2^63; the kernel itself
    # takes any prime, split or not
    p = 1 + isqrt((2**63 - 1) // (k * nq))
    while not _is_prime(p):
        p -= 1
    return p


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
    prev_a, prev_b, maps, coeff_a, coeff_b, src_rows = _level_inputs(rng, p, extreme=extreme)
    got_a, got_b = _run_level(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows, p)
    assert np.array_equal(got_a, _reference_lane(prev_a, maps, coeff_a, src_rows, p))
    assert np.array_equal(got_b, _reference_lane(prev_b, maps, coeff_b, src_rows, p))


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


def _level_shift_map(table, level_deg, prev_deg):
    """maps[q, r] = index of monomial_r - q in the degree <= prev_deg block,
    or the pad slot (the size of that block) when the difference has a
    negative exponent or too high a degree; q runs over the monomials of
    degree <= level_deg - prev_deg.  One Laplace level's map built on its
    own: the oracle of the cuts of the table's one shift map."""
    size_k = table.size_up_to[level_deg]
    size_prev = table.size_up_to[prev_deg]
    nq = table.size_up_to[level_deg - prev_deg]
    maps = np.full((nq, size_k), size_prev, dtype=np.int32)
    E = table.exps[:size_k].astype(np.int16)
    T = table.totals[:size_k].astype(np.int32)
    for qi in range(nq):
        q = table.exps[qi].astype(np.int16)
        diff = E - q
        dt = T - int(q.sum())
        valid = np.all(diff >= 0, axis=1) & (dt <= prev_deg)
        key = table._pack(diff[valid].astype(np.int8), dt[valid].astype(np.int16))
        pos = np.searchsorted(table.keys[:size_prev], key)
        assert np.array_equal(table.keys[pos], key)
        maps[qi, valid] = pos
    return maps


@pytest.mark.parametrize("nvars,maxdeg,entry_degs", [
    (1, 6, (2, 1, 3)),
    (2, 6, (1, 3, 2, 1)),
    (3, 8, (2, 1, 4)),
    (6, 16, (2,)),
])
def test_every_level_cut_matches_its_own_shift_map(monkeypatch, nvars, maxdeg, entry_degs):
    # the maps `_det_one_prime` hands the kernel, level by level, with the
    # kernel itself stubbed out; the table's map grows to the largest entry
    # degree asked for and serves smaller ones from its first rows
    table = _MonomialTable(nvars, maxdeg)
    for entry_deg in entry_degs:
        seen = []
        monkeypatch.setattr(_kernels, "level_pass", lambda *args: seen.append(args[2].copy()))
        n = maxdeg // entry_deg
        nq = table.size_up_to[entry_deg]
        coeff_int = np.zeros((n, n, nq, 2), dtype=object)
        _det_one_prime(n, table, entry_deg, table.shift_map(nq), coeff_int, 7)
        assert len(seen) == n
        for k, maps in enumerate(seen, start=1):
            want = _level_shift_map(table, entry_deg * k, entry_deg * (k - 1))
            assert maps.dtype == want.dtype and np.array_equal(maps, want), (entry_deg, k)


def _prime_residues(M, p):
    """`_det_one_prime` on M, set up as `det_poly_modular` does, and the
    monomial of each residue slot."""
    shared = _setup(M)[0]
    det_a, det_b = _det_one_prime(*shared, p)
    return det_a, det_b, [tuple(int(x) for x in e) for e in shared[1].exps[:len(det_a)]]


@pytest.mark.parametrize("seed,n,nvars", [(21, 3, 2), (22, 4, 2), (23, 3, 3)])
def test_det_one_prime_residues_match_laplace(seed, n, nvars):
    # the a- and b-parts come back from the two scalar lanes; a lane with the
    # wrong sign, a lost 1/2 or swapped lanes would show in the b-part or a-part
    M = _random_poly_matrix(random.Random(seed), n, nvars)
    exact = det_laplace(M)
    scale = _integerize(M)[1]
    want = {m: (int(c.rat * scale**n), int(c.irr * scale**n)) for m, c in exact.terms.items()}
    assert sum(1 for a, b in want.values() if a and b) > 10
    terms = n * monomial_table(nvars, 2).size_up_to[2]
    largest = crt_primes(0, terms)[0]
    for p in (7, 31, *split_primes_below(1 << 16, 2), largest):
        det_a, det_b, monomials = _prime_residues(M, p)
        assert set(want) <= set(monomials)
        for idx, m in enumerate(monomials):
            a, b = want.get(m, (0, 0))
            assert (int(det_a[idx]), int(det_b[idx])) == (a % p, b % p), (p, m)
        assert any(int(x) for x in det_b)


def test_det_one_prime_refuses_a_prime_not_7_mod_8():
    M = _random_poly_matrix(random.Random(24), 2, 2)
    for p in (3, 5, 11, 13, 17):
        with pytest.raises(ValueError):
            _prime_residues(M, p)


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
