"""The modular determinant engine must agree with the direct term-level
expansion everywhere, its residues must agree with the Laplace subset
kernel kept here as the oracle, that kernel must agree with a plain-Python
reference, the certified bound must be the permanent that the Laplace plan
computes, the degree caps that cut the grid must be the maxima over all
permutations, and the evaluation check must catch a wrong coefficient or a
cap set too low."""

import random
from fractions import Fraction as Fr
from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import comb, isqrt, lcm, prod

import numpy as np
import pytest

from widthcert import _kernels, fastdet
from widthcert.exactnum import QSqrt2
from widthcert.exactlinalg import PolyMatrix
from widthcert.fastdet import (
    _OFFSET,
    _MonomialTable,
    _crt_reconstruct,
    _det_one_prime,
    _entry_table,
    _integerize,
    _is_prime,
    _live_slots,
    _prime_limit,
    _setup,
    _split_primes_below,
    _verify_against_field_det,
    coefficient_norm_bound,
    crt_primes,
    degree_caps,
    det_poly_modular,
    monomial_table,
)
from widthcert.mvpoly import MvPoly

from test_exactlinalg import det_laplace
from test_mvpoly import _random_scalar


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


@pytest.mark.parametrize("nvars,maxdeg", [(1, 4), (2, 5), (3, 6), (4, 4), (5, 3)])
def test_monomial_table_rows_are_the_cut_simplex(nvars, maxdeg):
    # graded, then by the last exponent, ..., then the first: the order of
    # the packed keys
    rng = random.Random(10 * nvars + maxdeg)
    simplex = [m for m in product(range(maxdeg + 1), repeat=nvars) if sum(m) <= maxdeg]
    subsets = [(i,) for i in range(nvars)] + list(combinations(range(nvars), 2))
    for trial in range(6):
        caps = () if trial == 0 else tuple(
            (S, rng.randint(0, maxdeg)) for S in subsets if rng.random() < 0.4)
        want = sorted((m for m in simplex if all(sum(m[i] for i in S) <= c for S, c in caps)),
                      key=lambda m: (sum(m), m[::-1]))
        table = _MonomialTable(nvars, maxdeg, caps)
        assert [tuple(m) for m in table.exps.tolist()] == want
        assert table.totals.tolist() == [sum(m) for m in want]
        assert table.size_up_to == [sum(sum(m) <= d for m in want) for d in range(maxdeg + 1)]


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


def _assert_fewest_primes(primes, bound, below):
    # the primes are the largest split primes below the limit, so no fewer
    # primes below it can clear 4*bound
    assert primes == split_primes_below(below, len(primes))
    assert all(p % 8 == 7 and p < below for p in primes)
    assert prod(primes) > 4 * bound
    assert len(primes) == 1 or prod(primes[:-1]) <= 4 * bound


@pytest.mark.parametrize("bound", [0, 1, 2**23, 2**24, 2**49, 2**144, 3**200],
                         ids=lambda b: f"{b.bit_length()}-bits")
def test_crt_primes_are_the_fewest(bound):
    for below in (1 << 31, 1 << 25, 10**6):
        _assert_fewest_primes(crt_primes(bound, below), bound, below)
    with pytest.raises(ValueError):
        crt_primes(max(bound, 7**4), 8)


@pytest.mark.parametrize("keep_vars,bits,count", [(8, 144, 5), (6, 137, 5)])
def test_hessian_determinant_uses_the_fewest_primes(keep_vars, bits, count):
    # condition (iv) at c = 39/4 and its 6-variable section; only the bound is
    # computed, no determinant
    from widthcert import deltacert as dc

    matrix = dc.hessian_matrix_s(Fr(39, 4)).map_entries(
        lambda p: MvPoly(keep_vars, {m[:keep_vars]: c for m, c in p.terms.items()
                                     if not any(m[keep_vars:])}))
    bound = coefficient_norm_bound(_integerize(matrix)[0])
    assert bound.bit_length() == bits
    below = _prime_limit(monomial_table(keep_vars, 16), monomial_table(keep_vars, 2).size_up_to[2],
                         _OFFSET)
    assert below == 1 << 31
    primes = _setup(matrix)[1]
    assert len(primes) == count
    _assert_fewest_primes(primes, bound, below)


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


@lru_cache(maxsize=None)
def _laplace_plan(n):
    """Laplace expansion of an n x n determinant along rows 0 .. n-1: for
    each level k = 1 .. n, (src_rows, cols, signs) such that every k-subset
    S of the columns (the s-th in `combinations` order) has

        value(S) = sum over t of signs[t] * entry[k-1][S[t]] * value(S - S[t])

    with cols[s, t] = S[t], src_rows[s, t] the place of S - S[t] among the
    (k-1)-subsets and signs[t] = (-1)^(k-1+t).  The empty subset has value
    1; the one n-subset has the determinant."""
    levels = []
    prev_index = {(): 0}
    for k in range(1, n + 1):
        subsets = list(combinations(range(n), k))
        src_rows = [[prev_index[s[:t] + s[t + 1:]] for t in range(k)] for s in subsets]
        levels.append((np.array(src_rows, dtype=np.int32), np.array(subsets, dtype=np.intp),
                       np.array([(-1) ** (k - 1 + t) for t in range(k)], dtype=np.int64)))
        prev_index = {s: i for i, s in enumerate(subsets)}
    return tuple(levels)


def laplace_permanent(norms):
    """The permanent of a square matrix of Python ints, by the Laplace plan
    with every sign taken as +1: the oracle of `coefficient_norm_bound`."""
    norms = np.array(norms, dtype=object)
    value = np.ones(1, dtype=object)
    for k, (src_rows, cols, _) in enumerate(_laplace_plan(len(norms))):
        value = (norms[k][cols] * value[src_rows]).sum(axis=1)
    return int(value[0])


def _random_entries(rng, n):
    """Integer coefficient dicts {monomial: (a, b)} with empty entries and,
    now and then, a whole row of them."""
    zero_row = rng.randrange(n) if rng.random() < 0.3 else None
    return [[{} if i == zero_row or rng.random() < 0.25 else
             {(t,): (rng.randint(-9, 9), rng.randint(-9, 9)) for t in range(rng.randint(1, 3))}
             for _ in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_norm_bound_is_the_laplace_permanent(n):
    rng = random.Random(70 + n)
    for _ in range(20):
        entries = _random_entries(rng, n)
        norms = [[sum(abs(a) + 2 * abs(b) for a, b in e.values()) for e in row]
                 for row in entries]
        assert coefficient_norm_bound(entries) == laplace_permanent(norms)
    # all ones: the permanent is n!
    ones = [[{(0,): (1, 0)}] * n for _ in range(n)]
    assert coefficient_norm_bound(ones) == prod(range(1, n + 1))


def shift_map(table, nq):
    """M[q, r] = index of monomial_r - monomial_q, or the table size when an
    exponent is negative, for the first nq monomials q; int32, q-major.  The
    table is graded, so ``np.minimum(M[:, :size_up_to[d + e]], size_up_to[d])``
    is the map of a Laplace level from degree d to d + e."""
    size = len(table.keys)
    shift = np.full((nq, size), size, dtype=np.int32)
    exps = table.exps.astype(np.int16)
    for qi in range(nq):
        diff = exps - exps[qi]
        valid = np.all(diff >= 0, axis=1)
        key = table._pack(diff[valid], table.totals[valid] - table.totals[qi])
        pos = np.searchsorted(table.keys, key)
        assert np.array_equal(table.keys[pos], key)
        shift[qi, valid] = pos
    return shift


def laplace_residues(n, table, entry_deg, shift, coeff_int, p):
    """Residues mod p of the a- and b-parts of every determinant coefficient
    by the memoized Laplace expansion over column subsets, one
    `_kernels.level_pass` per level and lane pair: the oracle of
    `_det_one_prime`, with the same lanes a + b*r and a - b*r."""
    r = pow(2, (p + 1) // 4, p)
    assert r * r % p == 2
    cf = (coeff_int % p).astype(np.int64)
    lanes = np.stack([(cf[..., 0] + cf[..., 1] * r) % p, (cf[..., 0] - cf[..., 1] * r) % p])
    sizes = table.size_up_to
    prev = np.zeros((2, 1, sizes[0] + 1), dtype=np.int64)
    prev[:, 0, 0] = 1
    for k, (src_rows, cols, signs) in enumerate(_laplace_plan(n), start=1):
        size_k, size_prev = sizes[entry_deg * k], sizes[entry_deg * (k - 1)]
        maps = np.minimum(shift[:, :size_k], size_prev)
        coeff = signs[:, None] * lanes[:, k - 1][:, cols] % p
        out = np.zeros((2, len(cols), size_k + 1), dtype=np.int64)
        _kernels.level_pass(prev[0], prev[1], maps, coeff[0], coeff[1], src_rows,
                            out[0, :, :size_k], out[1, :, :size_k], p)
        prev = out
    plus, minus = prev[:, 0, :sizes[entry_deg * n]]
    return ((plus + minus) * ((p + 1) // 2) % p,
            (plus - minus) % p * pow(2 * r, -1, p) % p)


def assert_residues_match_the_oracle(shared, got, p):
    """`_det_one_prime`'s residues `got` on the grid table of `shared`
    against the Laplace oracle on the whole simplex of the same degree, by
    exponent row: equal on every grid row and 0 on every row the caps
    dropped.  The oracle runs on the whole simplex, independent of the
    caps, so that it shows the dropped coefficients are 0; returns how many
    rows were dropped."""
    n, table, _, _, coeff_int = shared
    nq = coeff_int.shape[2]
    full = monomial_table(table.nvars, table.maxdeg)
    want = laplace_residues(n, full, _entry_table(table.nvars, nq).maxdeg, shift_map(full, nq),
                            coeff_int, p)
    rows = np.searchsorted(full.keys, table.keys)
    assert np.array_equal(full.keys[rows], table.keys)
    dropped = np.ones(len(full.keys), dtype=bool)
    dropped[rows] = False
    for g, w in zip(got, want):
        assert np.array_equal(g, w[rows]), p
        assert not w[dropped].any(), p
    return int(np.count_nonzero(dropped))


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
    # the maps the Laplace oracle hands the kernel, level by level, with the
    # kernel itself stubbed out; a map for the largest entry degree serves
    # smaller ones from its first rows
    table = _MonomialTable(nvars, maxdeg)
    shift = shift_map(table, table.size_up_to[max(entry_degs)])
    for entry_deg in entry_degs:
        seen = []
        monkeypatch.setattr(_kernels, "level_pass", lambda *args: seen.append(args[2].copy()))
        n = maxdeg // entry_deg
        nq = table.size_up_to[entry_deg]
        coeff_int = np.zeros((n, n, nq, 2), dtype=object)
        laplace_residues(n, table, entry_deg, shift[:nq], coeff_int, 7)
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
    # the smallest split prime above the degree 2n that the grid interpolates
    smallest = next(q for q in (7, 23) if q > 2 * n)
    largest = _setup(M)[1][0]
    assert largest == (1 << 31) - 1
    for p in (smallest, 31, *split_primes_below(1 << 16, 2), largest):
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


def test_det_one_prime_refuses_a_prime_not_above_the_degree():
    # degree 8: the nine grid nodes 1 .. 9 of a variable collide mod 7
    M = _random_poly_matrix(random.Random(25), 4, 2)
    with pytest.raises(ValueError):
        _prime_residues(M, 7)
    _prime_residues(M, 23)


def test_det_one_prime_guard_rejects_a_prime_past_the_float_limit():
    # entries of degree 6 on a degree-12 grid: monomial values up to 13^6, so
    # the exact float64 evaluation admits only primes far below 2^31
    rng = random.Random(26)
    M = _random_poly_matrix(rng, 2, 2, max_degree=6)
    shared, primes, _ = _setup(M)
    limit = _prime_limit(shared[1], shared[4].shape[2], _OFFSET)
    assert limit < 1 << 27
    assert primes == split_primes_below(limit, len(primes))
    with pytest.raises(OverflowError):
        _det_one_prime(*shared, next(_split_primes_below(1 << 31)))
    _det_one_prime(*shared, primes[0])
    assert det_poly_modular(M) == det_laplace(M)


def _symmetric(M):
    return PolyMatrix([[M.rows[min(i, j)][max(i, j)] for j in range(M.ncols)]
                       for i in range(M.nrows)])


@pytest.mark.parametrize("seed,n,nvars,symmetric", [
    (31, 4, 4, False), (32, 4, 4, True),
    (33, 3, 6, False), (34, 3, 6, True),
    (35, 2, 8, False), (36, 3, 8, True),
    # no elimination step at all (a 1 x 1 matrix is symmetric)
    (37, 1, 3, True),
    # step-wide tails that carry already-eliminated columns
    (38, 5, 2, False), (39, 6, 2, False),
])
def test_residues_match_the_laplace_oracle(seed, n, nvars, symmetric):
    M = _random_poly_matrix(random.Random(seed), n, nvars)
    if symmetric:
        M = _symmetric(M)
    shared = _setup(M)[0]
    assert shared[2] == symmetric
    # primes within the oracle kernel's overflow guard
    for p in (split_primes_below(1 << 25, 1)[0], split_primes_below(1 << 20, 1)[0]):
        assert_residues_match_the_oracle(shared, _det_one_prime(*shared, p), p)


def test_section_residues_match_the_laplace_oracle():
    # the 6-variable section of condition (iv)'s matrix, the benchmark's size
    from widthcert import deltacert as dc

    matrix = dc.hessian_matrix_s(Fr(39, 4)).map_entries(
        lambda p: MvPoly(6, {m[:6]: c for m, c in p.terms.items() if not any(m[6:])}))
    shared = _setup(matrix)[0]
    n, table, symmetric, _, coeff_int = shared
    assert symmetric and table.maxdeg == 16
    p = split_primes_below(1 << 25, 1)[0]
    # the caps drop 74,613 - 62,597 rows of the simplex
    assert assert_residues_match_the_oracle(shared, _det_one_prime(*shared, p), p) == 12016


def _permutation_caps(support, exps):
    """Per single variable and pair S, the largest degree in S over the
    permutations whose entries are all nonzero, or None when there is no
    such permutation: the Leibniz bound of `degree_caps` by brute force."""
    n, nvars = support.shape[0], exps.shape[1]
    subsets = [(i,) for i in range(nvars)] + list(combinations(range(nvars), 2))
    deg = {S: [[max((sum(int(exps[q, i]) for i in S) for q in np.flatnonzero(support[r, c])),
                    default=None) for c in range(n)] for r in range(n)] for S in subsets}
    caps = dict.fromkeys(subsets)
    for perm in permutations(range(n)):
        for S in subsets:
            degs = [deg[S][r][perm[r]] for r in range(n)]
            if None not in degs and (caps[S] is None or sum(degs) > caps[S]):
                caps[S] = sum(degs)
    return caps


def _cut_simplex(nvars, maxdeg, caps):
    """The exponent rows of the simplex that keep every cap, as tuples."""
    rows = monomial_table(nvars, maxdeg).exps.tolist()
    return {tuple(m) for m in rows if all(sum(m[i] for i in S) <= c for S, c in caps.items())}


@pytest.mark.parametrize("n", range(1, 7))
def test_degree_caps_are_the_permutation_maxima(n):
    rng = random.Random(90 + n)
    for trial in range(12):
        nvars, e = rng.randint(2, 4), rng.randint(1, 3)
        exps = monomial_table(nvars, e).exps
        density = rng.choice((0.1, 0.3, 0.6))
        support = np.array([[[rng.random() < density for _ in exps] for _ in range(n)]
                            for _ in range(n)])
        # zero entries, now and then a whole zero row
        support[np.array([[rng.random() < 0.3 for _ in range(n)] for _ in range(n)])] = False
        if trial == 0:
            support[rng.randrange(n)] = False
        maxdeg = n * e
        want = _permutation_caps(support, exps)
        got = dict(degree_caps(support, exps, maxdeg))
        if want[(0,)] is None:
            # no permutation avoids a zero entry: the determinant is 0
            assert all(c is None for c in want.values())
            assert got == {(i,): 0 for i in range(nvars)}
            continue
        single = [min(want[(i,)], maxdeg) for i in range(nvars)]
        for S, cap in want.items():
            cut = maxdeg if len(S) == 1 else min(maxdeg, single[S[0]] + single[S[1]])
            assert got.get(S) == (cap if cap < cut else None), (S, cap)
        assert _cut_simplex(nvars, maxdeg, got) == _cut_simplex(nvars, maxdeg, want)


def _capped_poly_matrix(rng, n, nvars, symmetric):
    """A random matrix of degree-2 entries whose caps bind: variables 0 and
    1 only in row 0 and column 0, so each has degree <= 4 and so has their
    sum, and variable 2 of degree <= 1 in every entry."""
    M = _random_poly_matrix(rng, n, nvars)
    if symmetric:
        M = _symmetric(M)

    def keep(i, j, m):
        return (i == 0 or j == 0 or not (m[0] or m[1])) and (nvars < 3 or m[2] <= 1)

    return PolyMatrix([[MvPoly(nvars, {m: c for m, c in e.terms.items() if keep(i, j, m)})
                        for j, e in enumerate(row)] for i, row in enumerate(M.rows)])


@pytest.mark.parametrize("n,symmetric", [(n, s) for n in range(3, 7) for s in (False, True)])
def test_capped_residues_match_the_laplace_oracle(n, symmetric):
    M = _capped_poly_matrix(random.Random(60 + 2 * n + symmetric), n, 3, symmetric)
    shared = _setup(M)[0]
    table = shared[1]
    assert shared[2] == symmetric
    caps = dict(table.caps)
    assert max(caps[(0,)], caps[(1,)], caps[(0, 1)]) <= 4 and caps[(2,)] <= n
    for p in (split_primes_below(1 << 25, 1)[0], 31):
        assert assert_residues_match_the_oracle(shared, _det_one_prime(*shared, p), p) > 0
    det = det_poly_modular(M)
    assert det == det_laplace(M)
    # the determinant reaches every cap, so none could be lower
    for S, cap in caps.items():
        assert max(sum(m[i] for i in S) for m in det.terms) == cap


def test_a_cap_below_the_truth_fails_the_evaluation_check(monkeypatch):
    M = _capped_poly_matrix(random.Random(70), 4, 3, False)
    det = det_poly_modular(M)
    assert det == det_laplace(M)
    true_caps = dict(_setup(M)[0][1].caps)
    for S in ((0,), (2,), (0, 1)):
        # the determinant reaches the cap, so a grid cut one below drops a
        # live coefficient
        assert max(sum(m[i] for i in S) for m in det.terms) == true_caps[S]
        monkeypatch.setattr(fastdet, "degree_caps", lambda *args, S=S: tuple(
            (T, c - (T == S)) for T, c in degree_caps(*args)))
        assert dict(_setup(M)[0][1].caps)[S] == true_caps[S] - 1
        with pytest.raises(AssertionError, match="evaluation check"):
            det_poly_modular(M)


def test_entry_monomials_outlive_a_cap_below_the_entry_degree():
    # det [[s^2 + 1, 1], [1, 0]] = -1: the cap on s is 0, below the entry
    # degree 2, so the grid is the single point a; the entry monomial s^2
    # is still indexed, from the uncapped degree-2 table
    s = MvPoly.variable(0, 2)
    one = MvPoly.constant(1, 2)
    M = PolyMatrix([[s * s + one, one], [one, MvPoly.zero(2)]])
    _, table, _, _, coeff_int = _setup(M)[0]
    assert dict(table.caps) == {(0,): 0, (1,): 0} and len(table.keys) == 1
    assert coeff_int.shape[2] == monomial_table(2, 2).size_up_to[2] == 6
    assert det_poly_modular(M) == MvPoly.constant(-1, 2)


@pytest.mark.parametrize("keep_vars,simplex,grid", [(4, 4845, 3825), (6, 74613, 62597),
                                                     (8, 735471, 656685)])
def test_hessian_grids_are_cut_by_the_caps(keep_vars, simplex, grid):
    # condition (iv) at c = 39/4 and its sections; only the set-up runs
    from widthcert import deltacert as dc

    matrix = dc.hessian_matrix_s(Fr(39, 4)).map_entries(
        lambda p: MvPoly(keep_vars, {m[:keep_vars]: c for m, c in p.terms.items()
                                     if not any(m[keep_vars:])}))
    table = _setup(matrix)[0][1]
    assert table.maxdeg == 16 and table.caps
    assert comb(keep_vars + 16, 16) == simplex
    assert len(table.keys) == grid


@pytest.mark.parametrize("symmetric", [False, True])
def test_zero_pivots_take_the_scalar_path(monkeypatch, symmetric):
    # entry (0, 0) = s_0 - 1 vanishes at every grid point 1 + alpha with
    # alpha_0 = 0, so the first pivot is 0 there in both lanes, and with
    # n = 3 the division-free formula divides by it; each such point gets one
    # exact determinant, and offset 2 moves the zeros off the grid
    M = _random_poly_matrix(random.Random(40 + symmetric), 3, 2)
    rows = [list(row) for row in M.rows]
    rows[0][0] = MvPoly.variable(0, 2) - MvPoly.constant(1, 2)
    M = PolyMatrix(rows)
    if symmetric:
        M = _symmetric(M)
    calls = []
    det_field = fastdet.det_field
    monkeypatch.setattr(fastdet, "det_field",
                        lambda matrix: calls.append(matrix) or det_field(matrix))
    shared = _setup(M)[0]
    n, table, sym, offset, coeff_int = shared
    assert offset == 1 and sym == symmetric
    p = split_primes_below(1 << 25, 1)[0]
    got = _det_one_prime(n, table, sym, offset, coeff_int, p)
    face = int(np.count_nonzero(table.exps[:, 0] == 0))
    assert len(calls) == face
    assert all(matrix.rows[0][0] == 0 for matrix in calls)
    assert all(x.d == 1 for matrix in calls for row in matrix.rows for x in row)
    assert_residues_match_the_oracle(shared, got, p)
    calls.clear()
    shifted = _det_one_prime(n, table, sym, offset + 1, coeff_int, p)
    assert calls == []
    assert all(np.array_equal(g, w) for g, w in zip(shifted, got))
    assert det_poly_modular(M) == det_laplace(M)


@pytest.mark.parametrize("symmetric", [False, True])
def test_a_later_zero_pivot_takes_the_scalar_path(monkeypatch, symmetric):
    # row 0 and column 0 are zero off the diagonal, so step 0 only scales
    # the trailing block by pivot_0 and the step-1 pivot is
    # pivot_0 * (s_0 - 1): 0 on the face alpha_0 = 0, and the n = 4 divisor
    # pivot_0^2 * pivot_1 holds it to the power 1
    M = _random_poly_matrix(random.Random(45 + symmetric), 4, 2)
    rows = [list(row) for row in M.rows]
    for j in range(1, 4):
        rows[0][j] = rows[j][0] = MvPoly.zero(2)
    rows[1][1] = MvPoly.variable(0, 2) - MvPoly.constant(1, 2)
    M = PolyMatrix(rows)
    if symmetric:
        M = _symmetric(M)
    calls = []
    det_field = fastdet.det_field
    monkeypatch.setattr(fastdet, "det_field",
                        lambda matrix: calls.append(matrix) or det_field(matrix))
    shared = _setup(M)[0]
    n, table, sym, offset, coeff_int = shared
    assert offset == 1 and sym == symmetric
    p = split_primes_below(1 << 25, 1)[0]
    got = _det_one_prime(n, table, sym, offset, coeff_int, p)
    face = int(np.count_nonzero(table.exps[:, 0] == 0))
    assert len(calls) == face
    assert all(matrix.rows[1][1] == 0 and matrix.rows[0][0] != 0 for matrix in calls)
    assert_residues_match_the_oracle(shared, got, p)
    calls.clear()
    shifted = _det_one_prime(n, table, sym, offset + 1, coeff_int, p)
    assert calls == []
    assert all(np.array_equal(g, w) for g, w in zip(shifted, got))


@pytest.mark.parametrize("n,symmetric", [(n, s) for n in range(1, 7) for s in (False, True)])
def test_elimination_plan_updates_one_contiguous_tail(n, symmetric):
    slots, steps = fastdet._elimination_plan(n, symmetric)
    assert len(steps) == n - 1
    for k, (pivot, start, factor, source) in enumerate(steps):
        assert slots[pivot] == (k, k) and slots[start] == (k + 1, k + 1)
        tail = slots[start:]
        assert len(factor) == len(source) == len(tail)
        assert all(i > k for i, _ in tail)
        if symmetric:
            assert sorted(tail) == [(i, j) for i in range(k + 1, n) for j in range(i, n)]
        else:
            # the live block; the rest of the tail are columns j <= k
            assert {(i, j) for i, j in tail if j > k} == {
                (i, j) for i in range(k + 1, n) for j in range(k + 1, n)}
        for (i, j), f, s in zip(tail, factor.tolist(), source.tolist()):
            assert slots[f] == ((k, i) if symmetric else (i, k))
            assert slots[s] == (k, j)


def _crt_arrays(M):
    """What `det_poly_modular` checks before its term build: the table, the
    live slots, the CRT a- and b-parts and their denominator."""
    shared, primes, scale = _setup(M)
    residues = [_det_one_prime(*shared, p) for p in primes]
    live = _live_slots(residues)
    det_a, det_b = _crt_reconstruct([(a[live], b[live]) for a, b in residues], primes)
    return shared[1], live, det_a, det_b, scale ** M.nrows


def test_verify_catches_a_single_tampered_coefficient():
    # a change of +-1 to the a- or the b-part of any one live coefficient of
    # the CRT arrays fails the evaluation check
    rng = random.Random(12)
    M = _random_poly_matrix(rng, 3, 2)
    table, live, det_a, det_b, denominator = _crt_arrays(M)
    _verify_against_field_det(M, table, live, det_a, det_b, denominator)
    assert len(live) > 20
    for k in range(len(live)):
        for part in (0, 1):
            for delta in (1, -1):
                tampered = [det_a.copy(), det_b.copy()]
                tampered[part][k] += delta
                with pytest.raises(AssertionError, match="evaluation check"):
                    _verify_against_field_det(M, table, live, *tampered, denominator)


def _as_arrays(f, maxdeg):
    """f as `_evaluate` reads it: live rows of the (nvars, maxdeg) table and
    integer coefficient pairs over one denominator."""
    table = monomial_table(f.nvars, maxdeg)
    row = {tuple(int(e) for e in exps): i for i, exps in enumerate(table.exps)}
    den = lcm(*(c.d for c in f.terms.values()))
    items = sorted((row[m], c) for m, c in f.terms.items())
    live = np.array([i for i, _ in items], dtype=np.intp)
    det_a = np.array([c.a * (den // c.d) for _, c in items], dtype=object)
    det_b = np.array([c.b * (den // c.d) for _, c in items], dtype=object)
    return table, live, det_a, det_b, den


def test_array_evaluation_matches_mvpoly_evaluate():
    rng = random.Random(31)
    polys = [MvPoly.zero(3), MvPoly.constant(QSqrt2(Fr(-2, 3), Fr(5, 7)), 3),
             MvPoly.variable(1, 3, QSqrt2(Fr(1, 2), -1)), MvPoly.variable(0, 1)]
    for _ in range(30):
        nvars = rng.randint(1, 4)
        table = monomial_table(nvars, 5)
        rows = rng.sample(range(len(table.keys)), rng.randint(1, min(25, len(table.keys))))
        polys.append(MvPoly(nvars, {tuple(int(e) for e in table.exps[r]): _random_scalar(rng)
                                    for r in rows}))
    for f in polys:
        for maxdeg in (max(f.degree(), 0), 7):
            arrays = _as_arrays(f, maxdeg)
            for _ in range(3):
                point = [_random_scalar(rng) for _ in range(f.nvars)]
                point[rng.randrange(f.nvars)] = rng.choice((QSqrt2(0), QSqrt2(0, Fr(1, 3)), point[0]))
                assert fastdet._evaluate(*arrays, point) == f.evaluate(point)


def crt_by_object_arrays(residues, primes):
    """Reference CRT: one object-array sum of residue times CRT multiplier
    per part, reduced into (-modulus/2, modulus/2]."""
    modulus = prod(primes)
    multipliers = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    halves = []
    for part in (0, 1):
        acc = sum(res[part].astype(object) * mult
                  for res, mult in zip(residues, multipliers)) % modulus
        halves.append(np.where(acc > modulus // 2, acc - modulus, acc))
    return halves[0], halves[1]


def _crt_live(residues, primes):
    """`_crt_reconstruct` on the live slots, as `det_poly_modular` calls it,
    against the reference restricted to the same slots."""
    live = _live_slots(residues)
    got = _crt_reconstruct([(a[live], b[live]) for a, b in residues], primes)
    want = crt_by_object_arrays(residues, primes)
    assert [g.tolist() for g in got] == [w[live].tolist() for w in want]
    return live, got


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6])
def test_crt_reconstruct_matches_the_object_array_formula(count):
    rng = random.Random(40 + count)
    primes = split_primes_below(1 << 31, count)
    modulus = prod(primes)
    top = modulus // 2
    # the ends of the symmetric range, their neighbours, zero on either part
    # or both, and random values
    a_values = [top, -top, top - 1, 1 - top, 0, 0, 1, -1, 0, top]
    b_values = [-top, top, 0, 0, 0, 5, 0, 0, -top, top]
    a_values += [rng.randint(-top, top) for _ in range(40)] + [0] * 10
    b_values += [rng.randint(-top, top) for _ in range(40)] + [0] * 10
    residues = [(np.array([v % p for v in a_values], dtype=np.int64),
                 np.array([v % p for v in b_values], dtype=np.int64)) for p in primes]
    live, (det_a, det_b) = _crt_live(residues, primes)
    assert live.tolist() == [i for i, ab in enumerate(zip(a_values, b_values)) if any(ab)]
    assert det_a.tolist() == [a_values[i] for i in live]
    assert det_b.tolist() == [b_values[i] for i in live]
    assert all(type(v) is int for v in det_a.tolist() + det_b.tolist())
    # random residues, and every residue at p - 1
    for lanes in ([[rng.randrange(p) for _ in range(60)] for p in primes],
                  [[p - 1] * 3 for p in primes]):
        _crt_live([(np.array(lane, dtype=np.int64), np.array(lane[::-1], dtype=np.int64))
                   for lane in lanes], primes)
    # no live slot: nothing to reconstruct
    zeros = [(np.zeros(7, dtype=np.int64), np.zeros(7, dtype=np.int64)) for _ in primes]
    live, got = _crt_live(zeros, primes)
    assert len(live) == 0 and [g.shape for g in got] == [(0,), (0,)]


def test_crt_reconstruct_refuses_a_prime_past_2_31():
    residues = [(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))] * 2
    with pytest.raises(OverflowError):
        _crt_reconstruct(residues, [2147483647, 2147483659])


def test_determinant_term_map_is_clean():
    rng = random.Random(8)
    for n, nvars in ((3, 2), (4, 3)):
        det = det_poly_modular(_random_poly_matrix(rng, n, nvars, density=0.4))
        assert all(type(m) is tuple and len(m) == nvars and all(type(e) is int for e in m)
                   for m in det.terms)
        assert all(type(c) is QSqrt2 and c for c in det.terms.values())
        assert MvPoly(nvars, dict(det.terms)) == det


def test_constant_matrix_determinant():
    M = PolyMatrix([[MvPoly.constant(QSqrt2(2, 1), 2), MvPoly.constant(1, 2)],
                    [MvPoly.constant(1, 2), MvPoly.constant(QSqrt2(2, -1), 2)]])
    det = det_poly_modular(M)
    # (2+s)(2-s) - 1 = 4 - 2 - 1 = 1
    assert det == MvPoly.constant(1, 2)
