"""Multi-modular dense engine behind `exactlinalg.det_poly`.

The expansion is the same memoized column-subset Laplace scheme as
`exactlinalg._det_laplace`, but coefficients live in dense arrays indexed by
a graded monomial table and are reduced modulo several word-size primes.
The exact integer coefficients are recovered by CRT.  Exactness is
unconditional, not heuristic:

* the product of the primes is required to exceed twice a certified bound on
  every coefficient of the determinant (the bound runs the same subset
  recursion on the coefficient-norm ``sum(|a| + 2|b|)`` of each entry, which
  is submultiplicative for Z[sqrt2] polynomials);
* the reconstructed constant term is compared against an exact field
  determinant of the constant part, and the whole polynomial is compared
  against an exact field determinant at a fixed pseudo-random point of
  Q(sqrt2)^nvars.  `MvPoly.evaluate` does the polynomial side of that
  comparison in exact integer arithmetic: all denominators are cleared up
  front and the sum runs over Python-int pairs (a, b) meaning a + b*sqrt2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import numpy as np

from . import _kernels
from .exactnum import QSqrt2
from .exactlinalg import PolyMatrix, QMatrix, det_field
from .mvpoly import MvPoly

_EXP_BITS = 6  # per-variable exponent field in packed keys


class _MonomialTable:
    """Graded table of all monomials of total degree <= maxdeg in nvars
    variables: exponent rows, packed sort keys, and per-degree sizes."""

    def __init__(self, nvars: int, maxdeg: int):
        if maxdeg >= (1 << _EXP_BITS):
            raise ValueError("degree too large for packed keys")
        self.nvars = nvars
        self.maxdeg = maxdeg
        exps, totals = _gen_exponents(nvars, maxdeg)
        order = np.lexsort(tuple(exps.T) + (totals,))
        self.exps = exps[order]
        self.totals = totals[order]
        self.keys = self._pack(self.exps, self.totals)
        if not np.all(np.diff(self.keys) > 0):
            raise AssertionError("monomial keys must be strictly increasing")
        self.size_up_to = [
            int(np.searchsorted(self.totals, d, side="right")) for d in range(maxdeg + 1)
        ]
        self._map_cache: dict[tuple[int, int], np.ndarray] = {}

    def _pack(self, exps: np.ndarray, totals: np.ndarray) -> np.ndarray:
        key = totals.astype(np.int64) << (_EXP_BITS * self.nvars)
        for i in range(exps.shape[1]):
            key = key | (exps[:, i].astype(np.int64) << (_EXP_BITS * i))
        return key

    def shift_maps(self, level_deg: int, prev_deg: int) -> np.ndarray:
        """maps[q, r] = dense index of monomial_r - q in the degree<=prev_deg
        block, or the pad slot (size of that block) when the difference has a
        negative exponent or too-high degree; q runs over the monomials of
        degree <= level_deg - prev_deg.  Shape (nq, size_k), int32,
        q-major so that each q-row is contiguous for the kernel's gather."""
        cache_key = (level_deg, prev_deg)
        if cache_key in self._map_cache:
            return self._map_cache[cache_key]
        size_k = self.size_up_to[level_deg]
        size_prev = self.size_up_to[prev_deg]
        nq = self.size_up_to[level_deg - prev_deg]
        qexps = self.exps[:nq]
        maps = np.full((nq, size_k), size_prev, dtype=np.int32)
        E = self.exps[:size_k].astype(np.int16)
        T = self.totals[:size_k].astype(np.int32)
        qtot = qexps.sum(axis=1).astype(np.int32)
        for qi in range(nq):
            diff = E - qexps[qi].astype(np.int16)
            valid = np.all(diff >= 0, axis=1)
            dt = T - int(qtot[qi])
            valid &= dt <= prev_deg
            if not valid.any():
                continue
            key = self._pack(diff[valid].astype(np.int8), dt[valid].astype(np.int16))
            pos = np.searchsorted(self.keys[:size_prev], key)
            if np.any(self.keys[pos] != key):
                raise AssertionError("shift map lookup failed")
            maps[qi, valid] = pos.astype(np.int32)
        self._map_cache[cache_key] = maps
        return maps


def _gen_exponents(nvars: int, maxdeg: int) -> tuple[np.ndarray, np.ndarray]:
    exps = np.zeros((1, 0), dtype=np.int8)
    totals = np.zeros(1, dtype=np.int16)
    for _ in range(nvars):
        reps = (maxdeg - totals.astype(np.int64)) + 1
        idx = np.repeat(np.arange(exps.shape[0]), reps)
        col = np.concatenate([np.arange(r, dtype=np.int8) for r in reps])
        new = np.empty((idx.shape[0], exps.shape[1] + 1), dtype=np.int8)
        new[:, :-1] = exps[idx]
        new[:, -1] = col
        exps = new
        totals = totals[idx] + col.astype(np.int16)
    return exps, totals


_TABLE_CACHE: dict[tuple[int, int], _MonomialTable] = {}


def monomial_table(nvars: int, maxdeg: int) -> _MonomialTable:
    key = (nvars, maxdeg)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = _MonomialTable(nvars, maxdeg)
    return _TABLE_CACHE[key]


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if x % q == 0:
            return x == q
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int, count: int) -> list[int]:
    out = []
    c = bound - 1 if bound % 2 == 0 else bound - 2
    while len(out) < count:
        if _is_prime(c):
            out.append(c)
        c -= 2
        if c < 3:
            raise ValueError("ran out of primes")
    return out


# ---------------------------------------------------------------------------
# entry preparation and the certified coefficient bound
# ---------------------------------------------------------------------------


def _integerize(M: PolyMatrix) -> tuple[list[list[dict]], int]:
    """Scale all entries by the global denominator LCM so coefficients become
    integer pairs (a, b) meaning a + b*sqrt2."""
    scale = 1
    for row in M.rows:
        for e in row:
            for c in e.terms.values():
                scale = lcm(scale, c.rat.denominator, c.irr.denominator)
    entries = [
        [
            {m: (int(c.rat * scale), int(c.irr * scale)) for m, c in e.terms.items()}
            for e in row
        ]
        for row in M.rows
    ]
    return entries, scale


def coefficient_norm_bound(entries: list[list[dict]]) -> int:
    """Upper bound on |a| and |b| of every coefficient of the determinant.

    Uses the submultiplicative weight n(a + b*sqrt2) = |a| + 2|b| (valid since
    n(xy) <= n(x)n(y)) summed over terms, propagated through the same subset
    expansion that computes the determinant."""
    n = len(entries)
    norms = [[sum(abs(a) + 2 * abs(b) for a, b in e.values()) for e in row] for row in entries]
    prev = {(): 1}
    for k in range(1, n + 1):
        cur = {}
        for subset in combinations(range(n), k):
            total = 0
            for pos, j in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1:]
                total += norms[k - 1][j] * prev[rest]
            cur[subset] = total
        prev = cur
    return prev[tuple(range(n))]


# ---------------------------------------------------------------------------
# the modular determinant
# ---------------------------------------------------------------------------


def det_poly_modular(M: PolyMatrix) -> MvPoly:
    """Exact determinant of a square PolyMatrix via CRT over dense residue
    arrays.  See the module docstring for the soundness argument."""
    if not M.is_square():
        raise ValueError("determinant of non-square matrix")
    n = M.nrows
    nvars = M.nvars
    entry_deg = max(0, M.max_entry_degree())
    maxdeg = entry_deg * n
    table = monomial_table(nvars, maxdeg)

    entries, scale = _integerize(M)
    bound = coefficient_norm_bound(entries)

    # overflow-free accumulation needs k*nq*3*(p-1)^2 < 2^63
    nq = table.size_up_to[entry_deg]
    pmax_sq = 2**63 // (3 * n * nq) - 1
    pbits = min(25, max(3, (pmax_sq.bit_length() - 1) // 2))
    nprimes = max(2, (2 * bound).bit_length() // (pbits - 1) + 1)
    primes = primes_below(1 << pbits, nprimes)
    while prod(primes) <= 4 * bound:
        primes = primes_below(1 << pbits, len(primes) + 1)

    qindex = {tuple(int(x) for x in table.exps[i]): i for i in range(nq)}

    # per-level shift maps (shared by all primes)
    maps_by_level = {
        k: table.shift_maps(entry_deg * k, entry_deg * (k - 1)) for k in range(1, n + 1)
    }

    coeff_int = np.zeros((n, n, nq, 2), dtype=object)
    for i in range(n):
        for j in range(n):
            for m, pair in entries[i][j].items():
                coeff_int[i, j, qindex[m]] = pair

    residues = [_det_one_prime(n, table, entry_deg, maps_by_level, coeff_int, p)
                for p in primes]
    det_a, det_b = _crt_reconstruct(residues, primes)

    # undo the entry scaling: det(scale*M) = scale^n det(M)
    denom = Fraction(scale) ** n
    terms = {}
    for idx in np.flatnonzero((det_a != 0) | (det_b != 0)).tolist():
        m = tuple(int(x) for x in table.exps[idx])
        terms[m] = QSqrt2(Fraction(det_a[idx]) / denom, Fraction(det_b[idx]) / denom)
    result = MvPoly(nvars, terms)
    _verify_against_field_det(M, result)
    return result


def _det_one_prime(n, table, entry_deg, maps_by_level, coeff_int, p) -> tuple[np.ndarray, np.ndarray]:
    nq = coeff_int.shape[2]
    cf = (coeff_int % p).astype(np.int64)

    prev_a = np.zeros((1, table.size_up_to[0] + 1), dtype=np.int64)
    prev_b = np.zeros((1, table.size_up_to[0] + 1), dtype=np.int64)
    prev_a[0, 0] = 1
    prev_subsets: list[tuple[int, ...]] = [()]
    for k in range(1, n + 1):
        size_k = table.size_up_to[entry_deg * k]
        maps = maps_by_level[k]
        subsets = list(combinations(range(n), k))
        prev_index = {s: i for i, s in enumerate(prev_subsets)}
        coeff_a = np.zeros((len(subsets), k, nq), dtype=np.int64)
        coeff_b = np.zeros((len(subsets), k, nq), dtype=np.int64)
        src_rows = np.zeros((len(subsets), k), dtype=np.int32)
        for si, subset in enumerate(subsets):
            for t, j in enumerate(subset):
                rest = subset[:t] + subset[t + 1:]
                src_rows[si, t] = prev_index[rest]
                sign = -1 if (k - 1 + t) % 2 else 1
                coeff_a[si, t] = (sign * cf[k - 1, j, :, 0]) % p
                coeff_b[si, t] = (sign * cf[k - 1, j, :, 1]) % p
        out_a = np.zeros((len(subsets), size_k + 1), dtype=np.int64)
        out_b = np.zeros((len(subsets), size_k + 1), dtype=np.int64)
        _kernels.level_pass(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows,
                            out_a[:, :size_k], out_b[:, :size_k], p)
        prev_a, prev_b = out_a, out_b
        prev_subsets = subsets
    final_size = table.size_up_to[entry_deg * n]
    return prev_a[0, :final_size].copy(), prev_b[0, :final_size].copy()


def _crt_reconstruct(residues, primes) -> tuple[np.ndarray, np.ndarray]:
    """The integers in (-modulus/2, modulus/2] with the given residue pairs,
    as object arrays of Python ints (a-parts, b-parts)."""
    modulus = prod(primes)
    multipliers = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    halves = []
    for part in (0, 1):
        acc = sum(res[part].astype(object) * mult
                  for res, mult in zip(residues, multipliers)) % modulus
        halves.append(np.where(acc > modulus // 2, acc - modulus, acc))
    return halves[0], halves[1]


def _verify_against_field_det(M: PolyMatrix, result: MvPoly):
    # constant term against the exact determinant of the constant part
    const_matrix = QMatrix([[e.constant_term() for e in row] for row in M.rows])
    if result.constant_term() != det_field(const_matrix):
        raise AssertionError("modular determinant failed the constant-term check")
    # full-polynomial spot check at a deterministic pseudo-random point
    rng = random.Random(0x5EED ^ M.nrows ^ M.nvars)
    point = [QSqrt2(Fraction(rng.randint(-7, 7), rng.randint(1, 5)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
             for _ in range(M.nvars)]
    if result.evaluate(point) != det_field(M.evaluate(point)):
        raise AssertionError("modular determinant failed the evaluation check")

