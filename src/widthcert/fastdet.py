"""Multi-modular dense engine behind `exactlinalg.det_poly`.

The expansion is a memoized Laplace expansion along rows over column
subsets, with coefficients in dense arrays indexed by a graded monomial
table and reduced modulo several word-size primes
p = 7 (mod 8).  For those, r = 2^((p+1)/4) is a square root of 2 mod p, so
sqrt2 -> r and sqrt2 -> -r are two ring maps Z[sqrt2] -> F_p, and each prime
costs two plain scalar determinants x+ and x-.  The residues of a + b*sqrt2
come back as a = (x+ + x-)/2 and b = (x+ - x-)/(2r) mod p, and the exact
integer coefficients by CRT.  Exactness is unconditional, not heuristic:

* the primes are the fewest such primes whose product exceeds four times a
  certified bound on every coefficient of the determinant (the symmetric
  residue range needs twice; the bound runs the same subset recursion on the
  coefficient-norm ``sum(|a| + 2|b|)`` of each entry, which is
  submultiplicative for Z[sqrt2] polynomials);
* the reconstructed constant term is compared against an exact field
  determinant of the constant part, and the whole polynomial is compared
  against an exact field determinant at a fixed pseudo-random point of
  Q(sqrt2)^nvars (`MvPoly.evaluate` sums that side on Python ints).

Every `QSqrt2` is already three ints (a + b*sqrt2)/d, so the entries enter as
the pairs (a, b) scaled to their common denominator, and each coefficient
leaves as the triple (a, b, scale^n) reduced by one gcd.  What no prime
changes is derived once: the subsets, columns and signs of one Laplace plan
per size n, which the bound walks as well, and one shift map per monomial
table, which each level of each prime cuts to its degrees and then drops.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
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
    variables: exponent rows, packed sort keys, per-degree sizes, and one
    shift map for every Laplace level (`shift_map`)."""

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
        self._shift = np.zeros((0, len(self.keys)), dtype=np.int32)

    def _pack(self, exps: np.ndarray, totals: np.ndarray) -> np.ndarray:
        key = totals.astype(np.int64) << (_EXP_BITS * self.nvars)
        for i in range(exps.shape[1]):
            key = key | (exps[:, i].astype(np.int64) << (_EXP_BITS * i))
        return key

    def shift_map(self, nq: int) -> np.ndarray:
        """M[q, r] = index of monomial_r - monomial_q, or the table size when
        an exponent is negative, for the first nq monomials q; int32, q-major,
        kept for the largest nq asked for.  The table is graded, so
        ``np.minimum(M[:, :size_up_to[d + e]], size_up_to[d])`` is the map of
        a Laplace level from degree d to d + e (`_kernels`)."""
        if len(self._shift) < nq:
            size = len(self.keys)
            shift = np.full((nq, size), size, dtype=np.int32)
            exps = self.exps.astype(np.int16)
            for qi in range(nq):
                diff = exps - exps[qi]
                valid = np.all(diff >= 0, axis=1)
                key = self._pack(diff[valid], self.totals[valid] - self.totals[qi])
                pos = np.searchsorted(self.keys, key)
                if np.any(self.keys[pos] != key):
                    raise AssertionError("shift map lookup failed")
                shift[qi, valid] = pos
            self._shift = shift
        return self._shift[:nq]


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


@lru_cache(maxsize=None)
def monomial_table(nvars: int, maxdeg: int) -> _MonomialTable:
    return _MonomialTable(nvars, maxdeg)


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


def _split_primes_below(bound: int):
    """The primes p = 7 (mod 8) below `bound`, largest first."""
    for c in range(bound - 1 - (bound - 8) % 8, 6, -8):
        if _is_prime(c):
            yield c


def crt_primes(bound: int, terms: int) -> list[int]:
    """The fewest primes p = 7 (mod 8) (at least one) whose product
    exceeds 4 * bound, largest first, among those small enough that a sum of
    `terms` products of residues, terms * (p-1)^2, stays below 2^63 (at most
    25 bits)."""
    pmax_sq = 2**63 // terms - 1
    pbits = min(25, max(3, (pmax_sq.bit_length() - 1) // 2))
    primes, modulus = [], 1
    candidates = _split_primes_below(1 << pbits)
    while modulus <= 4 * bound or not primes:
        p = next(candidates, None)
        if p is None:
            raise ValueError("ran out of primes")
        primes.append(p)
        modulus *= p
    return primes


# ---------------------------------------------------------------------------
# entry preparation and the certified coefficient bound
# ---------------------------------------------------------------------------


def _integerize(M: PolyMatrix) -> tuple[list[list[dict]], int]:
    """Scale all entries by the lcm of their coefficients' denominators `d`,
    so coefficients become integer pairs (a, b) meaning a + b*sqrt2."""
    scale = lcm(*(c.d for row in M.rows for e in row for c in e.terms.values()))
    entries = [
        [{m: (c.a * (scale // c.d), c.b * (scale // c.d)) for m, c in e.terms.items()} for e in row]
        for row in M.rows
    ]
    return entries, scale


@lru_cache(maxsize=None)
def _laplace_plan(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
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


def coefficient_norm_bound(entries: list[list[dict]]) -> int:
    """Upper bound on |a| and |b| of every coefficient of the determinant.

    Uses the submultiplicative weight n(a + b*sqrt2) = |a| + 2|b| (valid since
    n(xy) <= n(x)n(y)) summed over terms, propagated through the same subset
    expansion that computes the determinant, with every sign taken as +1."""
    norms = np.array([[sum(abs(a) + 2 * abs(b) for a, b in e.values()) for e in row]
                      for row in entries], dtype=object)
    value = np.ones(1, dtype=object)
    for k, (src_rows, cols, _) in enumerate(_laplace_plan(len(entries))):
        value = (norms[k][cols] * value[src_rows]).sum(axis=1)
    return int(value[0])


# ---------------------------------------------------------------------------
# the modular determinant
# ---------------------------------------------------------------------------


def _setup(M: PolyMatrix):
    """What every prime shares: the arguments of `_det_one_prime` before p
    (n, table, entry degree, shift map, integer coefficient tensor), the
    primes, and the scale that made the entries integral."""
    if not M.is_square():
        raise ValueError("determinant of non-square matrix")
    n = M.nrows
    entry_deg = max(0, M.max_entry_degree())
    table = monomial_table(M.nvars, entry_deg * n)
    entries, scale = _integerize(M)
    # a level-k pass sums k*nq products per output coefficient, k <= n
    nq = table.size_up_to[entry_deg]
    primes = crt_primes(coefficient_norm_bound(entries), n * nq)
    qindex = {tuple(int(x) for x in table.exps[i]): i for i in range(nq)}
    coeff_int = np.zeros((n, n, nq, 2), dtype=object)
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            for m, pair in entry.items():
                coeff_int[i, j, qindex[m]] = pair
    return (n, table, entry_deg, table.shift_map(nq), coeff_int), primes, scale


def det_poly_modular(M: PolyMatrix) -> MvPoly:
    """Exact determinant of a square PolyMatrix via CRT over dense residue
    arrays.  See the module docstring for the soundness argument."""
    shared, primes, scale = _setup(M)
    residues = [_det_one_prime(*shared, p) for p in primes]
    det_a, det_b = _crt_reconstruct(residues, primes)

    # undo the entry scaling: det(scale*M) = scale^n det(M)
    n, table = shared[:2]
    denom = scale ** n
    terms = {}
    for idx in np.flatnonzero((det_a != 0) | (det_b != 0)).tolist():
        m = tuple(int(x) for x in table.exps[idx])
        terms[m] = QSqrt2.from_ints(det_a[idx], det_b[idx], denom)
    result = MvPoly(M.nvars, terms)
    _verify_against_field_det(M, result)
    return result


def _det_one_prime(n, table, entry_deg, shift_map, coeff_int, p) -> tuple[np.ndarray, np.ndarray]:
    """Residues mod p of the a- and b-parts of every determinant coefficient,
    from the scalar lanes a + b*r and a - b*r (see the module docstring)."""
    r = pow(2, (p + 1) // 4, p)
    if r * r % p != 2:
        raise ValueError(f"2^((p+1)/4) is not a square root of 2 mod {p}")
    cf = (coeff_int % p).astype(np.int64)
    lanes = np.stack([(cf[..., 0] + cf[..., 1] * r) % p, (cf[..., 0] - cf[..., 1] * r) % p])
    sizes = table.size_up_to

    prev = np.zeros((2, 1, sizes[0] + 1), dtype=np.int64)
    prev[:, 0, 0] = 1
    for k, (src_rows, cols, signs) in enumerate(_laplace_plan(n), start=1):
        size_k, size_prev = sizes[entry_deg * k], sizes[entry_deg * (k - 1)]
        maps = np.minimum(shift_map[:, :size_k], size_prev)
        coeff = signs[:, None] * lanes[:, k - 1][:, cols] % p
        out = np.zeros((2, len(cols), size_k + 1), dtype=np.int64)
        _kernels.level_pass(prev[0], prev[1], maps, coeff[0], coeff[1], src_rows,
                            out[0, :, :size_k], out[1, :, :size_k], p)
        prev = out
    plus, minus = prev[:, 0, :sizes[entry_deg * n]]
    return ((plus + minus) * ((p + 1) // 2) % p,
            (plus - minus) % p * pow(2 * r, -1, p) % p)


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

