"""Multi-modular evaluation and interpolation engine behind
`exactlinalg.det_poly`.

An n x n matrix whose entries have degree <= e in v variables has a
determinant of total degree <= D = n*e, so modulo a prime p > D the
determinant is fixed by its values on the shifted simplex grid
a + {alpha in N^v : |alpha| <= D}.  The engine evaluates the entries on that
grid, eliminates at every point and interpolates, modulo several word-size
primes p = 7 (mod 8).  For those, r = 2^((p+1)/4) is a square root of 2
mod p, so sqrt2 -> r and sqrt2 -> -r are two ring maps Z[sqrt2] -> F_p, and
each prime costs two plain scalar lanes x+ and x-.  The residues of
a + b*sqrt2 come back as a = (x+ + x-)/2 and b = (x+ - x-)/(2r) mod p, and the
exact integer coefficients by CRT.

Per prime, both lanes at once, in three steps (`_det_one_prime`):

* Evaluation.  For a block of grid points, the entries' residues times the
  values of their monomials are one float64 matrix product.  The monomial
  values are integers of size at most max(1, |a|, |a + D|)^e, so each of the
  nq products is an integer below (p-1) times that, and the sum is exact
  while nq * (p-1) * max|monomial| < 2^53 (`_prime_limit`; `_setup` takes
  primes below it, `_det_one_prime` refuses any other before any work).
* Elimination.  Step k of a division-free Schur elimination replaces the
  trailing block T by pivot_k * T - column * row, which multiplies its
  determinant by pivot_k^(m-1) for a block of size m.  So the determinant is
  the last entry over the divisor prod_k pivot_k^(n-2-k).  All divisors of
  one prime are inverted together, by one Fermat inverse of their product
  and a product tree.  A symmetric matrix updates its upper triangle only.
  Every residue is below p < 2^31, so every product stays below 2^62 and is
  reduced at once.  At a point where that divisor is 0 mod p, a zero pivot
  raised to a positive power, the determinant is the exact `det_field` of
  the entries there over Z[sqrt2]; the formula never hides a zero pivot it
  does not divide by.  These array kernels live in `_kernels`.
* Interpolation.  Forward differences along each variable in turn, divided
  by alpha! at the end, give the coefficients in the Newton basis
  prod_i (s_i - a)(s_i - a - 1)...(s_i - a - alpha_i + 1); a Newton-to-monomial
  pass per variable with the nodes a + j then gives the coefficients in s.
  This needs p > D, so that the nodes stay distinct mod p.  Grid point
  a + alpha is row alpha of the graded monomial table, so the result comes
  out indexed like the monomials.

The offset a is 1 in every variable.  Any offset gives the same residues;
it only decides how many points take the exact path.  For condition (iv),
a = 0 gives 94 grid points a zero divisor in both lanes and a = (1, ..., 1)
none, on the primes tried; (1, ..., 1) is also fixed by the pair shift.
Blocks of 512 points keep the arrays of one block near 1 MB.

Exactness is unconditional, not heuristic:

* the primes are the fewest such primes whose product exceeds four times a
  certified bound on every coefficient of the determinant (the symmetric
  residue range needs twice; the bound is the permanent of the
  coefficient-norms ``sum(|a| + 2|b|)`` of the entries, which are
  submultiplicative for Z[sqrt2] polynomials, by a recursion over column
  subsets);
* the reconstructed constant term is compared against an exact field
  determinant of the constant part, and the whole polynomial is compared
  against an exact field determinant at a fixed pseudo-random point of
  Q(sqrt2)^nvars (`MvPoly.evaluate` sums that side on Python ints).

Every `QSqrt2` is already three ints (a + b*sqrt2)/d, so the entries enter as
the pairs (a, b) scaled to their common denominator.  After the primes, in
bulk (`det_poly_modular`):

* CRT (`_crt_reconstruct`) on the live slots only, where some residue is
  nonzero: exactly the nonzero coefficients.  Their Garner mixed-radix
  digits are int64 arrays, two digits pack into one limb below 2^62, and
  the limbs combine into Python ints, one per part and live slot.
* Terms.  The exponent rows of the live slots become tuples a block at a
  time, each coefficient one `QSqrt2.from_ints(a, b, scale^n)`, and the
  term dict is built in one pass and adopted by `MvPoly` without a second
  check (`MvPoly._of_clean_terms`), with the cyclic collector paused.
* Checks.  The constant-term and evaluation checks above, on the returned
  polynomial.

What no prime changes is derived once: the elimination plan per size and
symmetry, and the difference steps of each monomial table
(`_MonomialTable.newton_steps`).
"""

from __future__ import annotations

import gc
import random
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import repeat
from math import lcm, prod

import numpy as np

from . import _kernels
from .exactnum import QSqrt2
from .exactlinalg import PolyMatrix, QMatrix, det_field
from .mvpoly import MvPoly

_EXP_BITS = 6  # per-variable exponent field in packed keys
_OFFSET = 1  # the grid offset a, in every variable (module docstring)
_BLOCK = 512  # grid points evaluated and eliminated together (module docstring)
_TERM_BLOCK = 1 << 14  # exponent rows turned into tuples at a time


class _MonomialTable:
    """Graded table of all monomials of total degree <= maxdeg in nvars
    variables: exponent rows, packed sort keys and per-degree sizes.  Row
    alpha is also the grid point a + alpha of the interpolation, whose
    difference steps `newton_steps` holds."""

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

    def _pack(self, exps: np.ndarray, totals: np.ndarray) -> np.ndarray:
        key = totals.astype(np.int64) << (_EXP_BITS * self.nvars)
        for i in range(exps.shape[1]):
            key = key | (exps[:, i].astype(np.int64) << (_EXP_BITS * i))
        return key

    @cached_property
    def newton_steps(self) -> tuple[tuple[np.ndarray, np.ndarray, list[int]], ...]:
        """Per variable i, (upper, lower, count): `upper` holds the rows
        alpha with alpha_i >= 1, by alpha_i descending, `lower[t]` the row of
        upper[t] - e_i (index arrays), and count[j] the number of rows with
        alpha_i >= j, so the first count[j] pairs are those of step j."""
        steps = []
        drop_total = 1 << (_EXP_BITS * self.nvars)
        for i in range(self.nvars):
            column = self.exps[:, i]
            upper = np.flatnonzero(column)
            upper = upper[np.argsort(-column[upper], kind="stable")]
            key = self.keys[upper] - (drop_total + (1 << (_EXP_BITS * i)))
            lower = np.searchsorted(self.keys, key)
            if np.any(self.keys[lower] != key):
                raise AssertionError("grid neighbour lookup failed")
            at_least = np.cumsum(np.bincount(column, minlength=self.maxdeg + 1)[::-1])[::-1]
            steps.append((upper, lower.astype(np.intp), [int(x) for x in at_least]))
        return tuple(steps)


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


def crt_primes(bound: int, below: int) -> list[int]:
    """The fewest primes p = 7 (mod 8) below `below` (at least one) whose
    product exceeds 4 * bound, largest first."""
    primes, modulus = [], 1
    candidates = _split_primes_below(below)
    while modulus <= 4 * bound or not primes:
        p = next(candidates, None)
        if p is None:
            raise ValueError("ran out of primes")
        primes.append(p)
        modulus *= p
    return primes


def _prime_limit(table: _MonomialTable, nq: int, offset: int) -> int:
    """The primes below this keep every product of two residues below 2^62
    and the float64 evaluation on `table`'s grid, with entries over its first
    nq monomials, exact: nq * (p-1) * max|monomial value| < 2^53."""
    reach = max(1, abs(offset), abs(offset + table.maxdeg))
    largest = reach ** int(table.totals[nq - 1])
    return min(1 << 31, (2**53 - 1) // (nq * largest) + 2)


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


def coefficient_norm_bound(entries: list[list[dict]]) -> int:
    """Upper bound on |a| and |b| of every coefficient of the determinant.

    Uses the submultiplicative weight n(a + b*sqrt2) = |a| + 2|b| (valid since
    n(xy) <= n(x)n(y)) summed over terms: the bound is the permanent of these
    norms, by a recursion over column subsets held as bitmasks, where value[S]
    is the permanent of rows 0 .. |S|-1 on the columns in S."""
    norms = [[sum(abs(a) + 2 * abs(b) for a, b in e.values()) for e in row] for row in entries]
    n = len(norms)
    value = [1] * (1 << n)
    for mask in range(1, 1 << n):
        row = norms[mask.bit_count() - 1]
        value[mask] = sum(row[j] * value[mask ^ 1 << j] for j in range(n) if mask >> j & 1)
    return value[-1]


# ---------------------------------------------------------------------------
# the modular determinant
# ---------------------------------------------------------------------------


def _setup(M: PolyMatrix):
    """What every prime shares: the arguments of `_det_one_prime` before p
    (n, grid table, symmetry, grid offset, integer coefficient tensor), the
    primes, and the scale that made the entries integral."""
    if not M.is_square():
        raise ValueError("determinant of non-square matrix")
    n = M.nrows
    entry_deg = max(0, M.max_entry_degree())
    table = monomial_table(M.nvars, entry_deg * n)
    entries, scale = _integerize(M)
    nq = table.size_up_to[entry_deg]
    primes = crt_primes(coefficient_norm_bound(entries), _prime_limit(table, nq, _OFFSET))
    qindex = {tuple(int(x) for x in table.exps[i]): i for i in range(nq)}
    coeff_int = np.zeros((n, n, nq, 2), dtype=object)
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            for m, pair in entry.items():
                coeff_int[i, j, qindex[m]] = pair
    symmetric = all(entries[i][j] == entries[j][i] for i in range(n) for j in range(i))
    return (n, table, symmetric, _OFFSET, coeff_int), primes, scale


def det_poly_modular(M: PolyMatrix) -> MvPoly:
    """Exact determinant of a square PolyMatrix via CRT over dense residue
    arrays.  See the module docstring for the soundness argument."""
    shared, primes, scale = _setup(M)
    residues = [_det_one_prime(*shared, p) for p in primes]
    live = _live_slots(residues)
    det_a, det_b = _crt_reconstruct([(a[live], b[live]) for a, b in residues], primes)
    del residues  # the term build below is full (iv)'s memory peak

    # undo the entry scaling: det(scale*M) = scale^n det(M)
    n, table = shared[:2]
    exps = table.exps[live]
    monomials = (m for start in range(0, len(live), _TERM_BLOCK)
                 for m in zip(*exps[start:start + _TERM_BLOCK].T.tolist()))
    coeffs = map(QSqrt2.from_ints, det_a.tolist(), det_b.tolist(), repeat(scale ** n))
    # each new QSqrt2 is a tracked object, and the collections that hundreds
    # of thousands of them set off walk every live object: about 40% of the
    # term build for condition (iv).  The terms hold no cycle to collect.
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = MvPoly._of_clean_terms(M.nvars, dict(zip(monomials, coeffs)))
    finally:
        if collecting:
            gc.enable()
    _verify_against_field_det(M, result)
    return result


def _det_one_prime(n, table, symmetric, offset, coeff_int, p) -> tuple[np.ndarray, np.ndarray]:
    """Residues mod p of the a- and b-parts of every determinant coefficient
    of degree <= table.maxdeg, from the scalar lanes a + b*r and a - b*r on
    the grid with the given offset (see the module docstring)."""
    r = pow(2, (p + 1) // 4, p)
    if r * r % p != 2:
        raise ValueError(f"2^((p+1)/4) is not a square root of 2 mod {p}")
    if p <= table.maxdeg:
        raise ValueError(f"{p} is too small to interpolate degree {table.maxdeg}")
    nq = coeff_int.shape[2]
    if p >= _prime_limit(table, nq, offset):
        raise OverflowError("prime too large for exact evaluation")
    slots, steps = _elimination_plan(n, symmetric)
    cf = (coeff_int % p).astype(np.int64)
    lanes = ((cf[..., 0] + cf[..., 1] * r) % p, (cf[..., 0] - cf[..., 1] * r) % p)
    # row 2t + lane: the monomial coefficients of entry slots[t] in that lane
    weights = np.array([lane[i, j] for i, j in slots for lane in lanes], dtype=np.float64)

    size = len(table.keys)
    top = np.empty((2, size), dtype=np.int64)
    bottom = np.empty((2, size), dtype=np.int64)
    for start in range(0, size, _BLOCK):
        rows = slice(start, min(start + _BLOCK, size))
        last, divisor = _kernels.eliminate(_entry_values(table, rows, offset, weights, p), steps, p)
        top[:, rows] = last.reshape(2, -1)
        bottom[:, rows] = divisor.reshape(2, -1)
    zero = bottom == 0
    values = top * _kernels.inverse_mod(np.where(zero, 1, bottom).ravel(), p).reshape(2, size) % p
    for row in np.flatnonzero(zero.any(axis=0)).tolist():
        # a zero divisor: the exact determinant at the point a + alpha instead
        point = [offset + e for e in table.exps[row].tolist()]
        monomials = [prod(map(pow, point, m)) for m in table.exps[:nq].tolist()]
        entries = (coeff_int * np.array(monomials, dtype=object)[:, None]).sum(axis=2).tolist()
        det = det_field(QMatrix([[QSqrt2.from_ints(a, b, 1) for a, b in entry_row]
                                 for entry_row in entries]))
        if det.d != 1:
            raise AssertionError("determinant of an integral matrix is not integral")
        values[:, row] = (det.a + det.b * r) % p, (det.a - det.b * r) % p
    _interpolate(values, table, offset, p)
    plus, minus = values
    return ((plus + minus) * ((p + 1) // 2) % p,
            (plus - minus) % p * pow(2 * r, -1, p) % p)


@lru_cache(maxsize=None)
def _elimination_plan(n: int, symmetric: bool):
    """The entry slots (i, j) kept, row by row, the upper triangle when
    symmetric; and per elimination step k < n - 1 the pivot slot (k, k) and,
    for each row i > k, (factor, target, source): row i's slots j > k
    (j >= i when symmetric) become pivot * (i, j) - factor * (k, j), with
    factor the slot (i, k), or (k, i) when symmetric, and target and source
    the slices of row i's and row k's slots over those j."""
    slots = [(i, j) for i in range(n) for j in range(i if symmetric else 0, n)]
    place = {s: t for t, s in enumerate(slots)}
    steps = []
    for k in range(n - 1):
        rows = []
        for i in range(k + 1, n):
            first = i if symmetric else k + 1
            factor = place[(k, i) if symmetric else (i, k)]
            rows.append((factor, slice(place[(i, first)], place[(i, n - 1)] + 1),
                         slice(place[(k, first)], place[(k, n - 1)] + 1)))
        steps.append((place[(k, k)], rows))
    return slots, steps


@lru_cache(maxsize=None)
def _monomial_chain(table: _MonomialTable, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """For each monomial m of degree <= `degree` but 1: the first variable i
    with m_i > 0 and the row of m - e_i (0 and 0 for the monomial 1)."""
    size = table.size_up_to[degree]
    first = np.argmax(table.exps[:size] > 0, axis=1)
    key = table.keys[1:size] - ((1 << (_EXP_BITS * table.nvars)) + (1 << (_EXP_BITS * first[1:])))
    return first, np.concatenate([[0], np.searchsorted(table.keys, key)])


def _entry_values(table, rows, offset, weights, p) -> np.ndarray:
    """Residues of every entry slot at the grid points a + exps[rows], one
    row per slot and one column per (lane, point), lane-major."""
    nq = weights.shape[1]
    degree = int(table.totals[nq - 1])
    first, parent = _monomial_chain(table, degree)
    x = table.exps[rows].T + float(offset)
    monomials = np.ones((nq, x.shape[1]))
    for d in range(1, degree + 1):
        same = slice(table.size_up_to[d - 1], table.size_up_to[d])
        monomials[same] = monomials[parent[same]] * x[first[same]]
    values = _kernels.reduce_mod((weights @ monomials).astype(np.int64), p)
    return values.reshape(len(weights) // 2, 2 * x.shape[1])


def _interpolate(values: np.ndarray, table: _MonomialTable, offset: int, p: int) -> None:
    """In place, each lane (row) of `values`: values at the grid points
    a + alpha -> coefficients of the monomials s^alpha, mod p."""
    steps = table.newton_steps
    inverse_factorial = [1]
    for j in range(1, table.maxdeg + 1):
        inverse_factorial.append(inverse_factorial[-1] * pow(j, -1, p) % p)
    inverse_factorial = np.array(inverse_factorial, dtype=np.int64)
    for lane in values:
        for upper, lower, count in steps:
            for j in range(1, table.maxdeg + 1):
                high, low = upper[:count[j]], lower[:count[j]]
                difference = lane[high]
                difference -= lane[low]
                lane[high] = _kernels.reduce_mod(difference, p)
        for exponents in table.exps.T:
            lane *= inverse_factorial[exponents]
            _kernels.reduce_mod(lane, p)
        for upper, lower, count in steps:
            for j in range(table.maxdeg - 1, -1, -1):
                high, low = upper[:count[j + 1]], lower[:count[j + 1]]
                shifted = lane[low]
                shifted -= (offset + j) % p * lane[high]
                lane[low] = _kernels.reduce_mod(shifted, p)


def _live_slots(residues) -> np.ndarray:
    """The slots where some residue of either part is nonzero: exactly the
    nonzero determinant coefficients, since 0 is the only integer in the
    symmetric range that every prime sends to 0."""
    live = np.zeros(residues[0][0].shape, dtype=bool)
    for pair in residues:
        for part in pair:
            live |= part != 0
    return np.flatnonzero(live)


def _crt_reconstruct(residues, primes) -> tuple[np.ndarray, np.ndarray]:
    """The integers in (-modulus/2, modulus/2] with the given residue pairs,
    as object arrays of Python ints (a-parts, b-parts).  `det_poly_modular`
    passes the live slots (`_live_slots`) only.

    Garner's mixed-radix digits, with x = v_0 + p_0*(v_1 + p_1*(v_2 + ...)),
    come out as int64 arrays; digits v_j and v_{j+1} pack into one limb
    v_j + p_j*v_{j+1} < p_j*p_{j+1} < 2^62, and the limbs combine into
    Python ints."""
    if max(primes) >= 1 << 31:
        raise OverflowError("primes must stay below 2^31 for int64 digits")
    modulus = prod(primes)
    halves = []
    for part in (0, 1):
        digits = []
        for k, p in enumerate(primes):
            x = residues[k][part].copy()
            for j in range(k):
                x -= digits[j]
                x *= pow(primes[j], -1, p)
                _kernels.reduce_mod(x, p)
            digits.append(x)
        value = 0
        for j in reversed(range(0, len(primes), 2)):
            limb = digits[j] if j + 1 == len(primes) else digits[j] + primes[j] * digits[j + 1]
            value *= prod(primes[j:j + 2])
            value += limb.astype(object)
        value[value > modulus // 2] -= modulus
        halves.append(value)
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
