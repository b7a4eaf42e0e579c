"""Multi-modular evaluation and interpolation engine behind
`exactlinalg.det_poly`.

An n x n matrix whose entries have degree <= e in v variables has a
determinant of total degree <= D = n*e, and Leibniz's formula bounds its
degree in each variable and each pair of variables by a cap read off the
entries' supports (`degree_caps`).  So its monomials lie in the lower set L
of the exponents alpha in N^v with |alpha| <= D that keep every cap, and
modulo a prime p > D the determinant is fixed by its values on the shifted
grid a + L.  For condition (iv) at c = 39/4, L has 656,685 of the simplex's
735,471 points (62,597 of 74,613 on the 6-variable section).  The engine
evaluates the entries on that grid, eliminates at every point and
interpolates, modulo several word-size primes p = 7 (mod 8).  For those,
r = 2^((p+1)/4) is a square root of 2 mod p, so sqrt2 -> r and sqrt2 -> -r
are two ring maps Z[sqrt2] -> F_p, and each prime costs two plain scalar
lanes x+ and x-.  The residues of a + b*sqrt2 come back as a = (x+ + x-)/2
and b = (x+ - x-)/(2r) mod p, and the exact integer coefficients by CRT.

Per prime, both lanes at once, in three steps (`_det_one_prime`):

* Evaluation.  For a block of grid points, the entries' residues times the
  values of their monomials are one float64 matrix product.  The nq entry
  monomials are all those of degree <= e, from the uncapped table, whatever
  the caps.  Their values are integers of size at most
  max(1, |a|, |a + D|)^e, so each of the nq products is an integer below
  (p-1) times that, and the sum is exact while
  nq * (p-1) * max|monomial| < 2^53 (`_prime_limit`; `_setup` takes primes
  below it, `_det_one_prime` refuses any other before any work).
* Elimination.  Step k of a division-free Schur elimination replaces the
  trailing block T by pivot_k * T - column * row, which multiplies its
  determinant by pivot_k^(m-1) for a block of size m.  So the determinant is
  the last entry over the divisor prod_k pivot_k^(n-2-k).  All divisors of
  one prime are inverted together, by one Fermat inverse of their product
  and a product tree.  Entry slots are kept row by row (the upper triangle
  when symmetric), so the rows below pivot k form one contiguous tail, and
  step k is one fixed set of array operations on it, however many rows,
  with per-slot `factor` and `source` gathers (`_elimination_plan`); without
  symmetry it also rewrites columns already eliminated, which nothing reads.
  Every residue is below p < 2^31, so every product stays below 2^62 and is
  reduced at once.  At a point where that divisor is 0 mod p, a zero pivot
  raised to a positive power, the determinant is the exact `det_field` of
  the entries there over Z[sqrt2]; the formula never hides a zero pivot it
  does not divide by.  These array kernels live in `_kernels`.
* Interpolation.  Forward differences along each variable in turn, divided
  by alpha! at the end (one product with a per-prime table of (alpha!)^-1
  mod p), give the coefficients in the Newton basis
  prod_i (s_i - a)(s_i - a - 1)...(s_i - a - alpha_i + 1); a Newton-to-monomial
  pass per variable with the nodes a + j then gives the coefficients in s.
  This needs p > D, so that the nodes stay distinct mod p.  Grid point
  a + alpha is row alpha of the graded monomial table, so the result comes
  out indexed like the monomials.  The passes run on L as on the simplex:
  a forward difference at alpha reads only rows below alpha, and the
  Newton-to-monomial pass reads rows above, where the simplex holds 0
  outside L (the exactness bullet on the caps).

The offset a is 1 in every variable.  Any offset gives the same residues;
it only decides how many points take the exact path.  For condition (iv),
a = 0 gives 94 grid points a zero divisor in both lanes and a = (1, ..., 1)
none, on the primes tried; (1, ..., 1) is also fixed by the pair shift.
Blocks of 1024 points: for condition (iv)'s symmetric 8 x 8 matrix, one
(slot, lane, point) array of a block is 36 * 2 * 1024 * 8 B = 0.56 MiB, and
a block's evaluation holds about three of them at once with the 45 * 1024
monomial values (1.5 MiB).

Exactness is unconditional, not heuristic:

* the caps are sound: every term of the determinant is, by Leibniz, a
  product of one entry per row and column, so its degree in the variables
  S is at most the max-plus permanent of the entries' degrees in S, and
  cancellation only lowers it.  The caps only bound sums of exponents from
  above, so L is downward closed, and the determinant's coefficients in the
  Newton basis of the nodes, and in every mixed basis the passes go
  through, lie in L too.  On the simplex those passes would keep 0 on every
  row outside L and, on every row of L, read the rows of L alone, so the
  grid a + L gives the coefficients the simplex gives;
* the primes are the fewest such primes whose product exceeds four times a
  certified bound on every coefficient of the determinant (the symmetric
  residue range needs twice; the bound is the permanent of the
  coefficient-norms ``sum(|a| + 2|b|)`` of the entries, which are
  submultiplicative for Z[sqrt2] polynomials, by a recursion over column
  subsets);
* the reconstructed constant term is compared against an exact field
  determinant of the constant part, and the whole polynomial is compared
  against an exact field determinant at a fixed pseudo-random point of
  Q(sqrt2)^nvars (`_evaluate` sums that side on Python ints).

Every `QSqrt2` is already three ints (a + b*sqrt2)/d, so the entries enter as
the pairs (a, b) scaled to their common denominator.  After the primes, in
bulk (`det_poly_modular`):

* CRT (`_crt_reconstruct`) on the live slots only, where some residue is
  nonzero: exactly the nonzero coefficients.  Their Garner mixed-radix
  digits are int64 arrays, two digits pack into one limb below 2^62, and
  the limbs combine into Python ints, one per part and live slot.
* Evaluation check, before the term build, on the CRT arrays: the
  monomial values at the point, scaled to integers, are built one total
  degree at a time as object arrays of Z[sqrt2] pairs, for the live slots
  and their chain ancestors only, and each degree's sum is one dot product
  per part (`_evaluate`).  Two degrees are held at a time.
* Terms.  The exponent rows of the live slots become tuples a block at a
  time, each coefficient one `QSqrt2.from_ints(a, b, scale^n)`, and the
  term dict is built in one pass and adopted by `MvPoly` without a second
  check (`MvPoly._of_clean_terms`), with the cyclic collector paused.
* Constant-term check, on the returned polynomial.

What no prime changes is derived once: the elimination plan per size and
symmetry, and the difference steps of each monomial table
(`_MonomialTable.newton_steps`).
"""

from __future__ import annotations

import gc
import random
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, lcm, prod

import numpy as np

from . import _kernels
from .exactnum import QSqrt2
from .exactlinalg import PolyMatrix, QMatrix, det_field
from .mvpoly import MvPoly

_EXP_BITS = 6  # per-variable exponent field in packed keys
_OFFSET = 1  # the grid offset a, in every variable (module docstring)
_BLOCK = 1024  # grid points evaluated and eliminated together (module docstring)
_TERM_BLOCK = 1 << 14  # exponent rows turned into tuples at a time
_NO_TERM = -(1 << 40)  # the degree of a zero entry in `degree_caps`: minus infinity


class _MonomialTable:
    """Graded table of the monomials alpha of total degree <= maxdeg in nvars
    variables with sum(alpha_i for i in S) <= cap for every (S, cap) of
    `caps`: exponent rows, packed sort keys and per-degree sizes.  The caps
    only cut the simplex by upper bounds on sums of exponents, so the rows
    form a lower set (alpha in it and beta <= alpha componentwise put beta
    in it); without caps they are the whole simplex.  Row alpha is also the
    grid point a + alpha of the interpolation, whose difference steps
    `newton_steps` holds."""

    def __init__(self, nvars: int, maxdeg: int, caps: tuple = ()):
        if maxdeg >= (1 << _EXP_BITS):
            raise ValueError("degree too large for packed keys")
        self.nvars = nvars
        self.maxdeg = maxdeg
        self.caps = caps
        top = [maxdeg] * nvars
        for subset, cap in caps:
            if len(subset) == 1:
                top[subset[0]] = min(top[subset[0]], cap)
        exps, totals = _gen_exponents(maxdeg, top)
        wider = [(list(subset), cap) for subset, cap in caps if len(subset) > 1]
        if wider:
            keep = np.logical_and.reduce([exps[:, subset].sum(axis=1) <= cap
                                          for subset, cap in wider])
            exps, totals = exps[keep], totals[keep]
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
        upper[t] - e_i (index arrays; a lower set holds it), and count[j] the
        number of rows with alpha_i >= j, so the first count[j] pairs are
        those of step j."""
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


def _gen_exponents(maxdeg: int, top: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The exponent rows alpha with |alpha| <= maxdeg and alpha_i <= top[i],
    and their totals."""
    exps = np.zeros((1, 0), dtype=np.int8)
    totals = np.zeros(1, dtype=np.int16)
    for cap in top:
        reps = np.minimum(maxdeg - totals.astype(np.int64), cap) + 1
        idx = np.repeat(np.arange(exps.shape[0]), reps)
        # 0 .. reps - 1 within the run of each parent row
        col = (np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)).astype(np.int8)
        new = np.empty((idx.shape[0], exps.shape[1] + 1), dtype=np.int8)
        new[:, :-1] = exps[idx]
        new[:, -1] = col
        exps = new
        totals = totals[idx] + col.astype(np.int16)
    return exps, totals


@lru_cache(maxsize=None)
def monomial_table(nvars: int, maxdeg: int, caps: tuple = ()) -> _MonomialTable:
    """The table of `_MonomialTable`, one per (nvars, maxdeg, caps) for the
    life of the process; `caps` as `degree_caps` returns them."""
    return _MonomialTable(nvars, maxdeg, caps)


def _entry_table(nvars: int, nq: int) -> _MonomialTable:
    """The uncapped table of the nq entry monomials that index the third
    axis of a coefficient tensor: all monomials of degree <= e in nvars
    variables, for the e with C(nvars + e, e) = nq."""
    e = 0
    while comb(nvars + e, e) < nq:
        e += 1
    return monomial_table(nvars, e)


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
    and the float64 evaluation on `table`'s grid, with entries over the nq
    monomials of `_entry_table`, exact: nq * (p-1) * max|monomial value| <
    2^53."""
    reach = max(1, abs(offset), abs(offset + table.maxdeg))
    largest = reach ** _entry_table(table.nvars, nq).maxdeg
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


def degree_caps(support: np.ndarray, exps: np.ndarray, maxdeg: int) -> tuple:
    """Caps on the determinant's degree in every single variable and every
    pair of variables, those that cut the simplex of degree `maxdeg`, as
    ((i,), cap) and ((i, j), cap) pairs: support[r, c, q] says that entry
    (r, c) has the monomial of row q of `exps`.

    By Leibniz's formula every term of the determinant is a product of one
    entry per row and column, so its degree in the variables S is at most
    the max-plus permanent of the entries' degrees deg_S, a zero entry
    counting as minus infinity; cancellation only lowers it.  The permanent
    runs by `coefficient_norm_bound`'s recursion over column subsets, a
    popcount level at a time and for every S at once.  A variable's cap is
    kept when it is below maxdeg, a pair's when it is below maxdeg and below
    the sum of its two variables' caps.  When every permutation meets a zero
    entry, the determinant is 0 and every cap is 0."""
    n, nvars = support.shape[0], exps.shape[1]
    subsets = [(i,) for i in range(nvars)] + list(combinations(range(nvars), 2))
    indicator = np.zeros((nvars, len(subsets)), dtype=np.int64)
    for s, subset in enumerate(subsets):
        indicator[list(subset), s] = 1
    # deg[r, c, s]: the degree of entry (r, c) in the variables of subsets[s]
    deg = np.where(support[..., None], exps.astype(np.int64) @ indicator, _NO_TERM).max(axis=2)
    masks = np.arange(1 << n)
    level = np.bitwise_count(masks)
    value = np.full((1 << n, len(subsets)), _NO_TERM, dtype=np.int64)
    value[0] = 0
    for k in range(1, n + 1):
        at = masks[level == k]
        best = value[at]
        for j in range(n):
            has = (at >> j & 1).astype(bool)
            best[has] = np.maximum(best[has], deg[k - 1, j] + value[at[has] ^ (1 << j)])
        value[at] = best
    cap = np.maximum(value[-1], 0).tolist()
    single = [min(c, maxdeg) for c in cap[:nvars]]
    caps = [((i,), c) for i, c in enumerate(single) if c < maxdeg]
    caps += [((i, j), c) for (i, j), c in zip(subsets[nvars:], cap[nvars:])
             if c < min(maxdeg, single[i] + single[j])]
    return tuple(caps)


# ---------------------------------------------------------------------------
# the modular determinant
# ---------------------------------------------------------------------------


def _setup(M: PolyMatrix):
    """What every prime shares: the arguments of `_det_one_prime` before p
    (n, grid table, symmetry, grid offset, integer coefficient tensor), the
    primes, and the scale that made the entries integral.  The tensor's
    third axis is the uncapped table of the entry monomials, all of degree
    <= e for the largest entry degree e; the grid table is the simplex of
    degree n*e cut by the entries' `degree_caps`, so a cap below e never
    drops an entry monomial."""
    if not M.is_square():
        raise ValueError("determinant of non-square matrix")
    n = M.nrows
    entry_deg = max(0, M.max_entry_degree())
    entry_table = monomial_table(M.nvars, entry_deg)
    qindex = {m: q for q, m in enumerate(map(tuple, entry_table.exps.tolist()))}
    if len(qindex) != comb(M.nvars + entry_deg, entry_deg):
        raise AssertionError("entry monomial table is incomplete")
    entries, scale = _integerize(M)
    coeff_int = np.zeros((n, n, len(qindex), 2), dtype=object)
    support = np.zeros((n, n, len(qindex)), dtype=bool)
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            for m, pair in entry.items():
                coeff_int[i, j, qindex[m]] = pair
                support[i, j, qindex[m]] = True
    maxdeg = entry_deg * n
    table = monomial_table(M.nvars, maxdeg, degree_caps(support, entry_table.exps, maxdeg))
    primes = crt_primes(coefficient_norm_bound(entries),
                        _prime_limit(table, len(qindex), _OFFSET))
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
    _verify_against_field_det(M, table, live, det_a, det_b, scale ** n)
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
    # the constant term against the exact determinant of the constant part
    const_matrix = QMatrix([[e.constant_term() for e in row] for row in M.rows])
    if result.constant_term() != det_field(const_matrix):
        raise AssertionError("modular determinant failed the constant-term check")
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
    entry_table = _entry_table(table.nvars, nq)
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
        values = _entry_values(entry_table, table.exps[rows], offset, weights, p)
        last, divisor = _kernels.eliminate(values, steps, p)
        top[:, rows] = last.reshape(2, -1)
        bottom[:, rows] = divisor.reshape(2, -1)
    zero = bottom == 0
    values = top * _kernels.inverse_mod(np.where(zero, 1, bottom).ravel(), p).reshape(2, size)
    _kernels.reduce_mod(values, p)
    for row in np.flatnonzero(zero.any(axis=0)).tolist():
        # a zero divisor: the exact determinant at the point a + alpha instead
        point = [offset + e for e in table.exps[row].tolist()]
        monomials = [prod(map(pow, point, m)) for m in entry_table.exps.tolist()]
        entries = (coeff_int * np.array(monomials, dtype=object)[:, None]).sum(axis=2).tolist()
        det = det_field(QMatrix([[QSqrt2.from_ints(a, b, 1) for a, b in entry_row]
                                 for entry_row in entries]))
        if det.d != 1:
            raise AssertionError("determinant of an integral matrix is not integral")
        values[:, row] = (det.a + det.b * r) % p, (det.a - det.b * r) % p
    _interpolate(values, table, offset, p)
    plus, minus = values
    a, b = plus + minus, _kernels.reduce_mod(plus - minus, p)
    a *= (p + 1) // 2
    b *= pow(2 * r, -1, p)
    return _kernels.reduce_mod(a, p), _kernels.reduce_mod(b, p)


@lru_cache(maxsize=None)
def _elimination_plan(n: int, symmetric: bool):
    """The entry slots (i, j) kept, row by row, the upper triangle when
    symmetric; and per elimination step k < n - 1 (pivot, start, factor,
    source): the pivot slot (k, k) and the slots values[start:] from
    (k + 1, k + 1) on, each of which becomes pivot * (i, j) - factor * source
    with factor the slot (i, k), or (k, i) when symmetric, and source (k, j).
    When symmetric that tail is exactly the slots k < i <= j; otherwise it
    also holds the dead columns j <= k of rows i > k + 1, which no later step
    reads, so their values do not matter."""
    slots = [(i, j) for i in range(n) for j in range(i if symmetric else 0, n)]
    place = {s: t for t, s in enumerate(slots)}
    steps = []
    for k in range(n - 1):
        start = place[(k + 1, k + 1)]
        factor = [place[(k, i) if symmetric else (i, k)] for i, _ in slots[start:]]
        source = [place[(k, j)] for _, j in slots[start:]]
        steps.append((place[(k, k)], start, np.array(factor, dtype=np.intp),
                      np.array(source, dtype=np.intp)))
    return slots, steps


@lru_cache(maxsize=None)
def _monomial_chain(table: _MonomialTable) -> tuple[np.ndarray, np.ndarray]:
    """`_parents` of every monomial of `table`, with 0 and 0 for the
    monomial 1."""
    first, parent = _parents(table, np.arange(1, len(table.keys)))
    return np.concatenate([[0], first]), np.concatenate([[0], parent])


def _parents(table: _MonomialTable, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the monomials m of `rows`, none of them 1: the first variable i
    with m_i > 0 and the row of m - e_i."""
    first = np.argmax(table.exps[rows] > 0, axis=1)
    key = table.keys[rows] - ((1 << (_EXP_BITS * table.nvars)) + (1 << (_EXP_BITS * first)))
    return first, np.searchsorted(table.keys, key)


def _entry_values(entry_table, points, offset, weights, p) -> np.ndarray:
    """Residues of every entry slot at the grid points a + points (exponent
    rows), one row per slot and one column per (lane, point), lane-major;
    the columns of `weights` are the monomials of `entry_table`."""
    first, parent = _monomial_chain(entry_table)
    x = points.T + float(offset)
    monomials = np.ones((len(entry_table.keys), x.shape[1]))
    for d in range(1, entry_table.maxdeg + 1):
        same = slice(entry_table.size_up_to[d - 1], entry_table.size_up_to[d])
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
    # (alpha!)^-1 = prod_i (alpha_i!)^-1 mod p per row, shared by both lanes
    scale = np.ones(len(table.keys), dtype=np.int64)
    for exponents in table.exps.T:
        scale *= inverse_factorial[exponents]
        _kernels.reduce_mod(scale, p)
    for lane in values:
        for upper, lower, count in steps:
            for j in range(1, table.maxdeg + 1):
                high, low = upper[:count[j]], lower[:count[j]]
                difference = lane[high]
                difference -= lane[low]
                lane[high] = _kernels.reduce_mod(difference, p)
        lane *= scale
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


def _verify_against_field_det(M: PolyMatrix, table: _MonomialTable, live: np.ndarray,
                              det_a: np.ndarray, det_b: np.ndarray, denominator: int) -> None:
    """The evaluation check: the determinant with coefficient
    (det_a[k] + det_b[k]*sqrt2)/denominator on row live[k] of `table` must
    equal the exact field determinant of M at a deterministic pseudo-random
    point of Q(sqrt2)^nvars."""
    rng = random.Random(0x5EED ^ M.nrows ^ M.nvars)
    point = [QSqrt2(Fraction(rng.randint(-7, 7), rng.randint(1, 5)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
             for _ in range(M.nvars)]
    if _evaluate(table, live, det_a, det_b, denominator, point) != det_field(M.evaluate(point)):
        raise AssertionError("modular determinant failed the evaluation check")


def _evaluate(table: _MonomialTable, live: np.ndarray, det_a: np.ndarray, det_b: np.ndarray,
              denominator: int, point) -> QSqrt2:
    """Exact value at `point` (one `QSqrt2` per variable) of the polynomial
    with coefficient (det_a[k] + det_b[k]*sqrt2)/denominator on the monomial
    of row live[k] (`live` increasing, `det_*` object arrays of ints).

    With dx the lcm of the point's denominators, X = dx*point is integral,
    and denominator * dx^D * value, D = table.maxdeg, is the element
    sum_d dx^(D-d) * S_d of Z[sqrt2], S_d = sum over live m of degree d of
    c_m * X^m.  The X^m are built one degree at a time, as
    X^parent(m) * X_first(m) (`_parents`), for the live rows and their chain
    ancestors only, as object arrays of Python-int pairs; two degrees are
    held at a time.  The sum over d is a Horner scheme in dx."""
    dx = lcm(*(x.d for x in point))
    xa = np.array([x.a * (dx // x.d) for x in point], dtype=object)
    xb = np.array([x.b * (dx // x.d) for x in point], dtype=object)
    xb2 = 2 * xb
    # top down: the rows of each degree that are live or a parent of one above
    needed = np.zeros(len(table.keys), dtype=bool)
    needed[live] = True
    levels = []
    for d in range(table.maxdeg, 0, -1):
        start = table.size_up_to[d - 1]
        rows = start + np.flatnonzero(needed[start:table.size_up_to[d]])
        first, parent = _parents(table, rows)
        needed[parent] = True
        levels.append((rows, first, parent))
    # live[cut[d]:cut[d + 1]] are the live rows of degree d
    cut = np.searchsorted(live, [0, *table.size_up_to])
    rows = np.zeros(1, dtype=np.intp)
    va, vb = np.array([1], dtype=object), np.array([0], dtype=object)
    total_a = total_b = 0
    for d in range(table.maxdeg + 1):
        if d:
            below, ba, bb = rows, va, vb
            rows, first, parent = levels.pop()
            at = np.searchsorted(below, parent)
            va, vb = np.empty(len(rows), dtype=object), np.empty(len(rows), dtype=object)
            for start in range(0, len(rows), _TERM_BLOCK):
                chunk = slice(start, start + _TERM_BLOCK)
                pa, pb, var = ba[at[chunk]], bb[at[chunk]], first[chunk]
                va[chunk] = pa * xa[var] + pb * xb2[var]
                vb[chunk] = pa * xb[var] + pb * xa[var]
            del below, ba, bb
        here = slice(cut[d], cut[d + 1])
        at = np.searchsorted(rows, live[here])
        ya, yb, ca, cb = va[at], vb[at], det_a[here], det_b[here]
        total_a = total_a * dx + ca.dot(ya) + 2 * cb.dot(yb)
        total_b = total_b * dx + ca.dot(yb) + cb.dot(ya)
    return QSqrt2.from_ints(total_a, total_b, denominator * dx ** table.maxdeg)
