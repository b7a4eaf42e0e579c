"""Array kernels of the modular determinant, modulo a word-size prime p.

`fastdet` runs the determinant by evaluation and interpolation on a grid
(see its docstring) with the kernels here: `reduce_mod`, the batched
division-free elimination `eliminate` and the batched inverse
`inverse_mod`.  Residues lie in [0, p) with p < 2^31, so a product of two
stays below 2^62 and a difference of two such products fits in int64.

The Laplace subset kernel `level_pass`, one level of a memoized Laplace
expansion over dense coefficient arrays, is not called by `fastdet`.  It
is kept only for two readers: the benchmark's tracer wraps it as a trace
target, and the tests build on it the Laplace oracle that `fastdet`'s
residues are compared against.

Layout (`level_pass`).  ``maps[q, r]`` is the slot of output monomial r
minus entry monomial q in the previous level's arrays, stored q-major so
that the gather for one q reads one contiguous int32 row.  A difference
outside the previous block points at its pad slot, a zero appended to every
source row.

Lanes (`level_pass`).  Coefficients are plain residues in [0, p).  Each call
runs two independent scalar lanes, the images of the same Z[sqrt2]
determinant under the two ring maps sqrt2 -> +r and sqrt2 -> -r into F_p
(see `fastdet`); a lane never reads the other.  The kernel skips a zero
coefficient and reduces each output slot once at the end.

Overflow (`level_pass`).  An output slot of a lane receives at most k*nq
products of two residues, each at most (p-1)^2, and every partial sum is
non-negative and no larger than the final one.  So
``k * nq * (p-1)^2 < 2^63`` rules out int64 overflow; `level_pass` checks it
before any work.
"""

from __future__ import annotations

import numpy as np


def level_pass(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows, out_a, out_b, p):
    """Accumulate one Laplace level in each lane (a, b), for every subset si
    and output slot r:

    out[si, r] = sum over t, q of coeff[si, t, q] * prev[src_rows[si, t], maps[q, r]]

    modulo p.  `coeff_*` have shape (nsub, k, nq), `maps` (nq, size_k) and
    `out_*` (nsub, size_k)."""
    nsub, size_k = out_a.shape
    k = src_rows.shape[1]
    nq = coeff_a.shape[2]
    if k * nq * (p - 1) ** 2 >= 2**63:
        raise OverflowError("prime too large for overflow-free accumulation")
    if maps.shape != (nq, size_k) or maps.min() < 0 or maps.max() >= prev_a.shape[1]:
        raise IndexError("shift map outside the previous level")
    acc = np.empty(size_k, dtype=np.int64)
    gathered = np.empty(size_k, dtype=np.int64)
    for si in range(nsub):
        rows = src_rows[si].tolist()
        for prev, coeff, out in ((prev_a, coeff_a, out_a), (prev_b, coeff_b, out_b)):
            acc.fill(0)
            for t, row in enumerate(rows):
                src = prev[row]
                for qi, c in enumerate(coeff[si, t].tolist()):
                    if not c:
                        continue
                    # indices were range-checked above, so 'clip' never clips;
                    # it only lets `take` write into `out` without a buffer
                    np.take(src, maps[qi], out=gathered, mode="clip")
                    np.multiply(gathered, c, out=gathered)
                    acc += gathered
            np.remainder(acc, p, out=out[si])


def reduce_mod(x: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """x mod p in place, for int64 x; numpy divides by a scalar several
    times faster than it takes a remainder, most of all of negative x; the
    quotient goes to `scratch` (int64, x's shape) if given."""
    quotient = np.floor_divide(x, p, out=scratch)
    x -= np.multiply(quotient, p, out=quotient)
    return x


def eliminate(values, steps, p) -> tuple[np.ndarray, np.ndarray]:
    """Division-free elimination of every column of `values`, one row per
    entry slot, by the steps of `fastdet._elimination_plan`, in place: per
    column the last entry and the divisor prod_k pivot_k^(n-2-k), whose
    quotient is the determinant mod p.  A step is one update of the tail
    values[start:], whatever its rows; the gathers copy, so they read before
    the tail is written, and their buffer then takes the quotient."""
    prefix = np.ones(values.shape[1], dtype=np.int64)
    divisor = prefix.copy()
    for k, (pivot, start, factor, source) in enumerate(steps):
        pivots = values[pivot]
        if k < len(steps) - 1:
            prefix = reduce_mod(prefix * pivots, p)
            divisor = reduce_mod(divisor * prefix, p)
        product = values[factor]
        product *= values[source]
        tail = values[start:]
        tail *= pivots
        tail -= product
        reduce_mod(tail, p, scratch=product)
    return values[-1], divisor


def inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of the non-zero residues x (1-D): products up a binary
    tree, one Fermat inverse of their product, and products back down."""
    size = len(x)
    levels = []
    while len(x) > 1:
        if len(x) % 2:
            x = np.append(x, 1)
        levels.append(x)
        x = reduce_mod(x[0::2] * x[1::2], p)
    inverse = np.array([pow(int(x[0]), p - 2, p)], dtype=np.int64)
    for x in reversed(levels):
        inverse = inverse[:len(x) // 2]
        below = np.empty_like(x)
        below[0::2] = reduce_mod(inverse * x[1::2], p)
        below[1::2] = reduce_mod(inverse * x[0::2], p)
        inverse = below
    return inverse[:size]

