"""Hot inner loop of the modular determinant: one Laplace level over dense
coefficient arrays, modulo a word-size prime.

Layout.  ``maps[q, r]`` is the slot of output monomial r minus entry
monomial q in the previous level's arrays, stored q-major so that the
gather for one q reads one contiguous int32 row.  A difference outside the
previous block points at its pad slot, a zero appended to every source row.

Coefficients are residue pairs (a, b) in [0, p) meaning a + b*sqrt(2); the
product with a source pair (s, t) is (a*s + 2*b*t, a*t + b*s).  The kernel
adds the a-half and the b-half of each pair separately, skipping a half that
is zero, and reduces each output slot once at the end.

Overflow.  Each summand is a product of two residues, at most (p-1)^2.  An
output slot receives at most k*nq pairs, each adding at most 3*(p-1)^2 to
the a-accumulator and 2*(p-1)^2 to the b-accumulator, and every partial sum
is non-negative and no larger than the final one.  So
``k * nq * 3 * (p-1)^2 < 2^63`` rules out int64 overflow; `level_pass`
checks it before any work.
"""

from __future__ import annotations

import numpy as np


def level_pass(prev_a, prev_b, maps, coeff_a, coeff_b, src_rows, out_a, out_b, p):
    """Accumulate one Laplace level, for every subset si and output slot r:

    out[si, r] = sum over t, q of coeff[si, t, q] * prev[src_rows[si, t], maps[q, r]]

    in residue pairs modulo p.  `coeff_*` have shape (nsub, k, nq), `maps`
    (nq, size_k) and `out_*` (nsub, size_k)."""
    nsub, size_k = out_a.shape
    k = src_rows.shape[1]
    nq = coeff_a.shape[2]
    if k * nq * 3 * (p - 1) ** 2 >= 2**63:
        raise OverflowError("prime too large for overflow-free accumulation")
    if maps.shape != (nq, size_k) or maps.min() < 0 or maps.max() >= prev_a.shape[1]:
        raise IndexError("shift map outside the previous level")
    acc_a = np.empty(size_k, dtype=np.int64)
    acc_b = np.empty(size_k, dtype=np.int64)
    ga = np.empty(size_k, dtype=np.int64)
    gb = np.empty(size_k, dtype=np.int64)
    tmp = np.empty(size_k, dtype=np.int64)
    for si in range(nsub):
        acc_a.fill(0)
        acc_b.fill(0)
        for t, row in enumerate(src_rows[si].tolist()):
            sa_row = prev_a[row]
            sb_row = prev_b[row]
            pairs = zip(coeff_a[si, t].tolist(), coeff_b[si, t].tolist())
            for qi, (ca, cb) in enumerate(pairs):
                if not (ca or cb):
                    continue
                # indices were range-checked above, so 'clip' never clips; it
                # only lets `take` write into `out` without a buffer
                idx = maps[qi]
                np.take(sa_row, idx, out=ga, mode="clip")
                np.take(sb_row, idx, out=gb, mode="clip")
                if ca:
                    np.multiply(ga, ca, out=tmp)
                    acc_a += tmp
                    np.multiply(gb, ca, out=tmp)
                    acc_b += tmp
                if cb:
                    np.multiply(gb, 2 * cb, out=tmp)
                    acc_a += tmp
                    np.multiply(ga, cb, out=tmp)
                    acc_b += tmp
        np.remainder(acc_a, p, out=out_a[si])
        np.remainder(acc_b, p, out=out_b[si])
