"""Hot inner loop of the modular determinant: one Laplace level over dense
coefficient arrays, modulo a word-size prime.

Layout.  ``maps[q, r]`` is the slot of output monomial r minus entry
monomial q in the previous level's arrays, stored q-major so that the
gather for one q reads one contiguous int32 row.  A difference outside the
previous block points at its pad slot, a zero appended to every source row.
`fastdet` cuts these maps per level from the monomial table's one shift
map, clamping every index past the previous block to the pad slot.

Lanes.  Coefficients are plain residues in [0, p).  Each call runs two
independent scalar lanes, the images of the same Z[sqrt2] determinant under
the two ring maps sqrt2 -> +r and sqrt2 -> -r into F_p (see `fastdet`); a
lane never reads the other.  The kernel skips a zero coefficient and reduces
each output slot once at the end.

Overflow.  An output slot of a lane receives at most k*nq products of two
residues, each at most (p-1)^2, and every partial sum is non-negative and no
larger than the final one.  So ``k * nq * (p-1)^2 < 2^63`` rules out int64
overflow; `level_pass` checks it before any work.
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
