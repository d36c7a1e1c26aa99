"""Batched dense solve of the N scheme's small (m <= 4) star systems.

``solve_batched`` is Gaussian elimination with partial pivoting on the
augmented rows [A | b], laid out (m, m + 1, T) with the batch axis
innermost, so that every step is one elementwise NumPy operation over all
T items at once.  The caller writes its systems there directly
(``distribution._star_matrix``).  The pivot of a column is the first row
with the largest |a| on or below the diagonal.  An item is flagged
singular when that magnitude is at most ``PIVOT_RTOL`` ||A||_inf, a floor
relative to the item's own scale: near-singular upwind matrices are
reported instead of producing garbage, and a scaled-down copy of a
singular matrix is flagged too.  A flagged item divides by 1.0 and its
solution is zeroed, so it raises no floating-point warning and leaves the
other items alone.
"""
from __future__ import annotations

import numpy as np

# Relative pivot floor: a pivot smaller than this times ||A||_inf is treated
# as structurally zero.
PIVOT_RTOL = 1e-13


def solve_batched(aug):
    """Batched solve of a[t] @ x[t] = b[t] with singularity detection.

    ``aug`` (m, m + 1, T) holds the augmented rows [a[t] | b[t]] and is
    overwritten.  Returns (x, bad): x is (T, m), a view of ``aug``, and
    ``bad`` a boolean mask of batch items whose system was singular
    (their x rows are zero).  No item's result depends on another's.
    """
    m = aug.shape[0]
    # ||A||_inf row by row over (T,) arrays: a reduction over the
    # (m, m, T) block allocates it whole and runs slower.
    norm = None
    for i in range(m):
        row_sum = np.abs(aug[i, 0])
        for j in range(1, m):
            row_sum += np.abs(aug[i, j])
        norm = row_sum if norm is None else np.maximum(norm, row_sum, out=norm)
    floor = PIVOT_RTOL * np.where(norm > 0.0, norm, 1.0)
    bits = aug.view(np.uint64)
    bad = np.zeros(aug.shape[2], dtype=bool)
    pivots = []
    for col in range(m):
        best = np.abs(aug[col, col])
        for r in range(col + 1, m):
            # Exchange rows col and r of the items whose |a| in row r is
            # strictly larger, so that row col ends up holding the first row
            # with the largest |a|.  The exchange is a masked XOR of the bit
            # patterns: exact and without branches.
            cand = np.abs(aug[r, col])
            swap = np.negative(cand > best, dtype=np.uint64)
            np.maximum(best, cand, out=best)
            diff = bits[col, col:] ^ bits[r, col:]
            diff &= swap
            bits[col, col:] ^= diff
            bits[r, col:] ^= diff
        singular = best <= floor
        bad |= singular
        pivot = np.where(singular, 1.0, aug[col, col])
        pivots.append(pivot)
        for r in range(col + 1, m):
            aug[r, col + 1 :] -= (aug[r, col] / pivot) * aug[col, col + 1 :]

    x = aug[:, m]
    for row in range(m - 1, -1, -1):
        acc = x[row]
        for j in range(row + 1, m):
            acc -= aug[row, j] * x[j]
        acc /= pivots[row]
    if bad.any():
        x[:, bad] = 0.0
    return x.T, bad
