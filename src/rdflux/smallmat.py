"""Dense solves of the small (m <= 4) per-element systems.

One algorithm serves both entry points: Gaussian elimination with partial
pivoting on the augmented rows [A | B], laid out (m, m + k, T) with the
batch axis innermost, so that every step is one elementwise NumPy
operation over all T items at once.  The pivot of a column is the first
row with the largest |a| on or below the diagonal.  An item is flagged
singular when that magnitude is at most ``PIVOT_RTOL`` ||A||_inf, a floor
relative to the item's own scale: near-singular upwind matrices are
reported instead of producing garbage, and a scaled-down copy of a
singular matrix is flagged too.  A flagged item divides by 1.0 and its
solution is zeroed, so it raises no floating-point warning and leaves the
other items alone.  ``solve_batched`` takes the augmented rows as they
are, so a caller can write its systems there directly (``augment``
builds them from a (T, m, m) batch); it returns the flags.  ``solve``,
the batch of one, raises ``SingularMatrix``.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

# Relative pivot floor: a pivot smaller than this times ||A||_inf is treated
# as structurally zero.
PIVOT_RTOL = 1e-13


def _eliminate(aug, m):
    """Solve the systems held in ``aug`` (m, m + k, T), overwriting it.

    Row i of item t is [A_t[i] | B_t[i]].  Returns ``(x, bad)``: the
    solutions (m, k, T), a view of ``aug``, zero where ``bad`` (T,) flags
    a singular item.
    """
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

    x = aug[:, m:]
    for row in range(m - 1, -1, -1):
        acc = x[row]
        for j in range(row + 1, m):
            acc -= aug[row, j] * x[j]
        acc /= pivots[row]
    if bad.any():
        x[..., bad] = 0.0
    return x, bad


def augment(a, b):
    """The augmented rows [A_t | B_t] of a batch, laid out (m, m + k, T).

    ``a`` is (T, m, m); ``b`` is (T, m) for one right-hand side per item,
    or (T, m, k).  The result is a new array, the input of ``solve_batched``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t, m = a.shape[:2]
    b = b.reshape(t, m, -1)
    aug = np.empty((m, m + b.shape[2], t))
    aug[:, :m] = a.transpose(1, 2, 0)
    aug[:, m:] = b.transpose(1, 2, 0)
    return aug


def solve(a, b):
    """Solve a @ x = b by Gaussian elimination with partial pivoting.

    ``a`` is (m, m), ``b`` is (m,) or (m, k).  The batch of one of
    ``solve_batched``: raises SingularMatrix when the best available
    pivot falls below PIVOT_RTOL * ||a||_inf.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[0]
    if a.shape != (m, m):
        raise SingularMatrix(f"matrix must be square, got {a.shape}")
    x, bad = _eliminate(augment(a[None], b[None]), m)
    if bad[0]:
        raise SingularMatrix(f"a pivot is below {PIVOT_RTOL:.0e} * ||a||_inf")
    return x[..., 0].reshape(b.shape)


def solve_batched(aug):
    """Batched solve of a[t] @ x[t] = b[t] with singularity detection.

    ``aug`` (m, m + 1, T) holds the augmented rows [a[t] | b[t]] (built by
    ``augment``, or written in place by the caller) and is overwritten.
    Returns (x, bad): x is (T, m) and ``bad`` a boolean mask of batch
    items whose system was singular (their x rows are zero).  Every item
    follows ``solve``'s pivot rule and floor, and no item's result depends
    on another's.
    """
    x, bad = _eliminate(aug, aug.shape[0])
    return x[:, 0].T, bad
