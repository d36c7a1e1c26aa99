"""Dense solves of the small (m <= 4) per-element systems.

``solve`` handles one matrix by Gaussian elimination with an explicit
pivot threshold, so near-singular upwind matrices are reported instead of
producing garbage.  ``solve_batched`` solves a batch through LAPACK and
hands the items that fail or miss its residual guard to ``solve``.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

# Relative pivot floor: a pivot smaller than this times ||A||_inf is treated
# as structurally zero.
PIVOT_RTOL = 1e-13


def solve(a, b):
    """Solve a @ x = b by Gaussian elimination with partial pivoting.

    ``a`` is (m, m), ``b`` is (m,) or (m, k).  Raises SingularMatrix when the
    best available pivot falls below PIVOT_RTOL * ||a||_inf.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    m = a.shape[0]
    if a.shape != (m, m):
        raise SingularMatrix(f"matrix must be square, got {a.shape}")
    vec = b.ndim == 1
    rhs = b.reshape(m, -1).copy()
    norm = np.abs(a).sum(axis=1).max()
    floor = PIVOT_RTOL * (norm if norm > 0.0 else 1.0)

    for col in range(m):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= floor:
            raise SingularMatrix(
                f"pivot {pivot:.3e} below threshold {floor:.3e} in column {col}"
            )
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        factors = a[col + 1 :, col] / pivot
        a[col + 1 :, col:] -= factors[:, None] * a[col, col:]
        rhs[col + 1 :] -= factors[:, None] * rhs[col]

    x = np.empty_like(rhs)
    for row in range(m - 1, -1, -1):
        x[row] = (rhs[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x[:, 0] if vec else x


def solve_batched(a, b):
    """Batched solve of a[t] @ x[t] = b[t] with singularity detection.

    ``a`` is (T, m, m), ``b`` is (T, m).  Returns (x, bad) where ``bad`` is a
    boolean mask of batch items whose system was singular (their x rows are
    zero).  Detection: LAPACK failure plus a residual check against the
    pivot-threshold contract of ``solve``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bad = np.zeros(b.shape[0], dtype=bool)
    try:
        x = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Rare path: pick out the singular items one by one.
        x = np.zeros_like(b)
        suspect = np.ones(b.shape[0], dtype=bool)
    else:
        # Guard against quietly ill-conditioned systems: demand a small
        # residual relative to the data scale.
        resid = np.abs(np.einsum("tij,tj->ti", a, x) - b).max(axis=1)
        scale = np.abs(a).sum(axis=2).max(axis=1) * np.maximum(
            np.abs(x).max(axis=1), 1.0
        ) + np.abs(b).max(axis=1)
        suspect = ~np.isfinite(resid) | (resid > 1e-8 * np.maximum(scale, 1.0))
    for j in np.flatnonzero(suspect):
        try:
            x[j] = solve(a[j], b[j])
        except SingularMatrix:
            bad[j] = True
            x[j] = 0.0
    return x, bad
