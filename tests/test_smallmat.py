"""The N scheme's batched star solve, checked against ``np.linalg.solve``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdflux import smallmat


def augment(a, b):
    """The augmented rows [a_t | b_t] of a (T, m, m) batch and its (T, m)
    right-hand sides, laid out (m, m + 1, T): a new array, the input of
    ``solve_batched``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[1]
    aug = np.empty((m, m + 1, len(a)))
    aug[:, :m] = a.transpose(1, 2, 0)
    aug[:, m] = b.T
    return aug


def solve(a, b):
    """``solve_batched`` on the batch (a, b)."""
    return smallmat.solve_batched(augment(a, b))


class TestSolve:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal((20, 4, 4)) + 4.0 * np.eye(4)
        b = rng.standard_normal((20, 4))
        x, bad = solve(a, b)
        assert not bad.any()
        assert np.allclose(x, np.linalg.solve(a, b[..., None])[..., 0], rtol=1e-12)

    def test_needs_pivoting(self):
        # Zero on the first diagonal entry: only row exchange can solve it.
        a = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        b = np.array([[2.0, 3.0]])
        x, bad = solve(a, b)
        assert not bad[0]
        assert np.allclose(x[0], [3.0, 2.0])

    def test_singular_flagged_and_zeroed(self):
        a = np.array([[[1.0, 2.0], [2.0, 4.0]]])
        x, bad = solve(a, np.array([[1.0, 1.0]]))
        assert bad[0] and (x[0] == 0.0).all()

    def test_near_singular_relative_threshold(self):
        # Scale invariance: a scaled-down copy of a singular matrix is
        # flagged too, beside a well-conditioned copy at the same scale.
        a = 1e-20 * np.array([[[1.0, 2.0], [2.0, 4.0]], [[2.0, 1.0], [1.0, 3.0]]])
        b = np.ones((2, 2))
        x, bad = solve(a, b)
        assert bad.tolist() == [True, False]
        assert np.allclose(x[1], np.linalg.solve(a[1], b[1]), rtol=1e-12)


class TestSolveBatched:
    def test_mixed_batch_flags_singular(self, rng):
        a = rng.standard_normal((6, 3, 3)) + 3.0 * np.eye(3)
        a[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
        b = rng.standard_normal((6, 3))
        x, bad = solve(a, b)
        assert bad[2] and not bad[[0, 1, 3, 4, 5]].any()
        assert (x[2] == 0.0).all()
        good = np.flatnonzero(~bad)
        assert np.allclose(
            np.einsum("tij,tj->ti", a[good], x[good]), b[good], atol=1e-9
        )


M = [1, 2, 3, 4]


def well_conditioned(rng, m, t=200):
    """(a, b): diagonally dominant systems, each with a unique solution."""
    a = rng.standard_normal((t, m, m)) + (m + 1.0) * np.eye(m)
    return a, rng.standard_normal((t, m))


def rank_deficient(rng, m, t):
    """(t, m, m) exactly singular matrices: products of small integer
    factors of inner dimension m - 1 (zero matrices when m = 1)."""
    u = rng.integers(-3, 4, (t, m, m - 1)).astype(float)
    v = rng.integers(-3, 4, (t, m - 1, m)).astype(float)
    return u @ v


def mixed_batch(rng, m):
    """A well-conditioned batch with singular items, plus the singular mask.

    Both kinds come at scales far from one: the pivot floor is relative
    to each item's own norm."""
    a, b = well_conditioned(rng, m, t=60)
    singular = np.zeros(len(b), dtype=bool)
    singular[::7] = True
    a[::7] = rank_deficient(rng, m, singular.sum())
    a[::14] *= 1e-20
    a[3::7] *= 1e-20
    a[5::7] *= 1e20
    return a, b, singular


@pytest.mark.parametrize("m", M)
def test_batch_matches_lapack(m):
    a, b = well_conditioned(np.random.default_rng(m), m)
    x, bad = solve(a, b)
    assert not bad.any()
    ref = np.linalg.solve(a, b[..., None])[..., 0]
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("m", M)
def test_rank_deficient_items_are_flagged_and_zeroed(m):
    # Scale invariance: the 1e-20 copies are flagged like the originals.
    rng = np.random.default_rng(10 + m)
    a = rank_deficient(rng, m, 40)
    a = np.concatenate([a, 1e-20 * a])
    b = rng.standard_normal((80, m))
    x, bad = solve(a, b)
    assert bad.all()
    assert (x == 0.0).all()


@pytest.mark.parametrize("m", M)
def test_items_do_not_interact(m):
    # Each item is solved exactly as it would be alone, whatever its
    # neighbours in the batch are.
    a, b, singular = mixed_batch(np.random.default_rng(20 + m), m)
    x, bad = solve(a, b)
    assert np.array_equal(bad, singular)
    for j in np.flatnonzero(~bad):
        xj, bad_j = solve(a[j : j + 1], b[j : j + 1])
        assert not bad_j[0]
        assert np.array_equal(x[j], xj[0])
        ref = np.linalg.solve(a[j], b[j])
        np.testing.assert_allclose(x[j], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("m", [2, 3, 4])
def test_zero_leading_entry_needs_pivoting(m):
    # a[t, 0, 0] = 0: without a row exchange the first pivot is zero.
    a, b = well_conditioned(np.random.default_rng(30 + m), m)
    a[:, 0, 0] = 0.0
    x, bad = solve(a, b)
    assert not bad.any()
    ref = np.linalg.solve(a, b[..., None])[..., 0]
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # The exchange matrix is solved exactly: x is b reversed.
    flip = np.broadcast_to(np.eye(m)[::-1], (len(b), m, m))
    assert np.array_equal(solve(flip, b)[0], b[:, ::-1])


@pytest.mark.parametrize("m", M)
def test_singular_items_raise_no_floating_point_warning(m):
    a, b, singular = mixed_batch(np.random.default_rng(40 + m), m)
    a[1] = 0.0
    singular[1] = True
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        x, bad = solve(a, b)
    assert np.array_equal(bad, singular)
    assert np.isfinite(x).all() and (x[bad] == 0.0).all()


@pytest.mark.parametrize("m", M)
def test_batched_inputs_not_mutated(m):
    # The solve writes only into the augmented rows it is handed, and the
    # solution it returns is a view of them.
    a, b, _ = mixed_batch(np.random.default_rng(50 + m), m)
    a0, b0 = a.copy(), b.copy()
    aug = augment(a, b)
    x, _ = smallmat.solve_batched(aug)
    assert np.shares_memory(x, aug)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)



def reduction_guard(a, x, b):
    """The backward-error check of a solve, written with NumPy reductions
    over the length-m axes: True for the items whose residual |a x - b| is
    non-finite or above 1e-8 of the scale ||a||_inf max(||x||_inf, 1) +
    ||b||_inf."""
    with np.errstate(all="ignore"):
        resid = np.abs(np.einsum("tij,tj->ti", a, x) - b).max(axis=1)
        scale = np.abs(a).sum(axis=2).max(axis=1) * np.maximum(
            np.abs(x).max(axis=1), 1.0
        ) + np.abs(b).max(axis=1)
        return ~np.isfinite(resid) | (resid > 1e-8 * np.maximum(scale, 1.0))


def guard_batch(kind, m, rng, t=200):
    """(a, b): a batch of one of four kinds.  ``inexact`` items are
    ill-conditioned (singular values from 1 down to 1e-11), so their
    solutions carry large forward errors while their residuals must stay
    small."""
    a = rng.standard_normal((t, m, m))
    b = rng.standard_normal((t, m))
    if kind == "inexact":
        u, _, vt = np.linalg.svd(a)
        s = np.logspace(0, -1, m)[None] ** rng.uniform(0, 11, (t, 1))
        a = (u * s[:, None, :]) @ vt
    elif kind == "near_singular":
        # Rank one plus a small perturbation; large right-hand sides make
        # some solutions overflow.
        rank_one = rng.standard_normal((t, m, 1)) * rng.standard_normal((t, 1, m))
        a = rank_one + 10.0 ** rng.uniform(-13, -8, (t, 1, 1)) * a
        b *= 10.0 ** rng.uniform(0, 305, (t, 1))
    elif kind == "non_finite":
        items = rng.integers(0, t, 20)
        a[items, rng.integers(0, m, 20), rng.integers(0, m, 20)] = rng.choice(
            [np.nan, np.inf, -np.inf], 20
        )
    return a, b


@pytest.mark.parametrize("kind", ["random", "inexact", "near_singular", "non_finite"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_guard_flags_items_of_reduction_form(kind, m):
    # The elimination is backward stable: the reduction-form residual check
    # flags none of the finite answers it returns unflagged.  Answers it
    # cannot give are visible: flagged (x zero) or non-finite, never a
    # finite x for a matrix with a NaN or an infinite entry.
    a, b = guard_batch(kind, m, np.random.default_rng(m))
    with np.errstate(all="ignore"):
        x, bad = solve(a, b)
    assert kind in ("random", "inexact") or 0 < bad.sum() < len(b)
    assert (x[bad] == 0.0).all()
    finite = np.isfinite(x).all(axis=1)
    assert kind in ("near_singular", "non_finite") or finite.all()
    answered = ~bad & finite
    assert not (reduction_guard(a, x, b) & answered).any()
    assert not (answered & ~np.isfinite(a).all(axis=(1, 2))).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_solve_random_property(seed):
    r = np.random.default_rng(seed)
    m = int(r.integers(1, 5))
    t = int(r.integers(1, 9))
    a = r.standard_normal((t, m, m)) + m * np.eye(m)
    b = r.standard_normal((t, m))
    x, bad = solve(a, b)
    assert not bad.any()
    assert np.allclose(np.einsum("tij,tj->ti", a, x), b, atol=1e-9 * max(1.0, np.abs(b).max()))
    assert np.allclose(x, np.linalg.solve(a, b[..., None])[..., 0], rtol=1e-9, atol=1e-9)
