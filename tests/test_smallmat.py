"""Small dense linear algebra: single and batched pivoted solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdflux import smallmat
from rdflux.errors import SingularMatrix


class TestSolve:
    def test_matches_numpy(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            b = rng.standard_normal(4)
            assert np.allclose(smallmat.solve(a, b), np.linalg.solve(a, b), rtol=1e-12)

    def test_multiple_rhs(self, rng):
        a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        b = rng.standard_normal((3, 5))
        assert np.allclose(smallmat.solve(a, b), np.linalg.solve(a, b), rtol=1e-12)

    def test_needs_pivoting(self):
        # Zero on the first diagonal entry: only row exchange can solve it.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 3.0])
        assert np.allclose(smallmat.solve(a, b), [3.0, 2.0])

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            smallmat.solve(a, np.array([1.0, 1.0]))

    def test_near_singular_relative_threshold(self):
        # Scale invariance: scaled-down copies of a singular matrix still raise.
        a = 1e-20 * np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            smallmat.solve(a, np.array([1.0, 1.0]))

    def test_non_square_rejected(self):
        with pytest.raises(SingularMatrix):
            smallmat.solve(np.ones((2, 3)), np.ones(2))

    def test_inputs_not_mutated(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 1.0])
        a0, b0 = a.copy(), b.copy()
        smallmat.solve(a, b)
        assert (a == a0).all() and (b == b0).all()


class TestSolveBatched:
    def test_mixed_batch_flags_singular(self, rng):
        a = rng.standard_normal((6, 3, 3)) + 3.0 * np.eye(3)
        a[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
        b = rng.standard_normal((6, 3))
        x, bad = smallmat.solve_batched(a, b)
        assert bad[2] and not bad[[0, 1, 3, 4, 5]].any()
        assert (x[2] == 0.0).all()
        good = np.flatnonzero(~bad)
        assert np.allclose(
            np.einsum("tij,tj->ti", a[good], x[good]), b[good], atol=1e-9
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_solve_random_property(seed):
    r = np.random.default_rng(seed)
    m = int(r.integers(1, 5))
    a = r.standard_normal((m, m)) + m * np.eye(m)
    b = r.standard_normal(m)
    x = smallmat.solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-9 * max(1.0, np.abs(b).max()))
