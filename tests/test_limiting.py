"""Linear-preserving limiter and the steady-convergence correction term."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdflux import limiting, physics
from rdflux.mesh import compute_normals, triangle_areas

from .conftest import random_euler_states, random_triangles
from .oracles import flux_jacobian


class TestLimitScalar:
    def test_already_positive_unchanged(self):
        parts = np.array([[[0.4], [0.6], [0.0]]])
        out = limiting.limit_scalar(parts, parts.sum(axis=1))
        assert np.allclose(out, parts, atol=1e-15)

    def test_reference_redistribution(self):
        # Weights (0.5, 0.75, -0.25) against a unit total clip to
        # (0.4, 0.6, 0.0) after renormalizing the positive mass 1.25.
        parts = np.array([[[0.5], [0.75], [-0.25]]])
        out = limiting.limit_scalar(parts, parts.sum(axis=1))
        assert np.allclose(out[0, :, 0], [0.4, 0.6, 0.0], rtol=1e-14)

    def test_zero_total_zero_output(self):
        # 0.75 - 0.25 - 0.5 is exactly zero in binary floating point.
        parts = np.array([[[0.75], [-0.25], [-0.5]]])
        out = limiting.limit_scalar(parts, parts.sum(axis=1))
        assert (out == 0.0).all()
        # An explicitly zero total forces zero output regardless of parts.
        out = limiting.limit_scalar(
            np.array([[[0.7], [-0.2], [-0.5]]]), total=np.zeros((1, 1))
        )
        assert (out == 0.0).all()

    def test_conservation_and_bounds_random(self, rng):
        parts = rng.standard_normal((500, 3, 1))
        out = limiting.limit_scalar(parts, parts.sum(axis=1))
        total = parts.sum(axis=1)
        assert np.abs(out.sum(axis=1) - total).max() < 1e-12 * max(
            1.0, np.abs(total).max()
        )
        nz = np.abs(total[:, 0]) > 1e-12
        w = out[nz, :, 0] / total[nz, 0][:, None]
        assert (w >= -1e-14).all() and (w <= 1.0 + 1e-14).all()
        assert np.allclose(w.sum(axis=1), 1.0, rtol=1e-12)

    def test_sign_preservation(self, rng):
        parts = rng.standard_normal((300, 3, 1))
        out = limiting.limit_scalar(parts, parts.sum(axis=1))
        total = parts.sum(axis=1)[:, 0]
        prod = out[..., 0] * total[:, None]
        assert (prod >= -1e-15 * np.abs(total[:, None])).all()

    def test_scale_invariance(self, rng):
        parts = rng.standard_normal((50, 3, 1))
        a = limiting.limit_scalar(parts, parts.sum(axis=1))
        b = limiting.limit_scalar(2.5 * parts, 2.5 * parts.sum(axis=1))
        assert np.allclose(b, 2.5 * a, rtol=1e-13)


def matrix_limit(parts, eig):
    """The limiter written with the eigenvector matrices L and R of ``eig``."""
    theta = parts @ np.swapaxes(eig.left, -1, -2)
    return limiting.limit_scalar(theta, theta.sum(axis=1)) @ np.swapaxes(eig.right, -1, -2)


def matrix_correction(parts, total, areas, normals, jx, jy, ent_left):
    """The correction written with the Jacobian matrices Jx and Jy: parts plus
    theta |T|^{-1/2} (n_i . J) Phi^T / 2, theta from the marker |ent_left . Phi^T|."""
    proj = np.einsum("tj,tj->t", ent_left, total)
    theta = np.minimum(1.0, areas / (np.abs(proj) + limiting.CORRECTION_EPS))
    jxp = np.einsum("tij,tj->ti", jx, total)
    jyp = np.einsum("tij,tj->ti", jy, total)
    nj = normals[..., 0, None] * jxp[:, None] + normals[..., 1, None] * jyp[:, None]
    return parts + (0.5 * theta / np.sqrt(areas))[:, None, None] * nj


def assert_close_per_triangle(actual, expected, rtol=1e-12):
    scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
    assert (np.abs(actual - expected) <= rtol * scale).all()


class TestLimitSystem:
    def _euler_setup(self, rng, n):
        euler = physics.Euler()
        q = random_euler_states(rng, (n,))
        direction = limiting.limiting_direction(euler, q)
        return euler, q, direction

    def test_conservation(self, rng):
        euler, q, direction = self._euler_setup(rng, 200)
        parts = rng.standard_normal((200, 3, 4))
        out = limiting.limit_system(parts, euler, q, direction)
        before = parts.sum(axis=1)
        after = out.sum(axis=1)
        assert np.abs(after - before).max() <= 1e-12 * max(1.0, np.abs(before).max())

    @pytest.mark.parametrize("mach_scale", [2.0, 8.0])
    def test_matches_matrix_formulation(self, rng, mach_scale):
        euler = physics.Euler()
        q = random_euler_states(rng, (300,), mach_scale=mach_scale)
        q[:20] = euler.conserved(1.0 + rng.random(20), 0.0, 0.0, 1.0)  # stagnant: (1, 0)
        direction = limiting.limiting_direction(euler, q)
        parts = rng.standard_normal((300, 3, 4))
        expected = matrix_limit(parts, euler.eigensystem(q, direction))
        assert_close_per_triangle(limiting.limit_system(parts, euler, q, direction), expected)

    def test_one_signed_fields_unchanged(self, rng):
        euler, q, direction = self._euler_setup(rng, 40)
        eig = euler.eigensystem(q, direction)
        # Parts whose characteristic components are already one-signed
        # (theta_i^p >= 0 for every node), and parts where one node
        # carries each field's entire amplitude (weight 1 on a node whose
        # amplitude is the field total): limiting is the identity on both.
        one_hot = np.zeros((40, 3, 4))
        one_hot[:, 0, :] = rng.standard_normal((40, 4))
        for theta in (np.abs(rng.standard_normal((40, 3, 4))), one_hot):
            parts = np.einsum("tnp,tpj->tnj", theta, np.swapaxes(eig.right, -1, -2))
            out = limiting.limit_system(parts, euler, q, direction)
            scale = np.abs(parts).max()
            assert np.abs(out - parts).max() <= 1e-13 * scale


class TestLimitingDirection:
    def test_follows_velocity(self, rng):
        euler = physics.Euler()
        q = euler.conserved(1.0, 3.0, 4.0, 2.0)[None]
        d = limiting.limiting_direction(euler, q)
        assert np.allclose(d[0], [0.6, 0.8], rtol=1e-13)

    def test_stagnation_fallback(self):
        euler = physics.Euler()
        q = euler.conserved(1.0, 0.0, 0.0, 1.0)[None]
        d = limiting.limiting_direction(euler, q)
        assert np.allclose(d[0], [1.0, 0.0])

    def test_unit_norm(self, rng):
        euler = physics.Euler()
        q = random_euler_states(rng, (50,))
        d = limiting.limiting_direction(euler, q)
        assert np.allclose(np.hypot(d[:, 0], d[:, 1]), 1.0, rtol=1e-13)


class TestCorrectionTheta:
    def test_arithmetic_reference(self):
        areas = np.array([1.0])
        proj = np.array([10.0])
        th = limiting.correction_theta(areas, proj)
        assert abs(th[0] - 1.0 / (10.0 + 1e-10)) < 1e-12

    def test_caps_at_one(self):
        th = limiting.correction_theta(np.array([5.0]), np.array([1e-14]))
        assert th[0] == 1.0

    def test_shock_switchoff_scaling(self):
        # Large projection (shock-strength residual) shrinks theta like |T|/|proj|.
        areas = np.array([1e-4])
        proj = np.array([2.0])
        th = limiting.correction_theta(areas, proj)
        assert np.isclose(th[0], 5e-5, rtol=1e-6)


class TestCorrectionScalar:
    def test_conservation_unchanged(self, rng):
        parts = rng.standard_normal((100, 3, 1))
        total = parts.sum(axis=1)
        areas = 0.1 + rng.random(100)
        k = rng.standard_normal((100, 3))
        k -= k.mean(axis=1, keepdims=True)  # sum_i k_i = 0
        out = limiting.correction_scalar(parts, total, areas, k)
        assert np.abs(out.sum(axis=1) - total).max() < 1e-12 * max(
            1.0, np.abs(total).max()
        )

    def test_zero_total_no_change(self, rng):
        parts = rng.standard_normal((20, 3, 1))
        parts -= parts.mean(axis=1, keepdims=True)
        total = parts.sum(axis=1)
        areas = np.full(20, 0.3)
        k = rng.standard_normal((20, 3))
        out = limiting.correction_scalar(parts, total, areas, k)
        assert np.allclose(out, parts, atol=1e-13)

    def test_magnitude_formula(self):
        # Single triangle, hand-evaluated: theta |T|^{-1/2} k_i total.
        parts = np.zeros((1, 3, 1))
        total = np.array([[2.0]])
        areas = np.array([4.0])
        k = np.array([[1.0, -0.5, -0.5]])
        out = limiting.correction_scalar(parts, total, areas, k)
        theta = min(1.0, 4.0 / (2.0 + 1e-10))
        expect = theta / 2.0 * np.array([1.0, -0.5, -0.5]) * 2.0
        assert np.allclose(out[0, :, 0], expect, rtol=1e-12)


class TestCorrectionSystem:
    def _setup(self, rng, n, mach_scale=2.0):
        euler = physics.Euler()
        coords = random_triangles(rng, n)
        q = random_euler_states(rng, (n,), mach_scale=mach_scale)
        direction = limiting.limiting_direction(euler, q)
        return euler, compute_normals(coords), triangle_areas(coords), q, direction

    def test_conservation_unchanged(self, rng):
        euler, normals, areas, q, direction = self._setup(rng, 120)
        parts = rng.standard_normal((120, 3, 4))
        total = parts.sum(axis=1)
        out = limiting.correction_system(parts, total, areas, normals, euler, q, direction)
        assert np.abs(out.sum(axis=1) - total).max() <= 1e-12 * max(
            1.0, np.abs(total).max()
        )

    def test_zero_total_identity(self, rng):
        euler, normals, areas, q, direction = self._setup(rng, 10)
        parts = rng.standard_normal((10, 3, 4))
        parts -= parts.mean(axis=1, keepdims=True)
        total = parts.sum(axis=1)  # ~0
        out = limiting.correction_system(parts, total, areas, normals, euler, q, direction)
        assert np.allclose(out, parts, atol=1e-12)

    @pytest.mark.parametrize("mach_scale", [2.0, 8.0])
    def test_matches_matrix_formulation(self, rng, mach_scale):
        euler, normals, areas, q, direction = self._setup(rng, 300, mach_scale)
        parts = rng.standard_normal((300, 3, 4))
        # Totals from tiny (theta = 1) to large (theta < 1, shock-like).
        total = parts.sum(axis=1) * 10.0 ** rng.uniform(-3.0, 3.0, (300, 1))
        eig = euler.eigensystem(q, direction)
        expected = matrix_correction(
            parts, total, areas, normals,
            flux_jacobian(euler, q, np.array([1.0, 0.0])),
            flux_jacobian(euler, q, np.array([0.0, 1.0])),
            eig.left[:, euler.ENTROPY_WAVE],
        )
        actual = limiting.correction_system(parts, total, areas, normals, euler, q, direction)
        assert_close_per_triangle(actual, expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_limiter_bounds_property(seed):
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((6, 3, 1)) * 10.0 ** rng.integers(-6, 6)
    out = limiting.limit_scalar(parts, parts.sum(axis=1))
    total = parts.sum(axis=1)
    nz = np.abs(total[:, 0]) > 0.0
    if nz.any():
        w = out[nz, :, 0] / total[nz, 0][:, None]
        assert (w >= -1e-14).all() and (w <= 1.0 + 1e-13).all()
        assert np.allclose(w.sum(axis=1), 1.0, rtol=1e-11)
