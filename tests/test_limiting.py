"""Linear-preserving limiter and the steady-convergence correction term."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdflux import limiting, physics
from rdflux.mesh import compute_normals, triangle_areas

from .conftest import random_euler_states, random_triangles


class TestLimitScalar:
    def test_already_positive_unchanged(self):
        parts = np.array([[[0.4], [0.6], [0.0]]])
        out = limiting.limit_scalar(parts)
        assert np.allclose(out, parts, atol=1e-15)

    def test_reference_redistribution(self):
        # Weights (0.5, 0.75, -0.25) against a unit total clip to
        # (0.4, 0.6, 0.0) after renormalizing the positive mass 1.25.
        parts = np.array([[[0.5], [0.75], [-0.25]]])
        out = limiting.limit_scalar(parts)
        assert np.allclose(out[0, :, 0], [0.4, 0.6, 0.0], rtol=1e-14)

    def test_zero_total_zero_output(self):
        # 0.75 - 0.25 - 0.5 is exactly zero in binary floating point.
        parts = np.array([[[0.75], [-0.25], [-0.5]]])
        out = limiting.limit_scalar(parts)
        assert (out == 0.0).all()
        # An explicitly zero total forces zero output regardless of parts.
        out = limiting.limit_scalar(
            np.array([[[0.7], [-0.2], [-0.5]]]), total=np.zeros((1, 1))
        )
        assert (out == 0.0).all()

    def test_conservation_and_bounds_random(self, rng):
        parts = rng.standard_normal((500, 3, 1))
        out = limiting.limit_scalar(parts)
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
        out = limiting.limit_scalar(parts)
        total = parts.sum(axis=1)[:, 0]
        prod = out[..., 0] * total[:, None]
        assert (prod >= -1e-15 * np.abs(total[:, None])).all()

    def test_scale_invariance(self, rng):
        parts = rng.standard_normal((50, 3, 1))
        a = limiting.limit_scalar(parts)
        b = limiting.limit_scalar(2.5 * parts)
        assert np.allclose(b, 2.5 * a, rtol=1e-13)


class TestLimitSystem:
    def _euler_setup(self, rng, n):
        euler = physics.Euler()
        q = random_euler_states(rng, (n, 3))
        avg = euler.rsd_average(q)
        direction = limiting.limiting_direction(euler, avg.qhat)
        eig = euler.eigensystem(avg.qhat, direction)
        return euler, q, eig

    def test_m1_reduces_to_scalar(self, rng):
        # Scalar law: left/right eigenvectors are 1, so characteristic
        # projection is the identity and the system limiter must match
        # the scalar one exactly.
        burgers = physics.Burgers()
        parts = rng.standard_normal((80, 3, 1))
        qhat = rng.standard_normal((80, 1)) + 2.0
        eig = burgers.eigensystem(qhat, np.array([1.0, 0.0]))
        out = limiting.limit_system(parts, eig)
        ref = limiting.limit_scalar(parts)
        assert np.allclose(out, ref, atol=1e-13)

    def test_conservation(self, rng):
        _, _, eig = self._euler_setup(rng, 200)
        parts = rng.standard_normal((200, 3, 4))
        out = limiting.limit_system(parts, eig)
        before = parts.sum(axis=1)
        after = out.sum(axis=1)
        assert np.abs(after - before).max() <= 1e-12 * max(1.0, np.abs(before).max())

    def test_one_signed_fields_unchanged(self, rng):
        _, _, eig = self._euler_setup(rng, 40)
        # Parts whose characteristic components are already one-signed
        # (theta_i^p >= 0 for every node), and parts where one node
        # carries each field's entire amplitude (weight 1 on a node whose
        # amplitude is the field total): limiting is the identity on both.
        one_hot = np.zeros((40, 3, 4))
        one_hot[:, 0, :] = rng.standard_normal((40, 4))
        for theta in (np.abs(rng.standard_normal((40, 3, 4))), one_hot):
            parts = np.einsum("tnp,tpj->tnj", theta, np.swapaxes(eig.right, -1, -2))
            out = limiting.limit_system(parts, eig)
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
    def test_conservation_unchanged(self, rng):
        euler = physics.Euler()
        coords = random_triangles(rng, 120)
        normals = compute_normals(coords)
        areas = triangle_areas(coords)
        q = random_euler_states(rng, (120, 3))
        avg = euler.rsd_average(q)
        direction = limiting.limiting_direction(euler, avg.qhat)
        eig = euler.eigensystem(avg.qhat, direction)
        # Conservation is independent of the marker row; any row works here.
        ent_left = eig.left[:, 1]
        parts = rng.standard_normal((120, 3, 4))
        total = parts.sum(axis=1)
        out = limiting.correction_system(
            parts, total, areas, normals,
            euler.flux_jacobian(avg.qhat, np.array([1.0, 0.0])),
            euler.flux_jacobian(avg.qhat, np.array([0.0, 1.0])),
            ent_left,
        )
        assert np.abs(out.sum(axis=1) - total).max() <= 1e-12 * max(
            1.0, np.abs(total).max()
        )

    def test_zero_total_identity(self, rng):
        euler = physics.Euler()
        coords = random_triangles(rng, 10)
        normals = compute_normals(coords)
        areas = triangle_areas(coords)
        q = random_euler_states(rng, (10, 3))
        avg = euler.rsd_average(q)
        parts = rng.standard_normal((10, 3, 4))
        parts -= parts.mean(axis=1, keepdims=True)
        total = parts.sum(axis=1)  # ~0
        ent_left = np.zeros((10, 4))
        out = limiting.correction_system(
            parts, total, areas, normals,
            euler.flux_jacobian(avg.qhat, np.array([1.0, 0.0])),
            euler.flux_jacobian(avg.qhat, np.array([0.0, 1.0])),
            ent_left,
        )
        assert np.allclose(out, parts, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_limiter_bounds_property(seed):
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((6, 3, 1)) * 10.0 ** rng.integers(-6, 6)
    out = limiting.limit_scalar(parts)
    total = parts.sum(axis=1)
    nz = np.abs(total[:, 0]) > 0.0
    if nz.any():
        w = out[nz, :, 0] / total[nz, 0][:, None]
        assert (w >= -1e-14).all() and (w <= 1.0 + 1e-13).all()
        assert np.allclose(w.sum(axis=1), 1.0, rtol=1e-11)
