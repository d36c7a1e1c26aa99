"""Linear-preserving limiter and the steady-convergence correction term."""

import warnings

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


def divide_mask_multiply(parts, total):
    """The scalar limiter as weights times the total: w_i = s_i / S^+ with
    s_i = max(Phi_i sign(Phi^T), 0) and S^+ = sum_j s_j, masked to zero
    where S^+ = 0, then multiplied by Phi^T."""
    pos = np.maximum(parts * np.sign(total)[:, None, :], 0.0)
    den = pos.sum(axis=1, keepdims=True)
    live = den > 0.0
    weights = np.where(live, pos / np.where(live, den, 1.0), 0.0)
    return weights * total[:, None, :]


def oracle_cases(rng):
    """(parts, total) pairs with m = 3 fields over magnitudes 1e-8 to 1e8:
    totals that are the parts' sum, rows summing to exactly zero, explicit
    zero totals, and rows with S^+ = 0 (every part opposes the total)."""
    n = 400
    parts = rng.standard_normal((n, 3, 3)) * 10.0 ** rng.integers(-8, 9, (n, 1, 3))
    parts[:20] = np.array([0.75, -0.25, -0.5])[:, None]  # sums to exactly zero
    total = parts.sum(axis=1)
    yield parts, total
    zero = total.copy()
    zero[::3] = 0.0
    yield parts, zero
    opposed = -np.abs(parts[:40]) * np.sign(total[:40])[:, None, :]
    yield opposed, total[:40]


class TestLimitOracle:
    """``limit_scalar`` and ``limit_system`` against the divide, mask and
    multiply form of the limiter, written out here."""

    def test_limit_scalar_matches_divide_mask_multiply(self, rng):
        for parts, total in oracle_cases(rng):
            expected = divide_mask_multiply(parts, total)
            out = limiting.limit_scalar(parts, total)
            assert (np.abs(out - expected) <= 1e-15 * np.abs(expected)).all()
            assert ((out == 0.0) == (expected == 0.0)).all()

    def test_zero_total_and_no_positive_part_give_zero(self, rng):
        for parts, total in oracle_cases(rng):
            pos = np.maximum(parts * np.sign(total)[:, None, :], 0.0).sum(axis=1)
            dead = (total == 0.0) | (pos == 0.0)
            assert dead.any()
            out = limiting.limit_scalar(parts, total)
            assert (out.transpose(0, 2, 1)[dead] == 0.0).all()

    def test_sum_kept_and_sign_shared(self, rng):
        parts, total = next(oracle_cases(rng))
        out = limiting.limit_scalar(parts, total)
        assert (np.abs(out.sum(axis=1) - total) <= 4e-16 * 3 * np.abs(total)).all()
        assert (out * total[:, None, :] >= 0.0).all()

    @pytest.mark.parametrize("mach_scale", [2.0, 8.0])
    def test_limit_system_matches_divide_mask_multiply(self, rng, mach_scale):
        # The limited amplitudes are compared before the reconstruction,
        # which mixes the fields: a law whose ``from_characteristic`` is the
        # identity returns them as they are (``limit_system`` passes its
        # amplitude buffer as ``out``, which then already holds them).
        class Amplitudes(physics.Euler):
            def from_characteristic(self, coef, *args, out=None):
                return coef

        euler = Amplitudes()
        waves = euler.waves(random_euler_states(rng, (300,), mach_scale=mach_scale))
        direction = limiting.limiting_direction(waves)
        parts = rng.standard_normal((300, 3, 4)) * 10.0 ** rng.integers(-8, 9, (300, 1, 1))
        parts[:10] = 0.0  # zero totals
        theta = euler.characteristic(parts, per_node(waves), direction[:, None])
        total = theta[:, 0] + theta[:, 1] + theta[:, 2]
        expected = divide_mask_multiply(theta, total)
        out = limiting.limit_system(parts, euler, direction, waves)
        assert (np.abs(out - expected) <= 1e-15 * np.abs(expected)).all()
        assert (out[:10] == 0.0).all()
        assert (np.abs(out.sum(axis=1) - total) <= 4e-16 * 3 * np.abs(total)).all()
        assert (out * total[:, None, :] >= 0.0).all()


def per_node(waves):
    """Per-triangle wave data broadcast over a triangle's three nodes."""
    return tuple(x[:, None] for x in waves)


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
        waves = euler.waves(q)
        return euler, q, waves, limiting.limiting_direction(waves)

    def test_conservation(self, rng):
        euler, _, waves, direction = self._euler_setup(rng, 200)
        parts = rng.standard_normal((200, 3, 4))
        out = limiting.limit_system(parts, euler, direction, waves)
        before = parts.sum(axis=1)
        after = out.sum(axis=1)
        assert np.abs(after - before).max() <= 1e-12 * max(1.0, np.abs(before).max())

    @pytest.mark.parametrize("mach_scale", [2.0, 8.0])
    def test_matches_matrix_formulation(self, rng, mach_scale):
        euler = physics.Euler()
        q = random_euler_states(rng, (300,), mach_scale=mach_scale)
        q[:20] = euler.conserved(1.0 + rng.random(20), 0.0, 0.0, 1.0)  # stagnant: (1, 0)
        waves = euler.waves(q)
        direction = limiting.limiting_direction(waves)
        parts = rng.standard_normal((300, 3, 4))
        expected = matrix_limit(parts, euler.eigensystem(q, direction))
        assert_close_per_triangle(limiting.limit_system(parts, euler, direction, waves), expected)

    def test_input_unchanged_and_same_bits_as_allocating_hooks(self, rng):
        # The limiter works in its own amplitude array: the parts passed in
        # keep their values, whatever their layout, and the result equals,
        # bit for bit, the hooks chained without reusing any array.
        euler, _, waves, direction = self._euler_setup(rng, 60)
        w_n, d_n = per_node(waves), direction[:, None]
        parts = rng.standard_normal((60, 3, 4))
        for parts in (parts, np.asfortranarray(parts)):
            kept = parts.copy()
            out = limiting.limit_system(parts, euler, direction, waves)
            assert np.array_equal(parts, kept)
            assert not np.shares_memory(out, parts)
            theta = euler.characteristic(kept, w_n, d_n)
            limited = limiting.limit_scalar(theta, theta[:, 0] + theta[:, 1] + theta[:, 2])
            assert np.array_equal(out, euler.from_characteristic(limited, w_n, d_n))

    def test_one_signed_fields_unchanged(self, rng):
        euler, q, waves, direction = self._euler_setup(rng, 40)
        eig = euler.eigensystem(q, direction)
        # Parts whose characteristic components are already one-signed
        # (theta_i^p >= 0 for every node), and parts where one node
        # carries each field's entire amplitude (weight 1 on a node whose
        # amplitude is the field total): limiting is the identity on both.
        one_hot = np.zeros((40, 3, 4))
        one_hot[:, 0, :] = rng.standard_normal((40, 4))
        for theta in (np.abs(rng.standard_normal((40, 3, 4))), one_hot):
            parts = np.einsum("tnp,tpj->tnj", theta, np.swapaxes(eig.right, -1, -2))
            out = limiting.limit_system(parts, euler, direction, waves)
            scale = np.abs(parts).max()
            assert np.abs(out - parts).max() <= 1e-13 * scale


class TestLimitingDirection:
    def test_follows_velocity(self, rng):
        euler = physics.Euler()
        q = euler.conserved(1.0, 3.0, 4.0, 2.0)[None]
        d = limiting.limiting_direction(euler.waves(q))
        assert np.allclose(d[0], [0.6, 0.8], rtol=1e-13)

    def test_stagnation_fallback(self):
        euler = physics.Euler()
        q = euler.conserved(1.0, 0.0, 0.0, 1.0)[None]
        d = limiting.limiting_direction(euler.waves(q))
        assert np.allclose(d[0], [1.0, 0.0])

    def test_unit_norm(self, rng):
        euler = physics.Euler()
        q = random_euler_states(rng, (50,))
        d = limiting.limiting_direction(euler.waves(q))
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

    def test_scalars_integers_and_broadcasting(self):
        # theta accepts what NumPy arithmetic does: a scalar projection, an
        # integer one, and areas that broadcast against it.
        assert limiting.correction_theta(2.0, 4.0) == 2.0 / (4.0 + 1e-10)
        assert limiting.correction_theta(np.array(0.5), 0) == 1.0
        th = limiting.correction_theta(np.array([1.0, 3.0]), np.array([[2], [6]]))
        assert th.shape == (2, 2)
        assert np.array_equal(th, np.minimum(1.0, [[1.0, 3.0], [1.0, 3.0]]
                                             / (np.array([[2.0], [6.0]]) + 1e-10)))


class TestCorrectionScalar:
    def test_conservation_unchanged(self, rng):
        parts = rng.standard_normal((100, 3, 1))
        total = parts.sum(axis=1)
        areas = 0.1 + rng.random(100)
        k = rng.standard_normal((100, 3))
        k -= k.mean(axis=1, keepdims=True)  # sum_i k_i = 0
        out = limiting.correction_scalar(parts, total, areas, limiting.correction_weights(k))
        assert np.abs(out.sum(axis=1) - total).max() < 1e-12 * max(
            1.0, np.abs(total).max()
        )

    def test_zero_total_no_change(self, rng):
        parts = rng.standard_normal((20, 3, 1))
        parts -= parts.mean(axis=1, keepdims=True)
        total = parts.sum(axis=1)
        areas = np.full(20, 0.3)
        k = rng.standard_normal((20, 3))
        out = limiting.correction_scalar(parts, total, areas, limiting.correction_weights(k))
        assert np.allclose(out, parts, atol=1e-13)

    def test_magnitude_formula(self):
        # Two triangles, hand-evaluated: theta (k_i / sum_j k_j^+) total.
        # The first has one inflow node (sum 1), the second two (sum 1.5).
        parts = np.zeros((2, 3, 1))
        total = np.array([[2.0], [-3.0]])
        areas = np.array([4.0, 0.5])
        k = np.array([[1.0, -0.5, -0.5], [0.5, 1.0, -1.5]])
        out = limiting.correction_scalar(parts, total, areas, limiting.correction_weights(k))
        theta = [min(1.0, 4.0 / (2.0 + 1e-10)), min(1.0, 0.5 / (3.0 + 1e-10))]
        assert np.allclose(out[0, :, 0], theta[0] * np.array([1.0, -0.5, -0.5]) * 2.0,
                           rtol=1e-12)
        assert np.allclose(out[1, :, 0], theta[1] * np.array([0.5, 1.0, -1.5]) / 1.5 * -3.0,
                           rtol=1e-12)

    @pytest.mark.parametrize("c", [1e-3, 0.37, 10.0, 4.0e3])
    def test_scales_like_the_parts(self, rng, c):
        # Areas far above every total hold theta at 1.  Scaling k, the parts
        # and the total by c then scales the correction by c, as it scales
        # the parts: the amplitude carries no units of k.
        parts = rng.standard_normal((50, 3, 1))
        total = parts.sum(axis=1)
        areas = np.full(50, 1e6)
        k = rng.standard_normal((50, 3))
        k -= k.mean(axis=1, keepdims=True)
        weights = limiting.correction_weights(k)
        correction = limiting.correction_scalar(parts, total, areas, weights) - parts
        c_weights = limiting.correction_weights(c * k)
        scaled = limiting.correction_scalar(c * parts, c * total, areas, c_weights) - c * parts
        assert np.allclose(scaled, c * correction, rtol=1e-10, atol=1e-12 * c)
        assert np.abs(correction).max() > 0.1

    def test_no_inflow_no_correction(self, rng):
        # Every k is zero: the triangle has no inflow and gets no correction,
        # with no RuntimeWarning from a zero inflow sum.
        parts = rng.standard_normal((4, 3, 1))
        total = parts.sum(axis=1)
        k = np.zeros((4, 3))
        k[0] = [1.0, -0.25, -0.75]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            weights = limiting.correction_weights(k)
            out = limiting.correction_scalar(parts, total, np.full(4, 0.5), weights)
        assert np.array_equal(out[1:], parts[1:])
        assert not np.array_equal(out[0], parts[0])
        assert np.array_equal(weights[1:], np.zeros((3, 3)))

    def test_given_weights_match_the_formed_ones(self, rng):
        # The weights that the correction is given match k_i / sum_j k_j^+
        # formed here, and the correction adds theta times them times the
        # total, with theta from the total as ``correction_theta`` forms it.
        parts = rng.standard_normal((30, 3, 1))
        total = parts.sum(axis=1)
        areas = 0.1 + rng.random(30)
        k = rng.standard_normal((30, 3))
        k -= k.mean(axis=1, keepdims=True)  # every triangle has inflow
        weights = limiting.correction_weights(k)
        formed = k / np.maximum(k, 0.0).sum(axis=1, keepdims=True)
        assert np.allclose(weights, formed, rtol=1e-15, atol=0.0)
        assert np.allclose(np.maximum(weights, 0.0).sum(axis=1), 1.0, rtol=1e-14)
        theta = limiting.correction_theta(areas, total[:, 0])
        out = limiting.correction_scalar(parts, total, areas, weights)
        expected = parts + (theta[:, None] * formed * total)[..., None]
        assert np.allclose(out, expected, rtol=1e-14, atol=1e-15)


class TestCorrectionSystem:
    def _setup(self, rng, n, mach_scale=2.0):
        euler = physics.Euler()
        coords = random_triangles(rng, n)
        q = random_euler_states(rng, (n,), mach_scale=mach_scale)
        return euler, compute_normals(coords), triangle_areas(coords), q, euler.waves(q)

    def test_conservation_unchanged(self, rng):
        euler, normals, areas, _, waves = self._setup(rng, 120)
        parts = rng.standard_normal((120, 3, 4))
        total = parts.sum(axis=1)
        out = limiting.correction_system(parts, total, areas, normals, euler, waves)
        assert np.abs(out.sum(axis=1) - total).max() <= 1e-12 * max(
            1.0, np.abs(total).max()
        )

    def test_zero_total_identity(self, rng):
        euler, normals, areas, _, waves = self._setup(rng, 10)
        parts = rng.standard_normal((10, 3, 4))
        parts -= parts.mean(axis=1, keepdims=True)
        total = parts.sum(axis=1)  # ~0
        # The correction adds into the parts it is given: pass a copy.
        out = limiting.correction_system(parts.copy(), total, areas, normals, euler, waves)
        assert np.allclose(out, parts, atol=1e-12)

    def test_adds_into_the_given_parts(self, rng):
        euler, normals, areas, _, waves = self._setup(rng, 50)
        parts = rng.standard_normal((50, 3, 4))
        kept = parts.copy()
        total = kept.sum(axis=1)
        data = (total, areas, normals, euler, waves)
        correction = limiting.correction_system(np.zeros_like(parts), *data)
        out = limiting.correction_system(parts, *data)
        assert out is parts
        assert np.array_equal(out, kept + correction)

    @pytest.mark.parametrize("mach_scale", [2.0, 8.0])
    def test_matches_matrix_formulation(self, rng, mach_scale):
        euler, normals, areas, q, waves = self._setup(rng, 300, mach_scale)
        parts = rng.standard_normal((300, 3, 4))
        # Totals from tiny (theta = 1) to large (theta < 1, shock-like).
        total = parts.sum(axis=1) * 10.0 ** rng.uniform(-3.0, 3.0, (300, 1))
        eig = euler.eigensystem(q, limiting.limiting_direction(waves))
        expected = matrix_correction(
            parts, total, areas, normals,
            flux_jacobian(euler, q, np.array([1.0, 0.0])),
            flux_jacobian(euler, q, np.array([0.0, 1.0])),
            eig.left[:, euler.ENTROPY_WAVE],
        )
        actual = limiting.correction_system(parts, total, areas, normals, euler, waves)
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
