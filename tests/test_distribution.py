"""Per-triangle residual splitting: totals, upwind schemes, wave bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdflux import config, physics, solver, verify
from rdflux import distribution as dist
from rdflux.mesh import compute_normals, triangle_areas

from .conftest import REF_TRI, random_euler_states, random_triangles

GAUSS_4PT = (
    # 4-point Gauss-Legendre rule on [0, 1]: (position, weight).
    (0.5 - math.sqrt(525 + 70 * math.sqrt(30.0)) / 70.0, (18 - math.sqrt(30.0)) / 72.0),
    (0.5 - math.sqrt(525 - 70 * math.sqrt(30.0)) / 70.0, (18 + math.sqrt(30.0)) / 72.0),
    (0.5 + math.sqrt(525 - 70 * math.sqrt(30.0)) / 70.0, (18 + math.sqrt(30.0)) / 72.0),
    (0.5 + math.sqrt(525 + 70 * math.sqrt(30.0)) / 70.0, (18 - math.sqrt(30.0)) / 72.0),
)


def quadrature_contour_residual(law, coords, q_nodes):
    """Contour integral of the P1-interpolated flux, 4 Gauss points per edge.

    Independent check of the conservative-linearization identity: exact
    for flux components that are polynomial of degree <= 7 along each
    edge (the parameter-vector interpolant makes Euler fluxes quadratic).
    """
    total = np.zeros(law.m)
    z_nodes = law.to_params(q_nodes)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        xa, xb = coords[a], coords[b]
        edge = xb - xa
        # Outward normal of a CCW-ordered edge, scaled by edge length.
        n_out = np.array([edge[1], -edge[0]])
        for t, w in GAUSS_4PT:
            z = (1.0 - t) * z_nodes[a] + t * z_nodes[b]
            fx, fy = law.flux(law.from_params(z[None]))
            total += w * (n_out[0] * fx[0] + n_out[1] * fy[0])
    return total


class TestTotals:
    def test_uniform_state_zero(self, euler, ref_normals):
        q = np.tile(euler.freestream(2.0, 5.0), (1, 3, 1))
        tot = dist.total_residual_rsd(euler, ref_normals[None], q)
        assert np.abs(tot).max() < 1e-13

    def test_rsd_total_matches_quadrature(self, euler, rng):
        coords = random_triangles(rng, 50)
        normals = compute_normals(coords)
        q = random_euler_states(rng, (50, 3))
        tot = dist.total_residual_rsd(euler, normals, q)
        for t in range(50):
            ref = quadrature_contour_residual(euler, coords[t], q[t])
            scale = max(np.abs(ref).max(), 1e-30)
            assert np.abs(tot[t] - ref).max() <= 1e-10 * max(scale, 1.0)

    def test_two_point_total_advection(self, ref_normals):
        law = physics.Advection((1.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        tot = dist.total_residual_linear(law, ref_normals[None], q)
        # Midpoint rule on edges: sum_i (n_i . u) Q_i / 2 = (-0.5 + 1.0 + 0) = 0.5.
        assert np.isclose(tot[0, 0], 0.5, rtol=1e-14)


class TestNSchemeScalar:
    def test_one_target(self, ref_normals):
        law = physics.Advection((1.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        r = dist.n_scheme_scalar(q, dist.scalar_upwind_k(law, ref_normals[None], q))
        assert np.allclose(r.parts[0, :, 0], [0.0, 0.5, 0.0], atol=1e-14)
        assert np.isclose(r.star[0, 0], 1.0)

    def test_two_target(self, ref_normals):
        law = physics.Advection((1.0, 1.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        r = dist.n_scheme_scalar(q, dist.scalar_upwind_k(law, ref_normals[None], q))
        assert np.allclose(r.parts[0, :, 0], [0.0, 0.5, 1.0], atol=1e-14)
        assert np.isclose(r.star[0, 0], 1.0)

    def test_conservation_random(self, rng):
        coords = random_triangles(rng, 200)
        normals = compute_normals(coords)
        q = rng.standard_normal((200, 3, 1)) * 2.0
        law = physics.Advection((0.8, 0.3))
        r = dist.n_scheme_scalar(q, dist.scalar_upwind_k(law, normals, q))
        tot = dist.total_residual_linear(law, normals, q)
        assert np.abs(r.total - tot).max() < 1e-13

    def test_zero_velocity_zero_parts(self, ref_normals):
        law = physics.Advection((0.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        r = dist.n_scheme_scalar(q, dist.scalar_upwind_k(law, ref_normals[None], q))
        assert (r.parts == 0.0).all()

    def test_parts_upwind_sign_structure(self, rng):
        # Each part is [k_i]+ (Q_i - Q_star): zero for strictly upstream nodes.
        coords = random_triangles(rng, 100)
        normals = compute_normals(coords)
        q = rng.standard_normal((100, 3, 1))
        law = physics.Advection((1.0, 0.4))
        k = 0.5 * (normals * np.array([1.0, 0.4])).sum(axis=-1)
        r = dist.n_scheme_scalar(q, dist.scalar_upwind_k(law, normals, q))
        assert (np.abs(r.parts[..., 0][k <= 0.0]) < 1e-14).all()

    def test_burgers_upwind_k_at_nodal_mean(self, burgers, rng):
        # f'(q) = (q, 0), so k_i = n_i,x (Q_1 + Q_2 + Q_3) / 6.
        normals = compute_normals(random_triangles(rng, 50))
        q = rng.standard_normal((50, 3, 1))
        expected = normals[..., 0] * q.sum(axis=1) / 6.0
        k = dist.scalar_upwind_k(burgers, normals, q)
        assert np.abs(k - expected).max() <= 1e-14 * np.abs(expected).max()


class TestNSchemeSystem:
    def test_uniform_zero(self, euler, ref_normals):
        q = np.tile(euler.freestream(0.9, 0.0), (1, 3, 1))
        r = dist.n_scheme_system(euler, ref_normals[None], q)
        assert np.abs(r.parts).max() < 1e-12

    def test_conservation_matches_rsd_total(self, euler, rng):
        coords = random_triangles(rng, 150)
        normals = compute_normals(coords)
        q = random_euler_states(rng, (150, 3))
        r = dist.n_scheme_system(euler, normals, q)
        tot = dist.total_residual_rsd(euler, normals, q)
        scale = np.abs(tot).max()
        assert np.abs(r.total - tot).max() <= 1e-11 * max(scale, 1.0)

    @staticmethod
    def _with_stagnant_triangle(euler, rng):
        """Random triangles whose third one has a motionless averaged state.

        Equal densities and pressures with cancelling nodal velocities put
        the parameter-vector average at rest.  Then only the acoustic
        eigenvalue -a |n_j| / 2 is negative, so each K_j^- has rank one and
        the star matrix sum_j K_j^- (4 x 4) is singular.
        """
        normals = compute_normals(random_triangles(rng, 6))
        q = random_euler_states(rng, (6, 3))
        q[2] = euler.conserved(
            1.2, np.array([0.3, -0.3, 0.0]), np.array([0.1, -0.1, 0.0]), 0.9
        )
        return normals, q

    def test_singular_star_falls_back_to_rxn(self, euler, rng):
        normals, q = self._with_stagnant_triangle(euler, rng)
        r = dist.n_scheme_system(euler, normals, q)
        assert r.fallback.tolist() == [False, False, True, False, False, False]
        rx = dist.rxn_scheme(euler, normals[[2]], q[[2]])
        assert np.array_equal(r.parts[2], rx.parts[0])
        assert np.array_equal(r.star[2], rx.star[0])
        keep = [0, 1, 3, 4, 5]
        alone = dist.n_scheme_system(euler, normals[keep], q[keep])
        assert np.allclose(r.parts[keep], alone.parts, rtol=1e-13, atol=1e-13)


class TestRxnQstar:
    # The relaxation scheme's star state Q_star, as the march computes it.
    def test_uniform(self, euler, ref_normals):
        q = np.tile(euler.freestream(1.2, 0.0), (1, 3, 1))
        star = dist.rxn_scheme(euler, ref_normals[None], q, s=np.array([3.0])).star
        assert np.allclose(star[0], q[0, 0], rtol=1e-13)

    def test_reference_value(self, ref_normals):
        law = physics.Advection((1.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        star = dist.rxn_scheme(law, ref_normals[None], q, s=np.array([1.0])).star
        assert np.isclose(star[0, 0], 3.0 - math.sqrt(2.0), rtol=1e-14)

    def test_linear_scaling(self, ref_normals, rng):
        law = physics.Advection((0.5, -0.2))
        q = rng.standard_normal((1, 3, 1))
        s = np.array([2.0])
        a = dist.rxn_scheme(law, ref_normals[None], q, s=s).star
        b = dist.rxn_scheme(law, ref_normals[None], 3.0 * q, s=s).star
        assert np.allclose(b, 3.0 * a, rtol=1e-13)


class TestRxnScheme:
    def test_reference_conservation(self, ref_normals):
        law = physics.Advection((1.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        r = dist.rxn_scheme(law, ref_normals[None], q, s=np.array([1.0]))
        assert np.isclose(r.total[0, 0], 0.5, rtol=1e-13)

    def test_conservation_random_euler(self, euler, rng):
        coords = random_triangles(rng, 200)
        normals = compute_normals(coords)
        q = random_euler_states(rng, (200, 3))
        r = dist.rxn_scheme(euler, normals, q)
        tot = dist.total_residual_linear(euler, normals, q)
        scale = max(np.abs(tot).max(), 1.0)
        assert np.abs(r.total - tot).max() <= 1e-11 * scale

    def test_monotone_coefficient_positivity(self, rng):
        # Burgers: the wave-speed bound keeps both monotonicity
        # coefficients nonnegative - the node-to-star coupling
        # s ||n_i|| + n_i . f'((Q_i + Q*)/2) (secant form of the part) and
        # the star-state weight s ||n_j|| - n_j . f'(Q*).
        law = physics.Burgers()
        coords = random_triangles(rng, 300)
        normals = compute_normals(coords)
        q = rng.standard_normal((300, 3, 1)) * 2.0
        s = dist.wave_speed_bound(law, q)
        r = dist.rxn_scheme(law, normals, q, s=s)
        s = s[:, None]
        star = r.star[..., 0][:, None]
        nlen = np.hypot(normals[..., 0], normals[..., 1])
        nx = normals[..., 0]  # f' = (q, 0) for this Burgers convention
        p_coef = s * nlen + nx * 0.5 * (q[..., 0] + star)
        n_coef = s * nlen - nx * star
        assert (p_coef >= -1e-13).all()
        assert (n_coef >= -1e-13).all()

    def test_star_physicality_guard(self, euler, ref_normals):
        # A violently stretched state can push the closed-form star state
        # out of the physical region; the scheme must refuse, not clamp.
        q = np.stack(
            [
                euler.conserved(1e-6, 40.0, 0.0, 1e-8),
                euler.conserved(10.0, -40.0, 0.0, 1e-8),
                euler.conserved(1e-6, 0.0, 40.0, 1e-8),
            ]
        )[None]
        try:
            r = dist.rxn_scheme(euler, ref_normals[None], q)
        except Exception as exc:  # noqa: BLE001
            assert type(exc).__name__ == "NonPhysicalState"
        else:
            euler.check_physical(r.star)  # if it returned, star must be physical


class TestRxnAdvectionMap:
    def test_velocity_map_matches_flux_form(self):
        # On a constant field the mean-velocity map (g, w) and the flux
        # form of the scheme are the same scheme up to rounding.
        rng = np.random.default_rng(3)
        law = physics.Advection((1.3, -0.7))
        normals = compute_normals(verify.random_triangles(rng, 500))
        q = rng.normal(0.0, 2.0, size=(500, 3, 1))
        vel = np.broadcast_to(law.velocity, normals.shape)
        coefficients = dist.advection_coefficients(normals, vel)
        mapped = dist.rxn_scheme(law, normals, q, coefficients=coefficients)
        direct = dist.rxn_scheme(law, normals, q)
        for a, b in ((mapped.parts, direct.parts), (mapped.star, direct.star)):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
        tot = dist.total_residual_linear(law, normals, q)
        assert np.abs(mapped.total - tot).max() <= 1e-13 * np.abs(tot).max()

    def test_rotating_preset_map_is_positive(self):
        # Independent oracle from the mesh's points, triangles and field:
        # inward edge normals n_i (edge j -> k rotated by +90 degrees),
        # s = 1.1 max(|v_i|, |vbar|), g_i = (s |n_i| + n_i . vbar) / 4
        # and w_j = (s |n_j| - n_j . vbar) / (s sum |n|).
        problem = config.build_problem(config.preset("advection-rotating"))
        mesh, law = problem.mesh, problem.law
        xy = np.asarray(mesh.points)[np.asarray(mesh.tris)]
        edge = np.roll(xy, -2, axis=1) - np.roll(xy, -1, axis=1)
        normals = np.stack([-edge[..., 1], edge[..., 0]], axis=-1)
        vel = law.velocity_at(xy)
        vbar = vel.mean(axis=1)
        s = 1.1 * np.maximum(np.linalg.norm(vel, axis=-1).max(axis=1), np.linalg.norm(vbar, axis=-1))
        nlen = np.linalg.norm(normals, axis=-1)
        un = np.einsum("tik,tk->ti", normals, vbar)
        g = 0.25 * (s[:, None] * nlen + un)
        w = (s[:, None] * nlen - un) / (s * nlen.sum(axis=1))[:, None]
        assert (g >= 0.0).all() and (w >= 0.0).all()
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-14
        cached_g, cached_w = solver.Solver(mesh, law, problem.boundaries).rxn_static
        assert np.abs(cached_g - g).max() <= 1e-14 * np.abs(g).max()
        assert np.abs(cached_w - w).max() <= 1e-14


class TestWaveSpeedBound:
    def test_dominates_nodal_speeds(self, euler, rng):
        q = random_euler_states(rng, (100, 3))
        s = dist.wave_speed_bound(euler, q)
        assert (s >= 1.1 * euler.max_wavespeed(q).max(axis=1) - 1e-13).all()

    def test_safety_scales(self, euler, rng, monkeypatch):
        # WAVE_SPEED_SAFETY is the one home of the margin.
        q = random_euler_states(rng, (10, 3))
        monkeypatch.setattr(dist, "WAVE_SPEED_SAFETY", 1.0)
        a = dist.wave_speed_bound(euler, q)
        monkeypatch.setattr(dist, "WAVE_SPEED_SAFETY", 2.0)
        b = dist.wave_speed_bound(euler, q)
        assert np.allclose(b, 2.0 * a, rtol=1e-14)

    def test_velocity_field_override(self, ref_normals, monkeypatch):
        # The advection map bounds the nodal velocities given to it, not
        # the law's own speed: |v_0| = 5 makes s = 5 at unit margin, and
        # g_i = (s ||n_i|| + n_i . vbar) / 4.
        monkeypatch.setattr(dist, "WAVE_SPEED_SAFETY", 1.0)
        vel = np.array([[[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]]])
        g, _ = dist.advection_coefficients(ref_normals[None], vel)
        nlen = np.hypot(ref_normals[:, 0], ref_normals[:, 1])
        expected = 0.25 * (5.0 * nlen + ref_normals @ np.array([1.0, 4.0 / 3.0]))
        assert np.allclose(g[0], expected, rtol=1e-14)


class TestRxn1D:
    def test_pure_advection_split(self):
        law = physics.Advection((1.0, 0.0))
        minus, plus = dist.rxn_scheme_1d(
            law, np.array([0.0]), np.array([2.0]), np.array([1.0])
        )
        assert np.isclose(minus[0], 0.0, atol=1e-15)
        assert np.isclose(plus[0], 2.0, rtol=1e-14)

    def test_conservation(self, rng):
        law = physics.Burgers()
        ql = rng.standard_normal((50, 1))
        qr = rng.standard_normal((50, 1))
        s = 1.0 + np.maximum(np.abs(ql), np.abs(qr))[:, 0]
        minus, plus = dist.rxn_scheme_1d(law, ql, qr, s)
        df = 0.5 * (qr**2 - ql**2)
        assert np.abs(minus + plus - df).max() < 1e-12

    @pytest.mark.parametrize("seed", [4, 9, 14])
    def test_verify_suite_passes_on_large_parts(self, seed):
        # These seeds draw parts of size 35-40, where the split agrees with
        # local Lax-Friedrichs to 1e-14 only relative to the parts' size.
        result = verify.suite_1d_reduction(seed)
        assert result.passed, result.row()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_conservation_property_all_schemes(seed):
    rng = np.random.default_rng(seed)
    coords = random_triangles(rng, 10)
    normals = compute_normals(coords)
    euler = physics.Euler()
    q = random_euler_states(rng, (10, 3))
    n_r = dist.n_scheme_system(euler, normals, q)
    tot_rsd = dist.total_residual_rsd(euler, normals, q)
    scale = max(np.abs(tot_rsd).max(), 1.0)
    assert np.abs(n_r.total - tot_rsd).max() <= 1e-11 * scale
    x_r = dist.rxn_scheme(euler, normals, q)
    tot_lin = dist.total_residual_linear(euler, normals, q)
    scale = max(np.abs(tot_lin).max(), 1.0)
    assert np.abs(x_r.total - tot_lin).max() <= 1e-11 * scale
