"""Per-triangle residual splitting: totals, upwind schemes, wave bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdflux import config, physics, smallmat, solver, verify
from rdflux import distribution as dist
from rdflux.mesh import compute_normals, triangle_areas

from . import oracle1d
from .conftest import (
    REF_TRI,
    edge_lengths,
    mean_state,
    n_system,
    random_euler_states,
    random_triangles,
    rxn,
    sweep_bound,
)

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


def n_scheme_scalar(q, k):
    """The scalar N scheme as the march applies it: the map of frozen k."""
    return dist.linear_scheme(q, dist.upwind_coefficients(k))


class TestNSchemeScalar:
    def test_one_target(self, ref_normals):
        law = physics.Advection((1.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        r = n_scheme_scalar(q, dist.scalar_upwind_k(law, ref_normals[None], mean_state(q)))
        assert np.allclose(r.parts[0, :, 0], [0.0, 0.5, 0.0], atol=1e-14)
        assert np.isclose(r.star[0, 0], 1.0)

    def test_two_target(self, ref_normals):
        law = physics.Advection((1.0, 1.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        r = n_scheme_scalar(q, dist.scalar_upwind_k(law, ref_normals[None], mean_state(q)))
        assert np.allclose(r.parts[0, :, 0], [0.0, 0.5, 1.0], atol=1e-14)
        assert np.isclose(r.star[0, 0], 1.0)

    def test_conservation_random(self, rng):
        coords = random_triangles(rng, 200)
        normals = compute_normals(coords)
        q = rng.standard_normal((200, 3, 1)) * 2.0
        law = physics.Advection((0.8, 0.3))
        r = n_scheme_scalar(q, dist.scalar_upwind_k(law, normals, mean_state(q)))
        tot = dist.total_residual_linear(law, normals, q)
        assert np.abs(r.total - tot).max() < 1e-13

    def test_zero_velocity_zero_parts(self, ref_normals):
        law = physics.Advection((0.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        r = n_scheme_scalar(q, dist.scalar_upwind_k(law, ref_normals[None], mean_state(q)))
        assert (r.parts == 0.0).all()

    def test_parts_upwind_sign_structure(self, rng):
        # Each part is [k_i]+ (Q_i - Q_star): zero for strictly upstream nodes.
        coords = random_triangles(rng, 100)
        normals = compute_normals(coords)
        q = rng.standard_normal((100, 3, 1))
        law = physics.Advection((1.0, 0.4))
        k = 0.5 * (normals * np.array([1.0, 0.4])).sum(axis=-1)
        r = n_scheme_scalar(q, dist.scalar_upwind_k(law, normals, mean_state(q)))
        assert (np.abs(r.parts[..., 0][k <= 0.0]) < 1e-14).all()

    def test_map_without_inflow(self):
        # Where no k is negative the map is g = 0, w = 1/3, formed without
        # a 0/0 (RuntimeWarning is an error here); a live triangle gets
        # g = k^+ and w = k^- / sum k^-.
        k = np.array([[0.0, 0.0, 0.0], [0.5, -0.2, -0.3]])
        g, w = dist.upwind_coefficients(k)
        assert np.array_equal(g, [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        assert np.array_equal(w[0], np.full(3, 1.0 / 3.0))
        assert np.allclose(w[1], [0.0, 0.4, 0.6], rtol=1e-15, atol=0.0)

    def test_burgers_upwind_k_at_nodal_mean(self, burgers, rng):
        # f'(q) = (q, 0), so k_i = n_i,x (Q_1 + Q_2 + Q_3) / 6.
        normals = compute_normals(random_triangles(rng, 50))
        q = rng.standard_normal((50, 3, 1))
        expected = normals[..., 0] * q.sum(axis=1) / 6.0
        k = dist.scalar_upwind_k(burgers, normals, mean_state(q))
        assert np.abs(k - expected).max() <= 1e-14 * np.abs(expected).max()


class TestNSchemeSystem:
    def test_uniform_zero(self, euler, ref_normals):
        q = np.tile(euler.freestream(0.9, 0.0), (1, 3, 1))
        r = n_system(euler, ref_normals[None], q)
        assert np.abs(r.parts).max() < 1e-12

    def test_conservation_matches_rsd_total(self, euler, rng):
        coords = random_triangles(rng, 150)
        normals = compute_normals(coords)
        q = random_euler_states(rng, (150, 3))
        r = n_system(euler, normals, q)
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
        r = n_system(euler, normals, q)
        assert r.fallback.tolist() == [False, False, True, False, False, False]
        rx = rxn(euler, normals[[2]], q[[2]])
        assert np.array_equal(r.parts[2], rx.parts[0])
        assert np.array_equal(r.star[2], rx.star[0])
        keep = [0, 1, 3, 4, 5]
        alone = n_system(euler, normals[keep], q[keep])
        assert np.allclose(r.parts[keep], alone.parts, rtol=1e-13, atol=1e-13)


def allocating_n_scheme(law, normals, q_nodes, z_nodes, s):
    """The systems N scheme as a chain of allocating steps: Qhat, K^- Qhat,
    Q_star, Qhat - Q_star and the parts each a new array, every star
    matrix coefficient formed before the rows are filled.  The operations
    and their order are ``n_scheme_system``'s, so the two agree bit for bit.
    Returns (parts, star, fallback)."""
    avg = law.rsd_average(z_nodes)
    u, v, h, k, a2, a = waves = law.waves(avg.qhat, avg.prim)
    nlen = np.hypot(normals[..., 0], normals[..., 1])
    nx = normals[..., 0] / nlen
    ny = normals[..., 1] / nlen
    node_waves = tuple(x[:, None] for x in waves)
    un = node_waves[0] * nx + node_waves[1] * ny
    lam2 = 0.5 * nlen * un
    half_a = 0.5 * nlen * node_waves[5]

    def split(clip):
        l2 = clip(lam2, 0.0)
        a1 = clip(lam2 - half_a, 0.0) - l2
        a4 = clip(lam2 + half_a, 0.0) - l2
        return l2, 0.5 * (a1 + a4), 0.5 * (a4 - a1)

    def apply(sp, phi):
        nu, nv, nh, nk, na2, na = node_waves
        l2, pp, mm = sp
        p0, p1, p2, p3 = (phi[..., j] for j in range(4))
        dpa = (law.gamma - 1.0) * (((nk * p0 - nu * p1) - nv * p2) + p3) / na2
        wa = (nx * p1 + ny * p2 - un * p0) / na
        s = pp * dpa + mm * wa
        d = na * (mm * dpa + pp * wa)
        return np.stack([l2 * p0 + s, l2 * p1 + nu * s + nx * d,
                         l2 * p2 + nv * s + ny * d, l2 * p3 + nh * s + un * d], axis=-1)

    def tsum(x):
        return (x[:, 0] + x[:, 1]) + x[:, 2]

    minus = split(np.minimum)
    rhs = tsum(apply(minus, avg.qhat_nodes))
    l2, pp, mm = minus
    sigma, pt = tsum(l2), tsum(pp)
    xx, xy = tsum(mm * nx), tsum(mm * ny)
    sxx, sxy, syy = tsum(pp * nx * nx), tsum(pp * nx * ny), tsum(pp * ny * ny)
    xn = u * xx + v * xy
    bx, by = u * sxx + v * sxy, u * sxy + v * syy
    b1 = (law.gamma - 1.0) / a2
    d = (b1 * k, -b1 * u, -b1 * v, b1)
    c = (pt, pt * u + a * xx, pt * v + a * xy, pt * h + a * xn)
    e = (1.0, u, v, h)
    ya = (-xn / a, xx / a, xy / a)
    b = ((0.0, 0.0, 0.0), (-bx, sxx, sxy), (-by, sxy, syy), (-(u * bx + v * by), bx, by))
    aug = np.empty((4, 5, len(u)))
    for i in range(4):
        for j in range(4):
            entry = c[i] * d[j]
            if j < 3:
                entry = entry + e[i] * ya[j]
                if i > 0:
                    entry = entry + b[i][j]
            aug[i, j] = entry + sigma if i == j else entry
    aug[:, 4] = rhs.T
    qstar, bad = smallmat.solve_batched(aug)
    qstar = qstar.copy()
    parts = apply(split(np.maximum), avg.qhat_nodes - qstar[:, None, :])
    idx = np.nonzero(bad)[0]
    if idx.size:
        rx = dist.rxn_scheme(law, normals[idx], q_nodes[idx], s[idx], nlen[idx])
        parts[idx] = rx.parts
        qstar[idx] = rx.star
    return parts, qstar, bad


class TestNSchemeKernel:
    """``n_scheme_system`` against the allocating chain, on a batch with one
    stagnant triangle (``TestNSchemeSystem._with_stagnant_triangle``)."""

    # The kernel is given the nodal parameter vectors, as the sweep gives them.
    @pytest.mark.parametrize("layout", ["c-order", "triangle-innermost"],
                             ids=["given-z-c-order", "given-z-triangle-innermost"])
    def test_same_bits_as_allocating_chain(self, euler, rng, layout):
        normals, q = TestNSchemeSystem._with_stagnant_triangle(euler, rng)
        if layout == "triangle-innermost":
            normals, q = solver._triangle_inner(normals), solver._triangle_inner(q)
            assert q[..., 0].strides[0] == 8
        z = solver._triangle_inner(euler.to_params(q))
        s = sweep_bound(euler, q)
        q_before, z_before = q.copy(), z.copy()
        r = dist.n_scheme_system(euler, normals, q, z, edge_lengths(normals), s)
        assert np.array_equal(q, q_before)
        assert np.array_equal(z, z_before)
        parts, star, bad = allocating_n_scheme(euler, normals, q_before, z_before, s)
        assert bad.tolist() == [False, False, True, False, False, False]
        assert np.array_equal(r.fallback, bad)
        assert np.array_equal(r.parts, parts)
        assert np.array_equal(r.star, star)
        assert not np.shares_memory(r.parts, q) and not np.shares_memory(r.star, q)

    def test_given_z_reads_states_only_where_it_falls_back(self, euler, rng):
        # With z given, the states are read only by indexing, at the
        # triangles that fall back, whose bound is the one given.
        normals, q = TestNSchemeSystem._with_stagnant_triangle(euler, rng)
        reads = []

        class Indexed:
            def __getitem__(self, idx):
                reads.append(np.asarray(idx).tolist())
                return q[idx]

        r = dist.n_scheme_system(euler, normals, Indexed(), euler.to_params(q),
                                 edge_lengths(normals), sweep_bound(euler, q))
        assert reads == [[2]]
        assert np.array_equal(r.parts, n_system(euler, normals, q).parts)


class TestRxnQstar:
    # The relaxation scheme's star state Q_star, as the march computes it.
    def test_uniform(self, euler, ref_normals):
        q = np.tile(euler.freestream(1.2, 0.0), (1, 3, 1))
        star = dist.rxn_scheme(euler, ref_normals[None], q, np.array([3.0]),
                               edge_lengths(ref_normals[None])).star
        assert np.allclose(star[0], q[0, 0], rtol=1e-13)

    def test_reference_value(self, ref_normals):
        law = physics.Advection((1.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        star = dist.rxn_scheme(law, ref_normals[None], q, np.array([1.0]),
                               edge_lengths(ref_normals[None])).star
        assert np.isclose(star[0, 0], 3.0 - math.sqrt(2.0), rtol=1e-14)

    def test_linear_scaling(self, ref_normals, rng):
        law = physics.Advection((0.5, -0.2))
        q = rng.standard_normal((1, 3, 1))
        s, nlen = np.array([2.0]), edge_lengths(ref_normals[None])
        a = dist.rxn_scheme(law, ref_normals[None], q, s, nlen).star
        b = dist.rxn_scheme(law, ref_normals[None], 3.0 * q, s, nlen).star
        assert np.allclose(b, 3.0 * a, rtol=1e-13)


class TestRxnScheme:
    def test_reference_conservation(self, ref_normals):
        law = physics.Advection((1.0, 0.0))
        q = np.array([[[1.0], [2.0], [3.0]]])
        r = dist.rxn_scheme(law, ref_normals[None], q, np.array([1.0]),
                            edge_lengths(ref_normals[None]))
        assert np.isclose(r.total[0, 0], 0.5, rtol=1e-13)

    def test_conservation_random_euler(self, euler, rng):
        coords = random_triangles(rng, 200)
        normals = compute_normals(coords)
        q = random_euler_states(rng, (200, 3))
        r = rxn(euler, normals, q)
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
        s, nlen = sweep_bound(law, q), edge_lengths(normals)
        r = dist.rxn_scheme(law, normals, q, s, nlen)
        s = s[:, None]
        star = r.star[..., 0][:, None]
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
            r = rxn(euler, ref_normals[None], q)
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
        coefficients = dist.advection_coefficients(normals, edge_lengths(normals), vel)
        mapped = dist.linear_scheme(q, coefficients)
        direct = rxn(law, normals, q)
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
        cached_g, cached_w = solver.Solver(mesh, law, problem.boundaries).map_static
        assert np.abs(cached_g - g).max() <= 1e-14 * np.abs(g).max()
        assert np.abs(cached_w - w).max() <= 1e-14


class TestWaveSpeedBound:
    def test_dominates_nodal_speeds(self, rng):
        # s_T is the margin times the largest of the three nodal speeds and
        # the mean state's speed, whichever of the four is largest.
        speeds = rng.random((200, 3))
        mean_speed = 1.5 * rng.random(200)
        s = dist.wave_speed_bound(speeds, mean_speed)
        expected = [1.1 * max(*speeds[t], mean_speed[t]) for t in range(200)]
        assert np.array_equal(s, expected)
        assert (mean_speed > speeds.max(axis=1)).any() and (mean_speed < speeds.max(axis=1)).any()

    def test_safety_scales(self, euler, rng, monkeypatch):
        # WAVE_SPEED_SAFETY is the one home of the margin.
        q = random_euler_states(rng, (10, 3))
        monkeypatch.setattr(dist, "WAVE_SPEED_SAFETY", 1.0)
        a = sweep_bound(euler, q)
        monkeypatch.setattr(dist, "WAVE_SPEED_SAFETY", 2.0)
        b = sweep_bound(euler, q)
        assert np.allclose(b, 2.0 * a, rtol=1e-14)

    def test_velocity_field_override(self, ref_normals, monkeypatch):
        # The advection map bounds the nodal velocities given to it, not
        # the law's own speed: |v_0| = 5 makes s = 5 at unit margin, and
        # g_i = (s ||n_i|| + n_i . vbar) / 4.
        monkeypatch.setattr(dist, "WAVE_SPEED_SAFETY", 1.0)
        vel = np.array([[[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]]])
        nlen = edge_lengths(ref_normals)
        g, _ = dist.advection_coefficients(ref_normals[None], nlen[None], vel)
        expected = 0.25 * (5.0 * nlen + ref_normals @ np.array([1.0, 4.0 / 3.0]))
        assert np.allclose(g[0], expected, rtol=1e-14)


class TestRxn1D:
    def test_pure_advection_split(self):
        law = physics.Advection((1.0, 0.0))
        minus, plus = oracle1d.rxn_scheme_1d(
            law, np.array([0.0]), np.array([2.0]), np.array([1.0])
        )
        assert np.isclose(minus[0], 0.0, atol=1e-15)
        assert np.isclose(plus[0], 2.0, rtol=1e-14)

    def test_conservation(self, rng):
        law = physics.Burgers()
        ql = rng.standard_normal((50, 1))
        qr = rng.standard_normal((50, 1))
        s = 1.0 + np.maximum(np.abs(ql), np.abs(qr))[:, 0]
        minus, plus = oracle1d.rxn_scheme_1d(law, ql, qr, s)
        df = 0.5 * (qr**2 - ql**2)
        assert np.abs(minus + plus - df).max() < 1e-12

    @pytest.mark.parametrize("seed", [4, 9, 14])
    def test_verify_suite_passes_on_large_parts(self, seed):
        # These seeds draw parts of size 35-40, where the split agrees with
        # local Lax-Friedrichs to 1e-14 only relative to the parts' size.
        assert oracle1d.reduction_1d(seed) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_conservation_property_all_schemes(seed):
    rng = np.random.default_rng(seed)
    coords = random_triangles(rng, 10)
    normals = compute_normals(coords)
    euler = physics.Euler()
    q = random_euler_states(rng, (10, 3))
    n_r = n_system(euler, normals, q)
    tot_rsd = dist.total_residual_rsd(euler, normals, q)
    scale = max(np.abs(tot_rsd).max(), 1.0)
    assert np.abs(n_r.total - tot_rsd).max() <= 1e-11 * scale
    x_r = rxn(euler, normals, q)
    tot_lin = dist.total_residual_linear(euler, normals, q)
    scale = max(np.abs(tot_lin).max(), 1.0)
    assert np.abs(x_r.total - tot_lin).max() <= 1e-11 * scale
