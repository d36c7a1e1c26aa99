"""Conservation-law algebra: fluxes, Jacobians, eigensystems, averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdflux import physics, vtkio
from rdflux.errors import NonPhysicalState

from .conftest import random_euler_states
from .oracles import flux_jacobian

LAWS = {
    "advection": physics.Advection((0.7, -0.3)),
    "burgers": physics.Burgers(),
    "euler": physics.Euler(),
}


def _states(law, rng, n):
    if law.m == 1:
        return rng.standard_normal((n, 1)) * 2.0
    return random_euler_states(rng, (n,))


def _normal_flux(law, q, n):
    fx, fy = law.flux(q)
    return n[0] * fx + n[1] * fy


def _fd_jacobian(law, q, n, h=1e-7):
    m = law.m
    base = _normal_flux(law, q[None], n)[0]
    out = np.empty((m, m))
    for j in range(m):
        qp = q.copy()
        qp[j] += h
        out[:, j] = (_normal_flux(law, qp[None], n)[0] - base) / h
    return out


class TestJacobians:
    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_matches_finite_difference(self, name, rng):
        # Column j of n . J is the product with the unit vector e_j.
        law = LAWS[name]
        qs = _states(law, rng, 12)
        eye = np.eye(law.m)
        for q in qs:
            n = rng.standard_normal(2)
            fd = _fd_jacobian(law, q, n)
            columns = law.jacobian_product(eye, q[None], n).T
            assert np.allclose(columns, fd, rtol=2e-5, atol=2e-5)
            if law.m > 1:
                assert np.allclose(flux_jacobian(law, q, n), fd, rtol=2e-5, atol=2e-5)

    @pytest.mark.parametrize("name", ["euler"])
    def test_eigensystem_reconstructs_jacobian(self, name, rng):
        law = LAWS[name]
        qs = _states(law, rng, 12)
        ns = rng.standard_normal((12, 2))
        eig = law.eigensystem(qs, ns)
        rec = eig.right @ (eig.lam[..., None] * eig.left)
        jac = flux_jacobian(law, qs, ns)
        assert np.allclose(rec, jac, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("name", ["euler"])
    def test_left_right_inverse(self, name, rng):
        law = LAWS[name]
        qs = _states(law, rng, 8)
        ns = rng.standard_normal((8, 2))
        eig = law.eigensystem(qs, ns)
        eye = np.broadcast_to(np.eye(law.m), eig.right.shape)
        assert np.allclose(eig.left @ eig.right, eye, atol=1e-11)

    def test_euler_node_broadcast(self, euler, rng):
        # The systems N scheme's call: one averaged state per triangle, (T, 1),
        # against the three edge normals of the triangle, (T, 3, 2).
        qs = random_euler_states(rng, (25,))[:, None, :]
        prim = euler.primitives(qs)
        ns = rng.standard_normal((25, 3, 2))
        eig = euler.eigensystem(qs, ns, prim)
        assert eig.lam.shape == (25, 3, 4) and eig.right.shape == (25, 3, 4, 4)
        rec = eig.right @ (eig.lam[..., None] * eig.left)
        assert np.allclose(rec, flux_jacobian(euler, qs, ns), rtol=1e-11, atol=1e-11)
        # Normals stored with the triangle axis innermost give the same bits.
        inner = euler.eigensystem(qs, np.ascontiguousarray(ns.T).T, prim)
        for name in ("lam", "right", "left"):
            assert np.array_equal(getattr(inner, name), getattr(eig, name))


class TestNormalFlux:
    def test_euler_closed_form_matches_flux_pair(self, euler, rng):
        # Per-node states and non-unit normals, (T, 3, 4) against (T, 3, 2),
        # and one state per triangle broadcast against three normals.
        q = random_euler_states(rng, (200, 3), mach_scale=4.0)
        n = rng.standard_normal((200, 3, 2)) * 10.0 ** rng.uniform(-2.0, 2.0, (200, 3, 1))
        for states in (q, q[:, :1]):
            fx, fy = euler.flux(states)
            expected = n[..., 0, None] * fx + n[..., 1, None] * fy
            scale = np.abs(expected).max(axis=-1, keepdims=True)
            actual = euler.normal_flux(states, n)
            assert actual.shape == expected.shape
            assert (np.abs(actual - expected) <= 1e-14 * scale).all()

    def test_euler_given_pressure_changes_no_bit(self, euler, rng):
        q = random_euler_states(rng, (50, 3))
        n = rng.standard_normal((50, 3, 2))
        given = euler.normal_flux(q, n, euler.primitives(q)[3])
        assert np.array_equal(given, euler.normal_flux(q, n))

    @pytest.mark.parametrize("name", ["advection", "burgers"])
    def test_scalar_default_is_the_flux_pair(self, name, rng):
        law = LAWS[name]
        q = rng.standard_normal((40, 3, 1))
        n = rng.standard_normal((40, 3, 2))
        fx, fy = law.flux(q)
        expected = n[..., 0, None] * fx
        expected += n[..., 1, None] * fy
        assert np.array_equal(law.normal_flux(q, n), expected)


class TestMaxWavespeed:
    @pytest.mark.parametrize("name", ["advection", "burgers"])
    def test_scalar_bound_dominates_directions(self, name, rng):
        law = LAWS[name]
        qs = _states(law, rng, 40)
        bound = law.max_wavespeed(qs)
        for ang in np.linspace(0.0, 2.0 * np.pi, 17):
            n = np.array([np.cos(ang), np.sin(ang)])
            # A scalar law's n . J is its one speed: the product with 1.
            lam = law.jacobian_product(np.ones_like(qs), qs, n)[..., 0]
            assert (np.abs(lam) <= bound * (1.0 + 1e-12)).all()

    def test_euler_matches_componentwise_composition(self, euler, rng):
        # The Euler bound is the largest Euclidean norm of the componentwise
        # speed pairs (u + sigma*a, v + sigma*a) over sigma in {-1, 0, +1}.
        # It dominates both axis-aligned spectral radii |u|+a and |v|+a,
        # but is NOT a bound on oblique directional eigenvalues (|u|cos+...),
        # so only the axis property is asserted here.
        qs = random_euler_states(rng, (60,))
        rho, u, v, p = euler.primitives(qs)
        a = np.sqrt(euler.gamma * p / rho)
        composed = np.stack(
            [np.hypot(u + s * a, v + s * a) for s in (-1.0, 0.0, 1.0)]
        ).max(axis=0)
        bound = euler.max_wavespeed(qs)
        assert np.allclose(bound, composed, rtol=1e-13)
        assert (bound >= np.abs(u) + a - 1e-12).all()
        assert (bound >= np.abs(v) + a - 1e-12).all()

    def test_euler_rest_state_value(self, euler):
        q = euler.conserved(1.0, 0.0, 0.0, euler.gamma**-euler.gamma)
        a = math.sqrt(euler.gamma ** (1.0 - euler.gamma))
        # Componentwise diagonal composition: sqrt(2) * a at rest.
        assert np.isclose(euler.max_wavespeed(q[None])[0], math.sqrt(2.0) * a)


class TestEulerBasics:
    def test_primitive_round_trip(self, euler, rng):
        q = random_euler_states(rng, (30,))
        rho, u, v, p = euler.primitives(q)
        back = euler.conserved(rho, u, v, p)
        assert np.allclose(back, q, rtol=1e-14)

    def test_nonphysical_rejected(self, euler):
        q = euler.conserved(1.0, 0.0, 0.0, 1.0)
        bad = q.copy()
        bad[3] = 0.0  # zero total energy -> negative pressure
        with pytest.raises(NonPhysicalState):
            euler.primitives(bad[None])

    def test_nonphysical_messages_name_quantity_state_and_value(self, euler):
        q = np.tile(euler.conserved(1.0, 0.5, 0.0, 1.0), (5, 1))
        q[3, 3] = 0.0  # zero total energy -> pressure -0.05 at state 3
        pressure = r"non-positive pressure -0\.05 at "
        with pytest.raises(NonPhysicalState, match=pressure + r"state 3 \(1 of 5 states\)"):
            euler.primitives(q)
        with pytest.raises(NonPhysicalState, match=pressure + "node 3 in initial state"):
            euler.check_physical(q, "in initial state")
        q[1, 0] = -2.0
        with pytest.raises(NonPhysicalState, match=r"non-positive density -2 at triangle 1 "):
            euler.check_physical(q, item="triangle")
        q[1, 0] = np.nan
        with pytest.raises(NonPhysicalState, match=r"non-finite density nan at node 1"):
            euler.check_physical(q)

    def test_freestream_frozen_values(self, euler):
        q = euler.freestream(5.0, 0.0)
        assert np.allclose(
            q,
            [1.0, 4.674599380742351, 0.0, 12.486788211678157],
            rtol=0.0,
            atol=1e-12,
        )
        fields = vtkio.euler_point_fields(euler, q[None], q)
        assert abs(fields["entropy_deviation"][0]) < 1e-14
        assert np.isclose(fields["mach"][0], 5.0, rtol=1e-13)

    def test_freestream_angle(self, euler):
        q = euler.freestream(2.0, 30.0)
        rho, u, v, _ = euler.primitives(q[None])
        assert np.isclose(v[0] / u[0], math.tan(math.radians(30.0)), rtol=1e-12)

    def test_entropy_deviation_scales(self, euler):
        q = euler.freestream(1.0, 0.0)
        rho, u, v, p = euler.primitives(q[None])
        hot = euler.conserved(rho, u, v, p * 1.5)
        dev = vtkio.entropy_deviation(euler, hot, q)[0]
        s_ref = -euler.gamma * math.log(euler.gamma)
        assert np.isclose(dev, math.log(1.5) / abs(s_ref), rtol=1e-12)


class TestParameterVector:
    def test_round_trip(self, euler, rng):
        q = random_euler_states(rng, (25,))
        z = euler.to_params(q)
        assert np.allclose(euler.from_params(z), q, rtol=1e-12)

    def test_params_definition(self, euler):
        q = euler.conserved(4.0, 1.0, -2.0, 3.0)
        z = euler.to_params(q)
        rho, u, v, p = 4.0, 1.0, -2.0, 3.0
        h = (q[3] + p) / rho
        r = math.sqrt(rho)
        assert np.allclose(z, [r, r * u, r * v, r * h], rtol=1e-14)

    def test_dqdz_matches_fd(self, euler, rng):
        """``transform_nodes`` applies dq/dz at zhat to each nodal Z_i: a
        directional derivative of ``from_params``, which central differences
        give exactly up to rounding because q is quadratic in z."""
        zhat = euler.to_params(random_euler_states(rng, (6,)))
        w = euler.to_params(random_euler_states(rng, (6, 3)))
        actual = euler.transform_nodes(zhat, w)
        h = 1e-3
        for k in range(6):
            for i in range(3):
                fd = (euler.from_params(zhat[k] + h * w[k, i])
                      - euler.from_params(zhat[k] - h * w[k, i])) / (2.0 * h)
                assert np.allclose(actual[k, i], fd, rtol=1e-9, atol=1e-12)

    def test_average_is_exact_for_uniform(self, euler):
        q = euler.freestream(0.8, 10.0)
        avg = euler.rsd_average(euler.to_params(np.tile(q, (1, 3, 1))))
        assert np.allclose(avg.qhat[0], q, rtol=1e-14)
        # The conserved state is homogeneous of degree two in the parameter
        # vector, so (dq/dz)(z) @ z = 2q; the nodal transformed states carry
        # that factor (the scheme's one-half prefactor absorbs it).
        assert np.allclose(avg.qhat_nodes[0], np.tile(2.0 * q, (3, 1)), rtol=1e-13)

    def test_transformed_jump_identity(self, euler, rng):
        # With the element's parameter-vector mean at the segment midpoint
        # (flux is quadratic in Z, its derivative linear), the average
        # Jacobian reproduces the flux jump through the transformed nodal
        # states exactly: f(qr) - f(ql) = Jbar (qhat_r - qhat_l).
        q = random_euler_states(rng, (10, 2))
        for pair in q:
            zl, zr = euler.to_params(pair[0]), euler.to_params(pair[1])
            third = euler.from_params(0.5 * (zl + zr))
            trip = np.stack([pair[0], pair[1], third])
            avg = euler.rsd_average(euler.to_params(trip[None]))
            fxl, fyl = euler.flux(pair[0][None])
            fxr, fyr = euler.flux(pair[1][None])
            jx = flux_jacobian(euler, avg.qhat[0], np.array([1.0, 0.0]))
            jy = flux_jacobian(euler, avg.qhat[0], np.array([0.0, 1.0]))
            for jac, fl, fr in ((jx, fxl[0], fxr[0]), (jy, fyl[0], fyr[0])):
                rhs = jac @ (avg.qhat_nodes[0, 1] - avg.qhat_nodes[0, 0])
                scale = max(np.abs(fr - fl).max(), 1.0)
                assert np.abs(fr - fl - rhs).max() <= 1e-11 * scale


class TestScalarLaws:
    def test_advection_flux(self, rng):
        law = physics.Advection((2.0, -1.0))
        q = rng.standard_normal((5, 1))
        fx, fy = law.flux(q)
        assert np.allclose(fx, 2.0 * q)
        assert np.allclose(fy, -1.0 * q)

    def test_rotating_velocity_perpendicular_to_radius(self):
        law = physics.RotatingAdvection(math.pi)
        xy = np.array([[0.3, 0.4], [-0.2, 0.9]])
        vel = law.velocity_at(xy)
        assert np.allclose((vel * xy).sum(axis=1), 0.0, atol=1e-14)
        assert np.allclose(
            np.hypot(vel[:, 0], vel[:, 1]),
            math.pi * np.hypot(xy[:, 0], xy[:, 1]),
            rtol=1e-13,
        )

    def test_burgers_x_only_flux(self, burgers):
        q = np.array([[3.0]])
        fx, fy = burgers.flux(q)
        assert np.allclose(fx, 4.5)
        assert np.allclose(fy, 0.0)
        assert np.allclose(burgers.fprime(q)[..., 0], 3.0)
        assert np.allclose(burgers.fprime(q)[..., 1], 0.0)



@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.1, 10.0),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.1, 10.0),
)
def test_euler_sound_speed_positive_and_consistent(rho, u, v, p):
    law = physics.Euler()
    q = law.conserved(rho, u, v, p)
    rho_q, _, _, p_q = law.primitives(q[None])
    a = np.sqrt(law.gamma * p_q / rho_q)[0]
    assert a > 0.0
    assert np.isclose(a, math.sqrt(1.4 * p / rho), rtol=1e-12)
