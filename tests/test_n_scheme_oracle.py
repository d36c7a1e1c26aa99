"""Systems N scheme against a per-triangle oracle built on ``np.linalg.eig``.

The oracle shares no code with ``n_scheme_system``: the flux Jacobian is the
reference matrix of ``oracles``, the parameter-vector average and the
transformed nodal states are written out here, K_i^+/- come from the
numerical eigenvalues of (n_i . J)/2 instead of the law's analytic
eigensystem, and the star state is solved with ``np.linalg.solve``, one
triangle at a time.
"""

import numpy as np
import pytest

from rdflux import distribution as dist
from rdflux.mesh import compute_normals

from .conftest import n_system, random_euler_states, random_triangles
from .oracles import flux_jacobian

RTOL = 1e-10


def averaged_states(gamma, q):
    """Parameter-vector average Qhat and nodal Qhat_i = dq/dz(Zhat) Z_i of one triangle."""
    rho = q[:, 0]
    u, v = q[:, 1] / rho, q[:, 2] / rho
    p = (gamma - 1.0) * (q[:, 3] - 0.5 * rho * (u * u + v * v))
    s = np.sqrt(rho)
    z = np.stack([s, s * u, s * v, s * (q[:, 3] + p) / rho], axis=1)
    z0, z1, z2, z3 = z.mean(axis=0)
    g1 = (gamma - 1.0) / gamma
    qhat = np.array([z0 * z0, z0 * z1, z0 * z2, z0 * z3 / gamma + 0.5 * g1 * (z1 * z1 + z2 * z2)])
    dqdz = np.array([
        [2.0 * z0, 0.0, 0.0, 0.0],
        [z1, z0, 0.0, 0.0],
        [z2, 0.0, z0, 0.0],
        [z3 / gamma, g1 * z1, g1 * z2, z0 / gamma],
    ])
    return qhat, z @ dqdz.T


def spectral_projectors(k):
    """(mu, P) per distinct eigenvalue mu of a diagonalizable real matrix.

    The eigenvalues come from ``np.linalg.eig``; its eigenvectors are not
    used, because for the repeated eigenvalue of the Euler Jacobian (the
    entropy and shear waves) LAPACK can return two parallel vectors.  The
    spectral projectors follow from Sylvester's formula over the distinct
    eigenvalues mu_k instead: P_k = prod_{l != k} (K - mu_l I) / (mu_k - mu_l).
    """
    lam = np.linalg.eig(k)[0]
    assert np.abs(lam.imag).max() <= 1e-9 * max(1.0, np.abs(lam).max())
    lam = np.sort(lam.real)
    split = np.diff(lam) > 1e-8 * max(1.0, np.abs(lam).max())
    mu = [group.mean() for group in np.split(lam, np.flatnonzero(split) + 1)]
    eye = np.eye(len(k))
    out = []
    for j, mu_j in enumerate(mu):
        proj = eye
        for l, mu_l in enumerate(mu):
            if l != j:
                proj = proj @ (k - mu_l * eye) / (mu_j - mu_l)
        out.append((mu_j, proj))
    return out


def signed_parts(k):
    """K^+ and K^- of a diagonalizable real matrix from its numerical
    eigenvalues: each eigenvalue mu splits into (mu +/- |mu|) / 2."""
    plus = np.zeros_like(k)
    minus = np.zeros_like(k)
    for mu, proj in spectral_projectors(k):
        plus += 0.5 * (mu + abs(mu)) * proj
        minus += 0.5 * (mu - abs(mu)) * proj
    return plus, minus


def oracle(law, normals, q_nodes):
    """(parts, star) of the N scheme, one triangle at a time."""
    parts = np.empty_like(q_nodes)
    star = np.empty(q_nodes.shape[::2])
    for t in range(len(q_nodes)):
        qhat, qhat_nodes = averaged_states(law.gamma, q_nodes[t])
        plus, minus = zip(*(
            signed_parts(flux_jacobian(law, qhat, normals[t, i]) / 2.0)
            for i in range(3)
        ))
        star[t] = np.linalg.solve(sum(minus), sum(m @ qi for m, qi in zip(minus, qhat_nodes)))
        for i in range(3):
            parts[t, i] = plus[i] @ (qhat_nodes[i] - star[t])
    return parts, star


def assert_close_per_triangle(actual, expected):
    """|actual - expected| <= RTOL times each triangle's largest |expected|."""
    axes = tuple(range(1, expected.ndim))
    scale = np.abs(expected).max(axis=axes, keepdims=True)
    assert (np.abs(actual - expected) <= RTOL * scale).all()


def triangle_inner(a):
    return np.ascontiguousarray(a.T).T


@pytest.mark.parametrize("seed", [3, 11, 29])
@pytest.mark.parametrize("layout", ["c_order", "triangle_innermost"])
def test_matches_eig_oracle(euler, seed, layout):
    rng = np.random.default_rng(seed)
    n = 40
    normals = compute_normals(random_triangles(rng, n))
    q = random_euler_states(rng, (n, 3))
    parts, star = oracle(euler, normals, q)
    if layout == "triangle_innermost":
        normals, q = triangle_inner(normals), triangle_inner(q)
    r = n_system(euler, normals, q)
    assert not r.fallback.any()
    assert_close_per_triangle(r.parts, parts)
    assert_close_per_triangle(r.star, star)
    total = dist.total_residual_rsd(euler, normals, q)
    assert np.abs(r.total - total).max() <= 1e-11 * max(np.abs(total).max(), 1.0)


def streamwise_states(law, rng, n, mach):
    """(n, 3) states moving along x at about Mach ``mach``, with v = 0 exactly."""
    rho = 0.5 + rng.random((n, 3))
    p = 0.5 + rng.random((n, 3))
    u = mach * np.sqrt(law.gamma * p / rho) * (0.9 + 0.2 * rng.random((n, 3)))
    return law.conserved(rho, u, 0.0, p)


def average_velocity_and_sound_speed(law, q_nodes):
    """(u, v, a) at each triangle's parameter-vector average, (T, 3)."""
    out = []
    for q in q_nodes:
        qhat = averaged_states(law.gamma, q)[0]
        u, v = qhat[1] / qhat[0], qhat[2] / qhat[0]
        p = (law.gamma - 1.0) * (qhat[3] - 0.5 * qhat[0] * (u * u + v * v))
        out.append((u, v, np.sqrt(law.gamma * p / qhat[0])))
    return np.array(out)


def degenerate_case(law, name, n=8):
    """Triangles whose split eigenvalues change sign or coincide at zero.

    ``zero_normal_velocity``: Mach 0.5 along x over a horizontal edge, so
    u_n = 0 exactly at the node opposite it and lam_2 = lam_3 = 0 there.
    ``sonic``: Mach 1.5, with the normals of nodes 0 and 1 turned so that
    u_n = +a and u_n = -a to rounding (lam_1 = 0 at node 0, lam_4 = 0 at
    node 1), and u_n = 0 at node 2.
    ``supersonic_node``: Mach 3 with node 1's normal along the flow, so all
    four eigenvalues there are positive and K^- = 0.
    """
    rng = np.random.default_rng(7)
    if name == "zero_normal_velocity":
        q = streamwise_states(law, rng, n, 0.5)
        normals = compute_normals(np.tile([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]], (n, 1, 1)))
        assert (normals[:, 2, 0] == 0.0).all()
    elif name == "sonic":
        q = streamwise_states(law, rng, n, 1.5)
        u, v, a = average_velocity_and_sound_speed(law, q).T
        assert (v == 0.0).all()
        c = a / u
        s = np.sqrt(1.0 - c * c)
        normals = np.stack([np.stack([c, s], -1), np.stack([-c, s], -1),
                            np.stack([0.0 * s, -2.0 * s], -1)], axis=1)
        assert np.abs(u * c - a).max() <= 1e-15 * a.max()
    else:
        q = streamwise_states(law, rng, n, 3.0)
        normals = compute_normals(np.tile([[0.0, 0.0], [1.0, 0.5], [0.0, 1.0]], (n, 1, 1)))
        assert (normals[:, 1] == [1.0, 0.0]).all()
        for t in range(n):
            qhat = averaged_states(law.gamma, q[t])[0]
            assert (signed_parts(flux_jacobian(law, qhat, normals[t, 1]) / 2.0)[1] == 0.0).all()
    return normals, q


@pytest.mark.parametrize("name", ["zero_normal_velocity", "sonic", "supersonic_node"])
def test_degenerate_eigenvalues_match_eig_oracle(euler, name):
    normals, q = degenerate_case(euler, name)
    parts, star = oracle(euler, normals, q)
    r = n_system(euler, normals, q)
    assert not r.fallback.any()
    assert_close_per_triangle(r.parts, parts)
    assert_close_per_triangle(r.star, star)
