"""Systems N scheme against a per-triangle oracle built on ``np.linalg.eig``.

The oracle shares no code with ``n_scheme_system`` beyond the law's flux
Jacobian: the parameter-vector average and the transformed nodal states are
written out here, K_i^+/- come from the numerical eigenvalues of (n_i . J)/2
instead of the law's analytic eigensystem, and the star state
is solved with ``np.linalg.solve``, one triangle at a time.
"""

import numpy as np
import pytest

from rdflux import distribution as dist
from rdflux.mesh import compute_normals

from .conftest import random_euler_states, random_triangles

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


def signed_parts(k):
    """K^+ and K^- of a diagonalizable real matrix from its numerical eigenvalues.

    Each eigenvalue mu splits into (mu +/- |mu|) / 2.

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
    plus = np.zeros_like(k)
    minus = np.zeros_like(k)
    for j, mu_j in enumerate(mu):
        proj = eye
        for l, mu_l in enumerate(mu):
            if l != j:
                proj = proj @ (k - mu_l * eye) / (mu_j - mu_l)
        plus += 0.5 * (mu_j + abs(mu_j)) * proj
        minus += 0.5 * (mu_j - abs(mu_j)) * proj
    return plus, minus


def oracle(law, normals, q_nodes):
    """(parts, star) of the N scheme, one triangle at a time."""
    parts = np.empty_like(q_nodes)
    star = np.empty(q_nodes.shape[::2])
    for t in range(len(q_nodes)):
        qhat, qhat_nodes = averaged_states(law.gamma, q_nodes[t])
        plus, minus = zip(*(
            signed_parts(law.flux_jacobian(qhat, normals[t, i]) / 2.0)
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
    r = dist.n_scheme_system(euler, normals, q)
    assert not r.fallback.any()
    assert_close_per_triangle(r.parts, parts)
    assert_close_per_triangle(r.star, star)
    total = dist.total_residual_rsd(euler, normals, q)
    assert np.abs(r.total - total).max() <= 1e-11 * max(np.abs(total).max(), 1.0)
