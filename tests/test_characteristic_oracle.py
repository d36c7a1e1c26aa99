"""Closed-form Euler characteristic algebra against ``np.linalg.eig``.

``Euler.characteristic``, ``from_characteristic`` and ``jacobian_product``
are checked state by state against the flux Jacobian ``flux_jacobian(q, n)``:
its spectral projectors, from Sylvester's formula over the numerical
eigenvalues as in ``test_n_scheme_oracle``, and its product with a vector.
The split of the repeated eigenvalue into the entropy and the shear wave is
not fixed by the Jacobian; it is checked against their eigenvectors, written
out here: a density jump at constant velocity and pressure, and a tangential
velocity jump.
"""

import numpy as np
import pytest

from rdflux import physics

from .conftest import random_euler_states
from .test_n_scheme_oracle import spectral_projectors

RTOL = 1e-12


def states(kind, rng, n=200):
    """(q, unit directions): random, supersonic, or at rest with (1, 0)."""
    law = physics.Euler()
    if kind == "random":
        q = random_euler_states(rng, (n,))
    else:
        rho = 0.3 + 2.0 * rng.random(n)
        p = 0.3 + 2.0 * rng.random(n)
        a = np.sqrt(law.gamma * p / rho)
        speed = (1.2 + 4.0 * rng.random(n)) * a if kind == "supersonic" else 0.0 * a
        angle = 2.0 * np.pi * rng.random(n)
        q = law.conserved(rho, speed * np.cos(angle), speed * np.sin(angle), p)
    if kind == "stagnant":
        return q, np.broadcast_to([1.0, 0.0], (n, 2))
    angle = 2.0 * np.pi * rng.random(n)
    return q, np.stack([np.cos(angle), np.sin(angle)], axis=1)


def field_speeds(law, q, n):
    """u_n - a, u_n, u_n, u_n + a: the eigenvalue of each field, in order."""
    rho = q[0]
    u, v = q[1] / rho, q[2] / rho
    p = (law.gamma - 1.0) * (q[3] - 0.5 * rho * (u * u + v * v))
    a = np.sqrt(law.gamma * p / rho)
    un = u * n[0] + v * n[1]
    return np.array([un - a, un, un, un + a])


def assert_close(actual, expected, scale):
    assert np.abs(actual - expected).max() <= RTOL * scale


@pytest.mark.parametrize("kind", ["random", "supersonic", "stagnant"])
def test_projection_and_reconstruction_match_spectral_projectors(euler, kind):
    """R (theta restricted to the fields of one eigenvalue) = P phi."""
    rng = np.random.default_rng(7)
    q, n = states(kind, rng)
    phi = rng.standard_normal(q.shape)
    theta = euler.characteristic(phi, q, n)
    assert_close(euler.from_characteristic(theta, q, n), phi, np.abs(phi).max())
    for t in range(len(q)):
        speeds = field_speeds(euler, q[t], n[t])
        pieces = [(proj @ phi[t], np.abs(speeds - mu) <= 1e-8 * max(1.0, np.abs(mu)))
                  for mu, proj in spectral_projectors(euler.flux_jacobian(q[t], n[t]))]
        assert sum(fields.sum() for _, fields in pieces) == 4
        scale = max(np.abs(p).max() for p, _ in pieces)
        for expected, fields in pieces:
            part = euler.from_characteristic(np.where(fields, theta[t], 0.0), q[t], n[t])
            assert_close(part, expected, scale)


@pytest.mark.parametrize("kind", ["random", "supersonic", "stagnant"])
def test_entropy_and_shear_waves(euler, kind):
    q, n = states(kind, np.random.default_rng(8))
    rho = q[:, 0]
    u, v = q[:, 1] / rho, q[:, 2] / rho
    zero, one = np.zeros_like(u), np.ones_like(u)
    entropy = np.stack([one, u, v, 0.5 * (u * u + v * v)], axis=1)
    shear = np.stack([zero, -n[:, 1], n[:, 0], v * n[:, 0] - u * n[:, 1]], axis=1)
    for wave, vector in ((euler.ENTROPY_WAVE, entropy), (2, shear)):
        unit = np.zeros_like(q)
        unit[:, wave] = 1.0
        scale = np.abs(vector).max()
        assert_close(euler.characteristic(vector, q, n), unit, scale)
        assert_close(euler.from_characteristic(unit, q, n), vector, scale)


@pytest.mark.parametrize("kind", ["random", "supersonic", "stagnant"])
def test_jacobian_product(euler, kind):
    """(n . J) phi for non-unit n: the matrix product and sum_k mu_k P_k phi."""
    rng = np.random.default_rng(9)
    q, n = states(kind, rng)
    n = n * (0.1 + rng.random((len(n), 1)))
    phi = rng.standard_normal(q.shape)
    actual = euler.jacobian_product(phi, q, n)
    for t in range(len(q)):
        jac = euler.flux_jacobian(q[t], n[t])
        expected = jac @ phi[t]
        scale = np.abs(jac).max() * np.abs(phi[t]).max()
        assert_close(actual[t], expected, scale)
        spectral = sum(mu * (proj @ phi[t]) for mu, proj in spectral_projectors(jac))
        assert_close(actual[t], spectral, scale)


def test_broadcast_over_nodes(euler):
    """One state per triangle, (T, 1, 4), against per-node vectors and normals."""
    rng = np.random.default_rng(10)
    q = random_euler_states(rng, (30,))[:, None, :]
    n = rng.standard_normal((30, 3, 2))
    phi = rng.standard_normal((30, 3, 4))
    expected = np.einsum("tnij,tnj->tni", euler.flux_jacobian(q, n), phi)
    assert_close(euler.jacobian_product(phi, q, n), expected, np.abs(expected).max())
    unit = n / np.hypot(n[..., 0], n[..., 1])[..., None]
    eig = euler.eigensystem(q, unit)
    theta = euler.characteristic(phi, q, unit)
    assert_close(theta, np.einsum("tnij,tnj->tni", eig.left, phi), np.abs(theta).max())
