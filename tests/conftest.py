"""Shared fixtures: reference geometry, laws, and random-state helpers."""

import numpy as np
import pytest

from rdflux import distribution as dist
from rdflux import meshgen, physics
from rdflux.mesh import compute_normals, triangle_areas

# Right isoceles reference triangle: nodes (0,0), (1,0), (0,1), CCW.
REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def ref_tri():
    return REF_TRI.copy()


@pytest.fixture
def ref_normals():
    return compute_normals(REF_TRI[None, :, :])[0]


@pytest.fixture
def euler():
    return physics.Euler()


@pytest.fixture
def burgers():
    return physics.Burgers()


@pytest.fixture
def advection():
    return physics.Advection((1.0, 0.0))


def random_triangles(rng, n, min_area=0.02):
    """CCW triangles with vertices in the unit square and non-tiny area."""
    out = []
    while len(out) < n:
        cand = rng.random((n, 3, 2))
        areas = triangle_areas(cand)
        flip = areas < 0.0
        cand[flip] = cand[flip][:, ::-1, :]
        keep = np.abs(areas) > min_area
        out.extend(cand[keep])
    return np.asarray(out[:n])


def random_euler_states(rng, shape, mach_scale=2.0):
    """Physical conserved states with moderate Mach numbers."""
    law = physics.Euler()
    rho = 0.3 + 2.0 * rng.random(shape)
    p = 0.3 + 2.0 * rng.random(shape)
    a = np.sqrt(law.gamma * p / rho)
    u = mach_scale * (rng.random(shape) - 0.5) * a
    v = mach_scale * (rng.random(shape) - 0.5) * a
    return law.conserved(rho, u, v, p)


def edge_lengths(normals):
    """The lengths ||n_i|| (T, 3) of scaled edge normals (T, 3, 2)."""
    return np.hypot(normals[..., 0], normals[..., 1])


def mean_state(q_nodes):
    """The arithmetic-mean states (T, m) of nodal states (T, 3, m), summed
    in the march's order."""
    return (q_nodes[:, 0] + q_nodes[:, 1] + q_nodes[:, 2]) / 3.0


def sweep_bound(law, q_nodes):
    """The wave-speed bound (T,) of nodal states (T, 3, m) as the march's
    sweep forms it: from the law's speeds at the nodes and at the
    arithmetic-mean state."""
    return dist.wave_speed_bound(law.max_wavespeed(q_nodes),
                                 law.max_wavespeed(mean_state(q_nodes)))


def rxn(law, normals, q_nodes, **kwargs):
    """``rxn_scheme`` with the sweep's bound and edge lengths."""
    return dist.rxn_scheme(law, normals, q_nodes, sweep_bound(law, q_nodes),
                           edge_lengths(normals), **kwargs)


def n_system(law, normals, q_nodes):
    """``n_scheme_system`` with the sweep's parameter vectors, edge lengths
    and bound."""
    return dist.n_scheme_system(law, normals, q_nodes, law.to_params(q_nodes),
                                edge_lengths(normals), sweep_bound(law, q_nodes))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_irregular_mesh():
    mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 10, 10)
    return meshgen.perturb_interior(mesh, 0.2, seed=3)
