"""The paper's theorem: one relaxation form yields both schemes.

``oracles.relaxation_scheme`` is the relaxation scheme with one matrix S_i
per node, written without the package's kernels.  Two choices of S_i give
the two schemes of ``distribution``:

* S_i = s_T ||n_i|| I with the nonlinear flux is ``rxn_scheme``;
* S_i = 2 |K_i|, K_i = (n_i . J) / 2 at the parameter-vector average and
  the flux linearized there (n_i . f(Q) -> 2 K_i Q), is the N scheme:
  ``n_scheme_system`` for a gas, with |K_i| from ``np.linalg.eig``, and for
  a scalar law, with S_i = 2 |k_i|, the map of ``upwind_coefficients``
  that ``linear_scheme`` applies.

Each case runs on 400 random triangles and states drawn with seed 0, and
agrees to 1e-12 relative to the largest reference value.

The positivity of the relaxation scheme rests on the relaxation condition
S_i - 2 |K_i| >= 0, for a scalar law s_T ||n_i|| >= 2 |k_i|.  It is
checked here for the scalar laws, each against upwind parameters written
out in the test: Burgers with the bound the march's sweep forms, the
rotating field with the bound its advection map carries.
"""

import numpy as np
import pytest

from rdflux import distribution as dist
from rdflux import physics, verify
from rdflux.mesh import compute_normals
from rdflux.solver import Solver, SolverConfig

from .conftest import (
    edge_lengths,
    mean_state,
    n_system,
    random_euler_states,
    random_triangles,
    sweep_bound,
)
from .oracles import abs_matrix, flux_jacobian, relaxation_scheme

N = 400
LAWS = {
    "euler": physics.Euler,
    "burgers": physics.Burgers,
    "advection": lambda: physics.Advection((1.3, -0.7)),
}


def draw(law):
    """(normals, q_nodes) of ``N`` random triangles, seed 0."""
    rng = np.random.default_rng(0)
    normals = compute_normals(random_triangles(rng, N))
    if law.m == 1:
        return normals, rng.normal(0.0, 2.0, size=(N, 3, 1))
    return normals, random_euler_states(rng, (N, 3))


def assert_close(actual, reference):
    assert np.abs(actual - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("name", list(LAWS))
def test_scalar_speed_times_identity_is_rxn(name):
    law = LAWS[name]()
    normals, q = draw(law)
    s, nlen = sweep_bound(law, q), edge_lengths(normals)
    S = (s[:, None] * nlen)[..., None, None] * np.eye(law.m)

    def normal_flux(x):
        fx, fy = law.flux(x)
        return normals[..., 0:1] * fx + normals[..., 1:2] * fy

    parts, star = relaxation_scheme(S, q, normal_flux)
    res = dist.rxn_scheme(law, normals, q, s, nlen)
    assert_close(res.parts, parts)
    assert_close(res.star, star)


def test_absolute_jacobians_give_the_systems_n_scheme():
    law = physics.Euler()
    normals, q = draw(law)
    avg = law.rsd_average(law.to_params(q))
    K = 0.5 * flux_jacobian(law, avg.qhat[:, None, :], normals)  # (T, 3, 4, 4)

    def normal_flux(x):
        return 2.0 * np.einsum("tiab,tib->tia", K, x)

    parts, star = relaxation_scheme(2.0 * abs_matrix(K), avg.qhat_nodes, normal_flux)
    res = n_system(law, normals, q)
    assert not res.fallback.any()
    assert_close(res.parts, parts)
    assert_close(res.star, star)


@pytest.mark.parametrize("name", ["burgers", "advection"])
def test_absolute_upwind_parameters_give_the_scalar_n_map(name):
    law = LAWS[name]()
    normals, q = draw(law)
    k = dist.scalar_upwind_k(law, normals, mean_state(q))

    def normal_flux(x):
        return 2.0 * k[..., None] * x

    parts, star = relaxation_scheme(2.0 * np.abs(k)[..., None, None], q, normal_flux)
    res = dist.linear_scheme(q, dist.upwind_coefficients(k))
    assert_close(res.parts, parts)
    assert_close(res.star, star)


def test_relaxation_condition_burgers_with_the_sweep_bound():
    # f'(q) = (q, 0), so 2 |k_i| = |n_i . f'(Qbar)| = |n_i,x| |Qbar|.  The
    # bound is the sweep's, on a mesh of the triangles sharing no node.
    law = physics.Burgers()
    rng = np.random.default_rng(0)
    coords = random_triangles(rng, N)
    q = rng.normal(0.0, 2.0, size=(N, 3, 1))
    sweep = Solver(verify._free_triangles(coords), law, None,
                   SolverConfig(scheme="rxn"))._sweep(q.reshape(-1, 1))
    normals = compute_normals(coords)
    two_k = np.abs(normals[..., 0] * q[..., 0].mean(axis=1)[:, None])
    assert (sweep.s[:, None] * sweep.nlen >= two_k).all()


def test_relaxation_condition_rotating_field_with_the_map_bound(monkeypatch):
    # k_i = (psi_{i+1} - psi_{i+2}) / 2 from the streamfunction
    # psi = -omega |x|^2 / 2, on triangles around the rotation centre; the
    # bound is the one ``advection_coefficients`` forms for the map.
    law = physics.RotatingAdvection()
    coords = 2.0 * random_triangles(np.random.default_rng(0), N) - 1.0
    normals = compute_normals(coords)
    bounds = []
    fn = dist.wave_speed_bound
    monkeypatch.setattr(dist, "wave_speed_bound", lambda *a: bounds.append(fn(*a)) or bounds[-1])
    dist.advection_coefficients(normals, edge_lengths(normals), law.velocity_at(coords))
    (s,) = bounds
    psi = -0.5 * law.omega * (coords[..., 0] ** 2 + coords[..., 1] ** 2)
    two_k = np.abs(np.roll(psi, -1, axis=1) - np.roll(psi, -2, axis=1))
    assert (s[:, None] * edge_lengths(normals) >= two_k).all()
