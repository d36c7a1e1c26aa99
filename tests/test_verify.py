"""The self-check suites run the code the march runs."""

import numpy as np

from rdflux import distribution as dist
from rdflux import physics, verify
from rdflux.solver import SolverConfig

from .conftest import random_euler_states


def test_free_triangle_residuals_are_the_parts(rng):
    # Node 3t + i is corner i of triangle t, so the assembled residual of
    # that node is part i of triangle t as the scheme computes it alone.
    coords = verify.random_triangles(rng, 40)
    mesh = verify._free_triangles(coords)
    assert mesh.n_nodes == 120 and np.array_equal(mesh.points[7], coords[2, 1])
    law = physics.Euler()
    q_nodes = random_euler_states(rng, (40, 3))
    cfg = SolverConfig(scheme="rxn", limited=False, corrected=False)
    parts = verify._assembled_parts(mesh, law, cfg, q_nodes)
    expected = dist.rxn_scheme(law, mesh.normals, q_nodes).parts
    assert np.abs(parts - expected).max() <= 1e-14 * np.abs(expected).max()


def test_conservation_suite_runs_the_advection_map(monkeypatch):
    # On the advection law the march distributes with the per-mesh map
    # (g, w) under RXN and the streamfunction k under N; so must the suite.
    calls = {"advection_coefficients": 0, "advection_upwind_k": 0}
    for name in calls:
        fn = getattr(dist, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(dist, name, counted)
    result = verify.suite_conservation(0, n=50)
    assert result.passed, result.row()
    assert calls["advection_coefficients"] > 0 and calls["advection_upwind_k"] > 0


def test_monotone_suite_catches_a_sign_error_in_the_n_scheme(monkeypatch):
    # Plant parts built from k^- instead of k^+: Phi_i = k_i^- (Q_i - Q_star).
    # A triangle with two inflow nodes then couples them with the wrong
    # sign, and the suite, which probes the march's scheme, must fail.
    n_scheme_scalar = dist.n_scheme_scalar

    def mutant(q_nodes, k):
        res = n_scheme_scalar(q_nodes, k)
        kn = np.minimum(k, 0.0)[..., None]
        return dist.DistributedResidual(kn * (q_nodes - res.star[:, None, :]), res.star)

    assert verify.suite_monotone_coefficients(0, n=200).passed
    monkeypatch.setattr(dist, "n_scheme_scalar", mutant)
    result = verify.suite_monotone_coefficients(0, n=200)
    assert not result.passed and result.metric > 1e-3, result.row()
