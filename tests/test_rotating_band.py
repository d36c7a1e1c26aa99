"""The shipped scalar case: solid-body rotation of a sine band.

``advection-rotating`` carries the inflow profile sin(pi (0.7 - r) / 0.6)
on 0.1 < r < 0.7 of the bottom edge along circles about the origin; the
steady solution is that profile as a function of r.  The error is
computed here from the raw arrays (points, triangles, the final state):
nothing comes from ``rdflux`` but the march under test.
"""

import numpy as np
import pytest

from rdflux import config, solver


def band_error(mesh, q):
    """Dual-area-weighted mean |q - q_exact|, the dual areas being one
    third of each incident triangle's area."""
    pts = np.asarray(mesh.points, dtype=float)
    tris = np.asarray(mesh.tris)
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    area = 0.5 * np.abs((b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0])
    dual = np.zeros(len(pts))
    for i in range(3):
        np.add.at(dual, tris[:, i], area / 3.0)
    r = np.hypot(pts[:, 0], pts[:, 1])
    exact = np.where((r > 0.1) & (r < 0.7), np.sin(np.pi * (0.7 - r) / 0.6), 0.0)
    return float((dual * np.abs(q[:, 0] - exact)).sum() / dual.sum())


@pytest.mark.parametrize("scheme, bound", [("rxn", 7.0e-3), ("n", 5.5e-3)])
def test_preset_converges_on_a_coarse_mesh(scheme, bound):
    # The limited, corrected scheme under the preset's local time steps,
    # by the plain march and by the preset's Anderson mixing.  With a
    # correction amplitude that carries the units of k (theta |T|^{-1/2}
    # k_i Phi^T) the plain march stalls here at a relative rate near 0.8;
    # with the dimensionless inflow weights it converges in 451 (RXN) and
    # 377 (N) iterations, and the mixed march in 111 and 98, to errors of
    # 6.73e-3 and 5.20e-3 either way.
    for acceleration in ("none", "anderson"):
        mapping = config.preset("advection-rotating")
        mapping.update({"mesh.nx": "27", "mesh.ny": "27", "solver.scheme": scheme,
                        "solver.stop_tol": "1e-6", "solver.max_iters": "700",
                        "solver.acceleration": acceleration})
        problem = config.build_problem(mapping)
        assert problem.solver_config.local_time_stepping
        res = solver.Solver(problem.mesh, problem.law, problem.boundaries,
                            problem.solver_config).march(problem.q0)
        assert res.converged, (acceleration, res.iterations, res.final_residual)
        assert band_error(problem.mesh, res.q) < bound, acceleration


def test_anderson_reaches_the_preset_tolerance_sooner():
    # The preset mixes its steps (``solver.acceleration = anderson``): 269
    # iterations to its stop_tol of 1e-7 when measured, against 847 for
    # the plain march.  Both stop at the same fixed point: their errors
    # read 2.5692e-3.
    results = {}
    for acceleration in ("anderson", "none"):
        mapping = config.preset("advection-rotating")
        mapping["solver.acceleration"] = acceleration
        problem = config.build_problem(mapping)
        res = solver.Solver(problem.mesh, problem.law, problem.boundaries,
                            problem.solver_config).march(problem.q0)
        assert res.converged
        results[acceleration] = res.iterations, band_error(problem.mesh, res.q)
    assert config.preset("advection-rotating")["solver.acceleration"] == "anderson"
    assert results["anderson"][0] <= 339  # 0.4 x 847
    assert results["anderson"][1] == pytest.approx(results["none"][1], rel=1e-4)
