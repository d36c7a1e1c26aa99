"""Workloads of the rdflux benchmark and the oracles that check their output.

Every workload is a shipped preset plus key overrides, built through the
public API (``config.preset`` -> ``config.build_problem``).  The oracles
recompute everything they need (primitive variables, dual areas, free
stream) from the raw arrays, so they never call the functions under test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from rdflux import config


def dual_areas(mesh):
    """Median-dual cell areas: one third of every incident triangle's area."""
    pts = np.asarray(mesh.points, dtype=float)
    tris = np.asarray(mesh.tris)
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    area = 0.5 * np.abs((b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0])
    return np.bincount(tris.ravel(), weights=np.repeat(area / 3.0, 3), minlength=len(pts))


def gas_primitives(q, gamma):
    """(rho, u, v, p) of conserved Euler states, without positivity checks."""
    q = np.asarray(q, dtype=float)
    rho = q[..., 0]
    u = q[..., 1] / rho
    v = q[..., 2] / rho
    p = (gamma - 1.0) * (q[..., 3] - 0.5 * rho * (u * u + v * v))
    return rho, u, v, p


def pitot_ratio(mach, gamma):
    """Rayleigh pitot formula: stagnation pressure behind a normal shock / p_inf."""
    m2 = mach * mach
    return (
        ((gamma + 1.0) ** 2 * m2 / (4.0 * gamma * m2 - 2.0 * (gamma - 1.0)))
        ** (gamma / (gamma - 1.0))
        * (1.0 - gamma + 2.0 * gamma * m2)
        / (gamma + 1.0)
    )


def rotating_exact(xy):
    """Solid-body rotation carries the inflow profile along circles about 0."""
    xy = np.asarray(xy, dtype=float)
    r = np.hypot(xy[..., 0], xy[..., 1])
    return np.where((r > 0.1) & (r < 0.7), np.sin(np.pi * (0.7 - r) / 0.6), 0.0)


def rotating_error(problem, q):
    """Dual-area-weighted mean |q - q_exact|."""
    w = dual_areas(problem.mesh)
    err = np.abs(q[:, 0] - rotating_exact(problem.mesh.points))
    return float((w * err).sum() / w.sum())


def pitot_error(problem, q):
    """|p_stag / p_pitot - 1|, p_stag the largest wall pressure."""
    gamma = problem.law.gamma
    rho0, u0, v0, p0 = gas_primitives(problem.q0[0], gamma)
    mach = math.hypot(u0, v0) / math.sqrt(gamma * p0 / rho0)
    p = gas_primitives(q, gamma)[3]
    p_stag = p[problem.mesh.boundary_nodes("wall")].max()
    return float(abs(p_stag / (p0 * pitot_ratio(mach, gamma)) - 1.0))


def entropy_error(problem, q):
    """Dual-area-weighted RMS of (s - s_inf) / |s_inf|, s = log(p / rho^gamma)."""
    gamma = problem.law.gamma
    rho0, _, _, p0 = gas_primitives(problem.q0[0], gamma)
    s_inf = math.log(p0 / rho0**gamma)
    rho, _, _, p = gas_primitives(q, gamma)
    dev = (np.log(p / rho**gamma) - s_inf) / abs(s_inf)
    w = dual_areas(problem.mesh)
    return float(np.sqrt((w * dev * dev).sum() / w.sum()))


def state_problem(problem, q):
    """Why a final state is non-physical, or None when it is fine."""
    if not np.isfinite(q).all():
        return f"non-finite state at node {int(np.flatnonzero(~np.isfinite(q).all(axis=1))[0])}"
    if problem.law.m == 4:
        rho, _, _, p = gas_primitives(q, problem.law.gamma)
        bad = np.flatnonzero((rho <= 0.0) | (p <= 0.0))
        if bad.size:
            return f"non-positive density or pressure at node {int(bad[0])}"
    return None


@dataclass(frozen=True)
class Workload:
    """A preset, the overrides that set its stop rule, and its oracle.

    ``err_bound`` is the largest ``solution_err`` a correct run may show;
    ``trace_iters`` is the iteration budget of the traced run.
    """

    name: str
    preset: str
    overrides: dict
    oracle: Callable
    err_bound: float
    must_converge: bool
    trace_iters: int

    def problem(self):
        mapping = config.preset(self.preset)
        mapping.update(self.overrides)
        return config.build_problem(mapping)


# On a 2-core x86 VM (Python 3.11, numpy 2.4) one march takes 5 to 17 s,
# so a run of 15 s makes one or two.  Every budget leaves at least 20
# iteration samples beyond the 90th percentile.  The error bounds sit well
# above the values the budgets reach (2.55e-3, 0.147, 1.74e-3, 0.154), so
# they catch gross faults only; smaller changes show in the relative bound
# on solution_err and in trajectory.drift_rel.  ``rotating-scalar`` must converge
# within 6000 iterations, about three times what it takes, so that a run
# that cannot converge fails within the time limit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rotating-scalar", "advection-rotating",
                 {"solver.stop_tol": "1e-3", "solver.max_iters": "6000"},
                 oracle=rotating_error, err_bound=5.0e-3, must_converge=True, trace_iters=500),
        Workload("supersonic-euler", "cylinder-supersonic", {"solver.max_iters": "300"},
                 oracle=pitot_error, err_bound=0.25, must_converge=False, trace_iters=150),
        Workload("subsonic-euler", "cylinder-subsonic", {"solver.max_iters": "200"},
                 oracle=entropy_error, err_bound=5.0e-3, must_converge=False, trace_iters=60),
        Workload("supersonic-n", "cylinder-supersonic",
                 {"solver.max_iters": "200", "solver.scheme": "n"},
                 oracle=pitot_error, err_bound=0.25, must_converge=False, trace_iters=80),
    )
}
