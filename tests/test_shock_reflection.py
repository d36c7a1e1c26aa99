"""The oblique shock reflection of Yee, Warming & Harten (JCP 57, 1985).

A Mach 2.9 stream enters [0, 4] x [0, 1] from the left; the top boundary
holds the state behind an incident shock that leaves the corner (0, 1)
at 29 degrees to the stream, and the shock reflects off the slip wall at
the bottom.  The exact solution has three constant states, which follow
from the oblique-shock relations alone: nothing here comes from
``rdflux`` but the march under test.
"""

import math

import numpy as np
import pytest

from rdflux import config, solver

GAMMA = 1.4
MACH = 2.9
BETA = math.radians(29.0)


def oblique_shock(mach, beta):
    """(rho2/rho1, p2/p1, theta, M2) across a shock at ``beta`` to a stream
    of Mach ``mach``: the Rankine-Hugoniot ratios of the normal Mach
    number, the deflection theta from tan(beta - theta) = tan(beta) rho1/rho2
    (the theta-beta-M relation) and the downstream Mach number, from the
    kept tangential and the compressed normal velocity."""
    mn2 = (mach * math.sin(beta)) ** 2
    r = (GAMMA + 1.0) * mn2 / ((GAMMA - 1.0) * mn2 + 2.0)
    pr = 1.0 + 2.0 * GAMMA / (GAMMA + 1.0) * (mn2 - 1.0)
    theta = beta - math.atan(math.tan(beta) / r)
    mach2 = mach * math.sqrt((math.cos(beta) ** 2 + (math.sin(beta) / r) ** 2) * r / pr)
    return r, pr, theta, mach2


def weak_shock_angle(mach, theta):
    """The weak-branch shock angle that deflects a Mach ``mach`` stream by
    ``theta``: bisection between the Mach angle and the angle of largest
    deflection, on which the deflection rises monotonically."""
    lo = math.asin(1.0 / mach)
    grid = np.linspace(lo, 0.5 * math.pi, 4001)
    hi = float(grid[np.argmax([oblique_shock(mach, b)[2] for b in grid])])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oblique_shock(mach, mid)[2] < theta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_solution():
    """(rho2, p2/p1, rho3, p3/p1, theta, reflected angle to the wall)."""
    r2, pr2, theta, mach2 = oblique_shock(MACH, BETA)
    beta2 = weak_shock_angle(mach2, theta)
    r3, pr3, _, _ = oblique_shock(mach2, beta2)
    return r2, pr2, r2 * r3, pr2 * pr3, theta, beta2 - theta


def test_exact_states_match_published():
    rho2, pr2, rho3, pr3, theta, reflected = exact_solution()
    published = [1.69997, 2.1395, 2.68732, 4.1077]
    np.testing.assert_allclose([rho2, pr2, rho3, pr3], published, rtol=1e-4)
    assert math.degrees(reflected) == pytest.approx(23.28, abs=5e-3)


def test_limited_rxn_converges_to_the_three_states():
    # In the ``freestream`` normalization: rho = 1, p = gamma^-gamma.
    rho2, pr2, rho3, _, theta, reflected = exact_solution()
    p1 = GAMMA**-GAMMA
    speed1 = MACH * math.sqrt(GAMMA * p1)
    # Across the incident shock the tangential velocity is kept and the
    # normal one is divided by the density ratio.
    speed2 = speed1 * math.hypot(math.cos(BETA), math.sin(BETA) / rho2)
    u, v = speed2 * math.cos(theta), -speed2 * math.sin(theta)
    p2 = pr2 * p1
    top = (rho2, rho2 * u, rho2 * v, p2 / (GAMMA - 1.0) + 0.5 * rho2 * (u * u + v * v))
    mapping = {
        "law.kind": "euler",
        "law.gamma": repr(GAMMA),
        "law.mach": repr(MACH),
        "mesh.kind": "rect",
        "mesh.bounds": "0 4 0 1",
        "mesh.nx": "20",
        "mesh.ny": "5",
        "boundary.left": "dirichlet freestream",
        "boundary.top": "dirichlet " + " ".join(repr(x) for x in top),
        "boundary.bottom": "slip_wall",
        "boundary.right": "outflow",
        "init.kind": "freestream",
        "solver.scheme": "rxn",
        "solver.limited": "true",
        "solver.corrected": "true",
        "solver.local_time_stepping": "true",
        "solver.cfl_fraction": "0.5",
        "solver.stop_tol": "1e-6",
        "solver.max_iters": "3000",
    }
    problem = config.build_problem(mapping)
    sol = solver.Solver(problem.mesh, problem.law, problem.boundaries, problem.solver_config)
    res = sol.march(problem.q0)
    assert res.converged  # 1194 iterations when measured

    x, y = problem.mesh.points.T
    x_wall = 1.0 / math.tan(BETA)
    exact = np.where(
        x < (1.0 - y) * x_wall,
        1.0,
        np.where(y > (x - x_wall) * math.tan(reflected), rho2, rho3),
    )
    weights = problem.mesh.dual_areas
    l1 = float(np.sum(weights * np.abs(res.q[:, 0] - exact)) / weights.sum())
    assert l1 < 0.125  # 0.1205 when measured
