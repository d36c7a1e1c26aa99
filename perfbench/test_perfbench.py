"""Tests of the benchmark's own oracles and tracer.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import run

assert run.import_rdflux() is not None, "rdflux must be importable from src/"

import tracer  # noqa: E402
import workloads  # noqa: E402
from rdflux import Solver  # noqa: E402


def test_pitot_ratio_mach5():
    assert workloads.pitot_ratio(5.0, 1.4) == pytest.approx(32.65, abs=0.005)


def test_pitot_ratio_sonic_matches_isentropic_stagnation():
    # At M = 1 the shock is infinitely weak: p0/p = ((gamma+1)/2)^(gamma/(gamma-1)).
    assert workloads.pitot_ratio(1.0, 1.4) == pytest.approx(1.2 ** 3.5, rel=1e-12)


def test_rotating_exact_at_sample_points():
    c = 1.0 / math.sqrt(2.0)
    xy = np.array([
        [0.4, 0.0], [0.0, 0.4], [0.4 * c, 0.4 * c],  # band centre: 1
        [0.55, 0.0],                                 # sin(pi/4)
        [0.05, 0.0], [0.1, 0.0], [0.7, 0.0], [0.8, 0.1],  # outside the band: 0
    ])
    expected = [1.0, 1.0, 1.0, math.sin(math.pi / 4), 0.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(workloads.rotating_exact(xy), expected, atol=1e-12)


def test_dual_areas_tile_the_domain():
    problem = workloads.WORKLOADS["rotating-scalar"].problem()
    assert workloads.dual_areas(problem.mesh).sum() == pytest.approx(1.0, rel=1e-12)


def _raw_targets():
    return [tracer._resolve(m, p)[2] for m, p, _ in tracer.TARGETS]


def test_tracer_restores_every_original():
    from rdflux import distribution, physics, smallmat

    before = _raw_targets()
    solve_batched = smallmat.solve_batched
    with tracer.Tracer():
        assert distribution.solve_batched is not solve_batched
        assert "rsd_average" in physics.Euler.__dict__
    after = _raw_targets()
    assert all(a is b for a, b in zip(before, after))
    assert distribution.solve_batched is solve_batched
    assert "rsd_average" not in physics.Euler.__dict__


def _short_march(name, iters, traced):
    problem = workloads.WORKLOADS[name].problem()
    cfg = replace(problem.solver_config, max_iters=iters, stop_tol=0.0)
    solver = Solver(problem.mesh, problem.law, problem.boundaries, cfg)
    if not traced:
        return solver.march(problem.q0).q, []
    tr = tracer.Tracer()
    with tr:
        q = solver.march(problem.q0).q
    return q, tr.take()


def test_traced_and_untraced_runs_are_bit_identical():
    for name in ("supersonic-n", "rotating-scalar"):
        plain, _ = _short_march(name, 4, traced=False)
        traced, spans = _short_march(name, 4, traced=True)
        assert spans
        assert np.array_equal(plain, traced)


def test_self_time_excludes_children():
    _, spans = _short_march("supersonic-euler", 3, traced=True)
    rows = tracer.summarize(spans)
    march = next(s for s in spans if s.name == "solver.Solver.march")
    total_self = sum(row[0] for row in rows.values())
    assert total_self == pytest.approx(march.end - march.start, rel=1e-9)


def test_run_without_sources_fails_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__", "reference"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "rotating-scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

