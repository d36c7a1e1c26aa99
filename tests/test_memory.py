"""Memory of a march: freed heap stays resident (no page faults in a steady
march), and one gas-dynamics step's temporaries stay within a bound."""

import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rdflux
from rdflux import _memory, config, distribution, physics
from rdflux.solver import Solver, SolverConfig

from .test_solver import scalar_problem

GLIBC = sys.platform == "linux" and platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not GLIBC, reason="mallopt and minor fault counts are glibc/Linux behaviour")
def test_steady_march_takes_no_page_faults():
    import resource

    problem = config.build_problem(config.preset("cylinder-supersonic"))
    cfg = replace(problem.solver_config, max_iters=25, stop_tol=0.0)
    faults = []
    Solver(problem.mesh, problem.law, problem.boundaries, cfg).march(
        problem.q0,
        callback=lambda it, q, rel: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt),
    )
    # 5 warm-up iterations, then 20 steady ones.
    per_iteration = (faults[24] - faults[4]) / 20
    assert per_iteration < 20, f"{per_iteration:.0f} minor page faults per iteration"


def _no_mallopt(name):
    return object()


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("lookup", [_no_mallopt, _no_libc], ids=["no-mallopt", "oserror"])
def test_solver_runs_where_mallopt_is_missing(monkeypatch, lookup):
    monkeypatch.setattr(_memory, "_retained", False)
    monkeypatch.setattr(_memory.ctypes, "CDLL", lookup)
    mesh, law, bset = scalar_problem(6, 6)
    cfg = SolverConfig(scheme="rxn", max_iters=2, stop_tol=0.0)
    res = Solver(mesh, law, bset, cfg).march(np.zeros((mesh.n_nodes, 1)))
    assert res.iterations == 2
    assert np.isfinite(res.q).all()


def test_helper_runs_its_calls_once(monkeypatch):
    lookups = []

    def lookup(name):
        lookups.append(name)
        return object()

    monkeypatch.setattr(_memory, "_retained", False)
    monkeypatch.setattr(_memory.ctypes, "CDLL", lookup)
    _memory.retain_heap()
    _memory.retain_heap()
    mesh, law, bset = scalar_problem(6, 6)
    Solver(mesh, law, bset, SolverConfig(max_iters=2, stop_tol=0.0)).march(
        np.zeros((mesh.n_nodes, 1))
    )
    assert len(lookups) == 1


def test_import_leaves_the_allocator_alone():
    code = (
        "import rdflux, rdflux.solver\n"
        "from rdflux import _memory\n"
        "assert not _memory._retained, 'retained at import'\n"
        "from rdflux.meshgen import generate_rect_mesh\n"
        "from rdflux.physics import Advection\n"
        "rdflux.solver.Solver(generate_rect_mesh((0, 1, 0, 1), 3, 3), Advection((1.0, 0.0)))\n"
        "assert _memory._retained, 'not retained by the first Solver'\n"
    )
    src = str(Path(rdflux.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _step_high_water(scheme):
    """``tracemalloc`` high-water of one limited, corrected step of
    ``cylinder-supersonic`` (5000 triangles) under ``scheme``, after 3
    iterations: the sweep, the step rule and the step, above the state, in
    (T, 3, 4) parts-sizes."""
    mapping = config.preset("cylinder-supersonic")
    mapping.update({"solver.scheme": scheme, "solver.max_iters": "3", "solver.stop_tol": "0"})
    problem = config.build_problem(mapping)
    cfg = problem.solver_config
    assert cfg.scheme == scheme and cfg.limited and cfg.corrected
    sol = Solver(problem.mesh, problem.law, problem.boundaries, cfg)
    q = sol.march(problem.q0).q
    parts_size = sol.tris.shape[0] * 3 * problem.law.m * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol.step(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / parts_size


def test_euler_step_high_water():
    """One limited, corrected RXN step allocates at most 6 parts-sized
    arrays above the state at its high-water mark.

    Measured with ``tracemalloc`` (which sees NumPy's buffers on every
    platform): 4.7 parts-sizes, with the normal flux formed from the
    gathered pressure in one buffer that becomes the parts, the sweep's
    gathered state released once the parts exist, the limiter working in
    its amplitude array and the correction adding in place.
    """
    high_water = _step_high_water("rxn")
    assert high_water < 6.0, f"{high_water:.2f} parts-sized arrays"


def test_n_step_high_water():
    """One limited, corrected step of the systems N scheme allocates at most
    7.5 parts-sized arrays above the state at its high-water mark.

    Measured as above: 6.0 parts-sizes, with one buffer carried from Qhat
    to the parts, the gathered parameter vector freed once averaged, the
    minus split and the unit normals dropped once their node sums are
    taken, the star matrix written row by row and the solved rows freed
    before the plus split.
    """
    high_water = _step_high_water("n")
    assert high_water < 7.5, f"{high_water:.2f} parts-sized arrays"


def test_n_pass_frees_the_gathered_parameter_vector(monkeypatch):
    """The systems N pass's gathered (T, 3, 4) parameter vector is dead
    before the star solve, whatever the interpreter keeps alive in the
    caller's frame: ``Solver`` hands the pass a gatherer, not the array."""
    mapping = config.preset("cylinder-supersonic")
    mapping.update({"mesh.n_radial": "6", "mesh.n_circum": "16", "solver.scheme": "n",
                    "solver.max_iters": "2", "solver.stop_tol": "0"})
    problem = config.build_problem(mapping)
    received, dead = [], []
    rsd_average = physics.ConservationLaw.rsd_average
    solve_batched = distribution.solve_batched

    def recording(self, z_nodes):
        owner = z_nodes  # the array that owns the memory, not a view of it
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        received.append(weakref.ref(owner))
        return rsd_average(self, z_nodes)

    def checking(aug):
        dead.append(received[-1]() is None)
        return solve_batched(aug)

    monkeypatch.setattr(physics.ConservationLaw, "rsd_average", recording)
    monkeypatch.setattr(distribution, "solve_batched", checking)
    Solver(problem.mesh, problem.law, problem.boundaries, problem.solver_config).march(problem.q0)
    assert dead == [True, True]
