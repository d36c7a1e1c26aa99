"""Every name that the benchmark (``perfbench/``) reads of the package resolves.

Only ``python -m pytest perfbench`` and the benchmark itself would
otherwise notice a removal.  ``perfbench/tracer.py`` is compiled from its
source, so that nothing is written under ``perfbench/``.
"""

import types
from dataclasses import replace
from pathlib import Path

import pytest

from rdflux import meshgen, physics
from rdflux.solver import Solver, SolverConfig


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


TRACER = _tracer()


@pytest.mark.parametrize("target", TRACER.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_trace_target_resolves(target):
    module, path, _ = target
    owner, attr, _ = TRACER._resolve(module, path)
    assert callable(getattr(owner, attr))


def test_thread_count_resolves():
    cfg = replace(SolverConfig(), n_threads=2)
    mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 2, 2)
    assert Solver(mesh, physics.Advection(), None, cfg).n_threads == 2
