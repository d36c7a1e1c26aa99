"""The two kinds of benchmark run: end to end (untraced) and traced.

Imported by ``run.py`` once ``src/`` is on the import path.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import traceback
from dataclasses import replace
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np
from rdflux import Solver
from tracer import ITER_TARGETS, SETUP_TARGETS, Tracer, summarize
from workloads import state_problem

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
SETUP_REPEATS = 11
ASSEMBLE_REPEATS = 15
UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "iters": "count",
    "iter_ms": "ms",
    "iter_ms_p90": "ms",
    "final_residual": "1",
    "solution_err": "1",
    "peak_rss_mb": "MB",
    "self_ms": "ms",
    "calls": "count",
    "bytes": "B-computed",
    "setup_ms": "ms",
    "setup_calls": "count",
    "ms_1t": "ms",
    "ms_2t": "ms",
}


def unit_of(name):
    """Unit of a metric, from its name or the suffix after its last dot."""
    return UNITS.get(name) or UNITS.get(name.rsplit(".", 1)[-1], "1")


def build(workload):
    """Problem and solver, as a user builds them; returns (problem, solver)."""
    problem = workload.problem()
    return problem, Solver(problem.mesh, problem.law, problem.boundaries, problem.solver_config)


def timed_march(solver, q0):
    """(SolveResult, wall seconds, per-iteration wall ms from callback stamps)."""
    stamps = [perf_counter()]
    result = solver.march(q0, callback=lambda it, q, rel: stamps.append(perf_counter()))
    wall = perf_counter() - stamps[0]
    return result, wall, [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]


def check(workload, problem, result):
    """(solution_err, failure message or None) of a finished march."""
    bad = state_problem(problem, result.q)
    if bad:
        return None, f"NonPhysicalFinalState: {bad}"
    if workload.must_converge and not result.converged:
        return None, f"NotConverged: stopped by {result.reason} after {result.iterations} iterations"
    err = workload.oracle(problem, result.q)
    if not err <= workload.err_bound:
        return err, f"SolutionError: solution_err {err:.4g} exceeds {workload.err_bound:.4g}"
    return err, None


def end_to_end(workload, seconds):
    """Several builds, then marches while the next one fits in ``seconds``.

    Returns (metrics, attempted, failures, info).
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        problem, solver = build(workload)
        setups.append(perf_counter() - start)
    marches, samples, failures = [], [], []
    window = perf_counter()
    while True:
        start = perf_counter()
        try:
            result, wall, its = timed_march(solver, problem.q0)
            err, failure = check(workload, problem, result)
        except Exception as exc:  # any failure of the program counts; keep measuring
            failure = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        if failure:
            failures.append(failure)
        else:
            marches.append((wall, result.iterations, result.final_residual, err))
            samples += its
        last = perf_counter() - start
        if perf_counter() - window + last > seconds:
            break
    metrics = {"setup_s": statistics.median(setups)}
    if marches:
        walls, iters, residuals, errs = zip(*marches)
        metrics.update(
            solve_s=statistics.fmean(walls),
            iters=statistics.median(iters),
            iter_ms=statistics.fmean(samples),
            iter_ms_p90=statistics.quantiles(samples, n=10, method="inclusive")[-1],
            final_residual=statistics.median(residuals),
            solution_err=statistics.median(errs),
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(marches) + len(failures)
    info = {"threads": solver.n_threads, "marches": attempted, "iteration_samples": len(samples)}
    return metrics, attempted, failures, info


def drift_rel(q, ref):
    """Largest per-component max |q - ref| / max |ref|."""
    scale = np.maximum(np.abs(ref).max(axis=0), np.finfo(float).tiny)
    return float((np.abs(q - ref).max(axis=0) / scale).max())


def traced(workload, seed, write_reference):
    """Per-layer self time, calls and bytes from a traced march, and their overhead.

    Returns (metrics, attempted, failures, info).
    """
    failures = []
    tracer = Tracer()
    with tracer:
        problem, _ = build(workload)
    setup_spans = tracer.take()
    cfg = replace(problem.solver_config, max_iters=workload.trace_iters, stop_tol=0.0)

    def fresh(c=cfg):
        return Solver(problem.mesh, problem.law, problem.boundaries, c)

    # Untraced marches before and after the traced one, so that a drift of
    # the machine's speed does not read as tracing overhead.
    plain, traced_solver = fresh(), fresh()
    res_plain, _, ms_plain = timed_march(plain, problem.q0)
    with tracer:
        res_traced, _, ms_traced = timed_march(traced_solver, problem.q0)
    march_spans = tracer.take()
    ms_plain += timed_march(plain, problem.q0)[2]
    if not np.array_equal(res_plain.q, res_traced.q):
        failures.append("TraceChangedResult: traced and untraced final states differ")

    ref_path = HERE / "reference" / f"{workload.name}.npy"
    if write_reference:
        ref_path.parent.mkdir(exist_ok=True)
        np.save(ref_path, res_plain.q)
    if ref_path.is_file():
        drift = drift_rel(res_plain.q, np.load(ref_path))
    else:
        drift = None
        failures.append(f"MissingReference: {ref_path}")

    assemble_ms = {}
    for n in (1, 2):
        solver = fresh(replace(cfg, n_threads=n))
        solver.assemble(res_plain.q)
        times = []
        for _ in range(ASSEMBLE_REPEATS):
            start = perf_counter()
            solver.assemble(res_plain.q)
            times.append(1e3 * (perf_counter() - start))
        assemble_ms[n] = statistics.median(times)

    iters = res_traced.iterations
    metrics = {}
    per_iter = summarize(march_spans)
    for module, path, _ in ITER_TARGETS:
        name = f"{module}.{path}"
        self_s, calls, nbytes, _, _ = per_iter.get(name, (0.0, 0, 0, 0.0, 0))
        metrics[f"{name}.self_ms"] = 1e3 * self_s / iters
        metrics[f"{name}.calls"] = calls / iters
        metrics[f"{name}.bytes"] = nbytes / calls if calls else 0.0
    per_build = summarize(setup_spans)
    for module, path, _ in SETUP_TARGETS:
        name = f"{module}.{path}"
        self_s, calls, _, _, _ = per_build.get(name, (0.0, 0, 0, 0.0, 0))
        metrics[f"{name}.setup_ms"] = 1e3 * self_s
        metrics[f"{name}.setup_calls"] = float(calls)

    def ratio(name):
        row = per_iter.get(name)
        return row[3] / row[4] if row and row[4] else 0.0

    metrics.update({
        "distribution.n_scheme_system.fallback_frac": ratio("distribution.n_scheme_system"),
        "limiting.correction.theta_mean": ratio("limiting.correction_theta"),
        "solver.assemble.ms_1t": assemble_ms[1],
        "solver.assemble.ms_2t": assemble_ms[2],
        "trajectory.drift_rel": drift,
        "trace.overhead_frac": statistics.fmean(ms_traced) / statistics.fmean(ms_plain) - 1.0,
    })
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as fh:
        for phase, spans in (("setup", setup_spans), ("march", march_spans)):
            for s in spans:
                fh.write(json.dumps({"phase": phase, **s._asdict()}) + "\n")
    info = {"threads": plain.n_threads, "trace_iters": iters, "spans": len(march_spans)}
    return metrics, 1, failures, info


def provenance(workload, seed, info):
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "workload": workload.name,
        "seed": seed,
        "seed_applies": False,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "machine": platform.machine(),
        **info,
    }
