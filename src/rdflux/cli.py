"""Command-line driver.

Subcommands:

* ``run <config>`` — march a case to steady state and emit results.
  ``<config>`` is a config file path or a built-in preset name.  Exit
  code 0 on convergence, 2 when the iteration budget runs out, 3 on
  divergence, 1 for configuration problems.
* ``verify [--seed K]`` — run the built-in property suites and print a
  pass/fail table; exit 1 if any suite fails.
* ``mesh-gen <spec> <out>`` — generate a mesh from the mesh.* keys of a
  config file and save it.
* ``mesh-info <file>`` — print a mesh summary.
* ``probe <config> <tag>`` — re-emit a surface probe from a finished
  run's saved state (reads the run outputs; no VTK parsing).

Outputs of ``run`` land in the configured output directory: a legacy
VTK field snapshot, a convergence-history CSV, one probe CSV per
configured tag, and the final nodal state as CSV (which ``probe``
consumes).
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import config as cfgmod
from . import verify as verifymod
from . import vtkio
from .errors import ConfigError, Diverged, RdfluxError
from .solver import Solver

__all__ = ["main"]


def _state_path(plan):
    return os.path.join(plan.directory, f"{plan.basename}_state.csv")


def _write_state_csv(mesh, law, q, path):
    names = (
        ["density", "momentum_x", "momentum_y", "total_energy"]
        if law.m == 4
        else [f"q{j}" for j in range(law.m)]
    )
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "x", "y"] + names)
        for i in range(mesh.n_nodes):
            x, y = mesh.points[i]
            writer.writerow(
                [i, "%.17g" % x, "%.17g" % y] + ["%.17g" % v for v in q[i]]
            )
    return path


def _read_state_csv(path, n_nodes, m):
    """Nodal states (n_nodes, m) from a state CSV written by ``run``.

    Every row must hold node, x, y and m finite numbers, with the node
    column running 0..n_nodes-1; otherwise ConfigError names the line.
    """
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(
            f"cannot read saved state {path}: {exc} (run the case first)"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"saved state {path} is not ASCII text: {exc}") from exc
    body = rows[1:]
    if len(body) != n_nodes:
        raise ConfigError(
            f"saved state {path} has {len(body)} nodes, mesh has {n_nodes}"
        )
    q = np.empty((n_nodes, m))
    for i, row in enumerate(body):
        where = f"saved state {path}:{i + 2}"
        if len(row) != 3 + m:
            raise ConfigError(f"{where}: expected {3 + m} fields, got {len(row)}")
        try:
            node = int(row[0])
            q[i] = [float(v) for v in row[3:]]
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if node != i:
            raise ConfigError(f"{where}: node {node}, expected {i}")
        if not np.isfinite(q[i]).all():
            raise ConfigError(f"{where}: non-finite state")
    return q


def _load_mapping(arg):
    """Treat ``arg`` as a config path if it exists, else as a preset name."""
    if os.path.exists(arg):
        return cfgmod.load_config(arg)
    if arg in cfgmod.preset_names():
        return cfgmod.preset(arg)
    raise ConfigError(
        f"{arg!r} is neither a config file nor a preset "
        f"(presets: {', '.join(cfgmod.preset_names())})"
    )


def _nodal_fields(problem, q):
    if problem.law.m == 4:
        q_ref = None
        if problem.q0 is not None:
            q_ref = problem.q0[0]
        return vtkio.euler_point_fields(problem.law, q, q_ref)
    return {"solution": q[:, 0]}


def _default_probe_field(fields):
    """The probed field: the entropy deviation where there is one, else the first."""
    return "entropy_deviation" if "entropy_deviation" in fields else next(iter(fields))


def _cmd_run(args):
    mapping = _load_mapping(args.config)
    problem = cfgmod.build_problem(mapping)
    plan = problem.output
    os.makedirs(plan.directory, exist_ok=True)

    solver = Solver(problem.mesh, problem.law, problem.boundaries, problem.solver_config)

    def progress(it, q, rel):
        if args.quiet:
            return
        if it == 1 or it % problem.solver_config.history_stride == 0:
            print(f"iter {it:7d}  relative rate {rel:.3e}", flush=True)

    result = solver.march(problem.q0, callback=progress)
    print(
        f"{plan.basename}: {result.reason} after {result.iterations} iterations "
        f"(relative rate {result.final_residual:.3e})"
    )

    fields = _nodal_fields(problem, result.q)
    if plan.fields:
        path = os.path.join(plan.directory, f"{plan.basename}.vtk")
        vtkio.write_vtk(problem.mesh, fields, path)
        print(f"wrote {path}")
    if plan.history:
        path = os.path.join(plan.directory, f"{plan.basename}_history.csv")
        vtkio.write_history_csv(result.history, path)
        print(f"wrote {path}")
    state = _write_state_csv(problem.mesh, problem.law, result.q, _state_path(plan))
    print(f"wrote {state}")
    probe_field = _default_probe_field(fields)
    for tag in plan.probes:
        path = os.path.join(plan.directory, f"{plan.basename}_probe_{tag}.csv")
        vtkio.write_probe_csv(problem.mesh, fields[probe_field], tag, path, name=probe_field)
        print(f"wrote {path}")

    return 0 if result.converged else 2


def _cmd_verify(args):
    results = verifymod.run_all(seed=args.seed)
    for r in results:
        print(r.row())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed (seed {args.seed})")
    return 1 if failed else 0


def _cmd_mesh_gen(args):
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read mesh spec {args.spec}: {exc}") from exc
    mapping = cfgmod.parse_text(text)
    mesh = cfgmod.build_mesh_only(mapping)
    from .mesh import save_mesh

    save_mesh(mesh, args.out)
    print(
        f"wrote {args.out}: {mesh.n_nodes} nodes, {mesh.n_tris} triangles, "
        f"tags {', '.join(mesh.tags)}"
    )
    return 0


def _cmd_mesh_info(args):
    from .mesh import load_mesh

    mesh = load_mesh(args.file)
    pts = mesh.points
    print(f"nodes:     {mesh.n_nodes}")
    print(f"triangles: {mesh.n_tris}")
    print(f"bbox:      x [{pts[:,0].min():g}, {pts[:,0].max():g}]  "
          f"y [{pts[:,1].min():g}, {pts[:,1].max():g}]")
    print(f"area:      total {mesh.areas.sum():g}, min {mesh.areas.min():g}, "
          f"max {mesh.areas.max():g}")
    print(f"reoriented triangles: {mesh.reoriented}")
    for tag in mesh.tags:
        print(f"tag {tag!r}: {len(mesh.boundary_nodes(tag))} nodes, "
              f"{len(mesh.boundary_edges(tag))} edges")
    return 0


def _cmd_probe(args):
    mapping = _load_mapping(args.config)
    problem = cfgmod.build_problem(mapping)
    plan = problem.output
    q = _read_state_csv(_state_path(plan), problem.mesh.n_nodes, problem.law.m)
    fields = _nodal_fields(problem, q)
    name = args.field or _default_probe_field(fields)
    if name not in fields:
        raise ConfigError(f"unknown field {name!r}; available: {', '.join(fields)}")
    out = args.out or os.path.join(plan.directory, f"{plan.basename}_probe_{args.tag}.csv")
    vtkio.write_probe_csv(problem.mesh, fields[name], args.tag, out, name=name)
    print(f"wrote {out}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rdflux",
        description="Residual-distribution solvers for steady 2D conservation laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="march a case to steady state")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="run built-in property suites")
    p_ver.add_argument("--seed", type=int, default=0, help="seed for random instances")
    p_ver.set_defaults(fn=_cmd_verify)

    p_gen = sub.add_parser("mesh-gen", help="generate a mesh from a config's mesh keys")
    p_gen.add_argument("spec", help="config file with mesh.* keys")
    p_gen.add_argument("out", help="output mesh file")
    p_gen.set_defaults(fn=_cmd_mesh_gen)

    p_info = sub.add_parser("mesh-info", help="print a mesh summary")
    p_info.add_argument("file", help="mesh file")
    p_info.set_defaults(fn=_cmd_mesh_info)

    p_probe = sub.add_parser("probe", help="re-emit a surface probe from a finished run")
    p_probe.add_argument("config", help="config file path or preset name")
    p_probe.add_argument("tag", help="boundary tag to probe")
    p_probe.add_argument("--field", default=None, help="field name (default: entropy deviation)")
    p_probe.add_argument("--out", default=None, help="output CSV path")
    p_probe.set_defaults(fn=_cmd_probe)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except RdfluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
