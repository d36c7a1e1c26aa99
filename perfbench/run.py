"""rdflux benchmark: time to solution and cost per iteration, plus a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload supersonic-euler --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it makes a separate traced run and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.  The package is imported from ``src/`` next
to this directory; without it the run exits with code 2 and prints no
result.  See README.md in this directory for the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The end-to-end runs measure the program's defaults.
STRIPPED_ENV = ("RD_THREADS", "RD_DETERMINISTIC")


def import_rdflux():
    """Import rdflux from ROOT/src and nowhere else; None if it is not there."""
    src = ROOT / "src"
    if not (src / "rdflux" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import rdflux

    if Path(rdflux.__file__).resolve().parent != src / "rdflux":
        return None
    return rdflux


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="with --trace 1: store the untraced march's final state as the "
                         "trajectory reference of this workload")
    return ap.parse_args(argv)


def run_one(args, workload):
    import measure

    for var in STRIPPED_ENV:
        os.environ.pop(var, None)
    if args.trace:
        metrics, attempted, failures, info = measure.traced(workload, args.seed,
                                                            args.write_reference)
    else:
        metrics, attempted, failures, info = measure.end_to_end(workload, args.seconds)
    print("# provenance " + json.dumps(measure.provenance(workload, args.seed, info)))
    for failure in failures:
        print(f"# FAILED {failure}")
    for name, value in metrics.items():
        print(f"# {workload.name:18s} {name:48s} {value!s:>24s} {measure.unit_of(name)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": measure.unit_of(k)} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


def run_all(args, workloads):
    """Every workload in its own process, so peak_rss_mb is per workload."""
    status = 0
    for name in workloads:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()
                                 if line.startswith("#")))
        if proc.returncode != 0:
            print(f"# {name}: exit code {proc.returncode}")
            status = 1
    return status


def main(argv=None):
    args = parse_args(argv)
    if import_rdflux() is None:
        print(f"perfbench: no rdflux package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
