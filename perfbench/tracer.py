"""Outside-in tracer: wraps public rdflux functions and methods at run time.

Nothing inside the program is changed on disk.  ``Tracer`` replaces each
target attribute (a module function, or a method on a class) with a
wrapper that records a span, and puts the original objects back on exit.
A module function is also replaced in every other rdflux module that
imported it by name (``distribution`` imports ``smallmat.solve_batched``),
so calls through those bindings are traced too.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import is_dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np


def _fallback_stat(res):
    return (0, 0) if res.fallback is None else (int(res.fallback.sum()), res.fallback.size)


def _theta_stat(theta):
    return (float(theta.sum()), theta.size)


# (module, attribute path, statistic taken from the result).  Per-iteration
# layers first; SETUP_TARGETS run once per problem build.
ITER_TARGETS = (
    ("solver", "Solver.step", None),
    ("solver", "Solver.assemble", None),
    ("solver", "Solver.stable_dt", None),
    ("solver", "Solver.march", None),
    ("distribution", "wave_speed_bound", None),
    ("distribution", "rxn_scheme", None),
    ("distribution", "n_scheme_system", _fallback_stat),
    ("physics", "Euler.rsd_average", None),
    ("physics", "Euler.eigensystem", None),
    ("physics", "Euler.primitives", None),
    ("physics", "Euler.flux", None),
    ("physics", "Euler.check_physical", None),
    ("limiting", "limiting_direction", None),
    ("limiting", "limit_system", None),
    ("limiting", "limit_scalar", None),
    ("limiting", "correction_system", None),
    ("limiting", "correction_scalar", None),
    ("limiting", "correction_theta", _theta_stat),
    ("smallmat", "solve_batched", None),
    ("boundary", "BoundarySet.apply", None),
)
SETUP_TARGETS = (
    ("config", "build_problem", None),
    ("meshgen", "generate_rect_mesh", None),
    ("meshgen", "generate_cylinder_mesh", None),
    ("mesh", "Mesh.from_arrays", None),
    ("solver", "Solver.__init__", None),
)
TARGETS = ITER_TARGETS + SETUP_TARGETS


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    nbytes: int
    stat: tuple | None


def _array_bytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_array_bytes(o) for o in obj)
    if is_dataclass(obj):
        return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))
    return 0


def _call_bytes(args, kwargs, out):
    """Bytes of the array arguments and results, one level deep (computed)."""
    n = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    n += sum(a.nbytes for a in kwargs.values() if isinstance(a, np.ndarray))
    return n + _array_bytes(out)


def _resolve(module, path):
    """(owner, attribute name, raw attribute) of a dotted target path."""
    owner = importlib.import_module(f"rdflux.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    """Context manager that traces ``targets`` while it is open.

    Spans are kept in memory; ``take()`` returns and clears them.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def __enter__(self):
        try:
            for module, path, stat in self.targets:
                self._install(f"{module}.{path}", *_resolve(module, path), stat)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def take(self):
        out = list(self.spans)
        self.spans.clear()
        return out

    def _install(self, name, owner, attr, raw, stat):
        if inspect.isclass(owner):
            had = attr in owner.__dict__
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__, stat))
            else:
                wrapped = self._wrap(name, raw, stat)
            self._saved.append((owner, attr, raw if had else None))
            setattr(owner, attr, wrapped)
            return
        wrapped = self._wrap(name, raw, stat)
        for mod in list(sys.modules.values()):
            if (mod is not None and mod.__name__.partition(".")[0] == "rdflux"
                    and mod.__dict__.get(attr) is raw):
                self._saved.append((mod, attr, raw))
                setattr(mod, attr, wrapped)

    def _restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def _wrap(self, name, fn, stat):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append(Span(sid, name, start, end, parent, _call_bytes(args, kwargs, out),
                              None if stat is None else stat(out)))
            return out

        return traced


def summarize(spans):
    """Per span name: [self seconds, calls, bytes, statistic sum, statistic count].

    Self time is a span's duration minus the durations of its child spans.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    agg = defaultdict(lambda: [0.0, 0, 0, 0.0, 0])
    for s in spans:
        row = agg[s.name]
        row[0] += s.end - s.start - child[s.sid]
        row[1] += 1
        row[2] += s.nbytes
        if s.stat is not None:
            row[3] += s.stat[0]
            row[4] += s.stat[1]
    return agg
