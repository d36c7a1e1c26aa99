"""Run configuration: parse, validate, serialize, and build problems.

The format is line-oriented UTF-8 text: one ``section.key = value`` pair
per line, ``#`` starts a comment, blank lines are ignored.  Sections are
fixed (law, mesh, init, boundary, solver, output); boundary keys are the
mesh's tag names.  ``canonicalize`` validates a parsed mapping against
the schema, fills defaults, and normalizes every value string, so
parse -> serialize -> parse is the identity on canonical text.

``build_problem`` turns a canonical mapping into live objects: the mesh,
the conservation law, the boundary set, the initial state, the solver
configuration, and the output plan.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import meshgen, physics
from .boundary import BoundarySet
from .errors import ConfigError
from .mesh import load_mesh
from .solver import CHOICES, SolverConfig

__all__ = [
    "parse_text",
    "canonicalize",
    "serialize",
    "load_config",
    "save_config",
    "preset",
    "preset_names",
    "build_problem",
    "OutputPlan",
    "Problem",
]

LAW_KINDS = ("advection", "rotating-advection", "burgers", "euler")
MESH_KINDS = ("rect", "cylinder")
SECTION_ORDER = ("law", "mesh", "init", "boundary", "solver", "output")


# -- value codecs -------------------------------------------------------------

def _fmt_float(x):
    return repr(float(x))


def _parse_float(raw, key):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(raw, key):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_bool(raw, key):
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {raw!r}")


def _parse_floats(raw, key, n=None):
    parts = raw.split()
    vals = [_parse_float(p, key) for p in parts]
    if n is not None and len(vals) != n:
        raise ConfigError(f"{key}: expected {n} numbers, got {len(vals)}")
    return vals


class _Spec:
    """One schema entry: type, default (None = required), choices."""

    def __init__(self, kind, default=None, choices=None, count=None):
        self.kind = kind
        self.default = default
        self.choices = choices
        self.count = count

    def value(self, raw, key):
        """The typed value of a scalar entry (float, int, bool or word)."""
        if self.kind == "float":
            return _parse_float(raw, key)
        if self.kind == "int":
            return _parse_int(raw, key)
        if self.kind == "bool":
            return _parse_bool(raw, key)
        return self.normalize(raw, key)

    def normalize(self, raw, key):
        if self.kind == "float":
            return _fmt_float(_parse_float(raw, key))
        if self.kind == "int":
            return str(_parse_int(raw, key))
        if self.kind == "bool":
            return "true" if _parse_bool(raw, key) else "false"
        if self.kind == "floats":
            return " ".join(_fmt_float(v) for v in _parse_floats(raw, key, self.count))
        if self.kind == "word":
            word = raw.strip()
            if not word:
                raise ConfigError(f"{key}: value must not be empty")
            if self.choices is not None and word not in self.choices:
                raise ConfigError(
                    f"{key}: must be one of {', '.join(self.choices)}; got {word!r}"
                )
            return word
        if self.kind == "words":
            return " ".join(raw.split())
        if self.kind == "str":
            val = raw.strip()
            if not val:
                raise ConfigError(f"{key}: value must not be empty")
            return val
        raise AssertionError(self.kind)


_LAW_SCHEMA = {
    "law.kind": _Spec("word", choices=LAW_KINDS),
    "law.gamma": _Spec("float", default="1.4"),
    "law.mach": _Spec("float"),
    "law.aoa_deg": _Spec("float", default="0.0"),
    "law.velocity": _Spec("floats", default="1.0 0.0", count=2),
    "law.omega": _Spec("float", default=_fmt_float(math.pi)),
}

_MESH_SCHEMA = {
    "mesh.file": _Spec("str"),
    "mesh.kind": _Spec("word", choices=MESH_KINDS),
    "mesh.bounds": _Spec("floats", default="0.0 1.0 0.0 1.0", count=4),
    "mesh.nx": _Spec("int"),
    "mesh.ny": _Spec("int"),
    "mesh.pattern": _Spec("word", default="alternating", choices=("alternating", "uniform")),
    "mesh.perturb": _Spec("float", default="0.0"),
    "mesh.seed": _Spec("int", default="0"),
    "mesh.center": _Spec("floats", default="0.0 0.0", count=2),
    "mesh.radius": _Spec("float"),
    "mesh.outer": _Spec("words"),
    "mesh.n_radial": _Spec("int"),
    "mesh.n_circum": _Spec("int"),
    "mesh.grading": _Spec("float", default="1.2"),
}

_INIT_SCHEMA = {
    "init.kind": _Spec("word", choices=("freestream", "uniform")),
    "init.value": _Spec("floats", default="0.0"),
}


def _solver_schema():
    """``solver.<field>`` entries derived from the fields of ``SolverConfig``.

    The kind comes from the field's type, the canonical default from its
    default, and the choices from ``solver.CHOICES``.  ``n_threads`` is
    set at run time (RD_THREADS), so it is not part of the file format.
    """
    kinds = {"str": "word", "bool": "bool", "int": "int", "float": "float"}
    schema = {}
    for f in dataclasses.fields(SolverConfig):
        if f.name == "n_threads":
            continue
        key = f"solver.{f.name}"
        kind = kinds[f.type]  # annotations are strings in module solver
        default = _Spec(kind).normalize(str(f.default), key)
        schema[key] = _Spec(kind, default, CHOICES.get(f.name))
    return schema


_SOLVER_SCHEMA = _solver_schema()

_OUTPUT_SCHEMA = {
    "output.directory": _Spec("str", default="out"),
    "output.basename": _Spec("str", default="run"),
    "output.fields": _Spec("bool", default="true"),
    "output.history": _Spec("bool", default="true"),
    "output.probes": _Spec("words", default=""),
}

_BOUNDARY_SPEC = _Spec("words")


def _schema_for(key):
    for schema in (_LAW_SCHEMA, _MESH_SCHEMA, _INIT_SCHEMA, _SOLVER_SCHEMA, _OUTPUT_SCHEMA):
        if key in schema:
            return schema[key]
    if key.startswith("boundary.") and len(key) > len("boundary."):
        return _BOUNDARY_SPEC
    return None


# -- parsing / serialization --------------------------------------------------

def parse_text(text):
    """Parse config text to a flat ``{"section.key": "raw value"}`` mapping.

    Syntax only; see ``canonicalize`` for schema validation.  Duplicate
    keys and malformed lines raise ConfigError naming the line.
    """
    mapping = {}
    for lineno, line in enumerate(str(text).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or any(c.isspace() for c in key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _applicable_keys(mapping):
    """Ordered list of schema keys that apply to the chosen kinds."""
    law_kind = mapping.get("law.kind", "")
    keys = ["law.kind"]
    if law_kind == "euler":
        keys += ["law.gamma", "law.mach", "law.aoa_deg"]
    elif law_kind == "advection":
        keys += ["law.velocity"]
    elif law_kind == "rotating-advection":
        keys += ["law.omega"]

    if "mesh.file" in mapping:
        keys += ["mesh.file"]
    else:
        keys += ["mesh.kind"]
        mesh_kind = mapping.get("mesh.kind", "")
        if mesh_kind == "rect":
            keys += ["mesh.bounds", "mesh.nx", "mesh.ny", "mesh.pattern",
                     "mesh.perturb", "mesh.seed"]
        elif mesh_kind == "cylinder":
            keys += ["mesh.center", "mesh.radius", "mesh.outer",
                     "mesh.n_radial", "mesh.n_circum", "mesh.grading"]

    keys += ["init.kind"]
    if mapping.get("init.kind", "") == "uniform":
        keys += ["init.value"]

    keys += sorted(k for k in mapping if k.startswith("boundary."))
    keys += list(_SOLVER_SCHEMA)
    keys += list(_OUTPUT_SCHEMA)
    return keys


def canonicalize(mapping):
    """Validate a flat mapping and return its canonical form.

    Checks keys against the schema, fills in defaults for every key that
    applies to the chosen law/mesh kinds, normalizes value spellings,
    and rejects unknown or inapplicable keys with their full paths.
    """
    mapping = dict(mapping)
    for key in mapping:
        if _schema_for(key) is None:
            raise ConfigError(f"unknown configuration key {key!r}")

    if "law.kind" not in mapping:
        raise ConfigError("law.kind is required")
    _LAW_SCHEMA["law.kind"].normalize(mapping["law.kind"], "law.kind")
    if "mesh.file" in mapping and "mesh.kind" in mapping:
        raise ConfigError("mesh.file and mesh.kind are mutually exclusive")
    if "mesh.file" not in mapping and "mesh.kind" not in mapping:
        raise ConfigError("one of mesh.file or mesh.kind is required")
    if "init.kind" not in mapping:
        mapping["init.kind"] = (
            "freestream" if mapping["law.kind"].strip() == "euler" else "uniform"
        )

    keys = _applicable_keys(mapping)
    known = set(keys)
    extras = [k for k in mapping if k not in known]
    if extras:
        raise ConfigError(
            "keys do not apply to this configuration: " + ", ".join(sorted(extras))
        )

    out = {}
    for key in keys:
        spec = _schema_for(key)
        if key in mapping:
            out[key] = spec.normalize(mapping[key], key)
        elif spec.default is not None:
            out[key] = spec.default
        else:
            raise ConfigError(f"missing required key {key!r}")
    if "mesh.outer" in out:
        kind, value = _parse_outer(out["mesh.outer"])
        numbers = value if kind == "rect" else (value,)
        out["mesh.outer"] = " ".join([kind, *map(_fmt_float, numbers)])
    return out


def _parse_outer(raw):
    """The outer-boundary spec: ``("radius", R)`` or ``("rect", (x0, x1, y0, y1))``."""
    words = raw.split()
    if words and words[0] == "radius" and len(words) == 2:
        return "radius", _parse_float(words[1], "mesh.outer")
    if words and words[0] == "rect" and len(words) == 5:
        return "rect", tuple(_parse_float(w, "mesh.outer") for w in words[1:])
    raise ConfigError(
        f"mesh.outer must be 'radius R' or 'rect x0 x1 y0 y1'; got {raw!r}"
    )


def serialize(mapping):
    """Render a mapping as canonical config text (stable ordering)."""
    canon = canonicalize(mapping)
    lines = []
    for section in SECTION_ORDER:
        block = [k for k in canon if k.split(".", 1)[0] == section]
        if not block:
            continue
        if lines:
            lines.append("")
        for key in block:
            lines.append(f"{key} = {canon[key]}")
    return "\n".join(lines) + "\n"


def load_config(path):
    """Read and canonicalize a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return canonicalize(parse_text(text))


def save_config(mapping, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(mapping))


# -- presets ------------------------------------------------------------------

def _rotating_band_preset():
    return {
        "law.kind": "rotating-advection",
        "mesh.kind": "rect",
        "mesh.bounds": "0 1 0 1",
        "mesh.nx": "54",
        "mesh.ny": "54",
        "mesh.perturb": "0.15",
        "mesh.seed": "7",
        "boundary.bottom": "dirichlet sine-band 0.1 0.7",
        "boundary.right": "dirichlet 0.0",
        "boundary.top": "outflow",
        "boundary.left": "outflow",
        "solver.scheme": "rxn",
        "solver.cfl_fraction": "0.25",
        "solver.max_iters": "20000",
        "solver.stop_tol": "1e-07",
        "solver.history_stride": "100",
        "output.basename": "advection-rotating",
    }


def _supersonic_preset():
    return {
        "law.kind": "euler",
        "law.mach": "5.0",
        "mesh.kind": "cylinder",
        "mesh.center": "0 0",
        "mesh.radius": "1.0",
        "mesh.outer": "rect -2 0 -3 3",
        "mesh.n_radial": "25",
        "mesh.n_circum": "100",
        "mesh.grading": "1.05",
        "boundary.wall": "slip_wall",
        "boundary.farfield": "farfield",
        "boundary.exit": "outflow",
        "solver.scheme": "rxn",
        "solver.cfl_fraction": "0.4",
        "solver.max_iters": "40000",
        "solver.stop_tol": "1e-06",
        "solver.history_stride": "100",
        "output.basename": "cylinder-supersonic",
        "output.probes": "wall",
    }


def _subsonic_preset():
    return {
        "law.kind": "euler",
        "law.mach": "0.35",
        "mesh.kind": "cylinder",
        "mesh.center": "0 0",
        "mesh.radius": "0.5",
        "mesh.outer": "rect -7 7 -7 7",
        "mesh.n_radial": "49",
        "mesh.n_circum": "128",
        "mesh.grading": "1.08",
        "boundary.wall": "slip_wall",
        "boundary.farfield": "farfield",
        "solver.scheme": "rxn",
        "solver.cfl_fraction": "0.85",
        "solver.max_iters": "40000",
        "solver.stop_tol": "1e-06",
        "solver.history_stride": "100",
        "output.basename": "cylinder-subsonic",
        "output.probes": "wall",
    }


_PRESETS = {
    "advection-rotating": _rotating_band_preset,
    "cylinder-supersonic": _supersonic_preset,
    "cylinder-subsonic": _subsonic_preset,
}


def preset_names():
    return sorted(_PRESETS)


def preset(name):
    """Canonical mapping for a named built-in case."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return canonicalize(_PRESETS[name]())


# -- problem construction -----------------------------------------------------

@dataclass(frozen=True)
class OutputPlan:
    directory: str
    basename: str
    fields: bool
    history: bool
    probes: tuple


@dataclass(frozen=True)
class Problem:
    mesh: object
    law: object
    boundaries: BoundarySet
    q0: np.ndarray
    solver_config: SolverConfig
    output: OutputPlan


def _build_law(canon):
    kind = canon["law.kind"]
    if kind == "advection":
        return physics.Advection(_parse_floats(canon["law.velocity"], "law.velocity", 2))
    if kind == "rotating-advection":
        return physics.RotatingAdvection(_parse_float(canon["law.omega"], "law.omega"))
    if kind == "burgers":
        return physics.Burgers()
    gamma = _parse_float(canon["law.gamma"], "law.gamma")
    if gamma <= 1.0:
        raise ConfigError("law.gamma must exceed 1")
    return physics.Euler(gamma)


def _build_mesh(canon):
    if "mesh.file" in canon:
        try:
            return load_mesh(canon["mesh.file"])
        except OSError as exc:
            raise ConfigError(f"mesh.file: cannot read {canon['mesh.file']}: {exc}") from exc
    kind = canon["mesh.kind"]
    if kind == "rect":
        bounds = _parse_floats(canon["mesh.bounds"], "mesh.bounds", 4)
        mesh = meshgen.generate_rect_mesh(
            tuple(bounds),
            _parse_int(canon["mesh.nx"], "mesh.nx"),
            _parse_int(canon["mesh.ny"], "mesh.ny"),
            pattern=canon["mesh.pattern"],
        )
        amp = _parse_float(canon["mesh.perturb"], "mesh.perturb")
        if amp > 0.0:
            mesh = meshgen.perturb_interior(
                mesh, amp, seed=_parse_int(canon["mesh.seed"], "mesh.seed")
            )
        return mesh
    return meshgen.generate_cylinder_mesh(
        tuple(_parse_floats(canon["mesh.center"], "mesh.center", 2)),
        _parse_float(canon["mesh.radius"], "mesh.radius"),
        _parse_outer(canon["mesh.outer"]),
        _parse_int(canon["mesh.n_radial"], "mesh.n_radial"),
        _parse_int(canon["mesh.n_circum"], "mesh.n_circum"),
        grading=_parse_float(canon["mesh.grading"], "mesh.grading"),
    )


def _sine_band_profile(x0, x1):
    """Smooth one-hump inlet profile: sin(pi (x1-x)/(x1-x0)) inside (x0, x1)."""
    span = x1 - x0
    if span <= 0.0:
        raise ConfigError("sine-band profile needs x0 < x1")

    def profile(xy):
        x = np.asarray(xy, dtype=float)[..., 0]
        inside = (x > x0) & (x < x1)
        return np.where(inside, np.sin(np.pi * (x1 - x) / span), 0.0)

    return profile


def _freestream(law, canon):
    mach = _parse_float(canon["law.mach"], "law.mach")
    aoa = _parse_float(canon["law.aoa_deg"], "law.aoa_deg")
    return law.freestream(mach, aoa)


def _build_binding(tag, words, law, canon):
    key = f"boundary.{tag}"
    if not words:
        raise ConfigError(f"{key}: empty binding")
    kind, args = words[0], words[1:]
    if kind == "slip_wall" or kind == "outflow":
        if args:
            raise ConfigError(f"{key}: {kind} takes no data")
        return (kind, None)
    if kind == "farfield":
        if law.m == 1:
            raise ConfigError(f"{key}: farfield requires the gas-dynamics law")
        if not args:
            return ("farfield", _freestream(law, canon))
        if len(args) != law.m:
            raise ConfigError(f"{key}: farfield data must have {law.m} components")
        return ("farfield", np.array([_parse_float(a, key) for a in args]))
    if kind == "dirichlet":
        if not args:
            raise ConfigError(f"{key}: dirichlet needs a value or profile name")
        if args[0] == "sine-band":
            if law.m != 1:
                raise ConfigError(f"{key}: sine-band is a scalar profile")
            band = [_parse_float(a, key) for a in args[1:]] or [0.1, 0.7]
            if len(band) != 2:
                raise ConfigError(f"{key}: sine-band takes two numbers (x0 x1)")
            return ("dirichlet", _sine_band_profile(*band))
        if args[0] == "freestream":
            if law.m == 1:
                raise ConfigError(f"{key}: freestream requires the gas-dynamics law")
            return ("dirichlet", _freestream(law, canon))
        vals = [_parse_float(a, key) for a in args]
        if len(vals) == 1 and law.m == 1:
            return ("dirichlet", float(vals[0]))
        if len(vals) != law.m:
            raise ConfigError(f"{key}: dirichlet state must have {law.m} components")
        return ("dirichlet", np.array(vals))
    raise ConfigError(
        f"{key}: unknown boundary kind {kind!r} "
        "(expected slip_wall, outflow, farfield, or dirichlet)"
    )


def _build_initial(law, canon, n_nodes):
    if canon["init.kind"] == "freestream":
        if law.m == 1:
            raise ConfigError("init.kind freestream requires the gas-dynamics law")
        return np.tile(_freestream(law, canon), (n_nodes, 1))
    vals = _parse_floats(canon["init.value"], "init.value")
    if len(vals) == 1:
        if law.m == 1:
            return np.full((n_nodes, 1), vals[0])
        return np.tile(np.array(vals * law.m), (n_nodes, 1))
    if len(vals) != law.m:
        raise ConfigError(f"init.value must have 1 or {law.m} components")
    return np.tile(np.array(vals), (n_nodes, 1))


def _build_solver_config(canon):
    return SolverConfig(**{
        key[len("solver."):]: spec.value(canon[key], key)
        for key, spec in _SOLVER_SCHEMA.items()
    })


def build_mesh_only(mapping):
    """Build just the mesh from a mapping's mesh.* keys (for mesh-gen).

    Non-mesh keys are ignored, so a full run config works as a mesh
    spec.  Validation and defaults follow the same schema as full
    configs.
    """
    probe = {k: v for k, v in mapping.items() if k.startswith("mesh.")}
    probe["law.kind"] = "burgers"  # placeholder so the shared validator runs
    canon = canonicalize(probe)
    return _build_mesh(canon)


def build_problem(mapping):
    """Construct all live objects for a run from a config mapping."""
    canon = canonicalize(mapping)
    law = _build_law(canon)
    mesh = _build_mesh(canon)
    bindings = {}
    for key in canon:
        if key.startswith("boundary."):
            tag = key[len("boundary."):]
            bindings[tag] = _build_binding(tag, canon[key].split(), law, canon)
    missing = sorted(set(mesh.tags) - set(bindings))
    if missing:
        raise ConfigError(
            "mesh boundary tags without bindings: "
            + ", ".join(f"boundary.{t}" for t in missing)
        )
    boundaries = BoundarySet(mesh, law, bindings)
    q0 = _build_initial(law, canon, mesh.n_nodes)
    return Problem(
        mesh=mesh,
        law=law,
        boundaries=boundaries,
        q0=q0,
        solver_config=_build_solver_config(canon).validate(),
        output=OutputPlan(
            directory=canon["output.directory"],
            basename=canon["output.basename"],
            fields=canon["output.fields"] == "true",
            history=canon["output.history"] == "true",
            probes=tuple(canon["output.probes"].split()),
        ),
    )
