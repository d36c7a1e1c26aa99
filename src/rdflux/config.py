"""Run configuration: parse, validate, serialize, and build problems.

The format is line-oriented UTF-8 text: one ``section.key = value`` pair
per line, ``#`` starts a comment, blank lines are ignored.  Sections are
fixed (law, mesh, init, boundary, solver, output); boundary keys are the
mesh's tag names.

The schema (``_SCHEMA``) is the one home of each key's kind, default,
choices and applicability.  Applicability is a test on the canonical
values of the selector keys ``law.kind``, ``mesh.kind``, ``mesh.file``
and ``init.kind``.  A default that a constructor already holds is read
from that constructor's signature.  Each value is parsed once, to a
typed value (``_resolve``); ``canonicalize`` spells the typed values
out, so parse -> serialize -> parse is the identity on canonical text,
and ``build_problem`` turns them into live objects: the mesh, the
conservation law, the boundary set, the initial state, the solver
configuration, and the output plan (the directory, the basename and
the probed tags; every run writes all of its outputs).  A cylinder mesh
is centred at the origin, and ``mesh.outer`` places the domain around
it.  The range rules of the law, the free stream, the mesh generators
and ``SolverConfig.validate`` are theirs; ``build_problem`` reports what
they reject as a ConfigError naming the section (``_section``), and a
mesh file that cannot be read or that ``load_mesh`` rejects as one of
``mesh.file`` naming the file.
Whether a boundary binding fits the mesh and the law is
``BoundarySet``'s to check.
"""
from __future__ import annotations

import dataclasses
import inspect
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import meshgen, physics
from .boundary import KINDS, BoundarySet
from .errors import ConfigError, DegenerateElement, InvalidArgument, InvalidTopology
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
# The keys whose values decide which other keys apply.
_SELECTORS = ("law.kind", "mesh.file", "mesh.kind", "init.kind")


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


def _parse_word(raw, key):
    word = raw.strip()
    if not word:
        raise ConfigError(f"{key}: value must not be empty")
    return word


def _parse_outer(raw, key):
    """The outer-boundary spec: ``("radius", R)`` or ``("rect", (x0, x1, y0, y1))``."""
    words = raw.split()
    if words and words[0] == "radius" and len(words) == 2:
        return "radius", _parse_float(words[1], key)
    if words and words[0] == "rect" and len(words) == 5:
        return "rect", tuple(_parse_float(w, key) for w in words[1:])
    raise ConfigError(f"{key} must be 'radius R' or 'rect x0 x1 y0 y1'; got {raw!r}")


def _fmt_outer(spec):
    kind, value = spec
    return " ".join([kind, *map(_fmt_float, value if kind == "rect" else (value,))])


# kind -> (parse raw text to a typed value, spell a typed value canonically)
_CODECS = {
    "float": (_parse_float, _fmt_float),
    "int": (_parse_int, str),
    "bool": (_parse_bool, lambda b: "true" if b else "false"),
    "word": (_parse_word, str),
    "words": (lambda raw, key: tuple(raw.split()), " ".join),
    "floats": (lambda raw, key: tuple(_parse_float(w, key) for w in raw.split()),
               lambda vals: " ".join(map(_fmt_float, vals))),
    "outer": (_parse_outer, _fmt_outer),
}


class _Spec:
    """One schema entry: kind, default (None = required), choices, count,
    and ``when``, the test on the selector values that says whether the
    key applies (always, if None)."""

    def __init__(self, kind, default=None, choices=None, count=None, when=None):
        self.parse, self.format = _CODECS[kind]
        self.choices = choices
        self.count = count
        self.when = when or (lambda sel: True)
        self.default = None if default is None else self.value(self.format(default), "default")

    def value(self, raw, key):
        """The typed value of the text ``raw``; errors name ``key``."""
        val = self.parse(raw, key)
        if self.count is not None and len(val) != self.count:
            raise ConfigError(f"{key}: expected {self.count} numbers, got {len(val)}")
        if self.choices is not None and val not in self.choices:
            raise ConfigError(f"{key}: must be one of {', '.join(self.choices)}; got {val!r}")
        return val


def _default(fn, name):
    """The default that ``fn`` gives its parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


def _law(kind):
    return lambda sel: sel.get("law.kind") == kind


def _mesh(kind):
    return lambda sel: sel.get("mesh.kind") == kind


def _solver_schema():
    """``solver.<field>`` entries derived from the fields of ``SolverConfig``.

    The kind comes from the field's type, the default from its default,
    and the choices from ``solver.CHOICES``.  ``n_threads`` is an
    argument of the library call, not part of the file format.
    """
    kinds = {"str": "word", "bool": "bool", "int": "int", "float": "float"}
    return {
        f"solver.{f.name}": _Spec(kinds[f.type], f.default, CHOICES.get(f.name))
        for f in dataclasses.fields(SolverConfig)  # annotations are strings there
        if f.name != "n_threads"
    }


_SCHEMA = {
    "law.kind": _Spec("word", choices=LAW_KINDS),
    "law.gamma": _Spec("float", _default(physics.Euler, "gamma"), when=_law("euler")),
    "law.mach": _Spec("float", when=_law("euler")),
    "law.aoa_deg": _Spec("float", _default(physics.Euler.freestream, "aoa_deg"),
                         when=_law("euler")),
    "law.velocity": _Spec("floats", _default(physics.Advection, "velocity"), count=2,
                          when=_law("advection")),
    "law.omega": _Spec("float", _default(physics.RotatingAdvection, "omega"),
                       when=_law("rotating-advection")),
    "mesh.file": _Spec("word", when=lambda sel: "mesh.file" in sel),
    "mesh.kind": _Spec("word", choices=MESH_KINDS, when=lambda sel: "mesh.file" not in sel),
    "mesh.bounds": _Spec("floats", (0.0, 1.0, 0.0, 1.0), count=4, when=_mesh("rect")),
    "mesh.nx": _Spec("int", when=_mesh("rect")),
    "mesh.ny": _Spec("int", when=_mesh("rect")),
    "mesh.perturb": _Spec("float", 0.0, when=_mesh("rect")),
    "mesh.seed": _Spec("int", _default(meshgen.perturb_interior, "seed"), when=_mesh("rect")),
    "mesh.radius": _Spec("float", when=_mesh("cylinder")),
    "mesh.outer": _Spec("outer", when=_mesh("cylinder")),
    "mesh.n_radial": _Spec("int", when=_mesh("cylinder")),
    "mesh.n_circum": _Spec("int", when=_mesh("cylinder")),
    "mesh.grading": _Spec("float", _default(meshgen.generate_cylinder_mesh, "grading"),
                          when=_mesh("cylinder")),
    "init.kind": _Spec("word", choices=("freestream", "uniform")),
    "init.value": _Spec("floats", (0.0,), when=lambda sel: sel["init.kind"] == "uniform"),
    **_solver_schema(),
    "output.directory": _Spec("word", "out"),
    "output.basename": _Spec("word", "run"),
    "output.probes": _Spec("words", ()),
}

_BOUNDARY_SPEC = _Spec("words")


def _spec_for(key):
    if key in _SCHEMA:
        return _SCHEMA[key]
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


def _resolve(mapping, sections=SECTION_ORDER):
    """Typed values of every key of ``sections`` that applies, in canonical order.

    Checks keys against the schema, fills in defaults, parses each value
    once, and rejects unknown, missing or inapplicable keys with their
    full paths.
    """
    for key in mapping:
        if _spec_for(key) is None:
            raise ConfigError(f"unknown configuration key {key!r}")
    if "mesh.file" in mapping and "mesh.kind" in mapping:
        raise ConfigError("mesh.file and mesh.kind are mutually exclusive")
    if "mesh.file" not in mapping and "mesh.kind" not in mapping:
        raise ConfigError("one of mesh.file or mesh.kind is required")
    sel = {k: _SCHEMA[k].value(mapping[k], k) for k in _SELECTORS if k in mapping}
    # Only the gas law has a free stream to start from.
    sel.setdefault("init.kind", "freestream" if sel.get("law.kind") == "euler" else "uniform")

    keys = [k for k, spec in _SCHEMA.items() if k.split(".", 1)[0] in sections and spec.when(sel)]
    keys += sorted(k for k in mapping if k.startswith("boundary."))
    keys.sort(key=lambda k: SECTION_ORDER.index(k.split(".", 1)[0]))
    values = {}
    for key in keys:
        spec = _spec_for(key)
        if key in sel:
            values[key] = sel[key]
        elif key in mapping:
            values[key] = spec.value(mapping[key], key)
        elif spec.default is not None:
            values[key] = spec.default
        else:
            raise ConfigError(f"missing required key {key!r}")
    extras = sorted(set(mapping) - set(values))
    if extras:
        raise ConfigError("keys do not apply to this configuration: " + ", ".join(extras))
    return values


def canonicalize(mapping):
    """Validate a flat mapping and return its canonical text form."""
    return {key: _spec_for(key).format(val) for key, val in _resolve(mapping).items()}


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
        "solver.local_time_stepping": "true",
        "solver.max_iters": "20000",
        "solver.stop_tol": "1e-07",
        "solver.history_stride": "100",
        "solver.acceleration": "anderson",
        "output.basename": "advection-rotating",
    }


def _supersonic_preset():
    return {
        "law.kind": "euler",
        "law.mach": "5.0",
        "mesh.kind": "cylinder",
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
    probes: tuple


@dataclass(frozen=True)
class Problem:
    mesh: object
    law: object
    boundaries: BoundarySet
    q0: np.ndarray
    solver_config: SolverConfig
    output: OutputPlan


@contextmanager
def _section(name):
    """Report an InvalidArgument raised inside as a ConfigError of section ``name``."""
    try:
        yield
    except InvalidArgument as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _build_law(v):
    kind = v["law.kind"]
    if kind == "advection":
        return physics.Advection(v["law.velocity"])
    if kind == "rotating-advection":
        return physics.RotatingAdvection(v["law.omega"])
    if kind == "burgers":
        return physics.Burgers()
    return physics.Euler(v["law.gamma"])


def _build_mesh(v):
    if "mesh.file" in v:
        try:
            return load_mesh(v["mesh.file"])
        except OSError as exc:
            raise ConfigError(f"mesh.file: cannot read {v['mesh.file']}: {exc}") from exc
        except (InvalidTopology, DegenerateElement) as exc:
            raise ConfigError(f"mesh.file: {exc}") from exc
    with _section("mesh"):
        if v["mesh.kind"] == "rect":
            mesh = meshgen.generate_rect_mesh(v["mesh.bounds"], v["mesh.nx"], v["mesh.ny"])
            if v["mesh.perturb"]:
                mesh = meshgen.perturb_interior(mesh, v["mesh.perturb"], seed=v["mesh.seed"])
            return mesh
        return meshgen.generate_cylinder_mesh(
            (0.0, 0.0), v["mesh.radius"], v["mesh.outer"],
            v["mesh.n_radial"], v["mesh.n_circum"], grading=v["mesh.grading"],
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


def _build_binding(key, words, q_inf):
    """``(kind, data)`` from the words of a ``boundary.<tag>`` value.

    ``q_inf`` is the free stream (None without one).  Whether the binding
    fits the mesh and the law is ``BoundarySet``'s to check.
    """
    if not words:
        raise ConfigError(f"{key}: empty binding")
    kind, args = words[0], words[1:]
    if kind not in KINDS or not args:
        return kind, q_inf if kind == "farfield" else None
    if kind == "dirichlet" and args[0] == "sine-band":
        band = [_parse_float(a, key) for a in args[1:]] or [0.1, 0.7]
        if len(band) != 2:
            raise ConfigError(f"{key}: sine-band takes two numbers (x0 x1)")
        return kind, _sine_band_profile(*band)
    if kind == "dirichlet" and args[0] == "freestream":
        if q_inf is None:
            raise ConfigError(f"{key}: freestream requires the gas-dynamics law")
        return kind, q_inf
    return kind, np.array([_parse_float(a, key) for a in args])


def _build_initial(law, v, q_inf, n_nodes):
    if v["init.kind"] == "freestream":
        if q_inf is None:
            raise ConfigError("init.kind freestream requires the gas-dynamics law")
        return np.tile(q_inf, (n_nodes, 1))
    vals = v["init.value"]
    if len(vals) == 1:
        vals = vals * law.m
    if len(vals) != law.m:
        counts = "1 component" if law.m == 1 else f"1 or {law.m} components"
        raise ConfigError(f"init.value must have {counts}, got {len(vals)}")
    return np.tile(np.array(vals), (n_nodes, 1))


def build_mesh_only(mapping):
    """Build just the mesh from a mapping's mesh.* keys (for mesh-gen).

    Non-mesh keys are ignored, so a full run config works as a mesh
    spec.  Validation and defaults follow the same schema as full
    configs.
    """
    mesh_keys = {k: v for k, v in mapping.items() if k.startswith("mesh.")}
    return _build_mesh(_resolve(mesh_keys, sections=("mesh",)))


def build_problem(mapping):
    """Construct all live objects for a run from a config mapping."""
    v = _resolve(mapping)
    with _section("law"):
        law = _build_law(v)
        q_inf = law.freestream(v["law.mach"], v["law.aoa_deg"]) if "law.mach" in v else None
    mesh = _build_mesh(v)
    missing = [tag for tag in v["output.probes"] if tag not in mesh.tags]
    if missing:
        tags = ", ".join(mesh.tags)
        raise ConfigError(f"output.probes: no mesh tag {', '.join(missing)}; tags: {tags}")
    with _section("solver"):
        solver_config = SolverConfig(**{
            key[len("solver."):]: val for key, val in v.items() if key.startswith("solver.")
        }).validate()
    bindings = {
        key[len("boundary."):]: _build_binding(key, words, q_inf)
        for key, words in v.items()
        if key.startswith("boundary.")
    }
    return Problem(
        mesh=mesh,
        law=law,
        boundaries=BoundarySet(mesh, law, bindings),
        q0=_build_initial(law, v, q_inf, mesh.n_nodes),
        solver_config=solver_config,
        output=OutputPlan(v["output.directory"], v["output.basename"], v["output.probes"]),
    )
