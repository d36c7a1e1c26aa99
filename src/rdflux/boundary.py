"""Boundary conditions applied to nodal states after each update.

All conditions here are strong: the residual assembly never sees them;
after every pseudo-time step the affected nodal values are overwritten
(Dirichlet), projected (slip wall), or blended with the free stream
through one-dimensional characteristic relations along the outward
normal (far field).  Where tags meet at a node the wall projection runs
before the far-field blend, and pinned Dirichlet data always wins; the
application order over kinds is fixed and documented in ``KIND_ORDER``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonPhysicalState
from .physics import Euler

__all__ = ["BoundarySet", "farfield_blend", "KIND_ORDER"]

KINDS = ("outflow", "slip_wall", "farfield", "dirichlet")
# Later kinds overwrite earlier ones at tag junctions.
KIND_ORDER = {kind: rank for rank, kind in enumerate(KINDS)}


def farfield_blend(law, q_interior, q_inf, normals_out, nodes=None):
    """Characteristic far-field state for each boundary node.

    ``normals_out`` are outward unit normals.  Classification by the
    interior state: inflow at supersonic normal Mach number is pinned to
    the free stream; outflow (u_n >= 0) at supersonic total Mach number
    |u| >= a is left untouched, which covers the nearly tangential,
    supersonic flow behind a shock that leaves through the far field;
    all other faces mix the outgoing acoustic invariant of the interior
    with the incoming one of the free stream, and entropy and tangential
    velocity follow the direction of the blended normal velocity.

    An interior state of non-positive density or pressure, and a blended
    state whose sound speed is not positive, raise NonPhysicalState naming
    the first such state and its value: as mesh node ``nodes[i]`` when
    ``nodes`` (the mesh ids of the states) is given, else by its position.
    Only kept blended states are checked; a node that takes the free
    stream or keeps its interior state never fails that check.
    """
    g = law.gamma
    q_interior = np.asarray(q_interior, dtype=float)
    rho_i, u_i, v_i, p_i = law.primitives(
        q_interior, item="state" if nodes is None else "node", ids=nodes)
    a_i = np.sqrt(g * p_i / rho_i)
    rho_f, u_f, v_f, p_f = law.primitives(np.asarray(q_inf, dtype=float))
    a_f = np.sqrt(g * p_f / rho_f)

    nx, ny = normals_out[..., 0], normals_out[..., 1]
    un_i = u_i * nx + v_i * ny
    un_f = u_f * nx + v_f * ny

    r_out = un_i + 2.0 * a_i / (g - 1.0)  # leaves the domain: interior data
    r_in = un_f - 2.0 * a_f / (g - 1.0)  # enters the domain: free stream
    un_b = 0.5 * (r_out + r_in)
    a_b = 0.25 * (g - 1.0) * (r_out - r_in)
    inflow = un_i <= -a_i
    supersonic_out = (un_i >= 0.0) & (np.hypot(u_i, v_i) >= a_i)
    bad = (a_b <= 0.0) & ~inflow & ~supersonic_out
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        at = f"node {int(np.ravel(nodes)[i])}" if nodes is not None else f"state {i}"
        raise NonPhysicalState(
            f"far-field blend produced a non-positive sound speed "
            f"{float(np.ravel(a_b)[i]):.6g} at {at}"
        )

    outgoing = un_b > 0.0
    entropy = np.where(outgoing, p_i / rho_i**g, p_f / rho_f**g)
    ut_x = np.where(outgoing, u_i - un_i * nx, u_f - un_f * nx)
    ut_y = np.where(outgoing, v_i - un_i * ny, v_f - un_f * ny)

    rho_b = (a_b * a_b / (g * entropy)) ** (1.0 / (g - 1.0))
    p_b = rho_b * a_b * a_b / g
    q_b = law.conserved(rho_b, ut_x + un_b * nx, ut_y + un_b * ny, p_b)

    q_out = np.where(inflow[..., None], np.broadcast_to(q_inf, q_b.shape), q_b)
    return np.where(supersonic_out[..., None], q_interior, q_out)


def _keys(tags):
    return ", ".join(f"boundary.{t}" for t in sorted(tags))


@dataclass(frozen=True)
class _Binding:
    tag: str
    kind: str
    nodes: np.ndarray  # node ids (sorted)
    values: np.ndarray | None  # dirichlet data (n, m) or farfield free stream (m,)
    normals: np.ndarray | None  # outward unit normals per node


class BoundarySet:
    """Resolved boundary bindings for one mesh/law pair.

    ``bindings`` maps every boundary tag of the mesh to ``(kind, data)``:

    * ``("dirichlet", data)`` — data is a constant state (a number or
      ``law.m`` components), an array of nodal states, or a callable
      ``f(xy) -> states`` evaluated once at the tag's node coordinates;
      for a scalar law the callable may return one value per node;
    * ``("slip_wall", None)`` — removes the wall-normal momentum
      component at each node;
    * ``("farfield", q_inf)`` — characteristic blend with the given
      free-stream state of ``law.m`` components;
    * ``("outflow", None)`` — no constraint.

    This class is the one home of the binding rules, and it checks all
    of them at construction, raising ``ConfigError``: the bindings cover
    the mesh's tags exactly, each kind is one of ``KINDS``, ``slip_wall``
    and ``farfield`` need the gas-dynamics law, and the data has the
    shape listed above, is finite, and passes the law's
    ``check_physical`` (for gas dynamics: positive density and pressure).
    Errors name a tag by its config key ``boundary.<tag>``, and faulty
    per-node Dirichlet data its first faulty node.
    """

    def __init__(self, mesh, law, bindings):
        missing = set(mesh.tags) - set(bindings)
        if missing:
            raise ConfigError(f"mesh boundary tags without bindings: {_keys(missing)}")
        unknown = set(bindings) - set(mesh.tags)
        if unknown:
            raise ConfigError(f"bindings for tags the mesh does not have: {_keys(unknown)}")
        self.law = law
        self._bindings: list[_Binding] = []
        for tag in sorted(bindings):
            kind, data = bindings[tag]
            key = f"boundary.{tag}"
            if kind not in KINDS:
                raise ConfigError(
                    f"{key}: unknown boundary kind {kind!r} (expected {', '.join(KINDS)})"
                )
            if kind in ("slip_wall", "farfield") and not isinstance(law, Euler):
                raise ConfigError(f"{key}: {kind} requires the gas-dynamics law")
            if kind in ("slip_wall", "outflow") and data is not None:
                raise ConfigError(f"{key}: {kind} takes no data")
            nodes = mesh.boundary_nodes(tag)
            values = None
            normals = None
            if kind == "dirichlet":
                values = self._dirichlet_values(key, mesh, law, nodes, data)
            elif kind == "farfield":
                values = np.array(data, dtype=float)
                if values.shape != (law.m,):
                    raise ConfigError(f"{key}: farfield data must be one state of {law.m} components")
            if values is not None:
                self._check_data(key, kind, law, nodes, values)
            if kind in ("slip_wall", "farfield"):
                nodes, normals = mesh.outward_normals(tag)
            self._bindings.append(_Binding(tag, kind, nodes, values, normals))
        self._bindings.sort(key=lambda b: KIND_ORDER[b.kind])

    @staticmethod
    def _check_data(key, kind, law, nodes, values):
        """ConfigError unless ``values`` (one state, or one per node of
        ``nodes``) are finite and states of ``law`` (``check_physical``).

        For per-node data the error names the first mesh node that fails
        either check; the nodes are scanned one by one only then.
        """
        def fault(v):
            if not np.isfinite(v).all():
                return " is not finite"
            try:
                law.check_physical(v, item="state")
            except NonPhysicalState as exc:
                return f": {exc}"
            return None

        found = fault(values)
        if found is None:
            return
        at = ""
        if values.ndim == 2:
            i = next(i for i, v in enumerate(values) if fault(v) is not None)
            found, at = fault(values[i]), f" at node {int(nodes[i])}"
        raise ConfigError(f"{key}: {kind} data{at}{found}")

    @staticmethod
    def _dirichlet_values(key, mesh, law, nodes, data):
        if data is None:
            raise ConfigError(f"{key}: dirichlet needs a value or a profile")
        shape = (len(nodes), law.m)
        if callable(data):
            values = np.asarray(data(mesh.points[nodes]), dtype=float)
            if law.m == 1 and values.shape == shape[:1]:
                values = values[:, None]
        else:
            values = np.asarray(data, dtype=float)
            if values.shape in ((), (law.m,)):
                values = np.broadcast_to(values, shape)
        if values.shape != shape:
            raise ConfigError(
                f"{key}: dirichlet data has shape {values.shape}; expected a state "
                f"of {law.m} components or {shape} nodal states"
            )
        return np.array(values)

    def apply(self, q):
        """Impose all conditions on nodal states ``q`` (modified in place).

        A far-field blend that fails names the mesh node (``farfield_blend``).
        """
        for b in self._bindings:
            if b.kind == "outflow":
                continue
            if b.kind == "dirichlet":
                q[b.nodes] = b.values
            elif b.kind == "slip_wall":
                mom = q[b.nodes, 1:3]
                mn = (mom * b.normals).sum(axis=1)
                q[b.nodes, 1:3] = mom - mn[:, None] * b.normals
            elif b.kind == "farfield":
                q[b.nodes] = farfield_blend(self.law, q[b.nodes], b.values, b.normals, b.nodes)
        return q
