"""Result emission: legacy VTK fields, surface probes, gas-dynamics fields.

Field snapshots go to legacy ASCII VTK unstructured-grid files (cell
type 5 = triangle) with one SCALARS block per named nodal field, which
every standard viewer reads without extra libraries.  Floating-point
values are printed in ``mesh.FULL_PRECISION``, so round-tripping through
text preserves them bit for bit.  ``probe_surface`` samples a nodal
field along a boundary tag; the command line writes the samples, like
the run's other CSV files, through its one row writer.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .mesh import FULL_PRECISION

__all__ = [
    "write_vtk",
    "probe_surface",
    "euler_point_fields",
    "entropy_deviation",
]


def entropy_deviation(law, q, q_ref):
    """Relative entropy error (s - s_ref)/|s_ref| with s = log(p / rho^gamma).

    Smooth gas flows preserve entropy along streamlines, so for a free
    stream reference this field isolates numerical production.  The
    reference state must not have zero entropy function.
    """
    rho, _, _, p = law.primitives(q)
    rho_r, _, _, p_r = law.primitives(np.asarray(q_ref, dtype=float)[None, :])
    s = np.log(p / rho**law.gamma)
    s_ref = float(np.log(p_r / rho_r**law.gamma)[0])
    if s_ref == 0.0:
        raise InvalidArgument("reference state has zero entropy function")
    return (s - s_ref) / abs(s_ref)


def euler_point_fields(law, q, q_ref):
    """Standard nodal output fields for gas dynamics, as an ordered dict:
    density, pressure, mach, and the relative entropy deviation from the
    reference state ``q_ref``.
    """
    rho, u, v, p = law.primitives(q)
    a = np.sqrt(law.gamma * p / rho)
    return {
        "density": rho,
        "pressure": p,
        "mach": np.hypot(u, v) / a,
        "entropy_deviation": entropy_deviation(law, q, q_ref),
    }


def write_vtk(mesh, fields, path):
    """Write nodal ``fields`` ({name: (N,) array}) on ``mesh`` to ``path``.

    Legacy ASCII VTK: POINTS, CELLS (triangles), CELL_TYPES (5), then a
    POINT_DATA section with one SCALARS block per field, in the given
    order.  Field names must be non-empty and whitespace-free.
    """
    pts = np.asarray(mesh.points, dtype=float)
    tris = np.asarray(mesh.tris)
    n = pts.shape[0]
    cleaned = {}
    for name, values in fields.items():
        if not name or any(c.isspace() for c in name):
            raise InvalidArgument(f"field name {name!r} must be non-empty, no spaces")
        arr = np.asarray(values, dtype=float).reshape(-1)
        if arr.shape[0] != n:
            raise InvalidArgument(
                f"field {name!r} has {arr.shape[0]} values for {n} mesh nodes"
            )
        cleaned[name] = arr

    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("steady-state fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n")
        for x, y in pts:
            fh.write(f"{FULL_PRECISION % x} {FULL_PRECISION % y} 0\n")
        fh.write(f"CELLS {len(tris)} {4 * len(tris)}\n")
        for a, b, c in tris:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {len(tris)}\n")
        for _ in range(len(tris)):
            fh.write("5\n")
        if cleaned:
            fh.write(f"POINT_DATA {n}\n")
            for name, arr in cleaned.items():
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                for value in arr:
                    fh.write(f"{FULL_PRECISION % value}\n")
    return path


def _order_by_arc_length(edges):
    """Chain boundary edges into a path; return ordered node ids.

    Works for one open chain (ends found by degree-1 nodes) or one
    closed loop (starts at the smallest node id).  Raises for branched
    or disconnected tag sets.
    """
    adj = {}
    for a, b in edges:
        adj.setdefault(int(a), []).append(int(b))
        adj.setdefault(int(b), []).append(int(a))
    for node, nbrs in adj.items():
        if len(nbrs) > 2:
            raise InvalidArgument(
                f"boundary tag branches at node {node}; cannot order by arc length"
            )
    ends = sorted(n for n, nbrs in adj.items() if len(nbrs) == 1)
    start = ends[0] if ends else min(adj)
    order = [start]
    seen = {start}
    while True:
        nxt = [n for n in adj[order[-1]] if n not in seen]
        if not nxt:
            break
        order.append(nxt[0])
        seen.add(nxt[0])
    if len(seen) != len(adj):
        raise InvalidArgument("boundary tag is disconnected; cannot order by arc length")
    return np.array(order, dtype=int)


def probe_surface(mesh, field, tag):
    """Sample a nodal field along one boundary tag, ordered by arc length.

    Returns ``(nodes, arc, values)``: node ids along the chain, the
    cumulative arc length from its start (a degree-1 end for open
    chains, the smallest node id for loops), and the nodal values.
    """
    edges = mesh.boundary_edges(tag)
    if not len(edges):
        raise InvalidArgument(f"no boundary edges tagged {tag!r}; tags: {', '.join(mesh.tags)}")
    field = np.asarray(field, dtype=float).reshape(-1)
    if field.shape[0] != mesh.n_nodes:
        raise InvalidArgument(
            f"field has {field.shape[0]} values for {mesh.n_nodes} mesh nodes"
        )
    order = _order_by_arc_length(edges)
    pts = mesh.points[order]
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    return order, arc, field[order]

