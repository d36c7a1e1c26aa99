"""Triangulations with median-dual areas and scaled inward normals.

A :class:`Mesh` is an immutable bundle of arrays.  Per-triangle data is
stored with shape (M, 3, ...) so the distribution schemes can run batched
over all elements.  Node ordering inside each triangle is counter-clockwise;
``normals[t, i]`` is the inward normal of the edge opposite local node i,
scaled by that edge's length.

The topology (node ids, conformity, boundary edges and their tags) is
validated once, by :meth:`Mesh.from_arrays`.  :meth:`Mesh.with_points`
moves the nodes of a built mesh and recomputes only its geometry; a move
may not invert a triangle.  Both, and :func:`compute_normals`, reject a
degenerate triangle by one rule (``_check_areas``), naming it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElement, InvalidTopology

__all__ = [
    "Mesh",
    "compute_normals",
    "triangle_areas",
    "build_dual",
    "load_mesh",
    "save_mesh",
]

# The text form of a float in every written file: 17 significant digits,
# which read back as the same double.
FULL_PRECISION = "%.17g"

# Triangles thinner than this (area relative to squared edge scale) are
# rejected as degenerate.
_DEGENERATE_RTOL = 1e-14


def _normals_and_areas(coords):
    """Scaled inward normals (..., 3, 2) and signed areas (...,) of
    (..., 3, 2) coordinates, unchecked: the one area formula."""
    x = coords[..., 0]
    y = coords[..., 1]
    n = np.empty_like(coords)
    n[..., 0, 0] = y[..., 1] - y[..., 2]
    n[..., 0, 1] = x[..., 2] - x[..., 1]
    n[..., 1, 0] = y[..., 2] - y[..., 0]
    n[..., 1, 1] = x[..., 0] - x[..., 2]
    n[..., 2, 0] = y[..., 0] - y[..., 1]
    n[..., 2, 1] = x[..., 1] - x[..., 0]
    areas = 0.5 * (n[..., 2, 1] * n[..., 1, 0] - n[..., 2, 0] * n[..., 1, 1])
    return n, areas


def compute_normals(coords):
    """Scaled inward edge normals of one triangle or a batch.

    ``coords`` has shape (..., 3, 2) with counter-clockwise node order.
    Returns (..., 3, 2); row i is the inward normal of the edge opposite
    node i, with length equal to that edge's length.  The three rows sum
    to zero.  A degenerate triangle raises DegenerateElement naming its
    place in the flattened batch (``_check_areas``).
    """
    n, areas = _normals_and_areas(np.asarray(coords, dtype=float))
    _check_areas(n.reshape(-1, 3, 2), areas.reshape(-1))
    return n


def _check_areas(normals, areas):
    """Raise DegenerateElement naming the thinnest triangle when one is
    flat or inverted: its signed area at most _DEGENERATE_RTOL times the
    sum of its squared edge lengths.  The one degenerate-triangle test."""
    scale = np.einsum("tij,tij->t", normals, normals)
    if np.any(areas <= _DEGENERATE_RTOL * scale):
        bad = int(np.argmin(areas / np.maximum(scale, 1e-300)))
        fault = "is inverted" if areas[bad] < 0.0 else "has zero area"
        raise DegenerateElement(f"triangle {bad} {fault}")


def _as_points(points, n_nodes=None):
    """A fresh read-only (N, 2) float copy of finite node coordinates."""
    points = np.array(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or (
        n_nodes is not None and points.shape[0] != n_nodes
    ):
        want = "(N, 2)" if n_nodes is None else f"({n_nodes}, 2)"
        raise InvalidTopology(f"points must be {want}, got {points.shape}")
    if not np.isfinite(points).all():
        raise InvalidTopology("non-finite node coordinates")
    points.setflags(write=False)
    return points


def triangle_areas(coords):
    """Signed areas of (..., 3, 2) coordinate triples (positive when CCW),
    unchecked: the areas of ``Mesh.areas``, bit for bit."""
    return _normals_and_areas(np.asarray(coords, dtype=float))[1]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation with precomputed geometry.

    Attributes
    ----------
    points : (N, 2) node coordinates
    tris : (M, 3) node ids, counter-clockwise
    normals : (M, 3, 2) scaled inward normals
    areas : (M,) triangle areas
    dual_areas : (N,) median dual-cell areas
    bedges : (K, 2) boundary edges, interior on the left, in ascending
        order of their sorted node pairs
    btags : length-K tuple of tag strings
    """

    points: np.ndarray
    tris: np.ndarray
    normals: np.ndarray
    areas: np.ndarray
    dual_areas: np.ndarray
    bedges: np.ndarray
    btags: tuple
    reoriented: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self):
        return self.points.shape[0]

    @property
    def n_tris(self):
        return self.tris.shape[0]

    @property
    def tags(self):
        return sorted(set(self.btags))

    def boundary_nodes(self, tag=None):
        """Sorted node ids lying on boundary edges (optionally one tag)."""
        key = ("bnodes", tag)
        if key not in self._cache:
            if tag is None:
                edges = self.bedges
            else:
                mask = np.array([t == tag for t in self.btags], dtype=bool)
                edges = self.bedges[mask]
            # Sorted, first of each run of equal ids: np.unique without the
            # masked-array check that makes it import numpy.ma.
            ids = np.sort(edges, axis=None)
            first = np.ones(ids.shape, dtype=bool)
            np.not_equal(ids[1:], ids[:-1], out=first[1:])
            nodes = ids[first]
            nodes.setflags(write=False)
            self._cache[key] = nodes
        return self._cache[key]

    def boundary_edges(self, tag):
        mask = np.array([t == tag for t in self.btags], dtype=bool)
        return self.bedges[mask]

    def outward_normals(self, tag):
        """Unit outward normal per boundary node of ``tag``.

        Returns (node_ids, normals) where each node's normal is the
        normalized average of its incident tagged-edge outward normals.
        """
        key = ("onrm", tag)
        if key not in self._cache:
            edges = self.boundary_edges(tag)
            if edges.shape[0] == 0:
                raise InvalidTopology(f"no boundary edges tagged {tag!r}")
            d = self.points[edges[:, 1]] - self.points[edges[:, 0]]
            # Interior on the left of (a, b) => outward normal is (dy, -dx).
            en = np.stack([d[:, 1], -d[:, 0]], axis=1)
            nodes = self.boundary_nodes(tag)
            acc = np.zeros((nodes.shape[0], 2))
            # Each edge adds its normal to its first node, then its second.
            np.add.at(acc, np.searchsorted(nodes, edges).ravel(), np.repeat(en, 2, axis=0))
            length = np.hypot(acc[:, 0], acc[:, 1])
            if np.any(length <= 0.0):
                raise InvalidTopology(f"cancelling edge normals on tag {tag!r}")
            self._cache[key] = (nodes, acc / length[:, None])
        return self._cache[key]

    def tri_coords(self):
        """(M, 3, 2) coordinates of triangle nodes."""
        if "tcoords" not in self._cache:
            arr = np.take(self.points, self.tris, axis=0)
            arr.setflags(write=False)
            self._cache["tcoords"] = arr
        return self._cache["tcoords"]

    def with_points(self, points):
        """The same triangulation on moved nodes.

        Keeps ``tris``, ``bedges``, ``btags`` and the cached boundary node
        sets, and recomputes only the normals and the triangle and dual
        areas.  ``points`` must be finite with shape (n_nodes, 2), else
        InvalidTopology; a move that flattens or inverts a triangle raises
        DegenerateElement naming it.
        """
        points = _as_points(points, self.n_nodes)
        normals, areas = _normals_and_areas(np.take(points, self.tris, axis=0))
        _check_areas(normals, areas)
        dual = build_dual(self.tris, areas, self.n_nodes)
        for arr in (normals, areas, dual):
            arr.setflags(write=False)
        bnodes = {key: nodes for key, nodes in self._cache.items()
                  if isinstance(key, tuple) and key[0] == "bnodes"}
        return Mesh(
            points=points,
            tris=self.tris,
            normals=normals,
            areas=areas,
            dual_areas=dual,
            bedges=self.bedges,
            btags=self.btags,
            _cache=bnodes,
        )

    @staticmethod
    def from_arrays(points, tris, tagged_edges):
        """Validate raw arrays and build a Mesh.

        ``tagged_edges`` is an iterable of (i, j, tag).  Every boundary edge
        of the triangulation must receive exactly one tag; orientation of
        the pairs is normalized automatically.  A tag is one word without
        ``#``, as a mesh file and a config key can hold it; any other tag
        raises InvalidTopology naming the first edge that carries it.
        Clockwise triangles are reoriented with a warning.  The topology is
        validated here once; :meth:`with_points` reuses it.
        """
        points = _as_points(points)
        tris = np.array(tris, dtype=np.int64)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise InvalidTopology(f"tris must be (M, 3), got {tris.shape}")
        n = points.shape[0]
        if tris.size and (tris.min() < 0 or tris.max() >= n):
            raise InvalidTopology("triangle references node id out of range")
        a, b, c = tris.T
        if np.any((a == b) | (b == c) | (c == a)):
            raise InvalidTopology("triangle with repeated node ids")
        missing = np.flatnonzero(np.bincount(tris.ravel(), minlength=n) == 0)
        if missing.size:
            raise InvalidTopology(f"dangling nodes not in any triangle: {missing[:5].tolist()}")

        # Normalize orientation to CCW.
        normals, areas = _normals_and_areas(np.take(points, tris, axis=0))
        flipped = areas < 0.0
        reoriented = int(flipped.sum())
        if reoriented:
            tris[flipped] = tris[flipped][:, ::-1]
            warnings.warn(f"reoriented {reoriented} clockwise triangle(s)")
            normals, areas = _normals_and_areas(np.take(points, tris, axis=0))
        _check_areas(normals, areas)
        dual = build_dual(tris, areas, n)

        # Conformity + boundary extraction: each undirected edge belongs to
        # one (boundary) or two (interior) triangles.  ``edges`` lists the
        # directed edges (a, b), (b, c), (c, a) of every triangle in turn;
        # ``code`` numbers each edge's sorted node pair.  Sorting the codes
        # puts the copies of an edge side by side, in ascending code order.
        edges = np.take(tris, [0, 1, 1, 2, 2, 0], axis=1).reshape(-1, 2)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        code = lo * n + hi
        order = np.argsort(code)
        ordered = code[order]
        same = ordered[1:] == ordered[:-1]
        if np.any(same[1:] & same[:-1]):
            # Name the edge whose third triangle comes first.
            order = np.argsort(code, kind="stable")
            ordered = code[order]
            third = order[2:][ordered[2:] == ordered[:-2]].min()
            raise InvalidTopology(f"edge {(int(lo[third]), int(hi[third]))} shared by >2 triangles")
        single = np.ones(code.shape, dtype=bool)
        single[1:] &= ~same
        single[:-1] &= ~same
        once = order[single]
        bedges = edges[once]
        slot = {key: k for k, key in enumerate(zip(lo[once].tolist(), hi[once].tolist()))}

        tags = [None] * len(slot)
        for i, j, tag in tagged_edges:
            k = slot.get((i, j) if i < j else (j, i))
            if k is None:
                raise InvalidTopology(f"tagged edge {(i, j)} is not a boundary edge")
            if tags[k] is not None:
                raise InvalidTopology(f"boundary edge {(i, j)} tagged twice")
            tags[k] = str(tag)
        untagged = [key for key, tag in zip(slot, tags) if tag is None]
        if untagged:
            raise InvalidTopology(
                f"{len(untagged)} boundary edge(s) without a tag, e.g. {untagged[:3]}"
            )
        btags = tuple(tags)
        for tag in dict.fromkeys(btags):  # each distinct tag once, in edge order
            if tag.split() != [tag] or "#" in tag:
                edge = list(slot)[btags.index(tag)]
                raise InvalidTopology(
                    f"boundary edge {edge} has tag {tag!r}: a tag is one word without '#'"
                )

        for arr in (tris, normals, areas, dual, bedges):
            arr.setflags(write=False)
        return Mesh(
            points=points,
            tris=tris,
            normals=normals,
            areas=areas,
            dual_areas=dual,
            bedges=bedges,
            btags=btags,
            reoriented=reoriented,
        )


def build_dual(tris, areas, n_nodes):
    """Median dual-cell areas: |C_i| = sum of incident triangle areas / 3."""
    return np.bincount(
        np.asarray(tris).ravel(), weights=np.repeat(np.asarray(areas) / 3.0, 3), minlength=n_nodes
    )


def load_mesh(path):
    """Read the native ASCII format (header ``rdmesh 1``).

    Every error names the file once: ``<path>:<line>: ...`` for a line that
    does not parse, ``<path>: ...`` for contents that ``Mesh.from_arrays``
    rejects.  A boundary line holds exactly two node ids and a tag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidTopology(f"{path}: not UTF-8 text: {exc}") from exc

    tokens = []  # (lineno, [fields])
    for lineno, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.append((lineno, body.split()))

    def fail(lineno, msg):
        raise InvalidTopology(f"{path}:{lineno}: {msg}")

    cursor = 0

    def next_line(expect=None):
        nonlocal cursor
        if cursor >= len(tokens):
            raise InvalidTopology(f"{path}: unexpected end of file")
        lineno, fields = tokens[cursor]
        cursor += 1
        if expect is not None and fields[0] != expect:
            fail(lineno, f"expected {expect!r}, got {fields[0]!r}")
        return lineno, fields

    def next_count(section, what):
        lineno, fields = next_line(section)
        try:
            count = int(fields[1])
        except (IndexError, ValueError):
            fail(lineno, f"bad {what} count")
        if count < 0:
            fail(lineno, f"negative {what} count {count}")
        return count

    lineno, fields = next_line()
    if fields[:2] != ["rdmesh", "1"]:
        fail(lineno, "bad header, expected 'rdmesh 1'")

    n = next_count("nodes", "node")
    points = np.empty((n, 2))
    for k in range(n):
        lineno, fields = next_line()
        try:
            points[k] = (float(fields[0]), float(fields[1]))
        except (IndexError, ValueError):
            fail(lineno, f"bad node line {fields}")

    m = next_count("triangles", "triangle")
    tris = np.empty((m, 3), dtype=np.int64)
    for k in range(m):
        lineno, fields = next_line()
        try:
            tris[k] = (int(fields[0]), int(fields[1]), int(fields[2]))
        except (IndexError, ValueError):
            fail(lineno, f"bad triangle line {fields}")

    kb = next_count("boundary", "boundary")
    tagged = []
    for k in range(kb):
        lineno, fields = next_line()
        try:
            i, j, tag = fields
            tagged.append((int(i), int(j), tag))
        except ValueError:
            fail(lineno, f"bad boundary line {fields}")

    try:
        return Mesh.from_arrays(points, tris, tagged)
    except (InvalidTopology, DegenerateElement) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_mesh(mesh, path):
    """Write the native ASCII format with full-precision coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rdmesh 1\n")
        fh.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.points:
            fh.write(f"{FULL_PRECISION % x} {FULL_PRECISION % y}\n")
        fh.write(f"triangles {mesh.n_tris}\n")
        for a, b, c in mesh.tris:
            fh.write(f"{a} {b} {c}\n")
        fh.write(f"boundary {mesh.bedges.shape[0]}\n")
        for (a, b), tag in zip(mesh.bedges, mesh.btags):
            fh.write(f"{a} {b} {tag}\n")
