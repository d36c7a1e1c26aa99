"""Mesh structure: normals, dual areas, tags, file round-trips, generators."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdflux
from rdflux import config, meshgen
from rdflux.errors import DegenerateElement, InvalidArgument, InvalidTopology
from rdflux.mesh import Mesh, compute_normals, load_mesh, save_mesh, triangle_areas

from .conftest import random_triangles


def _edge_lengths(coords):
    # Edge opposite node i connects the other two nodes.
    out = np.empty(coords.shape[:-1])
    for i in range(3):
        a = coords[..., (i + 1) % 3, :]
        b = coords[..., (i + 2) % 3, :]
        out[..., i] = np.hypot(*(a - b).T).T
    return out


class TestNormals:
    def test_reference_triangle_values(self, ref_tri):
        n = compute_normals(ref_tri[None])[0]
        # Inward scaled normals: opposite-edge length, pointing into the triangle.
        assert np.allclose(n[0], [-1.0, -1.0])  # opposite the hypotenuse
        assert np.allclose(n[1], [1.0, 0.0])
        assert np.allclose(n[2], [0.0, 1.0])

    def test_sum_zero_and_edge_lengths_random(self, rng):
        coords = random_triangles(rng, 300)
        n = compute_normals(coords)
        resid = np.abs(n.sum(axis=1)).max()
        scale = np.hypot(n[..., 0], n[..., 1]).max()
        assert resid <= 1e-13 * scale
        lens = np.hypot(n[..., 0], n[..., 1])
        assert np.allclose(lens, _edge_lengths(coords), rtol=1e-13, atol=0.0)

    def test_inward_orientation(self, rng):
        coords = random_triangles(rng, 50)
        n = compute_normals(coords)
        centroid = coords.mean(axis=1, keepdims=True)
        mid = 0.5 * (coords[:, [1, 2, 0], :] + coords[:, [2, 0, 1], :])
        # Normal attached to node i sits on the opposite edge and must
        # point from that edge toward the interior.
        toward = ((centroid - mid) * n).sum(axis=-1)
        assert (toward > 0.0).all()


class TestAreasAndDual:
    def test_positive_ccw(self, rng):
        coords = random_triangles(rng, 100)
        assert (triangle_areas(coords) > 0.0).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_to_the_mesh_areas(self, seed):
        rect = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 20, 20)
        m = meshgen.perturb_interior(rect, 0.25, seed=seed)
        assert np.array_equal(triangle_areas(m.tri_coords()), m.areas)

    def test_dual_partition(self, small_irregular_mesh):
        m = small_irregular_mesh
        assert np.isclose(m.dual_areas.sum(), m.areas.sum(), rtol=1e-12)
        assert (m.dual_areas > 0.0).all()

    def test_dual_is_third_of_incident_area(self, small_irregular_mesh):
        m = small_irregular_mesh
        acc = np.zeros(m.n_nodes)
        for t, tri in enumerate(m.tris):
            acc[tri] += m.areas[t] / 3.0
        assert np.allclose(acc, m.dual_areas, rtol=1e-13)


class TestMeshChecks:
    EDGES = [(0, 1, "b"), (1, 2, "b"), (2, 0, "b")]

    def test_clockwise_reoriented(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 2, 1]])  # clockwise
        with pytest.warns(UserWarning, match="reoriented"):
            m = Mesh.from_arrays(pts, tris, self.EDGES)
        assert triangle_areas(m.tri_coords())[0] > 0.0
        assert m.reoriented == 1

    def test_degenerate_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateElement, match="^triangle 0 has zero area$"):
            Mesh.from_arrays(pts, np.array([[0, 1, 2]]), self.EDGES)

    def test_thin_triangle_rejected_by_every_path(self):
        # Area 1.2e-14 against 1e-14 times the squared edge lengths (1.5):
        # degenerate for the one rule, whether normals come from a batch or
        # from a mesh build.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.4e-14]])
        with pytest.raises(DegenerateElement, match="^triangle 0 has zero area$"):
            compute_normals(pts)
        with pytest.raises(DegenerateElement, match="^triangle 0 has zero area$"):
            Mesh.from_arrays(pts, np.array([[0, 1, 2]]), self.EDGES)

    def test_bad_index_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidTopology):
            Mesh.from_arrays(pts, np.array([[0, 1, 7]]), self.EDGES)

    # The unit square split along 0-2, its four sides tagged.
    SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    SQUARE_TRIS = [[0, 1, 2], [0, 2, 3]]
    SQUARE_EDGES = [(0, 1, "bottom"), (1, 2, "right"), (2, 3, "top"), (3, 0, "left")]
    # Three triangles on the edge 0-1: two above it, one below.
    FAN = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.5, 2.0]]
    FAN_TRIS = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]

    @pytest.mark.parametrize("points, tris, edges, message", [
        (SQUARE, [[0, 1, 1], [0, 2, 3]], SQUARE_EDGES, "triangle with repeated node ids"),
        (SQUARE + [[2.0, 2.0]], SQUARE_TRIS, SQUARE_EDGES,
         "dangling nodes not in any triangle: [4]"),
        (FAN, FAN_TRIS, [], "edge (0, 1) shared by >2 triangles"),
        (SQUARE, SQUARE_TRIS, SQUARE_EDGES + [(0, 2, "diagonal")],
         "tagged edge (0, 2) is not a boundary edge"),
        (SQUARE, SQUARE_TRIS, SQUARE_EDGES + [(1, 0, "again")],
         "boundary edge (1, 0) tagged twice"),
        (SQUARE, SQUARE_TRIS, SQUARE_EDGES[:3],
         "1 boundary edge(s) without a tag, e.g. [(0, 3)]"),
        (SQUARE, SQUARE_TRIS, [],
         "4 boundary edge(s) without a tag, e.g. [(0, 1), (0, 3), (1, 2)]"),
    ], ids=["repeated-node", "dangling-node", "edge-in-three", "tag-not-on-boundary",
            "tagged-twice", "untagged-edge", "no-tags"])
    def test_invalid_topology_names_the_fault(self, points, tris, edges, message):
        with pytest.raises(InvalidTopology, match="^" + re.escape(message) + "$"):
            Mesh.from_arrays(points, tris, edges)

    @pytest.mark.parametrize("tag", ["", "far field", "far\twall", "x#y"],
                             ids=["empty", "space", "tab", "hash"])
    def test_a_tag_is_one_word_without_a_hash(self, tag):
        # A mesh file keeps the first word of a tag and cuts it at '#', and
        # no config key can bind such a tag: the mesh rejects it.
        edges = [(0, 1, "bottom"), (2, 1, tag), (2, 3, tag), (3, 0, "left")]
        message = f"boundary edge (1, 2) has tag {tag!r}: a tag is one word without '#'"
        with pytest.raises(InvalidTopology, match="^" + re.escape(message) + "$"):
            Mesh.from_arrays(self.SQUARE, self.SQUARE_TRIS, edges)


MESH_FIELDS = ("points", "tris", "normals", "areas", "dual_areas", "bedges")


def _tagged_edges(mesh):
    return list(zip(*mesh.bedges.T.tolist(), mesh.btags))


def _hexagon_fan():
    """Six triangles (6, k, k + 1) around node 6 at the centre of a
    regular hexagon."""
    angle = np.pi / 3.0 * np.arange(6)
    points = np.vstack([np.column_stack([np.cos(angle), np.sin(angle)]), [[0.0, 0.0]]])
    tris = [[6, k, (k + 1) % 6] for k in range(6)]
    return Mesh.from_arrays(points, tris, [(k, (k + 1) % 6, "rim") for k in range(6)])


class TestWithPoints:
    """``with_points`` moves the nodes of a built mesh and keeps its
    topology; ``from_arrays`` derives that topology once per build."""

    @staticmethod
    def _radially_scaled_ring():
        ring = meshgen.generate_cylinder_mesh((0.5, -0.25), 0.5, ("radius", 3.0), 6, 24)
        d = ring.points - (0.5, -0.25)
        r = np.hypot(d[:, 0], d[:, 1])
        return ring, (0.5, -0.25) + d * (1.0 + 0.1 * r)[:, None]

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_rect_equals_a_fresh_build(self, seed):
        rect = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 12, 10)
        moved = meshgen.perturb_interior(rect, 0.25, seed=seed)
        fresh = Mesh.from_arrays(moved.points, rect.tris, _tagged_edges(rect))
        for name in MESH_FIELDS:
            assert np.array_equal(getattr(moved, name), getattr(fresh, name)), name
        assert moved.btags == fresh.btags
        assert moved.reoriented == fresh.reoriented == 0

    def test_scaled_ring_equals_a_fresh_build(self):
        ring, points = self._radially_scaled_ring()
        moved = ring.with_points(points)
        fresh = Mesh.from_arrays(points, ring.tris, _tagged_edges(ring))
        for name in MESH_FIELDS:
            assert np.array_equal(getattr(moved, name), getattr(fresh, name)), name
        assert moved.btags == fresh.btags
        for tag in ring.tags:
            for a, b in zip(moved.outward_normals(tag), fresh.outward_normals(tag)):
                assert np.array_equal(a, b)

    def test_topology_is_kept(self):
        rect = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 8, 8)
        walls = rect.boundary_nodes("left")
        moved = meshgen.perturb_interior(rect, 0.2, seed=3)
        assert moved.tris is rect.tris
        assert moved.bedges is rect.bedges
        assert moved.btags is rect.btags
        assert moved.boundary_nodes("left") is walls
        ring, points = self._radially_scaled_ring()
        scaled = ring.with_points(points)
        assert scaled.tris is ring.tris
        assert scaled.bedges is ring.bedges
        assert scaled.btags is ring.btags

    def test_points_are_copied(self):
        rect = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 3, 3)
        points = rect.points * 2.0
        moved = rect.with_points(points)
        points[5] = (9.0, 9.0)
        assert np.array_equal(moved.points, rect.points * 2.0)
        assert not moved.points.flags.writeable

    @pytest.mark.parametrize("k", range(6))
    def test_inverting_move_names_the_triangle(self, k):
        fan = _hexagon_fan()
        # Just past the midpoint of the rim edge (k, k + 1): only triangle k
        # turns clockwise.
        points = np.array(fan.points)
        points[6] = 1.05 * 0.5 * (points[k] + points[(k + 1) % 6])
        assert np.flatnonzero(triangle_areas(points[fan.tris]) < 0.0).tolist() == [k]
        with pytest.raises(DegenerateElement, match=f"^triangle {k} is inverted$"):
            fan.with_points(points)

    def test_flattening_move_names_the_triangle(self):
        fan = _hexagon_fan()
        points = np.array(fan.points)
        points[6] = 0.5 * (points[2] + points[3])
        with pytest.raises(DegenerateElement, match="^triangle 2 has zero area$"):
            fan.with_points(points)

    @pytest.mark.parametrize("change, message", [
        (lambda p: p[:-1], "points must be (7, 2), got (6, 2)"),
        (lambda p: np.column_stack([p, p[:, 0]]), "points must be (7, 2), got (7, 3)"),
        (lambda p: p.ravel(), "points must be (7, 2), got (14,)"),
        (lambda p: np.where(np.arange(7)[:, None] == 6, np.nan, p), "non-finite node coordinates"),
        (lambda p: np.where(np.arange(7)[:, None] == 0, np.inf, p), "non-finite node coordinates"),
    ], ids=["too-few", "three-columns", "flat", "nan", "inf"])
    def test_bad_points_rejected(self, change, message):
        fan = _hexagon_fan()
        with pytest.raises(InvalidTopology, match="^" + re.escape(message) + "$"):
            fan.with_points(change(np.array(fan.points)))

    def test_build_problem_derives_the_topology_once(self, monkeypatch):
        calls = []
        build = Mesh.from_arrays

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(Mesh, "from_arrays", staticmethod(counted))
        problem = config.build_problem(config.preset("advection-rotating"))
        assert len(calls) == 1
        assert problem.mesh.n_tris == 2 * 54 * 54


@pytest.mark.parametrize("name", config.preset_names())
def test_boundary_nodes_equal_np_unique(name):
    mesh = config.build_problem(config.preset(name)).mesh
    for tag in [None] + mesh.tags:
        edges = mesh.bedges if tag is None else mesh.boundary_edges(tag)
        nodes = mesh.boundary_nodes(tag)
        assert nodes.dtype == np.int64
        assert np.array_equal(nodes, np.unique(edges))


def test_building_the_presets_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call (13-22 ms, 1.2 MB).
    code = (
        "import sys\n"
        "from rdflux import config\n"
        "from rdflux.solver import Solver\n"
        "for name in config.preset_names():\n"
        "    p = config.build_problem(config.preset(name))\n"
        "    Solver(p.mesh, p.law, p.boundaries, p.solver_config)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    src = str(Path(rdflux.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestFileRoundTrip:
    def test_bit_exact(self, small_irregular_mesh, tmp_path):
        path = tmp_path / "m.mesh"
        save_mesh(small_irregular_mesh, path)
        again = load_mesh(path)
        assert (again.points == small_irregular_mesh.points).all()
        assert (again.tris == small_irregular_mesh.tris).all()
        assert sorted(again.tags) == sorted(small_irregular_mesh.tags)
        for t in again.tags:
            assert (
                again.boundary_edges(t) == small_irregular_mesh.boundary_edges(t)
            ).all()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_mesh(tmp_path / "nope.mesh")

    ONE_TRIANGLE = [
        "rdmesh 1", "nodes 3", "0 0", "1 0", "0 1", "triangles 1", "0 1 2",
        "boundary 3", "0 1 bottom", "1 2 diagonal", "2 0 left",
    ]

    @pytest.mark.parametrize("lineno, text, message", [
        (1, "rdmesh 2", "bad header"),
        (2, "nodes -1", "negative node count"),
        (6, "triangles -1", "negative triangle count"),
        (11, "2 0", "bad boundary line"),
        (9, "0 1 far field", "bad boundary line"),
    ])
    def test_malformed_file_names_line(self, tmp_path, lineno, text, message):
        path = tmp_path / "m.mesh"
        path.write_text("\n".join(self.ONE_TRIANGLE) + "\n")
        assert load_mesh(path).n_tris == 1
        lines = list(self.ONE_TRIANGLE)
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidTopology, match="^" + re.escape(f"{path}:{lineno}: {message}")):
            load_mesh(path)

    @pytest.mark.parametrize("node, error, message", [
        ("nan 1", InvalidTopology, "non-finite node coordinates"),
        ("2 0", DegenerateElement, "triangle 0 has zero area"),
    ], ids=["nan", "flat"])
    def test_rejected_contents_name_the_file(self, tmp_path, node, error, message):
        path = tmp_path / "m.mesh"
        lines = list(self.ONE_TRIANGLE)
        lines[4] = node
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match="^" + re.escape(f"{path}: {message}") + "$"):
            load_mesh(path)


class TestRectGenerator:
    def test_counts(self):
        m = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 1, 1)
        assert m.n_tris == 2 and m.n_nodes == 4
        k = 7
        m = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), k, k)
        assert m.n_tris == 2 * k * k and m.n_nodes == (k + 1) ** 2

    def test_total_area(self):
        m = meshgen.generate_rect_mesh((0.0, 2.0, -1.0, 1.0), 9, 5)
        assert np.isclose(m.areas.sum(), 4.0, rtol=1e-12)

    def test_boundary_tags(self):
        m = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4)
        assert sorted(m.tags) == ["bottom", "left", "right", "top"]
        assert (m.points[m.boundary_nodes("bottom")][:, 1] == 0.0).all()
        assert (m.points[m.boundary_nodes("top")][:, 1] == 1.0).all()

    def test_perturb_keeps_boundary(self):
        m = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 8, 8)
        p = meshgen.perturb_interior(m, 0.25, seed=1)
        b = m.boundary_nodes()
        assert (p.points[b] == m.points[b]).all()
        assert (triangle_areas(p.tri_coords()) > 0.0).all()

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_perturb_rejects_a_non_finite_amplitude(self, amplitude):
        m = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4)
        with pytest.raises(InvalidArgument, match=(
            f"^perturbation amplitude must be finite and nonnegative, got {amplitude}$"
        )):
            meshgen.perturb_interior(m, amplitude)

    @pytest.mark.parametrize("amplitude", [1e200, 1e308])
    def test_perturb_fails_cleanly_where_the_areas_overflow(self, amplitude):
        # Tier-1 turns RuntimeWarning into an error: an overflowing try
        # must count as a failed try, not warn.
        m = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4)
        with pytest.raises(DegenerateElement, match="^could not jitter mesh"):
            meshgen.perturb_interior(m, amplitude)

    def test_perturb_deterministic(self):
        m = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 8, 8)
        a = meshgen.perturb_interior(m, 0.2, seed=5)
        b = meshgen.perturb_interior(m, 0.2, seed=5)
        assert (a.points == b.points).all()


class TestCylinderGenerator:
    def test_ring_counts(self):
        m = meshgen.generate_cylinder_mesh((0.0, 0.0), 1.0, ("radius", 2.0), 1, 4)
        assert m.n_tris == 8

    def test_wall_nodes_on_radius(self):
        m = meshgen.generate_cylinder_mesh((0.0, 0.0), 0.5, ("radius", 3.0), 6, 24)
        w = m.points[m.boundary_nodes("wall")]
        assert np.allclose(np.hypot(w[:, 0], w[:, 1]), 0.5, atol=1e-12)

    def test_annulus_area(self):
        m = meshgen.generate_cylinder_mesh((0.0, 0.0), 1.0, ("radius", 4.0), 32, 64)
        exact = np.pi * (16.0 - 1.0)
        assert abs(m.areas.sum() - exact) / exact < 0.02

    def test_rect_clip_area_and_tags(self):
        m = meshgen.generate_cylinder_mesh(
            (0.0, 0.0), 1.0, ("rect", (-2.0, 0.0, -3.0, 3.0)), 32, 96, grading=1.05
        )
        exact = 2.0 * 6.0 - np.pi * 0.5  # rectangle minus embedded half-disk
        assert abs(m.areas.sum() - exact) / exact < 0.02
        assert set(m.tags) == {"wall", "farfield", "exit"}
        ex = m.points[m.boundary_nodes("exit")]
        assert np.allclose(ex[:, 0], 0.0, atol=1e-12)

    @pytest.mark.parametrize(("radius", "outer", "message"), [
        (math.nan, 3.0, "cylinder radius must be positive"),
        (1.0, math.nan, "outer radius must exceed wall radius"),
    ], ids=["nan-radius", "nan-outer-radius"])
    def test_nan_radius_rejected(self, radius, outer, message):
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            meshgen.generate_cylinder_mesh((0.0, 0.0), radius, ("radius", outer), 4, 12)

    @pytest.mark.parametrize("outer", [("radius", 3.0), ("rect", (-2.0, 2.0, -2.0, 2.0))],
                             ids=["annulus", "rect"])
    @pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf)], ids=["nan-x", "inf-y"])
    def test_non_finite_center_rejected(self, center, outer):
        with pytest.raises(InvalidArgument, match=(
            f"^cylinder center must be finite, got {re.escape(str(center))}$"
        )):
            meshgen.generate_cylinder_mesh(center, 1.0, outer, 4, 12)

    def test_grading_bound(self):
        with pytest.raises(InvalidArgument):
            meshgen.generate_cylinder_mesh(
                (0.0, 0.0), 1.0, ("radius", 3.0), 8, 16, grading=1.5
            )


def _split_reference(rows, cols, corners):
    """Per-quad loop: two CCW triangles per quad, row by row, with the
    diagonal a-c where row + col is even and b-d where it is odd."""
    tris = []
    for r in range(rows):
        for c in range(cols):
            a, b, cc, d = corners(r, c)
            if (r + c) % 2 == 0:
                tris += [(a, b, cc), (a, cc, d)]
            else:
                tris += [(a, b, d), (b, cc, d)]
    return np.array(tris)


def _rect_reference(nx, ny):
    def nid(i, j):
        return j * (nx + 1) + i

    tris = _split_reference(
        ny, nx, lambda j, i: (nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1))
    )
    tagged = []
    for i in range(nx):
        tagged += [(nid(i, 0), nid(i + 1, 0), "bottom"), (nid(i, ny), nid(i + 1, ny), "top")]
    for j in range(ny):
        tagged += [(nid(0, j), nid(0, j + 1), "left"), (nid(nx, j), nid(nx, j + 1), "right")]
    return tris, tagged


def _ring_reference(n_radial, n_circum, half):
    ncols = n_circum + 1 if half else n_circum

    def nid(lvl, j):
        return lvl * ncols + j % ncols

    tris = _split_reference(
        n_radial, n_circum,
        lambda lvl, j: (nid(lvl, j), nid(lvl + 1, j), nid(lvl + 1, j + 1), nid(lvl, j + 1)),
    )
    tagged = []
    for j in range(n_circum):
        tagged += [(nid(0, j), nid(0, j + 1), "wall"),
                   (nid(n_radial, j), nid(n_radial, j + 1), "farfield")]
    if half:
        for lvl in range(n_radial):
            tagged += [(nid(lvl, 0), nid(lvl + 1, 0), "exit"),
                       (nid(lvl, n_circum), nid(lvl + 1, n_circum), "exit")]
    return tris, tagged


def _boundary_reference(tris, tagged):
    """Edges of one triangle, sorted by their node pair, each directed as
    in its triangle, and their tags."""
    seen = {}
    for a, b, c in tris.tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            seen.setdefault((min(u, v), max(u, v)), []).append((u, v))
    tag_of = {(min(i, j), max(i, j)): tag for i, j, tag in tagged}
    keys = sorted(k for k, dirs in seen.items() if len(dirs) == 1)
    return np.array([seen[k][0] for k in keys]), tuple(tag_of[k] for k in keys)


def _outward_reference(points, bedges, btags, tag):
    """Per node of ``tag``, its edges' outward normals summed edge by edge,
    then normalized."""
    acc = {}
    for (a, b), t in zip(bedges.tolist(), btags):
        if t == tag:
            dx, dy = points[b] - points[a]
            for node in (a, b):
                acc.setdefault(node, np.zeros(2))
                acc[node] += (dy, -dx)
    nodes = sorted(acc)
    vec = np.array([acc[n] for n in nodes])
    return np.array(nodes), vec / np.hypot(vec[:, 0], vec[:, 1])[:, None]


@pytest.mark.parametrize("build, reference", [
    (lambda: meshgen.generate_rect_mesh((0.0, 2.0, -1.0, 1.0), 5, 4),
     lambda: _rect_reference(5, 4)),
    (lambda: meshgen.generate_cylinder_mesh((0.0, 0.0), 1.0, ("radius", 3.0), 4, 7),
     lambda: _ring_reference(4, 7, half=False)),
    (lambda: meshgen.generate_cylinder_mesh(
        (0.5, 0.0), 1.0, ("rect", (-3.0, 4.0, -3.0, 3.0)), 3, 8, grading=1.1),
     lambda: _ring_reference(3, 8, half=False)),
    (lambda: meshgen.generate_cylinder_mesh(
        (0.0, 0.0), 1.0, ("rect", (-2.0, 0.0, -3.0, 3.0)), 3, 6),
     lambda: _ring_reference(3, 6, half=True)),
], ids=["rect", "full-ring", "clipped-ring", "half-ring"])
def test_generator_order_matches_per_quad_loop(build, reference):
    # Every trajectory depends on the triangle and boundary-edge order.
    mesh = build()
    tris, tagged = reference()
    assert np.array_equal(mesh.tris, tris)
    bedges, btags = _boundary_reference(tris, tagged)
    assert np.array_equal(mesh.bedges, bedges)
    assert mesh.btags == btags
    for tag in mesh.tags:
        nodes, normals = mesh.outward_normals(tag)
        ref_nodes, ref_normals = _outward_reference(mesh.points, bedges, btags, tag)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(normals, ref_normals)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_normals_sum_zero_property(seed):
    coords = random_triangles(np.random.default_rng(seed), 8)
    n = compute_normals(coords)
    scale = np.hypot(n[..., 0], n[..., 1]).max()
    assert np.abs(n.sum(axis=1)).max() <= 1e-13 * scale
