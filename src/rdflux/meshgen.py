"""Structured mesh generators for the bundled test problems."""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DegenerateElement, InvalidArgument
from .mesh import Mesh

__all__ = ["generate_rect_mesh", "generate_cylinder_mesh", "perturb_interior"]


def generate_rect_mesh(bounds, nx, ny):
    """Triangulated rectangle with boundary tags left/right/bottom/top.

    ``bounds`` is (x0, x1, y0, y1); nx, ny count cells per direction.  The
    quad-splitting diagonals alternate in a checkerboard.
    """
    x0, x1, y0, y1 = map(float, bounds)
    if not (x1 > x0 and y1 > y0):
        raise InvalidArgument(f"empty rectangle {bounds}")
    if nx < 1 or ny < 1:
        raise InvalidArgument("nx and ny must be >= 1")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys)
    points = np.column_stack([xx.ravel(), yy.ravel()])

    # Node j * (nx + 1) + i sits at (xs[i], ys[j]); quads run along x.
    nid = np.arange((ny + 1) * (nx + 1)).reshape(ny + 1, nx + 1)
    tris = _split_quads(nid[:-1, :-1], nid[:-1, 1:], nid[1:, 1:], nid[1:, :-1])
    tagged = (
        _chain(nid[0], "bottom") + _chain(nid[-1], "top")
        + _chain(nid[:, 0], "left") + _chain(nid[:, -1], "right")
    )
    return Mesh.from_arrays(points, tris, tagged)


def _split_quads(a, b, c, d):
    """Two CCW triangles per quad of a (rows, cols) grid, in row-major order.

    ``a``, ``b``, ``c``, ``d`` hold the node ids of each quad's corners in
    counter-clockwise order.  The diagonal is a-c where row + col is even
    and b-d where it is odd, so the diagonals alternate in a checkerboard.
    Returns (2 rows cols, 3) node ids.
    """
    rows, cols = np.indices(a.shape)
    even = ((rows + cols) % 2 == 0)[..., None]
    first = np.where(even, np.stack([a, b, c], axis=-1), np.stack([a, b, d], axis=-1))
    second = np.where(even, np.stack([a, c, d], axis=-1), np.stack([b, c, d], axis=-1))
    return np.stack([first, second], axis=-2).reshape(-1, 3)


def _chain(ids, tag):
    """Tagged edges joining consecutive node ids of the 1-D array ``ids``."""
    ids = ids.tolist()
    return list(zip(ids[:-1], ids[1:], itertools.repeat(tag)))


def _ray_exit_distance(cx, cy, theta, rect):
    """Distance from (cx, cy) along (cos t, sin t) to the rectangle boundary."""
    x0, x1, y0, y1 = rect
    c, s = math.cos(theta), math.sin(theta)
    best = math.inf
    if c > 1e-14:
        best = min(best, (x1 - cx) / c)
    elif c < -1e-14:
        best = min(best, (x0 - cx) / c)
    if s > 1e-14:
        best = min(best, (y1 - cy) / s)
    elif s < -1e-14:
        best = min(best, (y0 - cy) / s)
    if not math.isfinite(best) or best <= 0.0:
        raise InvalidArgument("cylinder center outside the outer rectangle")
    return best


def generate_cylinder_mesh(center, radius, outer_spec, n_radial, n_circum,
                           grading=1.2):
    """O-grid ring around a circular wall, graded geometrically outward.

    ``outer_spec`` is either ``("radius", R)`` for a plain annulus or
    ``("rect", (x0, x1, y0, y1))`` for a ring clipped to a rectangle.  With a
    rectangle the cylinder center may sit strictly inside (full ring) or on
    the right edge x = x1 (half ring spanning angles 90..270 degrees, used
    for upstream-half domains).  Boundary tags: "wall" (inner circle),
    "farfield" (outer boundary), and for half rings "exit" (the two cut
    segments on x = x1, normally bound to an outflow condition).

    Nodes are numbered level by level from the wall outward: node
    ``level * ncols + column`` sits at radial level ``level`` (0 on the
    wall, ``n_radial`` on the outer boundary) on the ray of angle column
    ``column``.  A full ring has ``ncols = n_circum`` columns starting at
    angle 0; a half ring has ``ncols = n_circum + 1`` running from 90 to
    270 degrees.  Triangles come two per quad in the same order, level by
    level (see ``_split_quads``).
    """
    cx, cy = map(float, center)
    radius = float(radius)
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise InvalidArgument(f"cylinder center must be finite, got {center}")
    # Each check is written so that NaN fails it.
    if not radius > 0.0:
        raise InvalidArgument("cylinder radius must be positive")
    if n_radial < 1 or n_circum < 3:
        raise InvalidArgument("need n_radial >= 1 and n_circum >= 3")
    if not (1.0 <= grading <= 1.2):
        raise InvalidArgument("grading ratio must lie in [1.0, 1.2]")

    kind, data = outer_spec
    if kind == "radius":
        router = float(data)
        if not router > radius:
            raise InvalidArgument("outer radius must exceed wall radius")
        half = False
        outer_of = lambda theta: router
    elif kind == "rect":
        rect = tuple(map(float, data))
        x0, x1, y0, y1 = rect
        inside_x = x0 < cx < x1
        on_right = abs(cx - x1) <= 1e-14 * max(1.0, abs(x1))
        if not (y0 < cy < y1) or not (inside_x or on_right):
            raise InvalidArgument(
                "cylinder center must be inside the rectangle or on its right edge"
            )
        half = on_right
        outer_of = lambda theta: _ray_exit_distance(cx, cy, theta, rect)
    else:
        raise InvalidArgument(f"unknown outer_spec kind {kind!r}")

    if half:
        thetas = np.pi / 2 + np.pi * np.arange(n_circum + 1) / n_circum
        ncols = n_circum + 1
    else:
        thetas = 2.0 * np.pi * np.arange(n_circum) / n_circum
        ncols = n_circum

    router_vals = np.array([outer_of(t) for t in thetas])
    if np.any(router_vals <= radius):
        raise InvalidArgument("outer boundary intersects the cylinder wall")

    # Radial levels: geometric spacing, finest layer at the wall.
    k = np.arange(n_radial + 1, dtype=float)
    if grading == 1.0:
        t_lvl = k / n_radial
    else:
        t_lvl = (grading**k - 1.0) / (grading**n_radial - 1.0)

    r = radius + t_lvl[:, None] * (router_vals - radius)
    points = np.stack([cx + r * np.cos(thetas), cy + r * np.sin(thetas)], axis=-1).reshape(-1, 2)
    if half:
        # The seam columns live exactly on x = x1.
        points[0::ncols, 0] = cx
        points[ncols - 1 :: ncols, 0] = cx

    # (level, column) grid of node ids over the quads' corners; a full
    # ring's last column wraps to column 0.
    nid = np.arange(n_radial + 1)[:, None] * ncols + np.arange(n_circum + 1) % ncols
    # CCW quad cycle: out along the ray, then around, then back in.
    tris = _split_quads(nid[:-1, :-1], nid[1:, :-1], nid[1:, 1:], nid[:-1, 1:])
    tagged = _chain(nid[0], "wall") + _chain(nid[-1], "farfield")
    if half:
        tagged += _chain(nid[:, 0], "exit") + _chain(nid[:, -1], "exit")
    return Mesh.from_arrays(points, tris, tagged)


def perturb_interior(mesh, amplitude, seed=0):
    """Jitter interior nodes to break structured-mesh symmetries.

    ``amplitude`` (finite, nonnegative) is relative to each node's local
    length scale sqrt(dual area).  Boundary nodes stay put.  Each try moves
    the nodes by :meth:`Mesh.with_points`; one that leaves a triangle with
    a fifth of its area or less (or degenerate, or so far that its areas
    overflow) is retried at half the amplitude.  The result shares
    ``mesh``'s triangles, boundary edges and tags; only the geometry is
    recomputed.  Used by rect meshes with ``mesh.perturb`` > 0 (the
    ``advection-rotating`` preset) and by tests that need an irregular
    triangulation.
    """
    amp = float(amplitude)
    if not 0.0 <= amp < math.inf:
        raise InvalidArgument(
            f"perturbation amplitude must be finite and nonnegative, got {amplitude}")
    rng = np.random.default_rng(seed)
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[mesh.boundary_nodes()] = False
    scale = np.sqrt(mesh.dual_areas)
    offset = rng.uniform(-1.0, 1.0, size=(mesh.n_nodes, 2))
    offset[~interior] = 0.0
    for _ in range(12):
        try:
            with np.errstate(over="raise", invalid="raise"):
                moved = mesh.with_points(mesh.points + amp * scale[:, None] * offset)
            # Keep a quality floor so no triangle collapses or flips.
            if np.all(moved.areas > 0.2 * mesh.areas):
                return moved
        except (DegenerateElement, FloatingPointError):
            pass
        amp *= 0.5
    raise DegenerateElement("could not jitter mesh without inverting a triangle")
