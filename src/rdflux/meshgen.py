"""Structured mesh generators for the bundled test problems."""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateElement, InvalidArgument
from .mesh import Mesh, triangle_areas

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

    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a = nid(i, j)
            b = nid(i + 1, j)
            c = nid(i + 1, j + 1)
            d = nid(i, j + 1)
            if (i + j) % 2 == 0:
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((a, b, d))
                tris.append((b, c, d))

    tagged = []
    for i in range(nx):
        tagged.append((nid(i, 0), nid(i + 1, 0), "bottom"))
        tagged.append((nid(i, ny), nid(i + 1, ny), "top"))
    for j in range(ny):
        tagged.append((nid(0, j), nid(0, j + 1), "left"))
        tagged.append((nid(nx, j), nid(nx, j + 1), "right"))

    return Mesh.from_arrays(points, np.array(tris), tagged)


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
    """
    cx, cy = map(float, center)
    radius = float(radius)
    if radius <= 0.0:
        raise InvalidArgument("cylinder radius must be positive")
    if n_radial < 1 or n_circum < 3:
        raise InvalidArgument("need n_radial >= 1 and n_circum >= 3")
    if not (1.0 <= grading <= 1.2):
        raise InvalidArgument("grading ratio must lie in [1.0, 1.2]")

    kind, data = outer_spec
    if kind == "radius":
        router = float(data)
        if router <= radius:
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
        wrap = False
    else:
        thetas = 2.0 * np.pi * np.arange(n_circum) / n_circum
        ncols = n_circum
        wrap = True

    router_vals = np.array([outer_of(t) for t in thetas])
    if np.any(router_vals <= radius):
        raise InvalidArgument("outer boundary intersects the cylinder wall")

    # Radial levels: geometric spacing, finest layer at the wall.
    k = np.arange(n_radial + 1, dtype=float)
    if grading == 1.0:
        t_lvl = k / n_radial
    else:
        t_lvl = (grading**k - 1.0) / (grading**n_radial - 1.0)

    points = np.empty(((n_radial + 1) * ncols, 2))
    for lvl in range(n_radial + 1):
        r = radius + t_lvl[lvl] * (router_vals - radius)
        points[lvl * ncols : (lvl + 1) * ncols, 0] = cx + r * np.cos(thetas)
        points[lvl * ncols : (lvl + 1) * ncols, 1] = cy + r * np.sin(thetas)
    if half:
        # The seam columns live exactly on x = x1.
        points[0::ncols, 0] = cx
        points[ncols - 1 :: ncols, 0] = cx

    def nid(lvl, j):
        return lvl * ncols + (j % ncols if wrap else j)

    tris = []
    ncells = n_circum
    for lvl in range(n_radial):
        for j in range(ncells):
            # CCW quad cycle: out along the ray, then around, then back in.
            a = nid(lvl, j)
            b = nid(lvl + 1, j)
            c = nid(lvl + 1, j + 1)
            d = nid(lvl, j + 1)
            if (lvl + j) % 2 == 0:
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((a, b, d))
                tris.append((b, c, d))

    tagged = []
    for j in range(ncells):
        tagged.append((nid(0, j), nid(0, j + 1), "wall"))
        tagged.append((nid(n_radial, j), nid(n_radial, j + 1), "farfield"))
    if half:
        for lvl in range(n_radial):
            tagged.append((nid(lvl, 0), nid(lvl + 1, 0), "exit"))
            tagged.append((nid(lvl, n_circum), nid(lvl + 1, n_circum), "exit"))

    return Mesh.from_arrays(points, np.array(tris), tagged)


def perturb_interior(mesh, amplitude, seed=0):
    """Jitter interior nodes to break structured-mesh symmetries.

    ``amplitude`` (nonnegative) is relative to each node's local length
    scale sqrt(dual area).  Boundary nodes stay put.  Retries with halved
    amplitude if the jitter inverts a triangle, so the result is always a
    valid mesh.  Intended for tests that need an irregular triangulation.
    """
    if amplitude < 0.0:
        raise InvalidArgument(f"perturbation amplitude must be nonnegative, got {amplitude}")
    rng = np.random.default_rng(seed)
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[mesh.boundary_nodes()] = False
    scale = np.sqrt(mesh.dual_areas)
    offset = rng.uniform(-1.0, 1.0, size=(mesh.n_nodes, 2))
    offset[~interior] = 0.0
    amp = float(amplitude)
    for _ in range(12):
        moved = mesh.points + amp * scale[:, None] * offset
        areas = triangle_areas(moved[mesh.tris])
        # Keep a quality floor so no triangle collapses or flips.
        if np.all(areas > 0.2 * mesh.areas):
            return mesh.with_points(moved)
        amp *= 0.5
    raise DegenerateElement("could not jitter mesh without inverting a triangle")
