"""Conservation laws: scalar advection, 2D Burgers, and 2D Euler.

Every law exposes the same small surface: flux pair (f, g), directional
Jacobian n.J, directional eigensystem, a sub-characteristic wave-speed
bound, and the parameter-vector machinery used by the conservative
linearization of the systems upwind scheme.  All methods accept batched
inputs (leading axes broadcast); states carry a trailing axis of length m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, NonPhysicalState

__all__ = [
    "ConservationLaw",
    "Advection",
    "RotatingAdvection",
    "Burgers",
    "Euler",
    "Eigensystem",
    "RsdAverage",
]


@dataclass(frozen=True)
class Eigensystem:
    """Eigendecomposition of a directional Jacobian n.J = R diag(lam) L."""

    lam: np.ndarray  # (..., m) ascending
    right: np.ndarray  # (..., m, m) columns are right eigenvectors
    left: np.ndarray  # (..., m, m) rows are left eigenvectors


@dataclass(frozen=True)
class RsdAverage:
    """Roe–Struijs–Deconinck linearization of a triangle (or a batch).

    Only the systems N scheme and ``total_residual_rsd`` use it.
    ``zhat`` is the mean of the nodal parameter vectors, ``qhat`` the
    conserved state at ``zhat``, ``qhat_nodes`` the transformed nodal
    states (dq/dz)(zhat) . Z_i, and ``prim`` the law's primitive
    variables at ``qhat`` (None for laws without them).
    """

    zhat: np.ndarray  # (..., m)
    qhat: np.ndarray  # (..., m)
    qhat_nodes: np.ndarray  # (..., 3, m)
    prim: tuple | None = field(repr=False)


class ConservationLaw:
    """Shared interface; subclasses fill in the analytic pieces."""

    m: int = 1
    name: str = "law"

    # -- flux and derivatives -------------------------------------------
    # Euler's flux functions also take a ``prim`` argument: the law's
    # primitive variables of ``q`` when the caller already has them.
    def flux(self, q):
        raise NotImplementedError

    def flux_jacobian(self, q, n):
        """Directional Jacobian n.J as (..., m, m)."""
        raise NotImplementedError

    def eigensystem(self, q, n):
        raise NotImplementedError

    def max_wavespeed(self, q):
        """Upper bound on ||(lam_x, lam_y)|| over the wave families."""
        raise NotImplementedError

    # -- parameter vector -----------------------------------------------
    # Hooks of the Roe–Struijs–Deconinck linearization (``rsd_average``);
    # in a march only the systems N scheme reads them.  The identity
    # parameterization works for every scalar law; Euler overrides all
    # four hooks.
    def to_params(self, q):
        return np.asarray(q, dtype=float)

    def from_params(self, z):
        return np.asarray(z, dtype=float)

    def dqdz(self, z):
        z = np.asarray(z, dtype=float)
        eye = np.eye(self.m)
        return np.broadcast_to(eye, z.shape[:-1] + (self.m, self.m)).copy()

    def rsd_average(self, q_nodes=None, *, z_nodes=None):
        """Average a (..., 3, m) nodal batch per the parameter-vector rule.

        ``z_nodes`` passes the nodal parameter vectors
        ``to_params(q_nodes)`` when the caller already has them; the
        states themselves are then not needed.
        """
        if z_nodes is None:
            if q_nodes is None:
                raise InvalidArgument("rsd_average needs q_nodes or z_nodes")
            z_nodes = self.to_params(np.asarray(q_nodes, dtype=float))
        zhat = (z_nodes[..., 0, :] + z_nodes[..., 1, :] + z_nodes[..., 2, :]) / 3.0
        qhat = self.from_params(zhat)
        qhat_nodes = z_nodes @ np.swapaxes(self.dqdz(zhat), -1, -2)
        prim = self.primitives(qhat) if hasattr(self, "primitives") else None
        return RsdAverage(zhat, qhat, qhat_nodes, prim)

    def check_physical(self, q, where=""):
        """Hook for positivity checks; scalar laws accept everything."""


class Advection(ConservationLaw):
    """Linear advection with a constant velocity."""

    m = 1
    name = "advection"

    def __init__(self, velocity=(1.0, 0.0)):
        self.velocity = np.array(velocity, dtype=float)
        if self.velocity.shape != (2,):
            raise InvalidArgument("advection velocity must be a 2-vector")

    def velocity_at(self, xy):
        xy = np.asarray(xy, dtype=float)
        return np.broadcast_to(self.velocity, xy.shape).copy()

    def streamfunction(self, xy):
        # u = (psi_y, -psi_x) recovers the constant field.
        xy = np.asarray(xy, dtype=float)
        ux, uy = self.velocity
        return ux * xy[..., 1] - uy * xy[..., 0]

    def flux(self, q):
        q = np.asarray(q, dtype=float)
        return self.velocity[0] * q, self.velocity[1] * q

    def flux_jacobian(self, q, n):
        q = np.asarray(q, dtype=float)
        n = np.asarray(n, dtype=float)
        un = n[..., 0] * self.velocity[0] + n[..., 1] * self.velocity[1]
        shape = np.broadcast_shapes(q.shape[:-1], un.shape)
        return np.broadcast_to(un, shape).reshape(shape + (1, 1)).copy()

    def eigensystem(self, q, n):
        jac = self.flux_jacobian(q, n)
        lam = jac[..., 0]
        ones = np.ones_like(jac)
        return Eigensystem(lam, ones, ones.copy())

    def max_wavespeed(self, q):
        q = np.asarray(q, dtype=float)
        s = math.hypot(self.velocity[0], self.velocity[1])
        return np.full(q.shape[:-1], s)


class RotatingAdvection(ConservationLaw):
    """Advection by a divergence-free position-dependent velocity field.

    The field is given by a streamfunction psi with u = (psi_y, -psi_x).
    Per-triangle upwind parameters use nodal psi differences, which makes
    the assembled scheme conservative even though the analytic equation is
    in advective form.  Default field: solid-body rotation about the
    origin, psi = -omega (x^2 + y^2) / 2.
    """

    m = 1
    name = "rotating-advection"

    def __init__(self, omega=math.pi):
        self.omega = float(omega)

    def velocity_at(self, xy):
        xy = np.asarray(xy, dtype=float)
        out = np.empty_like(xy)
        out[..., 0] = -self.omega * xy[..., 1]
        out[..., 1] = self.omega * xy[..., 0]
        return out

    def streamfunction(self, xy):
        xy = np.asarray(xy, dtype=float)
        return -0.5 * self.omega * (xy[..., 0] ** 2 + xy[..., 1] ** 2)

    def flux(self, q):
        raise InvalidArgument(
            "position-dependent advection has no position-free flux; "
            "use velocity_at/streamfunction"
        )

    def flux_jacobian(self, q, n):
        raise InvalidArgument("position-dependent advection Jacobian needs xy")

    def max_wavespeed(self, q):
        raise InvalidArgument("use velocity_at(xy) for position-dependent advection")


class Burgers(ConservationLaw):
    """2D scalar Burgers flux f = (q^2/2, 0)."""

    m = 1
    name = "burgers"

    def flux(self, q):
        q = np.asarray(q, dtype=float)
        return 0.5 * q * q, np.zeros_like(q)

    def fprime(self, q):
        """Flux derivative vector (q, 0) as (..., 2)."""
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape + (2,))
        out[..., 0] = q
        return out

    def flux_jacobian(self, q, n):
        q = np.asarray(q, dtype=float)
        n = np.asarray(n, dtype=float)
        un = q[..., 0] * n[..., 0]
        return un.reshape(un.shape + (1, 1)).copy()

    def eigensystem(self, q, n):
        jac = self.flux_jacobian(q, n)
        lam = jac[..., 0]
        ones = np.ones_like(jac)
        return Eigensystem(lam, ones, ones.copy())

    def max_wavespeed(self, q):
        q = np.asarray(q, dtype=float)
        return np.abs(q[..., 0]) if q.shape and q.shape[-1] == 1 else np.abs(q)


class Euler(ConservationLaw):
    """2D compressible Euler equations for a perfect gas."""

    m = 4
    name = "euler"

    def __init__(self, gamma=1.4):
        if gamma <= 1.0:
            raise InvalidArgument("gamma must exceed 1")
        self.gamma = float(gamma)

    # -- primitive access -------------------------------------------------
    def primitives(self, q):
        """(rho, u, v, p) from conserved variables.

        Raises NonPhysicalState on non-positive density or pressure.
        """
        q = np.asarray(q, dtype=float)
        rho = q[..., 0]
        if np.any(rho <= 0.0):
            raise NonPhysicalState("non-positive density")
        u = q[..., 1] / rho
        v = q[..., 2] / rho
        p = (self.gamma - 1.0) * (q[..., 3] - 0.5 * rho * (u * u + v * v))
        if np.any(p <= 0.0):
            raise NonPhysicalState("non-positive pressure")
        return rho, u, v, p

    def conserved(self, rho, u, v, p):
        rho, u, v, p = np.broadcast_arrays(
            *(np.asarray(a, dtype=float) for a in (rho, u, v, p))
        )
        q = np.empty(rho.shape + (4,))
        q[..., 0] = rho
        q[..., 1] = rho * u
        q[..., 2] = rho * v
        q[..., 3] = p / (self.gamma - 1.0) + 0.5 * rho * (u * u + v * v)
        return q

    def check_physical(self, q, where=""):
        q = np.asarray(q, dtype=float)
        rho = q[..., 0]
        p = (self.gamma - 1.0) * (
            q[..., 3] - 0.5 * (q[..., 1] ** 2 + q[..., 2] ** 2) / np.where(rho > 0, rho, 1.0)
        )
        bad = (rho <= 0.0) | (p <= 0.0) | ~np.isfinite(rho) | ~np.isfinite(p)
        if np.any(bad):
            idx = np.argwhere(bad)
            head = idx[0].tolist()
            raise NonPhysicalState(
                f"non-physical state{' ' + where if where else ''} at index {head} "
                f"({int(bad.sum())} total)"
            )

    # -- flux and derivatives ---------------------------------------------
    def flux(self, q, prim=None):
        rho, u, v, p = self.primitives(q) if prim is None else prim
        q = np.asarray(q, dtype=float)
        e = q[..., 3]
        f = np.empty_like(q)
        g = np.empty_like(q)
        f[..., 0] = rho * u
        f[..., 1] = rho * u * u + p
        f[..., 2] = rho * u * v
        f[..., 3] = u * (e + p)
        g[..., 0] = rho * v
        g[..., 1] = rho * u * v
        g[..., 2] = rho * v * v + p
        g[..., 3] = v * (e + p)
        return f, g

    def flux_jacobian(self, q, n, prim=None):
        rho, u, v, p = self.primitives(q) if prim is None else prim
        n = np.asarray(n, dtype=float)
        g1 = self.gamma - 1.0
        k = 0.5 * (u * u + v * v)
        h = (np.asarray(q, dtype=float)[..., 3] + p) / rho
        nx, ny = n[..., 0], n[..., 1]
        un = u * nx + v * ny
        shape = np.broadcast_shapes(u.shape, nx.shape)
        jac = np.zeros(shape + (4, 4))
        u, v, k, h, un, nx, ny = np.broadcast_arrays(u, v, k, h, un, nx, ny)
        jac[..., 0, 1] = nx
        jac[..., 0, 2] = ny
        jac[..., 1, 0] = g1 * k * nx - u * un
        jac[..., 1, 1] = un + (2.0 - self.gamma) * u * nx
        jac[..., 1, 2] = u * ny - g1 * v * nx
        jac[..., 1, 3] = g1 * nx
        jac[..., 2, 0] = g1 * k * ny - v * un
        jac[..., 2, 1] = v * nx - g1 * u * ny
        jac[..., 2, 2] = un + (2.0 - self.gamma) * v * ny
        jac[..., 2, 3] = g1 * ny
        jac[..., 3, 0] = (g1 * k - h) * un
        jac[..., 3, 1] = h * nx - g1 * u * un
        jac[..., 3, 2] = h * ny - g1 * v * un
        jac[..., 3, 3] = self.gamma * un
        return jac

    # Index of the entropy wave inside the repeated middle eigenvalue pair:
    # its right eigenvector is the one with a nonzero density component.
    ENTROPY_WAVE = 1

    def eigensystem(self, q, n, prim=None):
        """Eigensystem of n.J at the states ``q``.

        ``n`` need not be unit length; eigenvalues scale with it,
        eigenvectors use the normalized direction.
        """
        rho, u, v, p = self.primitives(q) if prim is None else prim
        h = (np.asarray(q, dtype=float)[..., 3] + p) / rho
        n = np.asarray(n, dtype=float)
        g1 = self.gamma - 1.0
        k = 0.5 * (u * u + v * v)
        a2 = g1 * (h - k)
        if np.any(a2 <= 0.0):
            raise NonPhysicalState("non-positive squared sound speed")
        a = np.sqrt(a2)
        nlen = np.hypot(n[..., 0], n[..., 1])
        if np.any(nlen <= 0.0):
            raise InvalidArgument("zero direction vector")
        nx = n[..., 0] / nlen
        ny = n[..., 1] / nlen
        shape = np.broadcast_shapes(u.shape, nx.shape)
        u, v, h, k, a, a2, nx, ny, nlen = np.broadcast_arrays(
            u, v, h, k, a, a2, nx, ny, nlen
        )
        un = u * nx + v * ny
        ut = -u * ny + v * nx

        # Each entry is computed straight into its slot of the C-ordered
        # outputs (``out=``), without a full-size temporary and a second
        # strided pass per entry.  A component-major work buffer copied
        # into the outputs measured slower: it is fresh memory, page
        # faulted on every call.
        lam = np.empty(shape + (4,))
        np.multiply(un - a, nlen, out=lam[..., 0])
        np.multiply(un, nlen, out=lam[..., 1])
        lam[..., 2] = lam[..., 1]
        np.multiply(un + a, nlen, out=lam[..., 3])

        right = np.empty(shape + (4, 4))
        right[..., 0, 0] = 1.0
        np.subtract(u, a * nx, out=right[..., 1, 0])
        np.subtract(v, a * ny, out=right[..., 2, 0])
        np.subtract(h, a * un, out=right[..., 3, 0])
        right[..., 0, 1] = 1.0
        right[..., 1, 1] = u
        right[..., 2, 1] = v
        right[..., 3, 1] = k
        right[..., 0, 2] = 0.0
        np.negative(ny, out=right[..., 1, 2])
        right[..., 2, 2] = nx
        right[..., 3, 2] = ut
        right[..., 0, 3] = 1.0
        np.add(u, a * nx, out=right[..., 1, 3])
        np.add(v, a * ny, out=right[..., 2, 3])
        np.add(h, a * un, out=right[..., 3, 3])

        b1 = g1 / a2
        b2 = b1 * k
        left = np.empty(shape + (4, 4))
        np.multiply(0.5, b2 + un / a, out=left[..., 0, 0])
        np.multiply(-0.5, b1 * u + nx / a, out=left[..., 0, 1])
        np.multiply(-0.5, b1 * v + ny / a, out=left[..., 0, 2])
        np.multiply(0.5, b1, out=left[..., 0, 3])
        np.subtract(1.0, b2, out=left[..., 1, 0])
        np.multiply(b1, u, out=left[..., 1, 1])
        np.multiply(b1, v, out=left[..., 1, 2])
        np.negative(b1, out=left[..., 1, 3])
        np.negative(ut, out=left[..., 2, 0])
        np.negative(ny, out=left[..., 2, 1])
        left[..., 2, 2] = nx
        left[..., 2, 3] = 0.0
        np.multiply(0.5, b2 - un / a, out=left[..., 3, 0])
        np.multiply(-0.5, b1 * u - nx / a, out=left[..., 3, 1])
        np.multiply(-0.5, b1 * v - ny / a, out=left[..., 3, 2])
        np.multiply(0.5, b1, out=left[..., 3, 3])
        return Eigensystem(lam, right, left)

    def max_wavespeed(self, q, prim=None):
        rho, u, v, p = self.primitives(q) if prim is None else prim
        a = np.sqrt(self.gamma * p / rho)
        # Componentwise pairing (u + sigma a, v + sigma a) over the three
        # wave families sigma in {-1, 0, +1}.  The squared norm is quadratic
        # in sigma with positive curvature 2 a^2, so the maximum sits at the
        # endpoint sigma = sign(u + v); a single hypot evaluates it.
        sig = np.where(u + v >= 0.0, 1.0, -1.0)
        return np.hypot(u + sig * a, v + sig * a)

    # -- parameter vector ---------------------------------------------------
    def to_params(self, q, prim=None):
        rho, u, v, p = self.primitives(q) if prim is None else prim
        srho = np.sqrt(rho)
        h = (np.asarray(q, dtype=float)[..., 3] + p) / rho
        z = np.empty(np.asarray(q).shape, dtype=float)
        z[..., 0] = srho
        z[..., 1] = srho * u
        z[..., 2] = srho * v
        z[..., 3] = srho * h
        return z

    def from_params(self, z):
        z = np.asarray(z, dtype=float)
        if np.any(z[..., 0] <= 0.0):
            raise NonPhysicalState("non-positive sqrt-density in parameter vector")
        g = self.gamma
        q = np.empty_like(z)
        q[..., 0] = z[..., 0] ** 2
        q[..., 1] = z[..., 0] * z[..., 1]
        q[..., 2] = z[..., 0] * z[..., 2]
        q[..., 3] = z[..., 0] * z[..., 3] / g + 0.5 * (g - 1.0) / g * (
            z[..., 1] ** 2 + z[..., 2] ** 2
        )
        return q

    def dqdz(self, z):
        z = np.asarray(z, dtype=float)
        g = self.gamma
        out = np.zeros(z.shape[:-1] + (4, 4))
        out[..., 0, 0] = 2.0 * z[..., 0]
        out[..., 1, 0] = z[..., 1]
        out[..., 1, 1] = z[..., 0]
        out[..., 2, 0] = z[..., 2]
        out[..., 2, 2] = z[..., 0]
        out[..., 3, 0] = z[..., 3] / g
        out[..., 3, 1] = (g - 1.0) / g * z[..., 1]
        out[..., 3, 2] = (g - 1.0) / g * z[..., 2]
        out[..., 3, 3] = z[..., 0] / g
        return out

    # -- reference state -----------------------------------------------------
    def freestream(self, mach, aoa_deg=0.0):
        """Reference state: rho = 1, p = gamma^-gamma (so entropy deviation 0)."""
        p = self.gamma**-self.gamma
        a = math.sqrt(self.gamma * p)
        speed = mach * a
        alpha = math.radians(aoa_deg)
        return self.conserved(
            1.0, speed * math.cos(alpha), speed * math.sin(alpha), p
        )
