"""Conservation laws: scalar advection, 2D Burgers, and 2D Euler.

Every law exposes the same small surface: the flux pair (f, g)
(``flux``) and the normal flux n . f (``normal_flux``, from the pair
unless the law writes it in closed form, as Euler does from the
pressure), the directional Jacobian applied to vectors, (n.J) phi
(``jacobian_product``, the one linearization hook), a sub-characteristic
wave-speed bound (``max_wavespeed``), and the parameter-vector machinery
used by the conservative linearization (``rsd_average``).  A scalar law
writes only ``flux`` and its characteristic velocity f'(q) (``fprime``);
``ConservationLaw`` derives the normal flux, the bound |f'(q)| and the
product (n.f'(q)) phi from them.  The characteristic projection and
reconstruction read by the system limiter and correction
(``characteristic``, ``from_characteristic``) are Euler's alone: a
scalar law is limited and corrected on its residual directly.  Euler
writes the projection, the reconstruction, the entropy marker and the
product in closed form from its wave data (u, v, h, k, a^2, a)
(``Euler.waves``): the first three take that tuple in place of the
state, so a caller forms it once per state; the systems N scheme (module
``distribution``) applies its split Jacobians from the same data.
No law builds a Jacobian matrix, and a gas-dynamics march builds no
m x m matrix beyond the N scheme's star matrix: Euler's ``eigensystem``
is the reference the closed forms are tested against.  All methods
accept batched inputs (leading axes broadcast); states carry a trailing
axis of length m.
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
    states (dq/dz)(zhat) . Z_i (the law's ``transform_nodes``), and
    ``prim`` the law's primitive variables at ``qhat`` (None for laws
    without them).
    """

    zhat: np.ndarray  # (..., m)
    qhat: np.ndarray  # (..., m)
    qhat_nodes: np.ndarray  # (..., 3, m)
    prim: tuple | None = field(repr=False)


def _place(first, item, where, ids=None):
    """The words " at <item> <index> <where>" of an error message, for the
    index ``first`` (a tuple, empty for a single state, which has no
    index); ``ids`` (the mesh ids of 1-D states) replace positions."""
    at = ""
    if first:
        index = int(first[0]) if len(first) == 1 else tuple(int(i) for i in first)
        at = f" at {item} {index if ids is None else int(ids[index])}"
    return f"{at} {where}" if where else at


def _nonphysical(quantity, values, bad, item="state", where="", ids=None):
    """NonPhysicalState naming ``quantity``, its first ``bad`` entry and value."""
    first = np.unravel_index(np.argmax(bad), bad.shape)
    value = float(values[first])
    kind = "non-positive" if np.isfinite(value) else "non-finite"
    return NonPhysicalState(
        f"{kind} {quantity} {value:.6g}{_place(first, item, where, ids)} "
        f"({int(bad.sum())} of {bad.size} {item}s)"
    )


def _stack(entries, shape=(4,)):
    """The ``entries``, broadcast together, on a new trailing axis that is
    then reshaped to ``shape`` (row-major)."""
    out = np.stack(np.broadcast_arrays(*entries), axis=-1)
    return out.reshape(out.shape[:-1] + shape)


def _vectors_like(shape, *arrays):
    """An empty (shape, 4) array, laid out like the first of ``arrays`` of
    that rank, so that its component slices match their operands' layout."""
    for a in arrays:
        if np.ndim(a) == len(shape) + 1:
            return np.empty_like(a, shape=shape + (4,))
    return np.empty(shape + (4,))


class ConservationLaw:
    """Shared interface; subclasses fill in the analytic pieces."""

    m: int = 1
    name: str = "law"

    # -- flux and derivatives -------------------------------------------
    def flux(self, q):
        raise NotImplementedError

    def fprime(self, q):
        """Characteristic velocity f'(q) of a scalar law, (..., 1) -> (..., 2)."""
        raise NotImplementedError

    def normal_flux(self, q, n, pressure=None):
        """n . f(q) = n_x f + n_y g of (..., m) states for directions ``n``
        (..., 2), from the flux pair; laid out like ``q``.  ``pressure`` is
        Euler's (``Euler.normal_flux``): a law without one takes None."""
        fx, fy = self.flux(q)
        n = np.asarray(n, dtype=float)
        nf = n[..., 0, None] * fx
        nf += n[..., 1, None] * fy
        return nf

    def jacobian_product(self, phi, q, n):
        """(n . J(q)) phi of (..., m) vectors, any n; a scalar law's is (n . f'(q)) phi."""
        fp = self.fprime(q)
        n = np.asarray(n, dtype=float)
        un = n[..., 0] * fp[..., 0] + n[..., 1] * fp[..., 1]
        return un[..., None] * np.asarray(phi, dtype=float)

    def max_wavespeed(self, q):
        """Bound on ||(lam_x, lam_y)|| over the wave families; |f'(q)| for a scalar law."""
        fp = self.fprime(q)
        return np.hypot(fp[..., 0], fp[..., 1])

    # -- parameter vector -----------------------------------------------
    # Hooks of the Roe–Struijs–Deconinck linearization (``rsd_average``);
    # in a march only the systems N scheme reads them.  The identity
    # parameterization works for every scalar law; Euler overrides all
    # three hooks.
    def to_params(self, q):
        return np.asarray(q, dtype=float)

    def from_params(self, z):
        return np.asarray(z, dtype=float)

    def transform_nodes(self, zhat, z_nodes):
        """Transformed nodal states (dq/dz)(zhat) . Z_i, (..., 3, m).

        ``zhat`` (..., m) is the averaged parameter vector and ``z_nodes``
        (..., 3, m) the nodal ones.  The identity for scalar laws: it
        returns ``z_nodes`` itself.
        """
        return np.asarray(z_nodes, dtype=float)

    def rsd_average(self, z_nodes):
        """Average a (..., 3, m) batch of nodal parameter vectors
        ``z_nodes`` (``to_params`` of the nodal states).

        Qhat is the state at the mean Zhat of the nodal parameter vectors
        and the transformed nodal states Qhat_i come from
        ``transform_nodes``: no m x m matrix is built.
        """
        zhat = (z_nodes[..., 0, :] + z_nodes[..., 1, :] + z_nodes[..., 2, :]) / 3.0
        qhat = self.from_params(zhat)
        qhat_nodes = self.transform_nodes(zhat, z_nodes)
        prim = self.primitives(qhat) if hasattr(self, "primitives") else None
        return RsdAverage(zhat, qhat, qhat_nodes, prim)

    def check_physical(self, q, where="", item="node"):
        """Raise NonPhysicalState naming the first state of ``q`` (..., m)
        that holds a non-finite value: "non-finite state at node i".  A
        scalar law accepts every finite state; Euler adds its positivity
        rule.

        ``where`` and ``item`` (what one state of ``q`` is: a node, a
        triangle) go into the error message.  Returns the law's primitive
        variables of ``q`` where it has them (Euler), else None.
        """
        finite = np.isfinite(q)
        if not finite.all():
            bad = ~finite.all(axis=-1)
            first = np.unravel_index(np.argmax(bad), bad.shape)
            raise NonPhysicalState(f"non-finite state{_place(first, item, where)}")


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

    def fprime(self, q):
        q = np.asarray(q, dtype=float)
        return np.broadcast_to(self.velocity, q.shape[:-1] + (2,))


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

    fprime = flux  # raises alike: the velocity depends on position


class Burgers(ConservationLaw):
    """2D scalar Burgers flux f = (q^2/2, 0)."""

    m = 1
    name = "burgers"

    def flux(self, q):
        q = np.asarray(q, dtype=float)
        return 0.5 * q * q, np.zeros_like(q)

    def fprime(self, q):
        """f'(q) = (q, 0)."""
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape[:-1] + (2,))
        out[..., 0] = q[..., 0]
        return out


class Euler(ConservationLaw):
    """2D compressible Euler equations for a perfect gas."""

    m = 4
    name = "euler"

    def __init__(self, gamma=1.4):
        if gamma <= 1.0:
            raise InvalidArgument("gamma must exceed 1")
        self.gamma = float(gamma)

    # -- primitive access -------------------------------------------------
    def primitives(self, q, where="", item="state", ids=None):
        """(rho, u, v, p) from conserved variables.

        Raises NonPhysicalState on non-positive density or pressure, naming
        the first such state as ``check_physical`` does; ``ids`` (the mesh
        ids of 1-D states) name it in place of its position.
        """
        q = np.asarray(q, dtype=float)
        rho = q[..., 0]
        if np.any(rho <= 0.0):
            raise _nonphysical("density", rho, rho <= 0.0, item, where, ids)
        u = q[..., 1] / rho
        v = q[..., 2] / rho
        p = (self.gamma - 1.0) * (q[..., 3] - 0.5 * rho * (u * u + v * v))
        if np.any(p <= 0.0):
            raise _nonphysical("pressure", p, p <= 0.0, item, where, ids)
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

    def check_physical(self, q, where="", item="node"):
        """Finite states (``ConservationLaw.check_physical``), then the
        positive density and pressure of ``primitives``, which it returns."""
        super().check_physical(q, where, item)
        return self.primitives(q, where, item)

    # -- flux and derivatives ---------------------------------------------
    def flux(self, q, prim=None):
        """The flux pair (f, g) of the states ``q``; ``prim`` passes
        ``primitives(q)`` when the caller already has it."""
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

    def normal_flux(self, q, n, pressure=None):
        """n . f(q) in closed form from the states and their pressure.

        With the mass flux m_n = n . (rho u, rho v) and u_n = m_n / rho:
        [m_n, rho u u_n + n_x p, rho v u_n + n_y p, (E + p) u_n], one
        component at a time into an array laid out like ``q``, with no
        flux pair.  ``n`` (..., 2) need not be unit length.  ``pressure``
        passes the states' pressure (..., e.g. gathered from one
        evaluation per mesh node) when the caller already has it.
        """
        q = np.asarray(q, dtype=float)
        p = self.primitives(q)[3] if pressure is None else pressure
        n = np.asarray(n, dtype=float)
        nx, ny = n[..., 0], n[..., 1]
        q0, q1, q2, q3 = (q[..., j] for j in range(4))
        out = _vectors_like(np.broadcast_shapes(q0.shape, nx.shape), q, n)
        mass = np.multiply(nx, q1, out=out[..., 0])
        mass += ny * q2
        un = mass / q0
        mx = np.multiply(q1, un, out=out[..., 1])
        mx += nx * p
        my = np.multiply(q2, un, out=out[..., 2])
        my += ny * p
        np.multiply(q3 + p, un, out=out[..., 3])
        return out

    # Index of the entropy wave inside the repeated middle eigenvalue pair:
    # its right eigenvector is the one with a nonzero density component.
    ENTROPY_WAVE = 1

    def waves(self, q, prim=None):
        """(u, v, h, k, a^2, a) of the states ``q``: velocity, total
        enthalpy, kinetic energy per unit mass and sound speed.

        The closed-form hooks below take this tuple as ``waves``, in place
        of the state.  ``prim`` passes ``primitives(q)`` when the caller
        already has it.
        Raises NonPhysicalState on a non-positive a^2.
        """
        rho, u, v, p = self.primitives(q) if prim is None else prim
        h = (np.asarray(q, dtype=float)[..., 3] + p) / rho
        k = 0.5 * (u * u + v * v)
        a2 = (self.gamma - 1.0) * (h - k)
        if np.any(a2 <= 0.0):
            raise _nonphysical("squared sound speed", a2, a2 <= 0.0)
        return u, v, h, k, a2, np.sqrt(a2)

    def eigensystem(self, q, n, prim=None):
        """Eigensystem of n.J at the states ``q``.

        ``n`` need not be unit length; eigenvalues scale with it,
        eigenvectors use the normalized direction.  No march calls it: it
        is the reference for the closed forms of the limiter, the
        correction and the systems N scheme.
        """
        u, v, h, k, a2, a = self.waves(q, prim)
        n = np.asarray(n, dtype=float)
        nlen = np.hypot(n[..., 0], n[..., 1])
        if np.any(nlen <= 0.0):
            raise InvalidArgument("zero direction vector")
        nx = n[..., 0] / nlen
        ny = n[..., 1] / nlen
        un = u * nx + v * ny
        ut = -u * ny + v * nx
        lam = _stack([(un - a) * nlen, un * nlen, un * nlen, (un + a) * nlen])
        right = _stack([
            1.0, 1.0, 0.0, 1.0,
            u - a * nx, u, -ny, u + a * nx,
            v - a * ny, v, nx, v + a * ny,
            h - a * un, k, ut, h + a * un,
        ], (4, 4))
        b1 = (self.gamma - 1.0) / a2
        b2 = b1 * k
        left = _stack([
            0.5 * (b2 + un / a), -0.5 * (b1 * u + nx / a), -0.5 * (b1 * v + ny / a), 0.5 * b1,
            1.0 - b2, b1 * u, b1 * v, -b1,
            -ut, -ny, nx, 0.0,
            0.5 * (b2 - un / a), -0.5 * (b1 * u - nx / a), -0.5 * (b1 * v - ny / a), 0.5 * b1,
        ], (4, 4))
        return Eigensystem(lam, right, left)

    # -- closed-form characteristic algebra -----------------------------------
    # The limiter and the correction apply L, R and n.J to vectors only; the
    # methods below do so from the wave data ``waves`` (``waves(q)``)
    # without building them.  Shapes broadcast: ``phi`` (..., 4) against
    # the wave data's and the direction's leading axes.

    def _pressure_jump(self, phi, u, v, k):
        """dp = (gamma - 1)(k phi_0 - u phi_1 - v phi_2 + phi_3): the pressure
        change of a change ``phi`` of the conserved state, to first order."""
        dp = k * phi[..., 0]
        dp -= u * phi[..., 1]
        dp -= v * phi[..., 2]
        dp += phi[..., 3]
        dp *= self.gamma - 1.0
        return dp

    def characteristic(self, phi, waves, n):
        """Amplitudes L phi on the waves of n.J, for the unit direction ``n``.

        The fields are ordered as in ``eigensystem``: acoustic (u_n - a),
        entropy, shear, acoustic (u_n + a).  With the pressure jump
        dp = (gamma - 1)(k phi_0 - u phi_1 - v phi_2 + phi_3) and the normal
        momentum jump w = n . (phi_1, phi_2) - u_n phi_0 the amplitudes are
        (dp/a^2 - w/a)/2, phi_0 - dp/a^2, n x (phi_1, phi_2) - u_t phi_0 and
        (dp/a^2 + w/a)/2.  The entropy amplitude does not depend on ``n``.
        """
        u, v, _, k, a2, a = waves
        phi = np.asarray(phi, dtype=float)
        n = np.asarray(n, dtype=float)
        nx, ny = n[..., 0], n[..., 1]
        p0, p1, p2 = phi[..., 0], phi[..., 1], phi[..., 2]
        shape = np.broadcast_shapes(p0.shape, nx.shape, u.shape, a.shape)
        out = _vectors_like(shape, phi, n)
        dpa = self._pressure_jump(phi, u, v, k)
        dpa /= a2
        # Each sum is accumulated in its output slot; w/a waits in the last.
        wa = np.multiply(nx, p1, out=out[..., 3])
        wa += ny * p2
        wa -= (u * nx + v * ny) * p0
        wa /= a
        np.subtract(dpa, wa, out=out[..., 0])
        out[..., 0] *= 0.5
        np.subtract(p0, dpa, out=out[..., 1])
        shear = np.multiply(nx, p2, out=out[..., 2])
        shear -= ny * p1
        shear -= (v * nx - u * ny) * p0
        wa += dpa
        wa *= 0.5
        return out

    def entropy_amplitude(self, phi, waves):
        """The entropy amplitude phi_0 - dp/a^2 of ``characteristic`` alone,
        by the same operations (the same bits), without the other three
        fields.  It does not depend on the direction."""
        u, v, _, k, a2, _ = waves
        phi = np.asarray(phi, dtype=float)
        dpa = self._pressure_jump(phi, u, v, k)
        dpa /= a2
        return np.subtract(phi[..., 0], dpa, out=dpa)

    def from_characteristic(self, c, waves, n, out=None):
        """Vectors R c from the amplitudes ``c`` of ``characteristic``.

        With S = c_0 + c_3 and D = c_3 - c_0: [S + c_1,
        u (S + c_1) + a n_x D - n_y c_2, v (S + c_1) + a n_y D + n_x c_2,
        h S + a u_n D + k c_1 + u_t c_2].  ``out`` receives the result
        and may be ``c`` itself: each component of ``c`` is read before
        its slot is written.
        """
        u, v, h, k, _, a = waves
        c = np.asarray(c, dtype=float)
        n = np.asarray(n, dtype=float)
        nx, ny = n[..., 0], n[..., 1]
        c0, c1, c2, c3 = (c[..., j] for j in range(4))
        s = c0 + c3
        ad = a * (c3 - c0)
        if out is None:
            out = _vectors_like(np.broadcast_shapes(s.shape, ad.shape, nx.shape), c, n)
        # Each sum is accumulated in its output slot, in the order that
        # reads every component of ``c`` before its slot is written.
        e = np.multiply(h, s, out=out[..., 3])
        e += (u * nx + v * ny) * ad
        e += k * c1
        e += (v * nx - u * ny) * c2
        mass = np.add(s, c1, out=out[..., 0])
        del s
        mx = np.multiply(u, mass, out=out[..., 1])
        mx += nx * ad
        mx += -ny * c2
        shear = nx * c2
        my = np.multiply(v, mass, out=out[..., 2])
        my += ny * ad
        my += shear
        return out

    def jacobian_product(self, phi, q, n, waves=None, add_to=None):
        """(n . J) phi for any direction ``n``, unit or not.

        With dp and w as in ``characteristic`` and dm = n . (phi_1, phi_2):
        [dm, u w + u_n phi_1 + n_x dp, v w + u_n phi_2 + n_y dp,
        h w + u_n (phi_3 + dp)].  ``waves`` passes the wave data of ``q``
        in place of the states, which are then not read (the system
        correction passes its mean states' this way).  ``add_to`` passes
        an array of the product's shape: the product is added into it in
        place, one component at a time, and it is returned, so that no
        array of that size is allocated; without it the product is a new
        array.
        """
        u, v, h, k, _, _ = self.waves(q) if waves is None else waves
        phi = np.asarray(phi, dtype=float)
        n = np.asarray(n, dtype=float)
        nx, ny = n[..., 0], n[..., 1]
        p0, p1, p2, p3 = (phi[..., j] for j in range(4))
        dp = self._pressure_jump(phi, u, v, k)
        un = u * nx + v * ny
        out = add_to
        if out is None:  # the product alone: added into zeros
            out = _vectors_like(np.broadcast_shapes(dp.shape, un.shape), n, phi)
            out.fill(0.0)

        def emit(j, value):
            slot = out[..., j]
            slot += value

        # Each component is formed in one temporary, then added into its slot.
        dm = nx * p1
        dm += ny * p2
        emit(0, dm)
        w = dm - un * p0
        del dm
        for j, (vel, nj, pj) in enumerate(((u, nx, p1), (v, ny, p2)), start=1):
            mom = vel * w
            mom += un * pj
            mom += nj * dp
            emit(j, mom)
            del mom
        e = h * w
        e += un * (p3 + dp)
        emit(3, e)
        return out

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

    def transform_nodes(self, zhat, z_nodes):
        """(dq/dz)(zhat) . Z_i, written out: with zhat = (z0, z1, z2, z3),
        [2 z0 w0, z1 w0 + z0 w1, z2 w0 + z0 w2,
        (z3 w0 + (gamma - 1)(z1 w1 + z2 w2) + z0 w3) / gamma] for each
        nodal Z_i = w.  The result is laid out like ``z_nodes``; each
        component is accumulated in place, with one temporary at a time."""
        w = np.asarray(z_nodes, dtype=float)
        z0, z1, z2, z3 = (np.asarray(zhat, dtype=float)[..., None, j] for j in range(4))
        w0, w1, w2, w3 = (w[..., j] for j in range(4))
        out = np.empty_like(w)
        np.multiply(2.0 * z0, w0, out=out[..., 0])
        mx = np.multiply(z1, w0, out=out[..., 1])
        mx += z0 * w1
        my = np.multiply(z2, w0, out=out[..., 2])
        my += z0 * w2
        e = np.multiply(z1, w1, out=out[..., 3])
        e += z2 * w2
        e *= self.gamma - 1.0
        e += z3 * w0
        e += z0 * w3
        e /= self.gamma
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
