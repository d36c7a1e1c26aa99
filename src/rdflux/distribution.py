"""Per-triangle residual computation and distribution to nodes.

Two families of distribution schemes are provided:

* the narrow upwind scheme ("N"), scalar and systems forms, built on a
  conservative linearization through the parameter vector; and
* the relaxation-derived scheme ("RXN"), which needs only a wave-speed
  bound — no parameter-vector average, no eigensystem and no matrix
  inversion per element.

Every function is batched over a leading triangle axis: ``normals`` is
``(T, 3, 2)`` (inward scaled edge normals, as produced by module
``mesh``), ``q_nodes`` is ``(T, 3, m)`` nodal states.  Scalar laws use
``m = 1``.  Residual parts come back as ``(T, 3, m)`` and always sum to
the matching per-triangle total (see ``total_residual_linear`` /
``total_residual_rsd``) up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .smallmat import solve_batched

__all__ = [
    "DistributedResidual",
    "advection_upwind_k",
    "scalar_upwind_k",
    "total_residual_linear",
    "total_residual_rsd",
    "n_scheme_scalar",
    "n_scheme_system",
    "wave_speed_bound",
    "rxn_qstar",
    "rxn_scheme",
    "rxn_scheme_1d",
    "split_eigenvalues",
]


@dataclass(frozen=True)
class DistributedResidual:
    """Result of one distribution pass over a batch of triangles."""

    parts: np.ndarray  # (T, 3, m) per-node residual shares
    star: np.ndarray  # (T, m) upwind state
    s: np.ndarray | None = None  # (T,) wave-speed bound (RXN only)
    fallback: np.ndarray | None = None  # (T,) bool: star solve fell back

    @property
    def total(self):
        p = self.parts
        return p[:, 0] + p[:, 1] + p[:, 2]


def _as_batch(q_nodes):
    q_nodes = np.asarray(q_nodes, dtype=float)
    if q_nodes.ndim != 3:
        raise InvalidArgument("q_nodes must have shape (T, nodes, m)")
    return q_nodes


def split_eigenvalues(lam):
    """Exact positive and negative parts of eigenvalues: (lam +/- |lam|)/2."""
    lam = np.asarray(lam, dtype=float)
    mag = np.abs(lam)
    return 0.5 * (lam + mag), 0.5 * (lam - mag)


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------

def advection_upwind_k(law, tri_xy):
    """Upwind parameters k_i for an advection law from its streamfunction.

    ``tri_xy`` is (T, 3, 2) triangle vertex coordinates.  With psi the
    streamfunction, k_1 = (psi(x_2) - psi(x_3))/2 and cyclic.  The three
    values sum to zero exactly, which makes the assembled scalar upwind
    scheme conservative even for position-dependent velocity fields.
    For constant velocity this equals (u . n_i)/2.
    """
    psi = law.streamfunction(np.asarray(tri_xy, dtype=float))
    k = np.empty_like(psi)
    k[..., 0] = 0.5 * (psi[..., 1] - psi[..., 2])
    k[..., 1] = 0.5 * (psi[..., 2] - psi[..., 0])
    k[..., 2] = 0.5 * (psi[..., 0] - psi[..., 1])
    return k


def scalar_upwind_k(law, normals, q_nodes):
    """Upwind parameters k_i = (n_i . u)/2 of a scalar law, (T, 3).

    u is the law's linearized speed at the parameter-vector average:
    exact for constant advection, a secant-type mean for scalar
    quadratic fluxes.
    """
    qhat = law.rsd_average(q_nodes).qhat
    jx = law.flux_jacobian(qhat, np.array([1.0, 0.0]))
    jy = law.flux_jacobian(qhat, np.array([0.0, 1.0]))
    u = np.stack([jx[..., 0, 0], jy[..., 0, 0]], axis=-1)
    return 0.5 * (normals * u[..., None, :]).sum(axis=-1)


def _nodal_normal_flux(law, normals, q_nodes, velocity=None, flux=None):
    """n_i . f(Q_i) per node, shape (T, 3, m).

    ``velocity`` (T, 3, 2) overrides the law's flux for advection-type
    problems.  Otherwise ``flux`` passes the nodal flux pair
    ``law.flux(q_nodes)`` when the caller already has it.
    """
    if velocity is not None:
        un = (velocity * normals).sum(axis=-1)  # (T, 3)
        return un[..., None] * q_nodes
    fx, fy = law.flux(q_nodes) if flux is None else flux
    nf = normals[..., 0, None] * fx
    nf += normals[..., 1, None] * fy
    return nf


def total_residual_linear(law, normals, q_nodes):
    """Total residual of the interpolated flux, two-point edge rule.

    Equals the outward contour integral of the edgewise-linear
    interpolant of the nodal flux values: (1/2) sum_i n_i . f(Q_i) with
    inward normals n_i.  Zero on uniform states because the normals sum
    to zero.
    """
    q_nodes = _as_batch(q_nodes)
    nf = _nodal_normal_flux(law, np.asarray(normals, dtype=float), q_nodes)
    return 0.5 * nf.sum(axis=1)


def total_residual_rsd(law, normals, q_nodes):
    """Total residual of the conservative linearization.

    (1/2) sum_i (n_i . J(Zhat)) Qhat_i, with the flux Jacobians evaluated
    at the parameter-vector average.  Because the flux is at most
    quadratic in Z, this equals the exact contour integral of f(z^h) for
    the Z-linear interpolant.
    """
    q_nodes = _as_batch(q_nodes)
    normals = np.asarray(normals, dtype=float)
    avg = law.rsd_average(q_nodes)
    jx = law.flux_jacobian(avg.qhat, np.array([1.0, 0.0]))
    jy = law.flux_jacobian(avg.qhat, np.array([0.0, 1.0]))
    # (T,3,m) = n_i . J applied to Qhat_i
    jq_x = avg.qhat_nodes @ np.swapaxes(jx, -1, -2)
    jq_y = avg.qhat_nodes @ np.swapaxes(jy, -1, -2)
    nf = normals[..., 0, None] * jq_x + normals[..., 1, None] * jq_y
    return 0.5 * nf.sum(axis=1)


# ---------------------------------------------------------------------------
# narrow upwind scheme
# ---------------------------------------------------------------------------

def n_scheme_scalar(law, normals, q_nodes, *, k=None):
    """Scalar upwind scheme: Phi_i = [k_i]+ (Q_i - Q_star).

    The upwind parameters k_i = (u . n_i)/2 are the explicit ``k`` array
    (T, 3) (streamfunction form for variable velocity fields), or else
    ``scalar_upwind_k``.  Q_star is the inflow state fixed by requiring
    the parts to sum to sum_i k_i Q_i.  Zero flow yields zero parts.
    """
    q_nodes = _as_batch(q_nodes)
    normals = np.asarray(normals, dtype=float)
    q = q_nodes[..., 0]
    if k is None:
        k = scalar_upwind_k(law, normals, q_nodes)
    else:
        k = np.asarray(k, dtype=float)
    kp = np.maximum(k, 0.0)
    kn = np.minimum(k, 0.0)
    denom = kn.sum(axis=-1)
    dead = denom == 0.0  # no inflow direction: all k vanish (sum k = 0)
    safe = np.where(dead, 1.0, denom)
    qstar = (kn * q).sum(axis=-1) / safe
    qstar = np.where(dead, q.mean(axis=-1), qstar)
    parts = kp * (q - qstar[..., None])
    parts = np.where(dead[..., None], 0.0, parts)
    return DistributedResidual(parts[..., None], qstar[..., None])


def n_scheme_system(law, normals, q_nodes, *, safety=1.1, z_nodes=None):
    """Systems upwind scheme via characteristic decomposition.

    Phi_i = K_i^+ (Qhat_i - Q_star) with K_i^{+/-} the signed parts of
    (n_i . J)/2 at the parameter-vector average, and Q_star solving
    (sum K_j^-) Q_star = sum K_j^- Qhat_j.  The star matrix can be
    singular (e.g. near stagnation); the affected triangles are then
    distributed with the relaxation scheme instead (provably
    conservative, needs no solve), and the returned ``fallback`` mask
    marks them.

    ``z_nodes`` passes the nodal parameter vectors
    ``law.to_params(q_nodes)`` (T, 3, m) when the caller already has
    them, e.g. gathered from one evaluation per mesh node.
    """
    q_nodes = _as_batch(q_nodes)
    normals = np.asarray(normals, dtype=float)
    if law.m == 1:
        # delegate: for m = 1 the characteristic machinery reduces to the
        # scalar scheme with the linearized speed.
        return n_scheme_scalar(law, normals, q_nodes)
    avg = law.rsd_average(q_nodes, z_nodes=z_nodes)
    prim = None if avg.prim is None else tuple(a[:, None] for a in avg.prim)
    es = law.eigensystem(avg.qhat[:, None, :], normals, prim)  # batched over nodes
    lam_p, lam_m = split_eigenvalues(0.5 * es.lam)
    t, _, m = q_nodes.shape
    # K_j^- = R_j diag(lam_j^-) L_j.  With the node axis of R_j lam_j^-
    # moved next to its eigenvalue axis, one (m, 3m) @ (3m, m) product per
    # triangle sums the three nodes' matrices: the star matrix.
    rlam = np.multiply(
        np.swapaxes(es.right, 1, 2), lam_m[:, None], out=np.empty((t, m, 3, m))
    ).reshape(t, m, 3 * m)
    nmat = rlam @ es.left.reshape(t, 3 * m, m)
    # Only matrix-vector products from here on: the right-hand side
    # sum_j K_j^- Qhat_j, then Phi_i = R_i (lam_i^+ o (L_i (Qhat_i - Q_star))).
    qhat_nodes = avg.qhat_nodes
    lq = np.einsum("tnpj,tnj->tnp", es.left, qhat_nodes).reshape(t, 3 * m)
    qstar, bad = solve_batched(nmat, np.einsum("tik,tk->ti", rlam, lq))
    # Free the star system before the parts' temporaries are allocated: the
    # two would otherwise set the peak memory of an N iteration.
    del rlam, nmat, lq
    amp = np.einsum("tnpj,tnj->tnp", es.left, qhat_nodes - qstar[:, None, :])
    amp *= lam_p
    parts = np.einsum("tnip,tnp->tni", es.right, amp)
    if bad.any():
        idx = np.nonzero(bad)[0]
        rx = rxn_scheme(law, normals[idx], q_nodes[idx], safety=safety)
        parts[idx] = rx.parts
        qstar[idx] = rx.star
    return DistributedResidual(parts, qstar, fallback=bad)


# ---------------------------------------------------------------------------
# relaxation scheme
# ---------------------------------------------------------------------------

def wave_speed_bound(
    law, q_nodes, *, velocity=None, safety=1.1, speeds=None, mean_speed=None
):
    """Per-triangle wave-speed bound s_T.

    The sub-characteristic condition requires s_T at least the largest
    characteristic speed over the element; the bound is taken as
    ``safety`` times the max of the nodal speeds and the arithmetic-mean
    state's speed.  The margin stands in for speeds at intermediate
    states that are not directly computable.  ``velocity`` ((T, 3, 2)
    nodal values) replaces the law's speed for advection by a
    position-dependent field.  ``speeds`` passes the nodal speeds
    ``law.max_wavespeed(q_nodes)`` (T, 3) when the caller already has
    them, e.g. gathered from one evaluation per mesh node, and
    ``mean_speed`` the mean state's speed (T,) (both ignored with
    ``velocity``).
    """
    q_nodes = _as_batch(q_nodes)
    if velocity is not None:
        velocity = np.asarray(velocity, dtype=float)
        speeds = np.hypot(velocity[..., 0], velocity[..., 1])
        mean_v = velocity.mean(axis=1)
        mean_speed = np.hypot(mean_v[..., 0], mean_v[..., 1])
        return safety * np.maximum(speeds.max(axis=1), mean_speed)
    nodal = law.max_wavespeed(q_nodes) if speeds is None else speeds  # (T, 3)
    if mean_speed is None:
        mean_speed = law.max_wavespeed((q_nodes[:, 0] + q_nodes[:, 1] + q_nodes[:, 2]) / 3.0)
    return safety * np.maximum(nodal.max(axis=-1), mean_speed)


def _rxn_velocity(normals, velocity):
    """Per-node and star velocities for advection-field RXN: the triangle mean."""
    vbar = np.asarray(velocity, dtype=float).mean(axis=1)
    return np.broadcast_to(vbar[:, None, :], normals.shape), vbar


def rxn_qstar(law, normals, q_nodes, s):
    """Upwind state of the relaxation scheme (closed form).

    Q_star = sum_j (s ||n_j|| Q_j - n_j . f(Q_j)) / (s sum_i ||n_i||).
    Componentwise for systems.
    """
    q_nodes = _as_batch(q_nodes)
    normals = np.asarray(normals, dtype=float)
    s = np.broadcast_to(np.asarray(s, dtype=float), q_nodes.shape[:1])
    nf = _nodal_normal_flux(law, normals, q_nodes)
    nlen = np.hypot(normals[..., 0], normals[..., 1])
    num = (s[:, None, None] * nlen[..., None] * q_nodes - nf).sum(axis=1)
    return num / (s * nlen.sum(axis=1))[:, None]


def rxn_scheme(law, normals, q_nodes, *, s=None, velocity=None, safety=1.1, flux=None):
    """Relaxation distribution scheme (two space dimensions).

    Phi_i = (1/4)[ s ||n_i|| (Q_i - Q_star) + n_i . (f(Q_i) - f(Q_star)) ].

    The parts sum to the two-point-rule total residual because the
    normals sum to zero and Q_star absorbs the flux imbalance.  For
    Euler, f(Q_star) is evaluated only if Q_star is physical; otherwise
    NonPhysicalState is raised (no clamping).

    ``velocity`` ((T, 3, 2) nodal values) enables advection by a
    position-dependent field.  All fluxes are then evaluated at the
    per-triangle mean velocity, which keeps the scheme inside the
    positive-coefficient theory (discrete max principle under the strict
    time step).

    ``flux`` passes the nodal flux pair ``law.flux(q_nodes)`` when the
    caller already has it (ignored with ``velocity``).
    """
    q_nodes = _as_batch(q_nodes)
    normals = np.asarray(normals, dtype=float)
    if s is None:
        s = wave_speed_bound(law, q_nodes, velocity=velocity, safety=safety)
    else:
        s = np.broadcast_to(np.asarray(s, dtype=float), q_nodes.shape[:1]).copy()
    nlen = np.hypot(normals[..., 0], normals[..., 1])
    snlen = s[:, None, None] * nlen[..., None]  # (T, 3, 1)

    if velocity is not None:
        v_nodes, v_star = _rxn_velocity(normals, velocity)
        nf_nodes = _nodal_normal_flux(law, normals, q_nodes, v_nodes)
    else:
        nf_nodes = _nodal_normal_flux(law, normals, q_nodes, flux=flux)
    # One (T, 3, m) buffer: first s ||n_j|| Q_j - n_j . f(Q_j), then the parts.
    buf = snlen * q_nodes
    buf -= nf_nodes
    num = buf[:, 0] + buf[:, 1] + buf[:, 2]
    qstar = num / (s * (nlen[:, 0] + nlen[:, 1] + nlen[:, 2]))[:, None]
    if velocity is not None:
        un_star = (v_star[:, None, :] * normals).sum(axis=-1)  # (T,3)
        nf_star = un_star[..., None] * qstar[:, None, :]
    else:
        law.check_physical(qstar, "in relaxation star state", item="triangle")
        fsx, fsy = law.flux(qstar)
        nf_star = normals[..., 0, None] * fsx[:, None, :]
        nf_star += normals[..., 1, None] * fsy[:, None, :]
    parts = np.subtract(q_nodes, qstar[:, None, :], out=buf)
    parts *= snlen
    parts += nf_nodes
    parts -= nf_star
    parts *= 0.25
    return DistributedResidual(parts, qstar, s=s)


def rxn_scheme_1d(law, q_left, q_right, s):
    """One-dimensional specialization of the relaxation scheme.

    On a segment the element "normals" are the signed directions -1/+1
    and the star system is square, so the interface flux mu_star is
    determined rather than approximated:

        Q_star  = (Q_l + Q_r)/2 - (f(Q_r) - f(Q_l)) / (2 s)
        mu_star = (f(Q_l) + f(Q_r))/2 - s (Q_r - Q_l) / 2

    Phi_i = (1/2)[ s (Q_i - Q_star) + n_i (f(Q_i) - mu_star) ] then
    reproduces the classic local Lax-Friedrichs fluctuations exactly,
    for any flux and any admissible s.  Returns (minus, plus) parts for
    the left and right states, each (..., m).
    """
    q_left = np.asarray(q_left, dtype=float)
    q_right = np.asarray(q_right, dtype=float)
    s = np.asarray(s, dtype=float)[..., None]
    fl = _flux_1d(law, q_left)
    fr = _flux_1d(law, q_right)
    qstar = 0.5 * (q_left + q_right) - (fr - fl) / (2.0 * s)
    mustar = 0.5 * (fl + fr) - 0.5 * s * (q_right - q_left)
    minus = 0.5 * (s * (q_left - qstar) - (fl - mustar))
    plus = 0.5 * (s * (q_right - qstar) + (fr - mustar))
    return minus, plus


def _flux_1d(law, q):
    fx, _ = law.flux(q)
    return fx
