"""Per-triangle residual computation and distribution to nodes.

Two families of distribution schemes are provided:

* the narrow upwind scheme ("N"), scalar and systems forms, built on a
  conservative linearization through the parameter vector.  Per element
  the systems form needs that average and the inversion of one m x m
  star matrix, the only matrix it builds: its split Jacobians K^+/- are
  applied in closed form, as rank-2 corrections of a scaled identity
  (``n_scheme_system``), with no eigensystem; and
* the relaxation-derived scheme ("RXN"), which needs only a wave-speed
  bound — no parameter-vector average, no eigensystem and no matrix
  inversion per element.  On an advection field it is a fixed positive
  linear map per triangle (``advection_coefficients``).

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
    "WAVE_SPEED_SAFETY",
    "advection_upwind_k",
    "scalar_upwind_k",
    "total_residual_linear",
    "total_residual_rsd",
    "n_scheme_scalar",
    "n_scheme_system",
    "wave_speed_bound",
    "advection_coefficients",
    "rxn_scheme",
    "rxn_scheme_1d",
]


# Margin of the wave-speed bound over the largest sampled speed.
WAVE_SPEED_SAFETY = 1.1


@dataclass(frozen=True)
class DistributedResidual:
    """Result of one distribution pass over a batch of triangles."""

    parts: np.ndarray  # (T, 3, m) per-node residual shares
    star: np.ndarray  # (T, m) upwind state
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
    """Upwind parameters k_i = (n_i . f'(Qbar))/2 of a scalar law, (T, 3).

    f' is the law's characteristic velocity (``fprime``) at the nodal
    mean Qbar: exact for constant advection, a secant-type mean for
    scalar quadratic fluxes.
    """
    u = law.fprime(_node_sum(_as_batch(q_nodes)) / 3.0)  # (T, 2)
    return 0.5 * (normals * u[..., None, :]).sum(axis=-1)


def _nodal_normal_flux(law, normals, q_nodes, flux=None):
    """n_i . f(Q_i) per node, (T, 3, m); ``flux`` passes the nodal flux
    pair ``law.flux(q_nodes)`` when the caller already has it."""
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

    (1/2) sum_i (n_i . J(Qhat)) Qhat_i at the parameter-vector average,
    through the law's ``jacobian_product``.  Because the flux is at most
    quadratic in Z, this equals the exact contour integral of f(z^h) for
    the Z-linear interpolant.
    """
    q_nodes = _as_batch(q_nodes)
    avg = law.rsd_average(q_nodes)
    nj = law.jacobian_product(avg.qhat_nodes, avg.qhat[:, None, :], normals)
    return 0.5 * nj.sum(axis=1)


# ---------------------------------------------------------------------------
# narrow upwind scheme
# ---------------------------------------------------------------------------

def n_scheme_scalar(q_nodes, k):
    """Scalar upwind scheme: Phi_i = [k_i]+ (Q_i - Q_star).

    ``k`` (T, 3) holds the upwind parameters k_i = (u . n_i)/2
    (``scalar_upwind_k``, or ``advection_upwind_k``'s streamfunction form
    for variable velocity fields).  Q_star is the inflow state fixed by
    requiring the parts to sum to sum_i k_i Q_i.  Zero flow yields zero
    parts.
    """
    q = _as_batch(q_nodes)[..., 0]
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


def _node_sum(x):
    """Sum over the node axis of a (T, 3, ...) array, unrolled: a NumPy
    reduction over an axis that short costs several times more."""
    return x[:, 0] + x[:, 1] + x[:, 2]


def _signed_split(lam2, half_a, clip):
    """(lam_2^s, P, M) of one signed part K^s: ``clip`` is np.maximum for
    K^+ and np.minimum for K^-.  With alpha_1 = lam_1^s - lam_2^s and
    alpha_4 = lam_4^s - lam_2^s, P = (alpha_1 + alpha_4)/2 and
    M = (alpha_4 - alpha_1)/2."""
    l2 = clip(lam2, 0.0)
    a1 = clip(lam2 - half_a, 0.0)
    a1 -= l2
    a4 = clip(lam2 + half_a, 0.0)
    a4 -= l2
    return l2, 0.5 * (a1 + a4), 0.5 * (a4 - a1)


def _apply_split(law, waves, nx, ny, un, split, phi):
    """K_i^s phi_i for (T, 3, 4) vectors ``phi``, from the rank-2 form.

    ``waves`` is the averaged state's wave data broadcast over the nodes,
    (nx, ny) the unit normals and ``un`` the normal velocities (T, 3);
    ``split`` is ``_signed_split``'s (lam_2^s, P, M).  With dp/a^2 and
    w/a as in ``Euler.characteristic``, S = P dp/a^2 + M w/a and
    D = a (M dp/a^2 + P w/a), the result is
    lam_2^s phi + S (1, u, v, h) + D (0, nx, ny, u_n).
    """
    u, v, h, k, a2, a = waves
    l2, p, mm = split
    p0, p1, p2, p3 = (phi[..., j] for j in range(4))
    dpa = law._pressure_jump(phi, u, v, k)
    dpa /= a2
    wa = nx * p1 + ny * p2 - un * p0
    wa /= a
    s = p * dpa + mm * wa
    d = a * (mm * dpa + p * wa)
    out = np.empty_like(phi)
    np.add(l2 * p0, s, out=out[..., 0])
    np.add(l2 * p1 + u * s, nx * d, out=out[..., 1])
    np.add(l2 * p2 + v * s, ny * d, out=out[..., 2])
    np.add(l2 * p3 + h * s, un * d, out=out[..., 3])
    return out


def _star_matrix(law, waves, nx, ny, split):
    """The star matrix sum_j K_j^- (T, 4, 4), stored triangle axis innermost.

    Summing the rank-2 form over the nodes (``waves`` per triangle, (T,)):
    sum_j K_j^- = sigma I + c d^T + e y^T / a + B with sigma = sum lam_2^-,
    e = (1, u, v, h), the pressure covector d = (gamma - 1)/a^2
    (k, -u, -v, 1), c = (sum P) e + a (0, X_x, X_y, X_n),
    y = (-X_n, X_x, X_y, 0) where X_x = sum M n_x, X_y = sum M n_y,
    X_n = u X_x + v X_y, and B the sum of P (0, n_x, n_y, u_n)
    (-u_n, n_x, n_y, 0)^T, which the three sums S_xx = sum P n_x^2,
    S_xy = sum P n_x n_y and S_yy = sum P n_y^2 fix.
    """
    u, v, h, k, a2, a = waves
    l2, p, mm = split
    sigma = _node_sum(l2)
    pt = _node_sum(p)
    xx = _node_sum(mm * nx)
    xy = _node_sum(mm * ny)
    xn = u * xx + v * xy
    pnx = p * nx
    sxx = _node_sum(pnx * nx)
    sxy = _node_sum(pnx * ny)
    syy = _node_sum(p * ny * ny)
    bx = u * sxx + v * sxy
    by = u * sxy + v * syy
    b1 = (law.gamma - 1.0) / a2
    e = (1.0, u, v, h)
    d = (b1 * k, -b1 * u, -b1 * v, b1)
    c = (pt, pt * u + a * xx, pt * v + a * xy, pt * h + a * xn)
    ya = (-xn / a, xx / a, xy / a, 0.0)
    b = (
        (0.0, 0.0, 0.0, 0.0),
        (-bx, sxx, sxy, 0.0),
        (-by, sxy, syy, 0.0),
        (-(u * bx + v * by), bx, by, 0.0),
    )
    nmat = np.empty((4, 4, len(u)))
    for i in range(4):
        for j in range(4):
            entry = nmat[i, j]
            np.multiply(c[i], d[j], out=entry)
            if j < 3:
                entry += e[i] * ya[j]
                if i > 0:
                    entry += b[i][j]
        nmat[i, i] += sigma
    return nmat.transpose(2, 0, 1)


def n_scheme_system(law, normals, q_nodes, *, z_nodes=None):
    """Systems upwind scheme via characteristic decomposition.

    Phi_i = K_i^+ (Qhat_i - Q_star) with K_i^{+/-} the signed parts of
    K_i = (n_i . J)/2 at the parameter-vector average, and Q_star solving
    (sum K_j^-) Q_star = sum K_j^- Qhat_j.  The star matrix can be
    singular (e.g. near stagnation); the affected triangles are then
    distributed with the relaxation scheme instead (provably
    conservative, needs no solve), and the returned ``fallback`` mask
    marks them.

    No eigensystem is built.  For gas dynamics K_i has the eigenvalues
    lam_1 = |n_i| (u_n - a)/2, lam_2 = lam_3 = |n_i| u_n / 2 and
    lam_4 = |n_i| (u_n + a)/2 (u_n the velocity along the unit normal),
    and because R L = I and the middle pair shares one eigenvalue,

        K_i^{+/-} = lam_2^{+/-} I + (lam_1^{+/-} - lam_2^{+/-}) r_1 l_1^T
                                  + (lam_4^{+/-} - lam_2^{+/-}) r_4 l_4^T

    with the acoustic eigenvectors r_{1,4} = (1, u -/+ a n_x, v -/+ a n_y,
    h -/+ a u_n) and amplitudes l_{1,4} . phi = (dp/a^2 -/+ w/a)/2 (see
    ``Euler.characteristic``).  The right-hand side, the parts and the
    star matrix all come from this form (``_apply_split``,
    ``_star_matrix``); the star matrix is the only m x m matrix built.

    ``z_nodes`` passes the nodal parameter vectors
    ``law.to_params(q_nodes)`` (T, 3, m) when the caller already has
    them, e.g. gathered from one evaluation per mesh node.  The parts are
    laid out like the transformed nodal states, so triangle-innermost
    inputs give triangle-innermost parts.
    """
    q_nodes = _as_batch(q_nodes)
    normals = np.asarray(normals, dtype=float)
    avg = law.rsd_average(q_nodes, z_nodes=z_nodes)
    waves = law._waves(avg.qhat, avg.prim)
    nlen = np.hypot(normals[..., 0], normals[..., 1])
    if np.any(nlen <= 0.0):
        raise InvalidArgument("zero direction vector")
    nx = normals[..., 0] / nlen
    ny = normals[..., 1] / nlen
    node_waves = tuple(x[:, None] for x in waves)
    u, v, _, _, _, a = node_waves
    un = u * nx + v * ny
    lam2 = 0.5 * nlen * un
    half_a = 0.5 * nlen * a
    minus = _signed_split(lam2, half_a, np.minimum)
    qhat_nodes = avg.qhat_nodes
    rhs = _node_sum(_apply_split(law, node_waves, nx, ny, un, minus, qhat_nodes))
    qstar, bad = solve_batched(_star_matrix(law, waves, nx, ny, minus), rhs)
    plus = _signed_split(lam2, half_a, np.maximum)
    dq = np.subtract(qhat_nodes, qstar[:, None, :], out=np.empty_like(qhat_nodes))
    parts = _apply_split(law, node_waves, nx, ny, un, plus, dq)
    if bad.any():
        idx = np.nonzero(bad)[0]
        rx = rxn_scheme(law, normals[idx], q_nodes[idx])
        parts[idx] = rx.parts
        qstar[idx] = rx.star
    return DistributedResidual(parts, qstar, fallback=bad)


# ---------------------------------------------------------------------------
# relaxation scheme
# ---------------------------------------------------------------------------

def wave_speed_bound(law, q_nodes, *, speeds=None, mean_speed=None):
    """Per-triangle wave-speed bound s_T.

    The sub-characteristic condition requires s_T at least the largest
    characteristic speed over the element; the bound is taken as
    ``WAVE_SPEED_SAFETY`` times the max of the nodal speeds and the
    arithmetic-mean state's speed.  The margin stands in for speeds at
    intermediate states that are not directly computable.  ``speeds``
    passes the nodal speeds ``law.max_wavespeed(q_nodes)`` (T, 3) when
    the caller already has them, e.g. gathered from one evaluation per
    mesh node, and ``mean_speed`` the mean state's speed (T,).
    """
    q_nodes = _as_batch(q_nodes)
    nodal = law.max_wavespeed(q_nodes) if speeds is None else speeds  # (T, 3)
    if mean_speed is None:
        mean_speed = law.max_wavespeed((q_nodes[:, 0] + q_nodes[:, 1] + q_nodes[:, 2]) / 3.0)
    return WAVE_SPEED_SAFETY * np.maximum(nodal.max(axis=-1), mean_speed)


def advection_coefficients(normals, velocity):
    """The relaxation scheme of advection as a linear map: (g, w), each (T, 3).

    With every flux evaluated at the triangle's mean velocity vbar (the
    mean of the nodal ``velocity``, (T, 3, 2)), the parts collapse to
    Phi_i = g_i (Q_i - Q_star) with Q_star = sum_j w_j Q_j, where

        g_i = (s ||n_i|| + n_i . vbar) / 4,
        w_j = (s ||n_j|| - n_j . vbar) / (s sum_k ||n_k||).

    The map owns its wave-speed bound, s = ``WAVE_SPEED_SAFETY``
    max(|v_i|, |vbar|) from the nodal velocities, so both depend on the
    mesh alone.  As s >= |vbar| all are nonnegative (a discrete maximum
    principle), and the w_j sum to one as the normals sum to zero.  Where
    s = 0 (no flow) g = 0 and w_j = ||n_j|| / sum ||n||.
    """
    velocity = np.asarray(velocity, dtype=float)
    vbar = velocity.mean(axis=1)
    speed = np.hypot(velocity[..., 0], velocity[..., 1])
    s = WAVE_SPEED_SAFETY * np.maximum(speed.max(axis=1), np.hypot(vbar[:, 0], vbar[:, 1]))
    un = normals[..., 0] * vbar[:, None, 0] + normals[..., 1] * vbar[:, None, 1]
    nlen = np.hypot(normals[..., 0], normals[..., 1])
    g = 0.25 * (s[:, None] * nlen + un)
    s = np.where(s > 0.0, s, 1.0)[:, None]  # s = 0 only where vbar = 0
    return g, (s * nlen - un) / (s * _node_sum(nlen)[:, None])


def rxn_scheme(law, normals, q_nodes, *, s=None, flux=None, coefficients=None):
    """Relaxation distribution scheme (two space dimensions).

    Phi_i = (1/4)[ s ||n_i|| (Q_i - Q_star) + n_i . (f(Q_i) - f(Q_star)) ]
    with the closed-form upwind state

        Q_star = sum_j (s ||n_j|| Q_j - n_j . f(Q_j)) / (s sum_i ||n_i||),

    componentwise for systems.  The parts sum to the two-point-rule total
    residual because the normals sum to zero and Q_star absorbs the flux
    imbalance.  For Euler, f(Q_star) is evaluated only if Q_star is
    physical; otherwise NonPhysicalState is raised (no clamping).  ``s``
    is the per-triangle wave-speed bound, ``wave_speed_bound`` when None.

    ``coefficients`` passes the pair (g, w) of ``advection_coefficients``
    for advection by a velocity field, as ``Solver`` builds it once per
    mesh.  All fluxes are then evaluated at the per-triangle mean
    velocity, which makes the scheme that fixed positive linear map
    (discrete max principle under the strict time step), and ``s`` and
    ``flux`` are not read.

    ``flux`` passes the nodal flux pair ``law.flux(q_nodes)`` when the
    caller already has it.
    """
    q_nodes = _as_batch(q_nodes)
    if coefficients is not None:
        g, w = coefficients
        qstar = _node_sum(w[..., None] * q_nodes)
        return DistributedResidual(g[..., None] * (q_nodes - qstar[:, None, :]), qstar)
    normals = np.asarray(normals, dtype=float)
    if s is None:
        s = wave_speed_bound(law, q_nodes)
    else:
        s = np.broadcast_to(np.asarray(s, dtype=float), q_nodes.shape[:1])

    nlen = np.hypot(normals[..., 0], normals[..., 1])
    snlen = s[:, None, None] * nlen[..., None]  # (T, 3, 1)
    nf_nodes = _nodal_normal_flux(law, normals, q_nodes, flux=flux)
    # One (T, 3, m) buffer: first s ||n_j|| Q_j - n_j . f(Q_j), then the parts.
    buf = snlen * q_nodes
    buf -= nf_nodes
    qstar = _node_sum(buf) / (s * _node_sum(nlen))[:, None]
    law.check_physical(qstar, "in relaxation star state", item="triangle")
    nf_star = _nodal_normal_flux(law, normals, qstar[:, None, :])
    parts = np.subtract(q_nodes, qstar[:, None, :], out=buf)
    parts *= snlen
    parts += nf_nodes
    parts -= nf_star
    parts *= 0.25
    return DistributedResidual(parts, qstar)


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
    fl = law.flux(q_left)[0]
    fr = law.flux(q_right)[0]
    qstar = 0.5 * (q_left + q_right) - (fr - fl) / (2.0 * s)
    mustar = 0.5 * (fl + fr) - 0.5 * s * (q_right - q_left)
    minus = 0.5 * (s * (q_left - qstar) - (fl - mustar))
    plus = 0.5 * (s * (q_right - qstar) + (fr - mustar))
    return minus, plus
