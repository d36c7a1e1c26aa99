"""Per-triangle residual computation and distribution to nodes.

Two families of distribution schemes are provided:

* the narrow upwind scheme ("N"), scalar and systems forms, built on a
  conservative linearization through the parameter vector.  Per element
  the systems form needs that average and the solve of one m x m star
  system, whose matrix is the only one it builds: its split Jacobians
  K^+/- are applied in closed form, as rank-2 corrections of a scaled
  identity (``n_scheme_system``), with no eigensystem.  The star systems
  of all elements are solved together by ``smallmat.solve_batched``,
  Gaussian elimination with partial pivoting over the element axis; and
* the relaxation-derived scheme ("RXN"), which needs only a wave-speed
  bound — no parameter-vector average, no eigensystem and no matrix
  inversion per element.

For a scalar law with frozen upwind parameters each is a positive linear
map per triangle, which ``linear_scheme`` applies: N's from
``upwind_coefficients``, RXN's on an advection field from
``advection_coefficients``.

The kernels take as arguments what the march's sweep (``Solver._sweep``)
forms once per iteration, and work none of it out again: the wave-speed
bound (``wave_speed_bound`` of the law's nodal and mean-state speeds),
the normals' lengths, a scalar law's upwind parameters at the triangles'
mean states, and the systems N scheme's nodal parameter vectors.

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
    "upwind_coefficients",
    "linear_scheme",
    "n_scheme_system",
    "wave_speed_bound",
    "advection_coefficients",
    "rxn_scheme",
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
        """The parts' sum per triangle, (T, m): a new array on each call."""
        return _node_sum(self.parts)


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


def scalar_upwind_k(law, normals, q_mean):
    """Upwind parameters k_i = (n_i . f'(Qbar))/2 of a scalar law, (T, 3).

    f' is the law's characteristic velocity (``fprime``) at the nodal
    mean Qbar, ``q_mean`` (T, 1): exact for constant advection, a
    secant-type mean for scalar quadratic fluxes.
    """
    u = law.fprime(q_mean)  # (T, 2)
    return 0.5 * (normals * u[..., None, :]).sum(axis=-1)


def total_residual_linear(law, normals, q_nodes):
    """Total residual of the interpolated flux, two-point edge rule.

    Equals the outward contour integral of the edgewise-linear
    interpolant of the nodal flux values: (1/2) sum_i n_i . f(Q_i) with
    inward normals n_i.  Zero on uniform states because the normals sum
    to zero.
    """
    q_nodes = _as_batch(q_nodes)
    return 0.5 * law.normal_flux(q_nodes, normals).sum(axis=1)


def total_residual_rsd(law, normals, q_nodes):
    """Total residual of the conservative linearization.

    (1/2) sum_i (n_i . J(Qhat)) Qhat_i at the parameter-vector average,
    through the law's ``jacobian_product``.  Because the flux is at most
    quadratic in Z, this equals the exact contour integral of f(z^h) for
    the Z-linear interpolant.
    """
    avg = law.rsd_average(law.to_params(_as_batch(q_nodes)))
    nj = law.jacobian_product(avg.qhat_nodes, avg.qhat[:, None, :], normals)
    return 0.5 * nj.sum(axis=1)


# ---------------------------------------------------------------------------
# narrow upwind scheme
# ---------------------------------------------------------------------------

def upwind_coefficients(k):
    """The scalar N scheme as a linear map: (g, w), each (T, 3).

    With the upwind parameters ``k`` (T, 3) frozen (``scalar_upwind_k``,
    or ``advection_upwind_k``'s streamfunction form), the N scheme
    Phi_i = k_i^+ (Q_i - Q_star), whose inflow state Q_star makes the
    parts sum to sum_i k_i Q_i, is ``linear_scheme``'s map with
    g_i = k_i^+ and w_j = k_j^- / sum_l k_l^-: all nonnegative, and the w_j
    sum to one.  A triangle with no negative k (every k vanishes, as they
    sum to zero) gets g = 0 and w = 1/3: zero parts.
    """
    k = np.asarray(k, dtype=float)
    kn = np.minimum(k, 0.0)
    denom = _node_sum(kn)[:, None]
    dead = denom == 0.0
    g = np.where(dead, 0.0, np.maximum(k, 0.0))
    return g, np.where(dead, 1.0 / 3.0, kn / np.where(dead, 1.0, denom))


def linear_scheme(q_nodes, coefficients):
    """Phi_i = g_i (Q_i - Q_star), Q_star = sum_j w_j Q_j, for the map
    ``coefficients`` = (g, w), each (T, 3), of ``upwind_coefficients`` or
    ``advection_coefficients``.  One (T, 3, m) buffer holds first w_j Q_j
    and then the parts.
    """
    q_nodes = _as_batch(q_nodes)
    g, w = coefficients
    buf = w[..., None] * q_nodes
    qstar = _node_sum(buf)
    parts = np.subtract(q_nodes, qstar[:, None, :], out=buf)
    parts *= g[..., None]
    return DistributedResidual(parts, qstar)


def _node_sum(x):
    """Sum over the node axis of a (T, 3, ...) array, unrolled: a NumPy
    reduction over an axis that short costs several times more.  The sum
    (x_1 + x_2) + x_3 is formed in place in one new array."""
    out = x[:, 0] + x[:, 1]
    out += x[:, 2]
    return out


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


def _node_geometry(normals, nlen, node_waves):
    """(n_x, n_y, u_n, lam_2, |n| a / 2), each (T, 3): the unit normals,
    the averaged state's normal velocity and the halved eigenvalues
    |n| u_n / 2 and |n| a / 2 that ``_signed_split`` reads, from the wave
    data broadcast over the nodes."""
    nx = normals[..., 0] / nlen
    ny = normals[..., 1] / nlen
    un = node_waves[0] * nx + node_waves[1] * ny
    return nx, ny, un, 0.5 * nlen * un, 0.5 * nlen * node_waves[5]


def _split_components(law, waves, nx, ny, un, split, phi, out=None):
    """The components of K_i^s phi_i for (T, 3, 4) vectors ``phi``, one
    (T, 3) array at a time, from the rank-2 form.

    ``waves`` is the averaged state's wave data broadcast over the nodes,
    (nx, ny) the unit normals and ``un`` the normal velocities (T, 3);
    ``split`` is ``_signed_split``'s (lam_2^s, P, M).  With dp/a^2 and
    w/a as in ``Euler.characteristic``, S = P dp/a^2 + M w/a and
    D = a (M dp/a^2 + P w/a), component j is
    lam_2^s phi_j + S (1, u, v, h)_j + D (0, nx, ny, u_n)_j.

    A generator: S and D are formed from ``phi`` first, and then each
    component reads only its own slot of ``phi``.  Component j is a new
    array, or the slot ``out[..., j]`` when ``out`` is given; ``out`` may
    be ``phi`` itself, as each slot is read before it is written.
    """
    u, v, h, k, a2, a = waves
    l2, p, mm = split
    dpa = law._pressure_jump(phi, u, v, k)
    dpa /= a2
    wa = nx * phi[..., 1] + ny * phi[..., 2] - un * phi[..., 0]
    wa /= a
    s = p * dpa + mm * wa
    d = a * (mm * dpa + p * wa)
    del dpa, wa
    for j, (e, n) in enumerate(((None, None), (u, nx), (v, ny), (h, un))):
        c = np.multiply(l2, phi[..., j], out=None if out is None else out[..., j])
        c += s if e is None else e * s
        if n is not None:
            c += n * d
        yield c


def _apply_split(law, waves, nx, ny, un, split, phi):
    """K_i^s phi_i written over the (T, 3, 4) vectors ``phi``, which it
    returns (``_split_components``)."""
    for _ in _split_components(law, waves, nx, ny, un, split, phi, out=phi):
        pass
    return phi


def _star_sums(split, nx, ny):
    """The node sums of the minus split that the star matrix reads, each
    (T,): sigma = sum lam_2^-, sum P, X_x = sum M n_x, X_y = sum M n_y,
    S_xx = sum P n_x^2, S_xy = sum P n_x n_y and S_yy = sum P n_y^2
    (``_star_matrix``).  With them taken, the split and the unit normals
    can go before the matrix is built."""
    l2, p, mm = split
    pnx = p * nx
    return (_node_sum(l2), _node_sum(p), _node_sum(mm * nx), _node_sum(mm * ny),
            _node_sum(pnx * nx), _node_sum(pnx * ny), _node_sum(p * ny * ny))


def _star_matrix(law, waves, sums, rhs):
    """The star system [sum_j K_j^- | rhs] as augmented rows (4, 5, T).

    Row i holds row i of the star matrix and then ``rhs[:, i]``
    (``rhs`` is (T, 4)), triangle axis innermost: the layout that
    ``smallmat.solve_batched`` eliminates in place.

    Summing the rank-2 form over the nodes (``waves`` per triangle, (T,),
    and ``sums`` from ``_star_sums``):
    sum_j K_j^- = sigma I + c d^T + e y^T / a + B with sigma = sum lam_2^-,
    e = (1, u, v, h), the pressure covector d = (gamma - 1)/a^2
    (k, -u, -v, 1), c = (sum P) e + a (0, X_x, X_y, X_n),
    y = (-X_n, X_x, X_y, 0) where X_n = u X_x + v X_y, and B the sum of
    P (0, n_x, n_y, u_n) (-u_n, n_x, n_y, 0)^T, which S_xx, S_xy and S_yy
    fix.  The rows are written one at a time, each row's c_i and B_i
    formed just before it and dropped once its entries are in ``aug``;
    beside the sums, only d, y / a and the B entries that a later row
    reads again are live across the rows.
    """
    u, v, h, k, a2, a = waves
    sigma, pt, xx, xy, sxx, sxy, syy = sums
    aug = np.empty((4, 5, len(u)))
    aug[:, 4] = rhs.T
    xn = u * xx + v * xy
    b1 = (law.gamma - 1.0) / a2
    d = (b1 * k, -b1 * u, -b1 * v, b1)
    ya = (-xn / a, xx / a, xy / a)

    def row(i, e, c, b=None):
        for j in range(4):
            entry = aug[i, j]
            np.multiply(c, d[j], out=entry)
            if j < 3:
                entry += e * ya[j]
                if b is not None:
                    entry += b[j]
        aug[i, i] += sigma

    row(0, 1.0, pt)
    bx = u * sxx + v * sxy
    row(1, u, pt * u + a * xx, (-bx, sxx, sxy))
    by = u * sxy + v * syy
    row(2, v, pt * v + a * xy, (-by, sxy, syy))
    row(3, h, pt * h + a * xn, (-(u * bx + v * by), bx, by))
    return aug


def n_scheme_system(law, normals, q_nodes, z_nodes, nlen, s):
    """Systems upwind scheme via characteristic decomposition.

    Phi_i = K_i^+ (Qhat_i - Q_star) with K_i^{+/-} the signed parts of
    K_i = (n_i . J)/2 at the parameter-vector average, and Q_star solving
    (sum K_j^-) Q_star = sum K_j^- Qhat_j.  The star systems of all
    triangles are solved in one batched Gaussian elimination with partial
    pivoting (``smallmat.solve_batched``).  The star matrix can be
    singular (e.g. near stagnation): a triangle whose best pivot is at
    most ``smallmat.PIVOT_RTOL`` = 1e-13 times the star matrix's
    infinity norm is then distributed with the relaxation scheme instead
    (provably conservative, needs no solve), and the returned
    ``fallback`` mask marks it.

    No eigensystem is built.  For gas dynamics K_i has the eigenvalues
    lam_1 = |n_i| (u_n - a)/2, lam_2 = lam_3 = |n_i| u_n / 2 and
    lam_4 = |n_i| (u_n + a)/2 (u_n the velocity along the unit normal),
    and because R L = I and the middle pair shares one eigenvalue,

        K_i^{+/-} = lam_2^{+/-} I + (lam_1^{+/-} - lam_2^{+/-}) r_1 l_1^T
                                  + (lam_4^{+/-} - lam_2^{+/-}) r_4 l_4^T

    with the acoustic eigenvectors r_{1,4} = (1, u -/+ a n_x, v -/+ a n_y,
    h -/+ a u_n) and amplitudes l_{1,4} . phi = (dp/a^2 -/+ w/a)/2 (see
    ``Euler.characteristic``).  The right-hand side, the parts and the
    star matrix all come from this form (``_split_components``,
    ``_star_matrix``); the star matrix is the only m x m matrix built.

    One (T, 3, 4) buffer carries the pass: it holds the transformed nodal
    states Qhat_i, then Qhat_i - Q_star (in place, after the star solve)
    and then the parts, which ``_apply_split`` writes over it.  The
    right-hand side sum_j K_j^- Qhat_j is summed one component at a time.
    The minus split and the unit normals are dropped once their node sums
    are taken (``_star_sums``), before the star matrix is built, and
    Q_star is copied out of the solved rows so that they go before the
    plus split, for which the unit normals and the eigenvalues are formed
    again (``_node_geometry``, the same operations).

    The inputs are the sweep's (``Solver._sweep``): ``z_nodes`` the nodal
    parameter vectors ``law.to_params(q_nodes)`` (T, 3, m), ``nlen`` the
    normals' lengths (T, 3), all positive, and ``s`` the wave-speed bound
    (T,), which the fallback's relaxation scheme reads.  ``z_nodes`` is
    read once, as ``z_nodes[:]``: it may be any object that gathers the
    parameter vectors on indexing, as ``Solver`` passes from one
    evaluation per mesh node, so that the gathered (T, 3, m) array lives
    in this call alone and goes once the average is formed.  ``q_nodes``
    is read only at the triangles that fall back, as ``q_nodes[idx]`` for
    an integer array ``idx``, and may likewise be a gatherer, so that no
    (T, 3, m) copy of the state is held.  Neither input is modified.  The
    parts are laid out like the transformed nodal states, so
    triangle-innermost inputs give triangle-innermost parts.
    """
    normals = np.asarray(normals, dtype=float)
    z_nodes = z_nodes[:]  # a gatherer gathers here
    avg = law.rsd_average(z_nodes)
    del z_nodes  # a gathered temporary goes now
    waves = law.waves(avg.qhat, avg.prim)
    buf = avg.qhat_nodes  # a new array: Qhat_i, then Qhat_i - Q_star, then the parts
    del avg
    node_waves = tuple(x[:, None] for x in waves)
    nx, ny, un, lam2, half_a = _node_geometry(normals, nlen, node_waves)
    minus = _signed_split(lam2, half_a, np.minimum)
    del lam2, half_a
    rhs = np.empty((len(buf), buf.shape[-1]))
    for j, c in enumerate(_split_components(law, node_waves, nx, ny, un, minus, buf)):
        rhs[:, j] = _node_sum(c)
    del c, un
    sums = _star_sums(minus, nx, ny)
    del minus, nx, ny
    aug = _star_matrix(law, waves, sums, rhs)
    del sums, rhs
    qstar, bad = solve_batched(aug)
    qstar = qstar.copy(order="K")  # (T, 4) as laid out in the rows, which go
    del aug
    buf -= qstar[:, None, :]
    nx, ny, un, lam2, half_a = _node_geometry(normals, nlen, node_waves)
    plus = _signed_split(lam2, half_a, np.maximum)
    del lam2, half_a
    parts = _apply_split(law, node_waves, nx, ny, un, plus, buf)
    if bad.any():
        idx = np.nonzero(bad)[0]
        rx = rxn_scheme(law, normals[idx], _as_batch(q_nodes[idx]), s[idx], nlen[idx])
        parts[idx] = rx.parts
        qstar[idx] = rx.star
    return DistributedResidual(parts, qstar, fallback=bad)


# ---------------------------------------------------------------------------
# relaxation scheme
# ---------------------------------------------------------------------------

def wave_speed_bound(speeds, mean_speed):
    """Per-triangle wave-speed bound s_T, (T,).

    The sub-characteristic condition requires s_T at least the largest
    characteristic speed over the element; the bound is taken as
    ``WAVE_SPEED_SAFETY`` times the max of the nodal speeds ``speeds``
    (T, 3) and the arithmetic-mean state's speed ``mean_speed`` (T,), each
    the law's ``max_wavespeed`` (an advection map's are its velocities'
    norms).  The margin stands in for speeds at intermediate states that
    are not directly computable.
    """
    return WAVE_SPEED_SAFETY * np.maximum(speeds.max(axis=-1), mean_speed)


def advection_coefficients(normals, nlen, velocity):
    """The relaxation scheme of advection as a linear map: (g, w), each (T, 3).

    With every flux evaluated at the triangle's mean velocity vbar (the
    mean of the nodal ``velocity``, (T, 3, 2)), the parts collapse to
    Phi_i = g_i (Q_i - Q_star) with Q_star = sum_j w_j Q_j, where

        g_i = (s ||n_i|| + n_i . vbar) / 4,
        w_j = (s ||n_j|| - n_j . vbar) / (s sum_k ||n_k||).

    ``nlen`` holds the normals' lengths (T, 3).  The map owns its
    wave-speed bound, ``wave_speed_bound`` of the nodal speeds |v_i| and
    the mean speed |vbar|, so both depend on the mesh alone.  As
    s >= |vbar| all are nonnegative (a discrete maximum principle), and
    the w_j sum to one as the normals sum to zero.  Where s = 0 (no flow)
    g = 0 and w_j = ||n_j|| / sum ||n||.
    """
    velocity = np.asarray(velocity, dtype=float)
    vbar = velocity.mean(axis=1)
    s = wave_speed_bound(np.hypot(velocity[..., 0], velocity[..., 1]),
                         np.hypot(vbar[:, 0], vbar[:, 1]))
    un = normals[..., 0] * vbar[:, None, 0] + normals[..., 1] * vbar[:, None, 1]
    g = 0.25 * (s[:, None] * nlen + un)
    s = np.where(s > 0.0, s, 1.0)[:, None]  # s = 0 only where vbar = 0
    return g, (s * nlen - un) / (s * _node_sum(nlen)[:, None])


def rxn_scheme(law, normals, q_nodes, s, nlen, *, pressure=None):
    """Relaxation distribution scheme (two space dimensions).

    Phi_i = (1/4)[ s ||n_i|| (Q_i - Q_star) + n_i . (f(Q_i) - f(Q_star)) ]
    with the closed-form upwind state

        Q_star = sum_j (s ||n_j|| Q_j - n_j . f(Q_j)) / (s sum_i ||n_i||),

    componentwise for systems.  The parts sum to the two-point-rule total
    residual because the normals sum to zero and Q_star absorbs the flux
    imbalance.  For Euler, f(Q_star) is evaluated only if Q_star is
    physical; otherwise NonPhysicalState is raised (no clamping).  ``s``
    is the per-triangle wave-speed bound (T,) (``wave_speed_bound``) and
    ``nlen`` the normals' lengths (T, 3), both the sweep's.

    With every flux at the per-triangle mean velocity, the scheme of an
    advection field is the linear map ``advection_coefficients``.

    The nodal normal fluxes n_i . f(Q_i) come from the law's
    ``normal_flux`` (Euler's closed form) into one (T, 3, m) buffer,
    which then becomes the parts: Q_star and the parts are formed one
    component at a time, and n_i . f(Q_star) from the (T, m) flux pair
    at Q_star, with no other (T, 3, m) array.  ``pressure`` passes the
    nodal pressure (T, 3) of a gas, which ``Euler.normal_flux`` reads;
    the N scheme's fallback passes none.
    """
    q_nodes = _as_batch(q_nodes)
    normals = np.asarray(normals, dtype=float)
    snlen = s[:, None] * nlen  # (T, 3)
    nx, ny = normals[..., 0], normals[..., 1]
    m = q_nodes.shape[-1]
    # One (T, 3, m) buffer: first n_j . f(Q_j), then the parts.
    parts = law.normal_flux(q_nodes, normals, pressure)
    den = s * _node_sum(nlen)
    qstar = np.empty(q_nodes.shape[:1] + (m,))
    for j in range(m):
        qstar[:, j] = _node_sum(snlen * q_nodes[..., j] - parts[..., j]) / den
    law.check_physical(qstar, "in relaxation star state", item="triangle")
    fx, fy = law.flux(qstar)
    for j in range(m):
        part = parts[..., j]
        work = q_nodes[..., j] - qstar[:, None, j]
        work *= snlen
        part += work
        nf_star = np.multiply(nx, fx[:, None, j], out=work)
        nf_star += ny * fy[:, None, j]
        part -= nf_star
    parts *= 0.25
    return DistributedResidual(parts, qstar)
