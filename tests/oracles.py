"""Reference matrices the closed forms of the package are tested against.

``rdflux`` applies the directional Jacobian n . J only to vectors
(``jacobian_product``) and builds no Jacobian matrix.  The tests compare
those closed forms, the systems N scheme and the limiter with matrix
formulations built from the Euler flux Jacobian written out here, entry
by entry in the conserved variables.  ``relaxation_scheme`` is the
paper's relaxation form with one matrix per node, of which both schemes
of the package are choices; it reads no function of ``distribution``.
"""

import numpy as np


def flux_jacobian(euler, q, n):
    """Directional Jacobian n . J of the Euler flux at the states ``q``,
    (..., 4, 4); ``n`` (..., 2) need not be unit length."""
    rho, u, v, p = euler.primitives(q)
    n = np.asarray(n, dtype=float)
    g1 = euler.gamma - 1.0
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
    jac[..., 1, 1] = un + (2.0 - euler.gamma) * u * nx
    jac[..., 1, 2] = u * ny - g1 * v * nx
    jac[..., 1, 3] = g1 * nx
    jac[..., 2, 0] = g1 * k * ny - v * un
    jac[..., 2, 1] = v * nx - g1 * u * ny
    jac[..., 2, 2] = un + (2.0 - euler.gamma) * v * ny
    jac[..., 2, 3] = g1 * ny
    jac[..., 3, 0] = (g1 * k - h) * un
    jac[..., 3, 1] = h * nx - g1 * u * un
    jac[..., 3, 2] = h * ny - g1 * v * un
    jac[..., 3, 3] = euler.gamma * un
    return jac


def relaxation_scheme(S, q_nodes, normal_flux):
    """The relaxation scheme with one matrix S_i per node: (parts, Q_star).

        Phi_i = (1/4) [S_i (Q_i - Q_star) + n_i . f(Q_i) - n_i . f(Q_star)],
        (sum_j S_j) Q_star = sum_j (S_j Q_j - n_j . f(Q_j)),

    with ``S`` (T, 3, m, m), ``q_nodes`` (T, 3, m) and ``normal_flux(x)``
    the (T, 3, m) values n_i . f(x_i) for states ``x`` (T, 3, m).  The
    star system is solved by ``np.linalg.solve``.  S_i = s_T ||n_i|| I
    with the nonlinear flux is the relaxation (RXN) scheme; S_i = 2 |K_i|
    with the flux linearized as n_i . f(Q) = 2 K_i Q is the N scheme, as
    then Q_star solves (sum K_j^-) Q_star = sum K_j^- Q_j and
    Phi_i = K_i^+ (Q_i - Q_star).
    """
    S = np.asarray(S, dtype=float)
    q_nodes = np.asarray(q_nodes, dtype=float)
    f_nodes = normal_flux(q_nodes)
    rhs = np.einsum("tiab,tib->ta", S, q_nodes) - f_nodes.sum(axis=1)
    qstar = np.linalg.solve(S.sum(axis=1), rhs[..., None])[..., 0]
    q_star_nodes = np.broadcast_to(qstar[:, None, :], q_nodes.shape)
    parts = np.einsum("tiab,tib->tia", S, q_nodes - q_star_nodes)
    parts += f_nodes - normal_flux(q_star_nodes)
    return 0.25 * parts, qstar


def abs_matrix(a):
    """|A| = R |Lambda| R^-1 of diagonalizable matrices ``a`` (..., m, m)
    with real eigenvalues, from ``np.linalg.eig``."""
    lam, r = np.linalg.eig(a)  # complex where rounding splits a double eigenvalue
    return (r @ (np.abs(lam.real)[..., None] * np.linalg.inv(r))).real
