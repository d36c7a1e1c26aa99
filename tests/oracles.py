"""Reference matrices the closed forms of the package are tested against.

``rdflux`` applies the directional Jacobian n . J only to vectors
(``jacobian_product``) and builds no Jacobian matrix.  The tests compare
those closed forms, the systems N scheme and the limiter with matrix
formulations built from the Euler flux Jacobian written out here, entry
by entry in the conserved variables.
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
