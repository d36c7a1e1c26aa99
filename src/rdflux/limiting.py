"""Linear-preserving limiting and the steady-convergence correction.

The raw upwind schemes are monotone but first order at steady state; the
limiter rescales each triangle's distributed parts so the weights stay in
[0, 1] while their sum — and hence conservation — is untouched.  Scalar
residuals are limited directly; system residuals are projected onto the
characteristic fields of the flux Jacobian in a chosen direction, limited
field by field, and reassembled.  A system is linearized at the
triangle's arithmetic-mean state (Q_1 + Q_2 + Q_3) / 3, with either
scheme, and read through the law's closed-form hooks
(``characteristic``, ``from_characteristic``, ``jacobian_product``):
no eigenvector or Jacobian matrix is built.  The hooks read the state's
wave data ``waves`` (``Euler._waves``), which the caller computes once
and passes to the limiter and the correction alike.

The limited scheme alone tends to stall before reaching steady state; a
small dissipative correction proportional to (n_i . J) Phi^T restores
convergence without breaking conservation (the inward normals sum to
zero).  Its strength is throttled near shocks through the projection of
Phi^T onto the entropy wave.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "limit_scalar",
    "limit_system",
    "limiting_direction",
    "correction_theta",
    "correction_scalar",
    "correction_system",
]

CORRECTION_EPS = 1e-10


def _signed_weights(parts, total):
    """Clipped distribution weights w_i = [Phi_i/Phi^T]^+ / sum_j [...]^+.

    Implemented without dividing by the total: w_i is computed from
    s_i = max(Phi_i * sign(Phi^T), 0), which is proportional to the
    clipped weight and immune to overflow for tiny totals.  Fields with
    zero total get all-zero weights.  Shapes: parts (..., 3, m) and
    total (..., m); weights like parts.
    """
    pos = parts * np.sign(total)[..., None, :]
    np.maximum(pos, 0.0, out=pos)
    den = (pos[..., 0, :] + pos[..., 1, :] + pos[..., 2, :])[..., None, :]
    live = den > 0.0
    pos /= np.where(live, den, 1.0)
    np.copyto(pos, 0.0, where=~live)
    return pos


def limit_scalar(parts, total):
    """Limit scalar parts: output_i = w_i * Phi^T, weights in [0, 1].

    ``parts`` is (T, 3, m) and ``total`` (T, m), the parts' sum; each of
    the m columns is limited on its own.  A zero total yields all-zero
    outputs.  The outputs sum to the total exactly (up to rounding) and
    each shares its sign.
    """
    return _signed_weights(parts, total) * total[..., None, :]


def limiting_direction(law, q, prim=None):
    """Unit direction used for characteristic projection: the flow
    velocity of the (T, m) states ``q``, falling back to (1, 0) where the
    flow is essentially stagnant (speed below 1e-12 of the sound speed).
    ``prim`` passes ``law.primitives(q)`` when the caller already has it."""
    rho, u, v, p = law.primitives(q) if prim is None else prim
    a = np.sqrt(law.gamma * p / rho)
    speed = np.hypot(u, v)
    still = speed < 1e-12 * a
    safe = np.where(still, 1.0, speed)
    direction = np.empty(q.shape[:-1] + (2,))
    direction[..., 0] = np.where(still, 1.0, u / safe)
    direction[..., 1] = np.where(still, 0.0, v / safe)
    return direction


def _per_node(q, direction, waves):
    """Triangle data (..., m), (..., 2) and wave data, broadcast against
    (..., 3, m) parts."""
    waves = None if waves is None else tuple(x[..., None] for x in waves)
    return q[..., None, :], direction[..., None, :], waves


def limit_system(parts, law, q, direction, waves=None):
    """Characteristic-wise limiting of system parts.

    ``q`` is each triangle's arithmetic-mean state, ``direction`` the
    unit limiting direction there and ``waves`` passes the law's wave
    data ``law._waves(q)`` when the caller already has it.  Each part is
    projected to characteristic amplitudes theta_i^p = l^p . Phi_i
    (``law.characteristic``); the scalar limiter runs per field on the
    amplitudes; the limited parts are reassembled from the right
    eigenvectors (``law.from_characteristic``).  The per-field amplitude
    totals are redistributed by the clipped weights, so the parts' sum is
    preserved.  Both hooks are Euler's closed-form expressions: no
    eigenvector matrix is built.
    """
    parts = np.asarray(parts, dtype=float)
    q, direction, waves = _per_node(q, direction, waves)
    theta = law.characteristic(parts, q, direction, waves)
    tot = theta[..., 0, :] + theta[..., 1, :] + theta[..., 2, :]
    coef = _signed_weights(theta, tot)
    coef *= tot[..., None, :]
    return law.from_characteristic(coef, q, direction, waves)


def correction_theta(areas, proj):
    """Correction strength theta = min(1, |T| / (|proj| + CORRECTION_EPS)).

    ``proj`` is the magnitude of the total residual's projection onto the
    marker field (entropy wave for gas dynamics, the residual itself for
    scalar laws): theta is O(1) where the solution is smooth and O(|T|)
    near shocks, so the correction switches itself off there.
    """
    areas = np.asarray(areas, dtype=float)
    return np.minimum(1.0, areas / (np.abs(proj) + CORRECTION_EPS))


def correction_scalar(parts, total, areas, k):
    """Add theta |T|^{-1/2} k_i Phi^T to scalar parts.

    ``k`` is the (T, 3) upwind-parameter array of the scheme (equal to
    (n_i . u)/2); the three values sum to zero, so conservation is
    unchanged.  For scalar laws the shock marker is the residual itself.
    """
    parts = np.asarray(parts, dtype=float)
    total = np.asarray(total, dtype=float)
    theta = correction_theta(areas, total[..., 0])
    scale = theta / np.sqrt(np.asarray(areas, dtype=float))
    return parts + (scale[..., None] * k)[..., None] * total[..., None, :]


def correction_system(parts, total, areas, normals, law, q, direction, waves=None):
    """Add theta |T|^{-1/2} K_i Phi^T to system parts.

    K_i = (n_i . J)/2 at each triangle's arithmetic-mean state ``q``,
    applied to Phi^T by the law's closed-form ``jacobian_product``
    (no Jacobian matrix is built).  The shock marker is |theta_ent|, the
    amplitude of Phi^T on the entropy wave of the limiting ``direction``
    (``law.characteristic``).  ``waves`` passes the law's wave data
    ``law._waves(q)`` when the caller already has it.
    """
    parts = np.asarray(parts, dtype=float)
    total = np.asarray(total, dtype=float)
    proj = law.characteristic(total, q, direction, waves)[..., law.ENTROPY_WAVE]
    theta = correction_theta(areas, proj)
    scale = 0.5 * theta / np.sqrt(np.asarray(areas, dtype=float))
    q, _, waves = _per_node(q, direction, waves)
    out = law.jacobian_product((scale[..., None] * total)[..., None, :], q, normals, waves)
    out += parts
    return out
