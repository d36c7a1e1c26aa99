"""Linear-preserving limiting and the steady-convergence correction.

The raw upwind schemes are monotone but first order at steady state; the
limiter rescales each triangle's distributed parts so the weights stay in
[0, 1] while their sum — and hence conservation — is untouched.  Scalar
residuals are limited directly; system residuals are projected onto the
characteristic fields of the flux Jacobian in a chosen direction, limited
field by field, and reassembled.  A system is linearized at the
triangle's arithmetic-mean state (Q_1 + Q_2 + Q_3) / 3, with either
scheme.  That state enters as its wave data ``waves`` (``Euler.waves``)
alone: the one input from which the limiting direction, the law's
closed-form hooks (``characteristic``, ``entropy_amplitude``,
``from_characteristic``, ``jacobian_product``) and so the limiter and
the correction are formed, with no eigenvector or Jacobian matrix built.

The limited scheme alone tends to stall before reaching steady state; a
small dissipative correction proportional to k_i Phi^T (scalar laws) or
(n_i . J) Phi^T (systems) restores convergence without breaking
conservation (the upwind parameters and the inward normals sum to zero).
Its strength is throttled near shocks through the projection of Phi^T
onto the entropy wave (for scalar laws, Phi^T itself).  The scalar
correction is theta times the dimensionless inflow weight
k_i / sum_j max(k_j, 0) times Phi^T, so it scales with the parts; the
system correction's factor theta |T|^{-1/2} K_i still carries units.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "limit_scalar",
    "limit_system",
    "limiting_direction",
    "correction_theta",
    "correction_weights",
    "correction_scalar",
    "correction_system",
]

CORRECTION_EPS = 1e-10


def _signed_weights(parts, total, out=None):
    """Limited parts w_i Phi^T, with the clipped weights
    w_i = [Phi_i/Phi^T]^+ / sum_j [Phi_j/Phi^T]^+.

    With s_i = max(Phi_i * sign(Phi^T), 0), the clipped positives, and
    their sum S^+, that is s_i (Phi^T / S^+): the ratio is formed once per
    field on (..., m), in place, and the parts take one multiply.  When
    ``total`` is the parts' sum, |Phi^T| <= S^+, so the ratio lies in
    [-1, 1] and nothing overflows for tiny totals.  Fields with S^+ = 0
    (among them every field with zero total) get all-zero outputs: there
    every s_i is zero, and the ratio is formed as Phi^T / 1, which needs
    no masked divide.  A NaN part makes every output of its field NaN.
    Shapes: parts (..., 3, m) and total (..., m); the result like parts,
    a new array, or ``out`` (which may be ``parts`` itself).
    """
    pos = np.multiply(parts, np.sign(total)[..., None, :], out=out)
    np.maximum(pos, 0.0, out=pos)
    den = pos[..., 0, :] + pos[..., 1, :]
    den += pos[..., 2, :]
    den[den == 0.0] = 1.0  # S^+ = 0: every s_i is zero, so any finite ratio gives zeros
    pos *= np.divide(total, den, out=den)[..., None, :]
    return pos


def limit_scalar(parts, total):
    """Limit scalar parts: output_i = w_i * Phi^T, weights in [0, 1].

    ``parts`` is (T, 3, m) and ``total`` (T, m), the parts' sum; each of
    the m columns is limited on its own (``_signed_weights``, which
    returns the limited parts).  A zero total yields all-zero outputs.
    The outputs sum to the total exactly (up to rounding) and each shares
    its sign.
    """
    return _signed_weights(parts, total)


def limiting_direction(waves):
    """Unit direction used for characteristic projection: the flow
    velocity (u, v) of the wave data ``waves`` ((T,) arrays, as
    ``Euler.waves`` returns them), falling back to (1, 0) where the flow
    is essentially stagnant (speed below 1e-12 of the sound speed a)."""
    u, v, *_, a = waves
    speed = np.hypot(u, v)
    still = speed < 1e-12 * a
    safe = np.where(still, 1.0, speed)
    direction = np.empty(u.shape + (2,))
    direction[..., 0] = np.where(still, 1.0, u / safe)
    direction[..., 1] = np.where(still, 0.0, v / safe)
    return direction


def _per_node(waves):
    """Per-triangle wave data, broadcast against (..., 3, m) parts."""
    return tuple(x[..., None] for x in waves)


def limit_system(parts, law, direction, waves):
    """Characteristic-wise limiting of system parts.

    ``waves`` is the wave data of each triangle's arithmetic-mean state
    (``law.waves``) and ``direction`` the unit limiting direction there
    (``limiting_direction``).  Each part is projected to characteristic
    amplitudes theta_i^p = l^p . Phi_i (``law.characteristic``); the
    scalar limiter runs per field on the amplitudes (``_signed_weights``,
    which returns the limited amplitudes); the limited parts are
    reassembled from the right eigenvectors (``law.from_characteristic``).
    The per-field amplitude totals are redistributed by the clipped
    weights, so the parts' sum is preserved.  Both hooks are Euler's
    closed-form expressions: no eigenvector matrix is built.

    One (T, 3, m) array is allocated, the amplitudes: they are limited in
    place and the reconstruction R c is written over them, and that
    array is returned.  ``parts`` is not modified.
    """
    parts = np.asarray(parts, dtype=float)
    waves, direction = _per_node(waves), direction[..., None, :]
    theta = law.characteristic(parts, waves, direction)
    _signed_weights(theta, theta[..., 0, :] + theta[..., 1, :] + theta[..., 2, :], out=theta)
    return law.from_characteristic(theta, waves, direction, out=theta)


def correction_theta(areas, proj):
    """Correction strength theta = min(1, |T| / (|proj| + CORRECTION_EPS)).

    ``proj`` is the magnitude of the total residual's projection onto the
    marker field (entropy wave for gas dynamics, the residual itself for
    scalar laws): theta is O(1) where the solution is smooth and O(|T|)
    near shocks, so the correction switches itself off there.
    """
    areas = np.asarray(areas, dtype=float)
    return np.minimum(1.0, areas / (np.abs(proj) + CORRECTION_EPS))


def correction_weights(k):
    """Inflow weights k_i / sum_j max(k_j, 0) of the (T, 3) upwind
    parameters ``k``: dimensionless, 0 on a triangle with no inflow.

    The sum is formed slot by slot, and a triangle without inflow divides
    by infinity, so no divide warns.  A new array laid out like ``k``.
    """
    k = np.asarray(k, dtype=float)
    pos = np.maximum(k, 0.0)
    inflow = pos[..., 0] + pos[..., 1]
    inflow += pos[..., 2]
    inflow[inflow == 0.0] = np.inf  # no inflow: every k_i / inf is zero
    return np.divide(k, inflow[..., None], out=pos)


def correction_scalar(parts, total, areas, weights):
    """Add theta (k_i / sum_j k_j^+) Phi^T to scalar parts.

    ``weights`` (T, 3) holds the weights k_i / sum_j k_j^+
    (``correction_weights``) of the scheme's upwind parameters k (equal
    to (n_i . u)/2), with k_j^+ = max(k_j, 0).  Each weight is
    dimensionless, so the correction scales like the parts, and the three
    sum to zero as the k_i do, so conservation is unchanged; a triangle
    with no inflow gets no correction.  This is the inverse inflow tau of
    the filtering term of Abgrall, Larat and Ricchiuto (JCP 230, 2011)
    applied to k_i Phi^T.  For scalar laws the shock marker is the
    residual itself.  The amplitude theta Phi^T is formed per triangle
    before it meets the (T, 3) weights; the correction is formed in one
    array laid out like ``parts``, which is not modified.
    """
    parts = np.asarray(parts, dtype=float)
    total = np.asarray(total, dtype=float)
    amp = correction_theta(areas, total[..., 0])[..., None] * total
    out = np.multiply(weights[..., None], amp[..., None, :], out=np.empty_like(parts))
    out += parts
    return out


def correction_system(parts, total, areas, normals, law, waves):
    """Add theta |T|^{-1/2} K_i Phi^T to the system parts ``parts``, in place.

    K_i = (n_i . J)/2 at each triangle's arithmetic-mean state, whose wave
    data is ``waves`` (``law.waves``), applied to Phi^T by the law's
    closed-form ``jacobian_product`` (no Jacobian matrix is built).  The
    shock marker is |theta_ent|, the amplitude of Phi^T on the entropy
    wave (``law.entropy_amplitude``, the one field of
    ``law.characteristic`` it needs, which depends on no direction).
    ``parts``, a float (T, 3, m) array, is modified and returned; a
    caller that keeps its input passes a copy.
    """
    total = np.asarray(total, dtype=float)
    theta = correction_theta(areas, law.entropy_amplitude(total, waves))
    scale = 0.5 * theta / np.sqrt(np.asarray(areas, dtype=float))
    amp = (scale[..., None] * total)[..., None, :]
    return law.jacobian_product(amp, None, normals, _per_node(waves), add_to=parts)
