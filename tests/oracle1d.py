"""The relaxation scheme on a segment, and the 1-D fluctuations it reduces to.

Classic approximate Riemann solvers written in fluctuation form: the jump
between a left and right state is split into a left-going part ``minus``
and a right-going part ``plus`` whose sum is the exact flux difference
f(q_r) - f(q_l).  The relaxation scheme collapses on a degenerate
(segment) element to the local Lax-Friedrichs splitting, LeVeque and
Pelanti's one-dimensional result that the paper builds on
(``rxn_scheme_1d``, ``reduction_1d``).  No march runs a segment, so the
scheme and its oracles live with the tests.

All routines work on a conservation-law object restricted to one space
dimension by fixing the flux direction to (1, 0); scalar laws and the
gas-dynamics system are supported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rdflux import physics
from rdflux.errors import InvalidArgument


@dataclass(frozen=True)
class Fluctuations1D:
    """Left-going and right-going parts of a 1D interface jump.

    ``minus + plus`` equals the flux difference f(q_r) - f(q_l); the
    steady-state update of the adjacent cells uses one part each.
    """

    minus: np.ndarray
    plus: np.ndarray

    @property
    def total(self):
        return self.minus + self.plus


def _as_state(q, m):
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape != (m,):
        raise InvalidArgument(f"state must have {m} components, got shape {q.shape}")
    return q


def _flux_x(law, q):
    """Flux component in the fixed 1D direction, as a length-m vector."""
    fx, _ = law.flux(q[None, :])
    return np.asarray(fx, dtype=float).reshape(-1)


def llf_1d(law, q_left, q_right, s):
    """Local Lax-Friedrichs (Rusanov) splitting with bound ``s``.

    minus = (f(q_r) - f(q_l))/2 - (s/2)(q_r - q_l)
    plus  = (f(q_r) - f(q_l))/2 + (s/2)(q_r - q_l)

    ``s`` must dominate every wave speed of both states; equal states
    give exactly zero parts.
    """
    q_left = _as_state(q_left, law.m)
    q_right = _as_state(q_right, law.m)
    s = float(s)
    df = 0.5 * (_flux_x(law, q_right) - _flux_x(law, q_left))
    dq = 0.5 * s * (q_right - q_left)
    return Fluctuations1D(minus=df - dq, plus=df + dq)


def hll_1d(law, q_left, q_right, s_left, s_right):
    """Two-speed HLL splitting with wave-speed estimates ``s_left < s_right``.

    The middle state follows from integral conservation over the wave
    fan; with s+ = max(0, s) and s- = min(0, s) the parts are

      minus = (s_l^- (f_r - f_l) - s_l^- s_r^+ (q_r - q_l)) / (s_r - s_l)
              + (s_r^- - s_l^-)/(s_r - s_l) * ... (assembled below)

    computed via the equivalent flux-splitting form.  Choosing the
    symmetric pair (-s, s) reproduces ``llf_1d`` identically.
    """
    q_left = _as_state(q_left, law.m)
    q_right = _as_state(q_right, law.m)
    sl = float(s_left)
    sr = float(s_right)
    if sr <= sl:
        raise InvalidArgument(
            f"wave-speed estimates must satisfy s_left < s_right, got {sl} >= {sr}"
        )
    fl = _flux_x(law, q_left)
    fr = _flux_x(law, q_right)
    dq = q_right - q_left
    # Interface flux of the two-wave fan (s^+ = max(0,s), s^- = min(0,s)):
    #   f* = (s_r^+ f_l - s_l^- f_r + s_l^- s_r^+ dq) / (s_r^+ - s_l^-)
    # which degenerates to pure upwinding when both speeds share a sign.
    slm = min(sl, 0.0)
    srp = max(sr, 0.0)
    if srp == slm:  # both estimates zero: stationary fan, split evenly
        fstar = 0.5 * (fl + fr)
    else:
        fstar = (srp * fl - slm * fr + slm * srp * dq) / (srp - slm)
    return Fluctuations1D(minus=fstar - fl, plus=fr - fstar)


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


def reduction_1d(seed, n=1000):
    """Worst gap of ``rxn_scheme_1d`` to ``llf_1d``, and of ``hll_1d`` with
    the symmetric speeds (-s, s) to ``llf_1d``, over ``n`` random Riemann
    pairs of each scalar law (constant advection and Burgers), relative to
    max(1, |LLF parts|)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for law in (physics.Advection((1.0, 0.0)), physics.Burgers()):
        for _ in range(n):
            ql, qr = rng.normal(0.0, 2.0, 2)
            s = 1.1 * max(abs(ql), abs(qr), 1e-3) + rng.uniform(0.0, 1.0)
            minus, plus = rxn_scheme_1d(law, np.array([ql]), np.array([qr]), s)
            ref = llf_1d(law, [ql], [qr], s)
            hll = hll_1d(law, [ql], [qr], -s, s)
            scale = max(1.0, float(np.abs(ref.minus).max()), float(np.abs(ref.plus).max()))
            err = max(
                np.abs(minus - ref.minus).max(), np.abs(plus - ref.plus).max(),
                np.abs(hll.minus - ref.minus).max(), np.abs(hll.plus - ref.plus).max(),
            )
            worst = max(worst, float(err) / scale)
    return worst
