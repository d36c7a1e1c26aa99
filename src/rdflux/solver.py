"""Pseudo-time marching of residual-distribution schemes to steady state.

The solver composes the pieces of the library: per-triangle residual
distribution (module ``distribution``), optional positivity-preserving
limiting and the smooth-region accuracy correction (module ``limiting``),
a nodal scatter, a forward pseudo-time update, and strong boundary
enforcement (module ``boundary``).  Marching stops when the update rate
falls below a relative tolerance, the iteration budget runs out, or the
rate grows past a divergence guard.

One iteration runs in this order:

1. gather: the state is gathered to the triangles once, ``q[tris]``;
2. nodal fields: for laws with primitive variables (Euler) the
   primitives are computed once on the N mesh nodes, and from them the
   max wave speed where the configuration reads it, and the flux pair
   for RXN or the parameter vector for the systems N scheme; and once
   on the triangles' arithmetic-mean states (``Sweep``);
3. the per-triangle wave-speed bound and the time step;
4. triangle pass (``distribute``, per chunk of triangles): each chunk
   gathers the nodal fields it needs, distributes its residual, and
   limits and corrects the parts at each triangle's arithmetic-mean
   state.  The limiting direction, the characteristic projection and
   reconstruction, the entropy marker and the Jacobian-vector products
   all read that state's primitives from the sweep; they are closed-form
   expressions, with no eigenvector or Jacobian matrix;
5. scatter: the parts are summed into the nodes, the state is updated,
   boundary conditions are enforced and the new state is checked.

The environment variable ``RD_THREADS`` sets the number of assembly
threads (default 1).  Triangles are processed in fixed contiguous chunks
either way, and the chunk results are accumulated in ascending chunk
order, so repeated runs are bit-identical.
"""
from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from . import limiting
from .errors import Diverged, InvalidArgument, NonPhysicalState, StagnantField

__all__ = [
    "SolverConfig",
    "SolveResult",
    "Solver",
    "distribute",
    "SCHEMES",
    "DT_MODES",
    "CHOICES",
]

SCHEMES = ("n", "rxn")
DT_MODES = ("upwind", "relaxation")
# Allowed values of each choice field of ``SolverConfig``.
CHOICES = {"scheme": SCHEMES, "dt_mode": DT_MODES}


def _env_threads():
    raw = os.environ.get("RD_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise InvalidArgument(f"RD_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the steady-state solve.

    This class is the one home of the solver options: every field but
    ``n_threads`` is the config key ``solver.<field>``, whose kind,
    default and choices (``CHOICES``) the config schema reads from here.

    ``scheme`` picks the distribution family ("n" upwind or "rxn"
    relaxation); ``limited`` and ``corrected`` switch the nonlinear
    limiter and the smooth-region correction on top of it.  The time
    step is ``cfl_fraction`` times the bound of the ``dt_mode`` rule.
    Only ``"relaxation"``, the bound of the relaxation positivity theorem
    (wave-speed bound times edge lengths), carries a positivity proof for
    gas dynamics.  ``"upwind"`` is the N scheme's positive-coefficient
    bound for scalar laws; for gas dynamics it is evaluated at each
    triangle's mean state and proves nothing: on ``cylinder-supersonic``
    it lets nodal pressures turn non-positive.  ``stop_tol`` is relative to
    the first iteration's update rate.  ``safety`` scales the wave-speed
    bound.  ``n_threads`` is set at run time and defaults to the
    RD_THREADS environment variable.
    """

    scheme: str = "rxn"
    limited: bool = True
    corrected: bool = True
    cfl_fraction: float = 0.85
    max_iters: int = 20000
    stop_tol: float = 1.0e-10
    divergence_factor: float = 1.0e6
    history_stride: int = 10
    local_time_stepping: bool = False
    dt_mode: str = "upwind"
    safety: float = 1.1
    n_threads: int | None = None

    def validate(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise InvalidArgument(f"{name} must be one of {allowed}, got {value!r}")
        if not 0.0 < self.cfl_fraction <= 1.0:
            raise InvalidArgument("cfl_fraction must lie in (0, 1]")
        if self.max_iters < 1:
            raise InvalidArgument("max_iters must be at least 1")
        if self.stop_tol < 0.0:
            raise InvalidArgument("stop_tol must be nonnegative")
        if self.divergence_factor <= 1.0:
            raise InvalidArgument("divergence_factor must exceed 1")
        if self.history_stride < 1:
            raise InvalidArgument("history_stride must be at least 1")
        if self.safety < 1.0:
            raise InvalidArgument("safety must be at least 1")
        if self.n_threads is not None and self.n_threads < 1:
            raise InvalidArgument("n_threads must be at least 1")
        return self


@dataclass
class SolveResult:
    """Outcome of a pseudo-time march.

    ``history`` holds (iteration, pseudo_time, relative_update_rate)
    triples sampled every ``history_stride`` iterations plus the first
    and last.  ``reason`` is "converged" or "max_iters"; a run whose
    residual blows past ``divergence_factor`` raises ``Diverged``
    instead of returning.
    """

    q: np.ndarray
    iterations: int
    reason: str
    initial_residual: float
    final_residual: float
    history: list = field(default_factory=list)
    fallback_triangles: int = 0

    @property
    def converged(self):
        return self.reason == "converged"


@dataclass(frozen=True)
class Sweep:
    """Data derived once from the state ``q`` of one iteration.

    ``q_nodes`` is the state gathered to the triangles (T, 3, m), and
    ``s`` the per-triangle wave-speed bound (None when nothing reads
    it).  For laws with primitive variables (Euler), ``prim`` holds them
    on the N mesh nodes, and ``flux`` (the pair f, g, read by RXN) and
    ``z`` (the parameter vector, read by the systems N scheme) are
    computed from them on the nodes; consumers gather them to their
    triangles.  ``q_mean`` (T, m) is each triangle's arithmetic-mean
    state and ``prim_mean`` its primitives, shared by the wave-speed
    bound and the limiter and correction (None when neither reads them).
    A sweep lives for one iteration only.
    """

    q_nodes: np.ndarray
    s: np.ndarray | None = None
    prim: tuple | None = None
    flux: tuple | None = None
    z: np.ndarray | None = None
    q_mean: np.ndarray | None = None
    prim_mean: tuple | None = None


def _triangle_inner(a):
    """``a`` (T, ...) stored with the triangle axis innermost (a copy unless
    it already is)."""
    return np.ascontiguousarray(a.T).T


def distribute(
    law, cfg, normals, areas, q_nodes, *, s=None, k=None, velocity=None, flux=None,
    z_nodes=None, q_mean=None, prim_mean=None,
):
    """Distributed parts of one triangle batch: scheme, limiter, correction.

    The one pipeline behind ``Solver.assemble``; the self-check suites
    run it on raw triangle batches.  ``cfg`` is a ``SolverConfig``,
    ``normals`` (T, 3, 2), ``areas`` (T,) and ``q_nodes`` (T, 3, m).
    ``velocity`` (T, 3, 2) gives nodal velocities for advection by a
    position-dependent field.  The other keyword arrays pass precomputed
    data for these triangles, each computed from ``q_nodes`` when None:
    the wave-speed bound ``s`` (T,), the scalar upwind parameters ``k``
    (T, 3), the nodal flux pair, the nodal parameter vectors
    ``z_nodes`` (T, 3, m), and the mean states ``q_mean`` (T, m) with
    their primitives ``prim_mean``.

    The limiter and the correction of a system are evaluated at each
    triangle's arithmetic-mean state (Q_1 + Q_2 + Q_3) / 3, whichever
    the scheme; the mean of physical states is physical.

    Returns ``(parts, res)``: the final (T, 3, m) parts and the scheme's
    own ``DistributedResidual`` (its ``total`` and stagnation
    ``fallback`` mask).
    """
    if cfg.scheme == "n":
        if law.m == 1:
            res = dist.n_scheme_scalar(law, normals, q_nodes, k=k)
        else:
            res = dist.n_scheme_system(
                law, normals, q_nodes, safety=cfg.safety, z_nodes=z_nodes
            )
    else:
        res = dist.rxn_scheme(
            law, normals, q_nodes, s=s, velocity=velocity, safety=cfg.safety, flux=flux
        )
    flux = None  # the gathered flux is spent; free it before the limiter's temporaries

    parts = res.parts
    if not (cfg.limited or cfg.corrected):
        return parts, res
    total = res.total

    if law.m == 1:
        if cfg.limited:
            parts = limiting.limit_scalar(parts, total)
        if cfg.corrected:
            if k is None:
                k = dist.scalar_upwind_k(law, normals, q_nodes)
            parts = limiting.correction_scalar(parts, total, areas, k)
        return parts, res

    # The closed-form limiter and correction are elementwise over the
    # triangles and run fastest with that axis innermost, which RXN's parts
    # already have; the systems N scheme returns its parts in C order.
    parts = _triangle_inner(parts)
    if q_mean is None:
        q_mean = (q_nodes[:, 0] + q_nodes[:, 1] + q_nodes[:, 2]) / 3.0
    if prim_mean is None:
        prim_mean = law.primitives(q_mean)
    direction = limiting.limiting_direction(law, q_mean, prim_mean)
    if cfg.limited:
        parts = limiting.limit_system(parts, law, q_mean, direction, prim_mean)
    if cfg.corrected:
        parts = limiting.correction_system(
            parts, total, areas, normals, law, q_mean, direction, prim_mean
        )
    return parts, res


class Solver:
    """Steady-state driver bound to one mesh, law, and boundary set.

    Per-mesh geometry (scaled inward normals, areas, median dual areas)
    and, for advection laws, the exact streamfunction-integrated upwind
    parameters and nodal velocities are precomputed once.
    """

    def __init__(self, mesh, law, boundaries=None, config=None):
        self.mesh = mesh
        self.law = law
        self.boundaries = boundaries
        self.cfg = (config or SolverConfig()).validate()

        self.tris = np.asarray(mesh.tris)
        # Per-triangle arrays are stored with the triangle axis innermost
        # in memory (see ``_gather``).
        self.normals = _triangle_inner(np.asarray(mesh.normals, dtype=float))
        self.areas = np.asarray(mesh.areas, dtype=float)
        self.dual = np.asarray(mesh.dual_areas, dtype=float)
        self.nlen = np.hypot(self.normals[..., 0], self.normals[..., 1])
        self.n_nodes = mesh.n_nodes

        tri_xy = mesh.tri_coords()
        if hasattr(law, "velocity_at"):
            vel = np.asarray(law.velocity_at(tri_xy), dtype=float)
            self.vel_nodes = _triangle_inner(np.broadcast_to(vel, tri_xy.shape))
        else:
            self.vel_nodes = None
        if law.m == 1 and hasattr(law, "streamfunction"):
            self.k_static = _triangle_inner(dist.advection_upwind_k(law, tri_xy))
        else:
            self.k_static = None

        self.n_threads = (
            self.cfg.n_threads if self.cfg.n_threads is not None else _env_threads()
        )
        self._chunks = self._plan_chunks()
        self._chunk_nodes = [self.tris[sl].ravel() for sl in self._chunks]
        self.tris_flat = self.tris.ravel()
        self._tris_t = np.ascontiguousarray(self.tris.T)
        self._pool = None  # created on the first threaded assemble

    # -- assembly ------------------------------------------------------------

    def _plan_chunks(self):
        n_tris = self.tris.shape[0]
        n = min(self.n_threads, max(1, n_tris))
        bounds = np.linspace(0, n_tris, n + 1).astype(int)
        return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def _scatter_add(self, out, flat_nodes, parts):
        """Accumulate per-triangle nodal values into ``out`` (N, m).

        One bincount per component: summation order is fixed by node
        index, so repeated runs accumulate bit-identically.
        """
        n = out.shape[0]
        for j in range(out.shape[1]):
            out[:, j] += np.bincount(
                flat_nodes, weights=parts[..., j].ravel(), minlength=n
            )

    def _gather(self, a, sl=slice(None)):
        """Nodal values ``a`` (N, ...) at the nodes of triangles ``sl``: (T, 3, ...).

        The result is stored with the triangle axis innermost.  Elementwise
        NumPy operations that broadcast over the node or component axis
        then run one long loop over the triangles instead of one short
        loop per triangle; values and summation orders do not depend on
        the layout.
        """
        return np.take(a.T, self._tris_t[:, sl], axis=-1).T

    def _parts_slice(self, sl, sweep):
        """Distributed (and limited/corrected) parts for one triangle chunk."""
        parts, res = distribute(
            self.law,
            self.cfg,
            self.normals[sl],
            self.areas[sl],
            sweep.q_nodes[sl],
            s=None if sweep.s is None else sweep.s[sl],
            k=None if self.k_static is None else self.k_static[sl],
            velocity=None if self.vel_nodes is None else self.vel_nodes[sl],
            flux=None if sweep.flux is None else tuple(self._gather(f, sl) for f in sweep.flux),
            z_nodes=None if sweep.z is None else self._gather(sweep.z, sl),
            q_mean=None if sweep.q_mean is None else sweep.q_mean[sl],
            prim_mean=None if sweep.prim_mean is None else tuple(x[sl] for x in sweep.prim_mean),
        )
        return parts, 0 if res.fallback is None else int(res.fallback.sum())

    def assemble(self, q, sweep=None):
        """Nodal residual sums R_i = sum over incident triangles of Phi_i.

        Returns ``(residual (N, m), fallback_count)``.  ``sweep`` passes
        the iteration's precomputed ``Sweep`` of ``q`` (the marching
        loop shares one between the step-size rule and the assembly);
        it is computed when None.  Chunks are accumulated in ascending
        chunk order, whatever the number of threads.
        """
        q = np.asarray(q, dtype=float)
        if sweep is None:
            sweep = self._sweep(q)
        if len(self._chunks) == 1:
            results = [self._parts_slice(self._chunks[0], sweep)]
        else:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.n_threads)
                weakref.finalize(self, self._pool.shutdown, wait=False)
            results = self._pool.map(
                self._parts_slice, self._chunks, [sweep] * len(self._chunks)
            )
        out = np.zeros((self.n_nodes, self.law.m))
        fallback = 0
        for nodes, (parts, n_fb) in zip(self._chunk_nodes, results):
            self._scatter_add(out, nodes, parts)
            fallback += n_fb
        return out, fallback

    # -- time step -----------------------------------------------------------

    def _sweep(self, q):
        """The ``Sweep`` of state ``q``: one gather, nodal fields, bound."""
        law, cfg = self.law, self.cfg
        q_nodes = self._gather(q)
        prim = law.primitives(q) if hasattr(law, "primitives") else None
        # The bound is read by the relaxation scheme and the relaxation
        # step size; upwind steps with the N scheme never consume it.
        bounded = cfg.scheme == "rxn" or cfg.dt_mode == "relaxation"
        q_mean = prim_mean = None
        if prim is not None and (bounded or cfg.limited or cfg.corrected):
            q_mean = (q_nodes[:, 0] + q_nodes[:, 1] + q_nodes[:, 2]) / 3.0
            prim_mean = law.primitives(q_mean)
        s = None
        if bounded:
            speeds = mean_speed = None
            if prim is not None:
                speeds = self._gather(law.max_wavespeed(q, prim))
                mean_speed = law.max_wavespeed(q_mean, prim_mean)
            s = dist.wave_speed_bound(
                law, q_nodes, velocity=self.vel_nodes, safety=cfg.safety, speeds=speeds,
                mean_speed=mean_speed,
            )
        if prim is None:
            return Sweep(q_nodes, s)
        mean = {"q_mean": q_mean, "prim_mean": prim_mean}
        if cfg.scheme == "rxn":
            return Sweep(q_nodes, s, prim, flux=law.flux(q, prim), **mean)
        return Sweep(q_nodes, s, prim, z=law.to_params(q, prim), **mean)

    def _inflow_coefficients(self, sweep):
        """Nodal coefficients D_i bounding the update: dt_i <= 2 |C_i| / D_i."""
        law = self.law
        if self.cfg.dt_mode == "relaxation":
            contrib = self.nlen * sweep.s[:, None]
        elif law.m == 1:
            if self.k_static is not None:
                k = self.k_static
            else:
                k = dist.scalar_upwind_k(law, self.normals, sweep.q_nodes)
            contrib = np.maximum(2.0 * k, 0.0)
        else:
            # Upwind bound of gas dynamics at the triangle's mean state.
            rho_m, u_m, v_m, p_m = (
                (x[:, 0] + x[:, 1] + x[:, 2]) / 3.0 for x in map(self._gather, sweep.prim)
            )
            a = np.sqrt(law.gamma * p_m / rho_m)
            un = u_m[:, None] * self.normals[..., 0] + v_m[:, None] * self.normals[..., 1]
            contrib = np.maximum(un + a[:, None] * self.nlen, 0.0)
        return np.bincount(
            self.tris_flat, weights=contrib.ravel(), minlength=self.n_nodes
        )

    def stable_dt(self, q, sweep=None):
        """Largest step of the ``dt_mode`` rule times ``cfl_fraction``.

        Which rules carry a positivity proof: see ``SolverConfig``.

        Nodes with zero inflow coefficient impose no bound and are
        skipped; if every node is unconstrained the field cannot evolve
        and StagnantField is raised.  With ``local_time_stepping`` the
        return is per-node (unconstrained nodes get the global value).
        ``sweep`` passes the precomputed ``Sweep`` of ``q``.
        """
        if sweep is None:
            sweep = self._sweep(np.asarray(q, dtype=float))
        d = self._inflow_coefficients(sweep)
        pos = d > 0.0
        if not pos.any():
            raise StagnantField(
                "no wave crosses any dual-cell boundary; the time step is unbounded"
            )
        bounds = 2.0 * self.dual[pos] / d[pos]
        dt_global = self.cfg.cfl_fraction * bounds.min()
        if not self.cfg.local_time_stepping:
            return dt_global
        dt = np.full(self.n_nodes, dt_global)
        dt[pos] = self.cfg.cfl_fraction * 2.0 * self.dual[pos] / d[pos]
        return dt

    # -- marching ------------------------------------------------------------

    def step(self, q, dt=None, sweep=None):
        """One forward pseudo-time step.

        Returns ``(q_new, update_rate, fallback_count)`` where the rate
        is the nodal L2 norm of |C_i| (q_new - q) / dt measured *after*
        boundary enforcement, so it vanishes exactly at a steady state
        compatible with the boundary conditions.  ``sweep`` passes the
        precomputed ``Sweep`` of ``q``, shared by the step-size rule and
        the assembly.
        """
        q = np.asarray(q, dtype=float)
        if sweep is None:
            sweep = self._sweep(q)
        if dt is None:
            dt = self.stable_dt(q, sweep)
        dt_col = dt[:, None] if np.ndim(dt) == 1 else dt
        residual, fallback = self.assemble(q, sweep)
        q_new = q - dt_col / self.dual[:, None] * residual
        if self.boundaries is not None:
            self.boundaries.apply(q_new)
        if not np.isfinite(q_new).all():
            bad = int(np.nonzero(~np.isfinite(q_new).all(axis=1))[0][0])
            raise NonPhysicalState(f"non-finite state at node {bad}")
        self.law.check_physical(q_new)
        rate = self.dual[:, None] * (q_new - q) / dt_col
        return q_new, float(np.sqrt((rate * rate).sum())), fallback

    def march(self, q0, *, callback=None):
        """Iterate to steady state from ``q0`` ((N, m) or (N,) for m=1).

        Boundary conditions are enforced on the initial state.  The
        stopping test compares each iteration's update rate with the
        first one's; a first rate already at rounding level (below
        1e-13 of the rate scale of the state itself) counts as
        converged immediately when ``stop_tol`` is positive.
        ``callback(iteration, q, relative_rate)`` runs every iteration.
        """
        cfg = self.cfg
        q = np.array(q0, dtype=float)
        if q.ndim == 1:
            q = q[:, None]
        if q.shape != (self.n_nodes, self.law.m):
            raise InvalidArgument(
                f"initial state must have shape ({self.n_nodes}, {self.law.m}), got {q.shape}"
            )
        if self.boundaries is not None:
            self.boundaries.apply(q)
        self.law.check_physical(q, "in initial state")

        history = []
        r0 = None
        rel = np.inf
        t = 0.0
        reason = "max_iters"
        it = 0
        fallback_total = 0
        for it in range(1, cfg.max_iters + 1):
            try:
                sweep = self._sweep(q)
                dt = self.stable_dt(q, sweep)
                q_new, rate, n_fb = self.step(q, dt, sweep)
            except NonPhysicalState as exc:
                raise NonPhysicalState(f"iteration {it}: {exc}") from exc
            del sweep
            fallback_total += n_fb
            t += float(dt) if np.ndim(dt) == 0 else float(np.min(dt))
            if r0 is None:
                r0 = rate
                rel = 1.0
                if cfg.stop_tol > 0.0 and r0 <= 1.0e-13 * self._rate_scale(q, dt):
                    q = q_new
                    history.append((it, t, 0.0))
                    reason = "converged"
                    rel = 0.0
                    if callback is not None:
                        callback(it, q, rel)
                    break
            else:
                rel = rate / r0 if r0 > 0.0 else 0.0
            if it == 1 or it % cfg.history_stride == 0:
                history.append((it, t, rel))
            q = q_new
            if callback is not None:
                callback(it, q, rel)
            if rel <= cfg.stop_tol:
                reason = "converged"
                break
            if not np.isfinite(rel) or rel > cfg.divergence_factor:
                raise Diverged(
                    f"iteration {it}: relative residual {rel:.3e} exceeds "
                    f"{cfg.divergence_factor:.1e} times the initial rate"
                )
        if not history or history[-1][0] != it:
            history.append((it, t, rel))
        return SolveResult(
            q=q,
            iterations=it,
            reason=reason,
            initial_residual=float(r0 if r0 is not None else 0.0),
            final_residual=float(rel),
            history=history,
            fallback_triangles=fallback_total,
        )

    def _rate_scale(self, q, dt):
        """Rate magnitude of the state itself, |C| |q| / dt, for floors."""
        dt_col = dt[:, None] if np.ndim(dt) == 1 else dt
        ref = self.dual[:, None] * q / dt_col
        return max(float(np.sqrt((ref * ref).sum())), 1.0e-300)
