"""Pseudo-time marching of residual-distribution schemes to steady state.

The solver composes the pieces of the library: per-triangle residual
distribution (module ``distribution``), optional positivity-preserving
limiting and the smooth-region accuracy correction (module ``limiting``),
a nodal scatter, a forward pseudo-time update, and strong boundary
enforcement (module ``boundary``).  Marching stops when the update rate
falls below a relative tolerance, the iteration budget runs out, or the
rate grows past a divergence guard.

One iteration runs in this order:

1. sweep (``Solver._sweep``, the one builder of the triangle pass's
   inputs): the state is gathered to the triangles once; for laws with
   primitive variables (Euler) the primitives are computed once on the N
   mesh nodes, and from them the max wave speed, and the flux pair for
   RXN or the parameter vector for the systems N scheme; and once on the
   triangles' arithmetic-mean states.  It also holds the per-triangle
   wave-speed bound where a scheme or step rule reads it, a scalar law's
   upwind parameters k, and an advection field's relaxation map; each is
   computed once, or passed in from ``Solver`` where the mesh alone fixes
   it;
2. the time step, by the rule of the law: relaxation for systems, upwind
   for scalars (``stable_dt``);
3. triangle pass (``Solver._distribute``, per chunk of triangles on the
   chunk's ``Sweep.take`` slice): each chunk gathers the nodal fields it
   needs, distributes its residual, and limits and corrects the parts at
   each triangle's arithmetic-mean state.  The limiting direction reads
   that state's primitives from the sweep; the characteristic projection
   and reconstruction, the entropy marker and the Jacobian-vector
   products read its wave data, computed once from them.  All are
   closed-form expressions, and so is the systems N scheme's split of the
   Jacobians: no eigenvector or Jacobian matrix is built;
4. scatter: the parts are summed into the nodes, the state is updated,
   boundary conditions are enforced and the new state is checked.

``SolverConfig.n_threads`` sets the number of assembly threads
(default 1).  Triangles are processed in fixed contiguous chunks either
way, and the chunk results are accumulated in ascending chunk order, so
repeated runs are bit-identical.

Memory: an iteration allocates and frees about 10 MB of NumPy
temporaries.  The first ``Solver`` of a process tells glibc's allocator
to keep freed heap memory for reuse instead of returning it to the
kernel (``_memory.retain_heap``), so a steady iteration takes no page
faults.  The process's resident size then stays at its high-water mark.
Elsewhere (macOS, Windows, musl) this is a no-op.
"""
from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import distribution as dist
from . import limiting
from ._memory import retain_heap
from .errors import Diverged, InvalidArgument, NonPhysicalState, StagnantField

__all__ = [
    "SolverConfig",
    "SolveResult",
    "Solver",
    "SCHEMES",
    "CHOICES",
]

SCHEMES = ("n", "rxn")
# Allowed values of each choice field of ``SolverConfig``.
CHOICES = {"scheme": SCHEMES}


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the steady-state solve.

    This class is the one home of the solver options: every field but
    ``n_threads`` is the config key ``solver.<field>``, whose kind,
    default and choices (``CHOICES``) the config schema reads from here.

    ``scheme`` picks the distribution family ("n" upwind or "rxn"
    relaxation); ``limited`` and ``corrected`` switch the nonlinear
    limiter and the smooth-region correction on top of it.  The time
    step is ``cfl_fraction`` times the step bound of the law (see
    ``Solver.stable_dt``).  ``stop_tol`` is relative to the first
    iteration's update rate.  ``n_threads`` is the number of assembly
    threads; it is an argument of the library call only.
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
    n_threads: int = 1

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
        if self.n_threads < 1:
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
    """Every input of one iteration's triangle pass; ``Solver._sweep`` builds it.

    ``tris`` (3, T) holds the triangles' node ids, node-major, and
    ``normals`` (T, 3, 2) and ``areas`` (T,) their geometry.  ``q_nodes``
    is the state gathered to the triangles (T, 3, m), ``s`` the
    per-triangle wave-speed bound (None where nothing reads it: a scalar
    law reads it only under RXN without the advection map), ``k`` (T, 3)
    a scalar law's upwind parameters and ``coefficients`` the relaxation
    map (g, w) of an advection field under RXN, which carries its own
    bound (``distribution.advection_coefficients``).
    For laws with primitive variables (Euler), ``flux`` (the pair f, g,
    read by RXN) or ``z`` (the parameter vector, read by the systems N
    scheme) holds values on the N mesh nodes, which the pass gathers
    (``gather``); ``q_mean`` (T, m) is each triangle's arithmetic-mean
    state and ``prim_mean`` its primitives, shared by the wave-speed
    bound and the limiter and correction.  Fields that the mesh alone
    fixes are the solver's own arrays, not copies.  A sweep lives for one
    iteration only.
    """

    tris: np.ndarray
    normals: np.ndarray
    areas: np.ndarray
    q_nodes: np.ndarray
    s: np.ndarray | None = None
    k: np.ndarray | None = None
    coefficients: tuple | None = None
    flux: tuple | None = None
    z: np.ndarray | None = None
    q_mean: np.ndarray | None = None
    prim_mean: tuple | None = None

    def gather(self, a):
        """Nodal values ``a`` (N, ...) at the nodes of these triangles: (T, 3, ...)."""
        return _gather(a, self.tris)

    def take(self, sl):
        """The sweep of the triangles ``sl``; nodal fields stay shared."""
        def cut(x):
            if isinstance(x, tuple):
                return tuple(cut(a) for a in x)
            return x if x is None else x[sl]

        per_triangle = ("normals", "areas", "q_nodes", "s", "k", "coefficients", "q_mean",
                        "prim_mean")
        return replace(self, tris=self.tris[:, sl],
                       **{name: cut(getattr(self, name)) for name in per_triangle})


def _gather(a, tris):
    """Nodal values ``a`` (N, ...) at the nodes ``tris`` (3, T): (T, 3, ...).

    The result is stored with the triangle axis innermost.  Elementwise
    NumPy operations that broadcast over the node or component axis then
    run one long loop over the triangles instead of one short loop per
    triangle; values and summation orders do not depend on the layout.
    """
    return np.take(a.T, tris, axis=-1).T


def _triangle_inner(a):
    """``a`` (T, ...) stored with the triangle axis innermost (a copy unless
    it already is)."""
    return np.ascontiguousarray(a.T).T


class Solver:
    """Steady-state driver bound to one mesh, law, and boundary set.

    Per-mesh geometry (scaled inward normals, areas, median dual areas)
    and, for advection laws, what depends on the mesh alone are
    precomputed once: the exact streamfunction-integrated upwind
    parameters and the nodal inflow coefficients of the upwind step rule,
    and on a ``velocity_at`` field under ``scheme="rxn"`` the relaxation
    scheme's linear map (g, w) (``rxn_static``).  The first ``Solver`` of
    a process keeps freed heap memory resident (see the module docstring).
    """

    def __init__(self, mesh, law, boundaries=None, config=None):
        retain_heap()
        self.mesh = mesh
        self.law = law
        self.boundaries = boundaries
        self.cfg = (config or SolverConfig()).validate()

        self.tris = np.asarray(mesh.tris)
        # Per-triangle arrays are stored with the triangle axis innermost
        # in memory (see ``_gather``).  For advection laws the mesh alone
        # fixes the sweep's ``k`` and ``coefficients``: they are built here
        # once, as ``k_static`` and ``rxn_static``.
        self.normals = _triangle_inner(np.asarray(mesh.normals, dtype=float))
        self.areas = np.asarray(mesh.areas, dtype=float)
        self.dual = np.asarray(mesh.dual_areas, dtype=float)
        self.nlen = np.hypot(self.normals[..., 0], self.normals[..., 1])
        self.n_nodes = mesh.n_nodes
        self.tris_flat = self.tris.ravel()

        tri_xy = mesh.tri_coords()
        self.rxn_static = None
        if hasattr(law, "velocity_at") and self.cfg.scheme == "rxn":
            vel = np.asarray(law.velocity_at(tri_xy), dtype=float)
            vel = _triangle_inner(np.broadcast_to(vel, tri_xy.shape))
            coef = dist.advection_coefficients(self.normals, vel)
            self.rxn_static = tuple(_triangle_inner(c) for c in coef)
        if law.m == 1 and hasattr(law, "streamfunction"):
            self.k_static = _triangle_inner(dist.advection_upwind_k(law, tri_xy))
            self.d_static = self._inflow_coefficients(None, self.k_static)
        else:
            self.k_static = self.d_static = None

        self.n_threads = self.cfg.n_threads
        self._chunks = self._plan_chunks()
        self._chunk_nodes = [self.tris[sl].ravel() for sl in self._chunks]
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

    def _distribute(self, sweep):
        """Distributed parts of one sweep slice: scheme, limiter, correction.

        The one pipeline behind ``assemble``.  The limiter and the
        correction of a system are evaluated at each triangle's
        arithmetic-mean state (Q_1 + Q_2 + Q_3) / 3, whichever the scheme;
        the mean of physical states is physical.  That state's wave data
        (``law._waves``) is computed once and shared by both.

        Returns ``(parts, fallback_count)``: the final (T, 3, m) parts and
        the number of triangles whose N-scheme star solve fell back.
        """
        law, cfg = self.law, self.cfg
        normals, q_nodes = sweep.normals, sweep.q_nodes
        if cfg.scheme == "rxn":
            flux = None if sweep.flux is None else tuple(sweep.gather(f) for f in sweep.flux)
            res = dist.rxn_scheme(law, normals, q_nodes, s=sweep.s, flux=flux,
                                  coefficients=sweep.coefficients)
            flux = None  # the gathered flux is spent; free it before the limiter's temporaries
        elif law.m == 1:
            res = dist.n_scheme_scalar(q_nodes, sweep.k)
        else:
            res = dist.n_scheme_system(law, normals, q_nodes, z_nodes=sweep.gather(sweep.z))
        fallback = 0 if res.fallback is None else int(res.fallback.sum())

        parts = res.parts
        if not (cfg.limited or cfg.corrected):
            return parts, fallback
        total = res.total

        if law.m == 1:
            if cfg.limited:
                parts = limiting.limit_scalar(parts, total)
            if cfg.corrected:
                parts = limiting.correction_scalar(parts, total, sweep.areas, sweep.k)
            return parts, fallback

        q_mean = sweep.q_mean
        direction = limiting.limiting_direction(law, q_mean, sweep.prim_mean)
        waves = law._waves(q_mean, sweep.prim_mean)
        if cfg.limited:
            parts = limiting.limit_system(parts, law, q_mean, direction, waves)
        if cfg.corrected:
            parts = limiting.correction_system(
                parts, total, sweep.areas, normals, law, q_mean, direction, waves
            )
        return parts, fallback

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
            results = [self._distribute(sweep)]
        else:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.n_threads)
                weakref.finalize(self, self._pool.shutdown, wait=False)
            results = self._pool.map(self._distribute, [sweep.take(sl) for sl in self._chunks])
        out = np.zeros((self.n_nodes, self.law.m))
        fallback = 0
        for nodes, (parts, n_fb) in zip(self._chunk_nodes, results):
            self._scatter_add(out, nodes, parts)
            fallback += n_fb
        return out, fallback

    # -- time step -----------------------------------------------------------

    def _sweep(self, q):
        """The ``Sweep`` of state ``q``: one gather, nodal fields, bound, k."""
        law, cfg = self.law, self.cfg
        q_nodes = _gather(q, self._tris_t)
        s, k = None, self.k_static
        nodal = {}
        if law.m == 1:
            if k is None:
                k = dist.scalar_upwind_k(law, self.normals, q_nodes)
            # A scalar law steps by k; of its schemes only the flux form
            # of RXN reads the bound (the advection map carries its own).
            if cfg.scheme == "rxn" and self.rxn_static is None:
                s = dist.wave_speed_bound(law, q_nodes)
        else:
            prim = law.primitives(q)
            q_mean = (q_nodes[:, 0] + q_nodes[:, 1] + q_nodes[:, 2]) / 3.0
            prim_mean = law.primitives(q_mean)
            speeds = _gather(law.max_wavespeed(q, prim), self._tris_t)
            s = dist.wave_speed_bound(
                law, q_nodes, speeds=speeds, mean_speed=law.max_wavespeed(q_mean, prim_mean)
            )
            nodal = {"q_mean": q_mean, "prim_mean": prim_mean}
            if cfg.scheme == "rxn":
                nodal["flux"] = law.flux(q, prim)
            else:
                nodal["z"] = law.to_params(q, prim)
        return Sweep(self._tris_t, self.normals, self.areas, q_nodes, s, k, self.rxn_static,
                     **nodal)

    def _inflow_coefficients(self, s, k):
        """Nodal coefficients D_i bounding the update: dt_i <= 2 |C_i| / D_i.

        A system reads the wave-speed bound ``s``, a scalar law its upwind
        parameters ``k``.
        """
        contrib = self.nlen * s[:, None] if self.law.m > 1 else np.maximum(2.0 * k, 0.0)
        return np.bincount(
            self.tris_flat, weights=contrib.ravel(), minlength=self.n_nodes
        )

    def stable_dt(self, q, sweep=None):
        """Largest step of the law's rule times ``cfl_fraction``.

        A system steps by the relaxation bound, min_i 2 |C_i| / sum_T
        s_T ||n_i||, under either scheme.  It is the bound of the
        positivity theorem of the unlimited relaxation scheme; the limiter
        and the correction are not covered by it.  A scalar law steps by
        the upwind bound, min_i 2 |C_i| / sum_T max(2 k_i, 0), the N
        scheme's maximum-principle bound, under either scheme.  It is never
        smaller than the relaxation bound, so under RXN a scalar law steps
        beyond that scheme's positivity bound (see the README).

        Nodes with zero inflow coefficient impose no bound and are
        skipped; if every node is unconstrained the field cannot evolve
        and StagnantField is raised.  With ``local_time_stepping`` the
        return is per-node (unconstrained nodes get the global value).
        ``sweep`` passes the precomputed ``Sweep`` of ``q``.
        """
        if sweep is None:
            sweep = self._sweep(np.asarray(q, dtype=float))
        d = self.d_static
        if d is None:
            d = self._inflow_coefficients(sweep.s, sweep.k)
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
                    rel = 0.0
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
