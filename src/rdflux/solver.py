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
   inputs): the state is gathered to the triangles once (under the
   systems N scheme a gas keeps none of it: the pass gathers the
   parameter vector); for laws with primitive variables (Euler) the
   primitives are computed once on the N mesh nodes, and from them the
   max wave speed, and the pressure for RXN (its normal fluxes are formed
   in closed form from the gathered state and pressure) or the parameter
   vector for the systems N scheme; and once on the triangles'
   arithmetic-mean states, for the wave-speed bound and, where the gas is
   limited or corrected, the mean states' wave data (``Euler.waves``).
   The mean states are formed once, for every law but an advection field,
   whose sweep reads the mesh's arrays alone; a Burgers sweep forms its
   upwind parameters and its bound from them.
   It also holds the per-triangle wave-speed bound where a scheme or step
   rule reads it, a scalar law's upwind parameters k and, where it is
   corrected, their correction weights, and the linear map (g, w) of a
   scalar law's scheme where it is one (``Sweep.coefficients``); each is
   computed once, or passed in from ``Solver`` where the mesh alone fixes
   it;
2. the time step, by the rule of the law: relaxation for systems, upwind
   for scalars (``stable_dt``), always one value per node (N,), all equal
   under global steps.  An advection field's step depends on the mesh
   alone: ``Solver`` computes it once and every iteration reuses it;
3. triangle pass (``Solver._distribute``, per chunk of triangles on the
   chunk's ``Sweep.take`` slice): each chunk gathers the nodal fields it
   needs, distributes its residual, and limits and corrects the parts at
   each triangle's arithmetic-mean state.  Beyond the sweep, an RXN pass
   of a gas holds at most two (T, 3, m) arrays at a time: RXN forms its
   parts in the buffer of its nodal normal fluxes, the sweep releases its
   gathered state once the parts exist, the limiter works in its
   amplitude array, the raw parts are dropped once limited, and the
   correction adds into the limited parts in place.  The systems N
   scheme of a gas reads no gathered state: it gathers the parameter
   vector and carries one buffer from the transformed nodal states to
   the parts, and its stagnation fallback gathers the states of the
   triangles it flags only, and takes their bound from the sweep.  The
   mean states' wave data is the one input that the limiter and the
   correction read of the linearization: the limiting direction (formed
   only where the limiter runs), the characteristic projection and
   reconstruction, the entropy marker and the Jacobian-vector products
   all come from it.  All are closed-form
   expressions, and so is the systems N scheme's split of the Jacobians:
   no eigenvector or Jacobian matrix is built;
4. scatter: the parts are summed into the nodes, the state is updated
   and the new state is admitted (``Solver._admit``): boundary
   conditions are enforced on it in place and it is checked once, by the
   law's ``check_physical`` (every state finite; a gas's density and
   pressure positive).  The update is formed in place in the scatter's
   output.  ``Solver.step(q)`` runs steps 1 to 4 on the state alone (it
   forms its own sweep and step): it is the step map G of the march.
   The rate of this plain step at the current iterate is the march's
   stop test and its ``history``;
5. mixing, under ``solver.acceleration = anderson`` and until the stop
   test passes (``_Anderson``): the plain step g and its residual
   f = g - q go into rings of the last six, and the next iterate is
   their type-II Anderson mix, admitted as a step is.  A mix that is not
   physical, or a floating-point fault in forming it, gives way to g.

Every nodal sum (the scatter, one per component, and the step rule's
inflow coefficients) is ``Solver._scatter``: a ``bincount`` over the
triangles' node ids that reads its per-triangle values in the order they
are stored, triangle axis innermost: each node sums its entries by
vertex slot, and within a slot by triangle.  No sum copies its weights
or its bins first.

``SolverConfig.n_threads`` sets the number of assembly threads
(default 1).  Triangles are processed in fixed contiguous chunks either
way, and the chunk results are accumulated in ascending chunk order, so
repeated runs are bit-identical.  A second thread is slower on every
benchmark workload (``solver.assemble.ms_1t`` -> ``ms_2t``: 0.17 -> 0.77
up to 4.98 -> 11.62 ms); its deletion waits on ROADMAP 1(e) and 4(a).

Memory: the temporaries of one limited, corrected iteration (sweep, step
rule and step) peak above the state, as ``tracemalloc`` reads it, at 4.7
times the size of the (T, 3, 4) parts under RXN and 6.0 times under the
systems N scheme: 2.3 and 2.9 MB on ``cylinder-supersonic`` (5000
triangles), 5.7 and 7.2 MB on ``cylinder-subsonic`` (12544).  The RXN
peak is in the scheme's own loop, the N peak in the last rows of the
star matrix.
The first ``Solver`` of a process tells glibc's allocator to keep freed
heap memory for reuse instead of returning it to the kernel
(``_memory.retain_heap``), so a steady iteration takes no page faults.
The process's resident size then stays at its high-water mark.
Elsewhere (macOS, Windows, musl) this is a no-op.
"""
from __future__ import annotations

import math
import numbers
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import _umath_linalg

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
ACCELERATIONS = ("none", "anderson")
# Allowed values of each choice field of ``SolverConfig``.
CHOICES = {"scheme": SCHEMES, "acceleration": ACCELERATIONS}
# Number of difference columns that Anderson mixing keeps (``_Anderson``).
ANDERSON_DEPTH = 5


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
    iteration's update rate.  ``acceleration`` is "none" (the plain
    march) or "anderson" (type-II Anderson mixing of the steps, see
    ``_Anderson``).  ``n_threads`` is the number of assembly threads; it
    is an argument of the library call only.
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
    acceleration: str = "none"
    n_threads: int = 1

    def validate(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise InvalidArgument(f"{name} must be one of {allowed}, got {value!r}")
        # Each check is written so that NaN fails it.
        if not 0.0 < self.cfl_fraction <= 1.0:
            raise InvalidArgument("cfl_fraction must lie in (0, 1]")
        for name in ("max_iters", "history_stride", "n_threads"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise InvalidArgument(f"{name} must be an integer of at least 1, got {value!r}")
        if not self.stop_tol >= 0.0:
            raise InvalidArgument(f"stop_tol must be nonnegative, got {self.stop_tol!r}")
        if not self.divergence_factor > 1.0:
            raise InvalidArgument(f"divergence_factor must exceed 1, got {self.divergence_factor!r}")
        return self


@dataclass
class SolveResult:
    """Outcome of a pseudo-time march.

    ``history`` holds (iteration, pseudo_time, relative_update_rate)
    triples sampled every ``history_stride`` iterations plus the first
    and last.  ``reason`` is "converged" or "max_iters"; a run whose
    residual blows past ``divergence_factor`` raises ``Diverged``
    instead of returning.  ``acceleration_resets`` counts the Anderson
    mixes that were replaced by the plain step (0 for a plain march).
    """

    q: np.ndarray
    iterations: int
    reason: str
    initial_residual: float
    final_residual: float
    history: list = field(default_factory=list)
    fallback_triangles: int = 0
    acceleration_resets: int = 0

    @property
    def converged(self):
        return self.reason == "converged"


@dataclass
class Sweep:
    """Every input of one iteration's triangle pass; ``Solver._sweep`` builds it.

    ``tris`` (3, T) holds the triangles' node ids, node-major, and
    ``normals`` (T, 3, 2), their lengths ``nlen`` (T, 3) and ``areas``
    (T,) their geometry.  ``q`` is the state itself (N, m), not a copy,
    and ``q_nodes`` the state gathered to the triangles (T, 3, m), None
    under the systems N scheme, which reads the parameter vector instead.
    ``s`` is the per-triangle wave-speed bound, read by a system's step
    rule, by RXN's flux form and by the N scheme's stagnation fallback
    (None where nothing reads it: a scalar law reads it only under the
    flux form of RXN), ``k`` (T, 3) a scalar law's upwind parameters,
    ``weights`` (T, 3) a corrected scalar law's correction weights
    k_i / sum_j max(k_j, 0) (``limiting.correction_weights``; an advection
    field's are built once per mesh) and ``coefficients`` the scalar
    scheme's linear map (g, w) where it is one
    (``distribution.linear_scheme``): an advection field's is the solver's
    ``map_static``, a Burgers sweep under N forms it from ``k``.
    For laws with primitive variables (Euler), ``pressure`` (read by RXN,
    whose normal fluxes come from it and the gathered state) or ``z``
    (the parameter vector, read by the systems N scheme) holds values on
    the N mesh nodes, which the pass gathers (``_gather``); ``waves`` is
    the wave data (u, v, h, k, a^2, a) of each triangle's arithmetic-mean
    state (``Euler.waves``, each (T,)), the one linearization input of
    the limiter and the correction (None where neither runs).  Fields
    that the mesh alone fixes are the solver's own arrays, not copies.

    A sweep serves one triangle pass, which releases what it has spent:
    ``Solver._distribute`` sets ``q_nodes`` to None once the scheme has
    formed its parts, so that the gathered state is freed before the
    limiter and the correction (with threads, ``assemble`` drops its own
    reference once each chunk holds its slice).  The N scheme of a gas
    never holds a gathered state: the pass gathers the parameter vector,
    and the stagnation fallback gathers, from ``q`` and ``tris``, only the
    states of the triangles it flags, and reads their bound from ``s``.
    """

    tris: np.ndarray
    normals: np.ndarray
    nlen: np.ndarray
    areas: np.ndarray
    q: np.ndarray
    q_nodes: np.ndarray | None = None
    s: np.ndarray | None = None
    k: np.ndarray | None = None
    weights: np.ndarray | None = None
    coefficients: tuple | None = None
    pressure: np.ndarray | None = None
    z: np.ndarray | None = None
    waves: tuple | None = None

    def take(self, sl):
        """The sweep of the triangles ``sl``; nodal fields stay shared."""
        def cut(x):
            if isinstance(x, tuple):
                return tuple(cut(a) for a in x)
            return x if x is None else x[sl]

        per_triangle = ("normals", "nlen", "areas", "q_nodes", "s", "k", "weights",
                        "coefficients", "waves")
        return replace(self, tris=self.tris[:, sl],
                       **{name: cut(getattr(self, name)) for name in per_triangle})


class _Gathered:
    """Nodal values ``a`` (N, m) at the nodes of the triangles ``tris``
    (3, T), gathered on indexing: ``g[idx]`` is ``_gather(a, tris[:, idx])``.
    ``distribution.n_scheme_system`` reads the parameter vector as ``g[:]``
    and its fallback's states as ``g[idx]``, so that no (T, 3, m) array
    sits in the caller's arguments through the call."""

    def __init__(self, a, tris):
        self.a, self.tris = a, tris

    def __getitem__(self, idx):
        return _gather(self.a, self.tris[:, idx])


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


class _Anderson:
    """Type-II Anderson mixing of the step map G (Anderson, J. ACM 12,
    1965), in the constrained form of Walker & Ni's Algorithm AA (SIAM J.
    Numer. Anal. 49, 2011), at depth ``ANDERSON_DEPTH``.

    ``next(q, g)`` takes the iterate q and its plain step g = G(q) and
    returns the next iterate sum_j a_j g_j over the last
    ``ANDERSON_DEPTH`` + 1 steps, whose weights minimize
    ||sum_j a_j f_j|| subject to sum_j a_j = 1, with f = g - q.  That is
    the mix g - dG gamma, gamma the least-squares fit of f by the
    differences dF of successive f (dG those of g), formed without the
    differences.  A system's f is scaled per component by the largest
    |q0| of that component (a zero maximum takes the largest of the
    others, or 1); a scalar law's is not scaled.  The mixer holds arrays
    and weights only; ``admit`` is ``Solver._admit``.

    The rings ``F`` and ``G`` hold the f and g, the newest overwriting the
    oldest: the weights do not depend on their order.  The weights solve
    the bordered normal equations [[0, 1^T], [1, M]] [lambda, a] = [1, 0]
    with M = F^T F, of which each call forms one new row and column.  The
    mix is formed in one new buffer and admitted by ``admit``.  A
    floating-point fault in the solve or the mix (a singular system among
    them), or a mix that is not physical, gives way to the step g: the
    history is cleared and ``resets`` counts one.
    """

    def __init__(self, q0, admit):
        n, shape = q0.size, q0.shape
        self.admit = admit
        rows = ANDERSON_DEPTH + 1
        self.F = np.empty((rows, n))
        self.G = np.empty((rows, n))
        self.F_rows = self.F.reshape((rows,) + shape)
        self.G_rows = self.G.reshape((rows,) + shape)
        # The bordered system: M in [1:, 1:], the constraint in row and
        # column 0, and its right-hand side e_0.
        self.system = np.ones((rows + 1, rows + 1))
        self.system[0, 0] = 0.0
        self.e0 = np.zeros(rows + 1)
        self.e0[0] = 1.0
        self.k = 0  # steps held, in rows 0 to k - 1
        self.slot = 0  # the row the next step overwrites
        self.resets = 0
        self.inv_scale = None
        if shape[1] > 1:
            scale = np.abs(q0).max(axis=0)
            scale[scale == 0.0] = scale.max() or 1.0
            self.inv_scale = 1.0 / scale

    def next(self, q, g):
        s, F = self.slot, self.F
        f = np.subtract(g, q, out=self.F_rows[s])
        if self.inv_scale is not None:
            f *= self.inv_scale
        self.G_rows[s] = g
        k = self.k = min(self.k + 1, len(F))
        self.slot = (s + 1) % len(F)
        system = self.system
        row = np.matmul(F[:k], F[s], out=system[s + 1, 1:k + 1])
        system[1:k + 1, s + 1] = row
        if k == 1:
            return g
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                # The kernel of np.linalg.solve, called directly: the
                # wrapper's checks cost more than this solve.  A singular
                # system raises as an invalid value.
                x = _umath_linalg.solve1(system[:k + 1, :k + 1], self.e0[:k + 1],
                                         signature="dd->d")
                mix = (x[1:] @ self.G[:k]).reshape(g.shape)
            self.admit(mix)
        except (FloatingPointError, NonPhysicalState):
            self.k = self.slot = 0
            self.resets += 1
            return g
        return mix


class Solver:
    """Steady-state driver bound to one mesh, law, and boundary set.

    Per-mesh geometry (scaled inward normals and their lengths, areas,
    median dual areas) and, for advection laws, what depends on the mesh
    alone are precomputed once: the exact streamfunction-integrated upwind
    parameters, the (N,) step of the upwind step rule (``dt_static``,
    read-only; None where the field is stagnant), the correction's inflow
    weights (``weights_static``, when ``corrected``) and the scheme's
    linear map (g, w) (``map_static``: under RXN the relaxation map of the
    velocity field, under N the upwind map of k).  The scatter
    reads each chunk's node ids (``_chunk_nodes``) in the memory order of
    one component of the parts; with one chunk they are a view of the
    triangles, not a copy.  The first ``Solver`` of a process keeps freed
    heap memory resident (see the module docstring).
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
        # fixes the sweep's ``k``, ``weights`` and ``coefficients`` and the
        # step: they are built here once, as ``k_static``, ``weights_static``,
        # ``map_static`` and ``dt_static``.
        self.normals = _triangle_inner(np.asarray(mesh.normals, dtype=float))
        self.areas = np.asarray(mesh.areas, dtype=float)
        self.dual = np.asarray(mesh.dual_areas, dtype=float)
        self.nlen = np.hypot(self.normals[..., 0], self.normals[..., 1])
        self.n_nodes = mesh.n_nodes
        self._tris_t = np.ascontiguousarray(self.tris.T)

        self.k_static = self.weights_static = self.map_static = self.dt_static = None
        if law.m == 1 and hasattr(law, "streamfunction"):
            tri_xy = mesh.tri_coords()
            self.k_static = _triangle_inner(dist.advection_upwind_k(law, tri_xy))
            if self.cfg.scheme == "rxn":
                vel = np.asarray(law.velocity_at(tri_xy), dtype=float)
                vel = _triangle_inner(np.broadcast_to(vel, tri_xy.shape))
                coef = dist.advection_coefficients(self.normals, self.nlen, vel)
            else:
                coef = dist.upwind_coefficients(self.k_static)
            self.map_static = tuple(_triangle_inner(c) for c in coef)
            if self.cfg.corrected:
                self.weights_static = limiting.correction_weights(self.k_static)
            d = self._inflow_coefficients(None, self.k_static)
            if (d > 0.0).any():  # else stable_dt raises StagnantField on each call
                self.dt_static = self._step_of(d)
                self.dt_static.flags.writeable = False

        self.n_threads = self.cfg.n_threads
        self._chunks = self._plan_chunks()
        # Each chunk's node ids (3, T) flattened in (vertex slot, triangle)
        # order, the memory order of one component of triangle-innermost
        # parts: with one chunk a view of ``_tris_t``, not a copy.
        self._chunk_nodes = [self._tris_t[:, sl].ravel() for sl in self._chunks]
        self._pool = None  # created on the first threaded assemble

    # -- assembly ------------------------------------------------------------

    def _plan_chunks(self):
        n_tris = self.tris.shape[0]
        n = min(self.n_threads, max(1, n_tris))
        bounds = np.linspace(0, n_tris, n + 1).astype(int)
        return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def _scatter(self, nodes, parts):
        """Per-triangle nodal values summed into the nodes: a new (N, m) array.

        One bincount per component over the node ids ``nodes`` (a chunk's
        ``_chunk_nodes``, or all of ``_tris_t``), whose weights are that
        component of the (T, 3, m) ``parts`` read in (vertex slot,
        triangle) order: each node sums its entries by slot, and within a
        slot in triangle order, whatever the memory layout of ``parts``.
        For triangle-innermost parts that order is the memory order, and
        the weights are a view, not a copy.  With m = 1 the residual is the
        bincount itself.
        """
        sums = [np.bincount(nodes, weights=c.ravel(), minlength=self.n_nodes) for c in parts.T]
        return sums[0][:, None] if len(sums) == 1 else np.stack(sums, axis=1)

    def _scatter_add(self, out, nodes, parts):
        """Accumulate per-triangle nodal values into ``out`` (N, m) (``_scatter``)."""
        out += self._scatter(nodes, parts)

    def _distribute(self, sweep):
        """Distributed parts of one sweep slice: scheme, limiter, correction.

        The one pipeline behind ``assemble``.  The limiter and the
        correction of a system are evaluated at each triangle's
        arithmetic-mean state (Q_1 + Q_2 + Q_3) / 3, whichever the scheme;
        the mean of physical states is physical.  Both read that state's
        wave data, ``Sweep.waves``, alone.  Once the scheme has formed its
        parts, the sweep's gathered state is released (``Sweep``): a sweep
        serves one pass.

        Returns ``(parts, fallback_count)``: the final (T, 3, m) parts and
        the number of triangles whose N-scheme star solve fell back.
        """
        law, cfg = self.law, self.cfg
        normals = sweep.normals
        if sweep.coefficients is not None:
            res = dist.linear_scheme(sweep.q_nodes, sweep.coefficients)
        elif cfg.scheme == "rxn":
            pressure = None if sweep.pressure is None else _gather(sweep.pressure, sweep.tris)
            res = dist.rxn_scheme(law, normals, sweep.q_nodes, sweep.s, sweep.nlen,
                                  pressure=pressure)
            del pressure  # spent: free it before the limiter's temporaries
        else:
            res = dist.n_scheme_system(law, normals, _Gathered(sweep.q, sweep.tris),
                                       _Gathered(sweep.z, sweep.tris), sweep.nlen, sweep.s)
        sweep.q_nodes = None  # spent: the sweep releases the gathered state
        fallback = 0 if res.fallback is None else int(res.fallback.sum())

        parts = res.parts
        if not (cfg.limited or cfg.corrected):
            return parts, fallback
        total = res.total
        del res  # the star states go now, the raw parts once the limiter replaces them

        if law.m == 1:
            if cfg.limited:
                parts = limiting.limit_scalar(parts, total)
            if cfg.corrected:
                parts = limiting.correction_scalar(parts, total, sweep.areas, sweep.weights)
            return parts, fallback

        if cfg.limited:
            direction = limiting.limiting_direction(sweep.waves)
            parts = limiting.limit_system(parts, law, direction, sweep.waves)
        if cfg.corrected:
            parts = limiting.correction_system(parts, total, sweep.areas, normals, law,
                                               sweep.waves)
        return parts, fallback

    def assemble(self, q, sweep=None):
        """Nodal residual sums R_i = sum over incident triangles of Phi_i.

        Returns ``(residual (N, m), fallback_count)``; the residual is a
        new array, which the caller may overwrite.  ``sweep`` passes the
        iteration's precomputed ``Sweep`` of ``q`` (``step`` shares one
        between the step-size rule and the assembly); it is
        computed when None, and the pass releases its gathered state, so
        a sweep serves one call.  With one chunk the residual is the scatter's
        bincount itself.  Chunks are accumulated in ascending chunk order,
        whatever the number of threads.
        """
        q = np.asarray(q, dtype=float)
        if sweep is None:
            sweep = self._sweep(q)
        if len(self._chunks) == 1:
            parts, fallback = self._distribute(sweep)
            return self._scatter(self._chunk_nodes[0], parts), fallback
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.n_threads)
            weakref.finalize(self, self._pool.shutdown, wait=False)
        chunks = [sweep.take(sl) for sl in self._chunks]
        sweep.q_nodes = None  # each chunk holds its slice and releases it
        results = self._pool.map(self._distribute, chunks)
        out = np.zeros((self.n_nodes, self.law.m))
        fallback = 0
        for nodes, (parts, n_fb) in zip(self._chunk_nodes, results):
            self._scatter_add(out, nodes, parts)
            fallback += n_fb
        return out, fallback

    # -- time step -----------------------------------------------------------

    def _sweep(self, q):
        """The ``Sweep`` of state ``q``: one gather, nodal fields, bound, k,
        correction weights, a scalar scheme's linear map and the mean
        states' wave data."""
        law, cfg = self.law, self.cfg
        q_nodes = _gather(q, self._tris_t)
        s, k, weights, linear_map = None, self.k_static, self.weights_static, self.map_static
        nodal = {}
        if linear_map is None:  # else an advection field: the mesh fixes k, weights and map
            q_mean = (q_nodes[:, 0] + q_nodes[:, 1] + q_nodes[:, 2]) / 3.0
            if law.m == 1:
                k = dist.scalar_upwind_k(law, self.normals, q_mean)
                if cfg.corrected:
                    weights = limiting.correction_weights(k)
                # A scalar law steps by k; of its schemes only the flux form
                # of RXN reads the bound.
                if cfg.scheme == "rxn":
                    s = dist.wave_speed_bound(_gather(law.max_wavespeed(q), self._tris_t),
                                              law.max_wavespeed(q_mean))
                else:
                    linear_map = dist.upwind_coefficients(k)
            else:
                prim = law.primitives(q)
                prim_mean = law.primitives(q_mean)
                s = dist.wave_speed_bound(_gather(law.max_wavespeed(q, prim), self._tris_t),
                                          law.max_wavespeed(q_mean, prim_mean))
                if cfg.limited or cfg.corrected:
                    nodal["waves"] = law.waves(q_mean, prim_mean)
                if cfg.scheme == "rxn":
                    nodal["pressure"] = prim[3]
                else:
                    nodal["z"] = law.to_params(q, prim)
                    q_nodes = None  # the N pass gathers z, not the state
        return Sweep(self._tris_t, self.normals, self.nlen, self.areas, q, q_nodes, s, k,
                     weights, linear_map, **nodal)

    def _inflow_coefficients(self, s, k):
        """Nodal coefficients D_i bounding the update: dt_i <= 2 |C_i| / D_i.

        A system reads the wave-speed bound ``s``, a scalar law its upwind
        parameters ``k``.  The (T, 3) contributions are summed into the
        nodes by ``_scatter``.
        """
        contrib = self.nlen * s[:, None] if self.law.m > 1 else np.maximum(2.0 * k, 0.0)
        return self._scatter(self._tris_t.ravel(), contrib[..., None])[:, 0]

    def _step_of(self, d):
        """The (N,) step of the inflow coefficients ``d``: the global value
        at every node, or under ``local_time_stepping`` each bounded node's
        own; StagnantField if no node is bounded."""
        pos = d > 0.0
        if not pos.any():
            raise StagnantField(
                "no wave crosses any dual-cell boundary; the time step is unbounded"
            )
        bounds = 2.0 * self.dual[pos] / d[pos]
        dt = np.full(self.n_nodes, self.cfg.cfl_fraction * bounds.min())
        if self.cfg.local_time_stepping:
            dt[pos] = self.cfg.cfl_fraction * 2.0 * self.dual[pos] / d[pos]
        return dt

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

        The step is one value per node, an (N,) array: the global value
        at every node, or with ``local_time_stepping`` each node's own
        (unconstrained nodes get the global value).  Nodes with zero
        inflow coefficient impose no bound and are skipped; if every node
        is unconstrained the field cannot evolve and StagnantField is
        raised, on every call.  An advection field's step depends on the
        mesh alone: it is the read-only step ``dt_static`` computed once
        at construction, returned as is, and ``q`` is not read.  ``sweep``
        passes the precomputed ``Sweep`` of ``q``.
        """
        if self.dt_static is not None:
            return self.dt_static
        if sweep is None:
            sweep = self._sweep(np.asarray(q, dtype=float))
        return self._step_of(self._inflow_coefficients(sweep.s, sweep.k))

    # -- marching ------------------------------------------------------------

    def step(self, q):
        """One forward pseudo-time step: the step map G of the march,
        q_new = b(q - dt / |C| R(q)), of the state alone.

        Forms the sweep of ``q`` once and shares it between the step rule
        (``stable_dt``) and the assembly.  Returns ``(q_new, update_rate,
        fallback_count, dt)``: the rate is the nodal L2 norm of
        |C_i| (q_new - q) / dt (``_rate_norm``) measured *after* boundary
        enforcement, so it vanishes exactly at a steady state compatible
        with the boundary conditions, and ``dt`` is the (N,) step taken.
        The update is formed in place in the residual.  The new state is
        admitted once (``_admit``): after the boundary conditions,
        NonPhysicalState names the first node with a non-finite value, and
        for a gas then the first of non-positive density or pressure.
        """
        q = np.asarray(q, dtype=float)
        sweep = self._sweep(q)
        dt = self.stable_dt(q, sweep)
        residual, fallback = self.assemble(q, sweep)
        residual *= (dt / self.dual)[:, None]
        q_new = self._admit(np.subtract(q, residual, out=residual))
        return q_new, self._rate_norm(q_new - q, dt), fallback, dt

    def _admit(self, q, where=""):
        """The one admission of a marched state (the initial state, each
        step, each mix): enforce the boundary conditions on ``q`` in place,
        then the law's ``check_physical``, whose message ``where`` ends."""
        if self.boundaries is not None:
            self.boundaries.apply(q)
        self.law.check_physical(q, where)
        return q

    def _rate_norm(self, dq, dt):
        """The nodal L2 norm of |C_i| dq / dt, formed in place in ``dq`` (N, m),
        for the (N,) step ``dt``.

        The squared norm is one pairwise sum of the squares; ``np.dot``
        would be one pass less, but OpenBLAS runs a vector as long as a
        cylinder mesh's (N, 4) rate on a second thread, which then spins
        between iterations.
        """
        dq *= self.dual[:, None]
        dq /= dt[:, None]
        dq *= dq
        return math.sqrt(float(dq.sum()))

    def records(self, it):
        """Whether ``march`` records iteration ``it`` in its history: the
        first and every ``history_stride``-th (the last is added at the end)."""
        return it == 1 or it % self.cfg.history_stride == 0

    def march(self, q0, *, callback=None):
        """Iterate to steady state from ``q0`` ((N, m) or (N,) for m=1).

        The initial state is admitted as every step is (``_admit``, which
        names the first node that is not physical).  Each iteration takes
        the step map G (``step``) of the iterate and then the update rule:
        the plain step, or its Anderson mix; the pseudo-time advances by
        the step's smallest nodal value.  The stopping test compares each
        iteration's update rate with the first one's; a first rate already
        at rounding level (below 1e-13 of the rate of the state itself,
        |C| |q| / dt) counts as converged immediately when ``stop_tol`` is
        positive.
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
        self._admit(q, "in initial state")
        accel = _Anderson(q, self._admit) if cfg.acceleration == "anderson" else None

        history = []
        r0 = None
        rel = np.inf
        t = 0.0
        reason = "max_iters"
        it = 0
        fallback_total = 0
        for it in range(1, cfg.max_iters + 1):
            try:
                q_new, rate, n_fb, dt = self.step(q)
            except NonPhysicalState as exc:
                raise NonPhysicalState(f"iteration {it}: {exc}") from exc
            fallback_total += n_fb
            t += float(dt.min())
            if r0 is None:
                r0 = rate
                rel = 1.0
                if cfg.stop_tol > 0.0 and r0 <= 1.0e-13 * max(self._rate_norm(q.copy(), dt),
                                                               1.0e-300):
                    rel = 0.0
            else:
                rel = rate / r0 if r0 > 0.0 else 0.0
            if self.records(it):
                history.append((it, t, rel))
            if accel is not None and rel > cfg.stop_tol:
                q_new = accel.next(q, q_new)
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
            acceleration_resets=0 if accel is None else accel.resets,
        )
