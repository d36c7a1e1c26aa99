"""Built-in self-check suites, runnable from the command line.

Five seeded property suites cover the core guarantees of the package:
conservation of the distributed parts, nonnegativity of the
monotonicity coefficients, the one-dimensional reduction to classic
fluctuations, the limiter's weight bounds, and free-stream preservation
of the full solver.  Each suite returns a pass/fail verdict plus the
worst observed metric, so a regression shows up as a number and not
just a flag.

Where the march has the kernel, a suite runs it.  The conservation and
limiter-bounds suites run the distribution variants through
``Solver.assemble`` on a mesh of random triangles that share no node
(``_free_triangles``): each nodal residual is then one triangle's part.
Under RXN the conservation identity also fixes the star state, as no
other state makes the parts sum to the total.  The monotonicity suite
probes the march's scalar N scheme column by column at its frozen
upwind parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import distribution as dist
from . import limiting, meshgen, oracle1d, physics
from .boundary import BoundarySet
from .mesh import Mesh, compute_normals, triangle_areas
from .solver import Solver, SolverConfig

__all__ = ["SuiteResult", "run_all", "SUITES"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    metric: float
    tolerance: float
    detail: str

    def row(self):
        verdict = "pass" if self.passed else "FAIL"
        return f"{self.name:<28} {verdict:<5} worst {self.metric:.3e} (tol {self.tolerance:.1e}) {self.detail}"


def random_triangles(rng, n):
    """(n, 3, 2) CCW vertex batches with area bounded away from zero."""
    out = np.empty((0, 3, 2))
    while out.shape[0] < n:
        cand = rng.uniform(0.0, 1.0, size=(2 * n, 3, 2))
        areas = triangle_areas(cand)
        flip = areas < 0.0
        cand[flip] = cand[flip][:, ::-1, :]
        keep = np.abs(areas) > 0.02
        out = np.concatenate([out, cand[keep]])
    return out[:n]


def _random_states(rng, law, n):
    if law.m == 1:
        return rng.normal(0.0, 2.0, size=(n, 3, 1))
    rho = rng.uniform(0.2, 3.0, size=(n, 3))
    u = rng.normal(0.0, 2.0, size=(n, 3))
    v = rng.normal(0.0, 2.0, size=(n, 3))
    p = rng.uniform(0.1, 4.0, size=(n, 3))
    return law.conserved(rho, u, v, p)


def _free_triangles(coords):
    """A mesh of the (T, 3, 2) triangles ``coords`` sharing no node: node
    3t + i is corner i of triangle t, and every edge is a boundary edge."""
    tris = np.arange(3 * len(coords)).reshape(-1, 3)
    edges = [(t[i], t[i - 1], "free") for t in tris.tolist() for i in range(3)]
    return Mesh.from_arrays(coords.reshape(-1, 2), tris, edges)


def _assembled_parts(mesh, law, cfg, q_nodes):
    """Each triangle's (T, 3, m) parts from ``Solver.assemble`` on a
    ``_free_triangles`` mesh, with corner states ``q_nodes`` (T, 3, m)."""
    residual, _ = Solver(mesh, law, None, cfg).assemble(q_nodes.reshape(-1, law.m))
    return residual.reshape(q_nodes.shape)


def suite_conservation(seed, n=2000):
    """Sum of distributed parts equals the total residual, all variants.

    Under RXN this also fixes the star state: the parts sum to
    (1/4)[sum s ||n_i|| Q_i - s sum ||n|| Q_star + sum n_i . f(Q_i)],
    which equals the two-point total (1/2) sum n_i . f(Q_i) only when
    Q_star is the closed-form star of ``rxn_scheme``.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    laws = [physics.Advection((1.3, -0.7)), physics.Burgers(), physics.Euler()]
    for law in laws:
        coords = random_triangles(rng, n)
        mesh = _free_triangles(coords)
        normals = compute_normals(coords)
        q_nodes = _random_states(rng, law, n)
        for scheme in ("n", "rxn"):
            ref_total = (
                dist.total_residual_rsd(law, normals, q_nodes)
                if scheme == "n"
                else dist.total_residual_linear(law, normals, q_nodes)
            )
            scale = np.maximum(1.0, np.abs(ref_total).max(axis=-1))
            for limited, corrected in ((False, False), (True, False), (True, True)):
                cfg = SolverConfig(scheme=scheme, limited=limited, corrected=corrected)
                parts = _assembled_parts(mesh, law, cfg, q_nodes)
                err = np.abs(parts.sum(axis=1) - ref_total).max(axis=-1) / scale
                worst = max(worst, float(err.max()))

    return SuiteResult(
        "conservation", worst <= 1e-11, worst, 1e-11,
        f"{n} triangles x 3 laws x 6 variants",
    )


def suite_monotone_coefficients(seed, n=2000):
    """Monotone update coefficients on a convex scalar flux (Burgers).

    For the characteristic scheme, probed through the march's
    ``n_scheme_scalar`` at the march's ``scalar_upwind_k``: with k frozen
    the scheme is linear, Phi_i = sum_j C_ij Q_j, and column j of C is
    the parts of the unit state e_j.  Monotone means Phi_i = sum_j c_ij
    (Q_i - Q_j) with c_ij >= 0, so every off-diagonal C_ij must be <= 0.
    For the relaxation scheme: the inflow/outflow factors
    P_i = (s ||n_i|| + n_i . f'(mean Q_i-star pair)) / 4 and
    N_j = s ||n_j|| - n_j . f'(tilde Q) are nonnegative whenever s
    satisfies the speed bound.
    """
    rng = np.random.default_rng(seed)
    law = physics.Burgers()
    coords = random_triangles(rng, n)
    normals = compute_normals(coords)
    q_nodes = rng.normal(0.0, 2.0, size=(n, 3, 1))
    worst = 0.0

    k = dist.scalar_upwind_k(law, normals, q_nodes)
    unit = np.eye(3)[:, None, :, None]  # unit[j]: the (1, 3, 1) state e_j
    c = np.stack([dist.n_scheme_scalar(np.broadcast_to(e, q_nodes.shape), k).parts[..., 0]
                  for e in unit], axis=-1)  # (T, 3, 3): c[t, i, j] = C_ij
    off = c[:, ~np.eye(3, dtype=bool)]
    worst = max(worst, float(off.max()))

    s = dist.wave_speed_bound(law, q_nodes)
    qstar = dist.rxn_scheme(law, normals, q_nodes, s=s).star
    nlen = np.hypot(normals[..., 0], normals[..., 1])
    qbar = 0.5 * (q_nodes + qstar[:, None, :])  # secant mean per node
    fp_bar = law.fprime(qbar)
    fp_star = law.fprime(qstar)
    p_i = 0.25 * (s[:, None] * nlen + (normals * fp_bar).sum(axis=-1))
    n_j = s[:, None] * nlen - (normals * fp_star[:, None, :]).sum(axis=-1)
    worst = max(worst, float(-p_i.min()), float(-n_j.min()))
    return SuiteResult(
        "monotone-coefficients", worst <= 1e-13, worst, 1e-13,
        f"{n} convex-flux instances",
    )


def suite_1d_reduction(seed, n=1000):
    """Relaxation scheme on a segment equals local Lax-Friedrichs, to
    rounding relative to max(1, |LLF parts|) as in the conservation suite."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for law in (physics.Advection((1.0, 0.0)), physics.Burgers()):
        for _ in range(n):
            ql, qr = rng.normal(0.0, 2.0, 2)
            s = 1.1 * max(abs(ql), abs(qr), 1e-3) + rng.uniform(0.0, 1.0)
            minus, plus = dist.rxn_scheme_1d(law, np.array([ql]), np.array([qr]), s)
            ref = oracle1d.llf_1d(law, [ql], [qr], s)
            hll = oracle1d.hll_1d(law, [ql], [qr], -s, s)
            scale = max(1.0, float(np.abs(ref.minus).max()), float(np.abs(ref.plus).max()))
            err = max(
                np.abs(minus - ref.minus).max(), np.abs(plus - ref.plus).max(),
                np.abs(hll.minus - ref.minus).max(), np.abs(hll.plus - ref.plus).max(),
            )
            worst = max(worst, float(err) / scale)
    return SuiteResult(
        "1d-reduction", worst <= 1e-14, worst, 1e-14,
        f"{n} Riemann pairs x 2 scalar laws",
    )


def suite_limiter_bounds(seed, n=2000):
    """Limited weights lie in [0,1], sum to one, and keep the total."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    parts = rng.normal(0.0, 3.0, size=(n, 3, 1))
    total = parts.sum(axis=1)
    out = limiting.limit_scalar(parts, total)
    nz = np.abs(total[:, 0]) > 1e-13
    w = out[nz, :, 0] / total[nz, 0][:, None]
    worst = max(worst, float(-w.min()), float(w.max() - 1.0))
    worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()))
    worst = max(worst, float(np.abs(out.sum(axis=1) - total).max() /
                             max(1.0, float(np.abs(total).max()))))
    sign_fail = np.any(out[nz, :, 0] * np.sign(total[nz, 0])[:, None] < -1e-13)
    # conservation through limiting + correction on Euler batches
    law = physics.Euler()
    mesh = _free_triangles(random_triangles(rng, n))
    q_nodes = _random_states(rng, law, n)
    raw = SolverConfig(scheme="rxn", limited=False, corrected=False)
    t2 = _assembled_parts(mesh, law, raw, q_nodes).sum(axis=1)
    p2 = _assembled_parts(mesh, law, replace(raw, limited=True, corrected=True), q_nodes)
    scale = np.maximum(1.0, np.abs(t2).max(axis=-1))
    worst = max(worst, float((np.abs(p2.sum(axis=1) - t2).max(axis=-1) / scale).max()))
    ok = worst <= 1e-12 and not sign_fail
    return SuiteResult(
        "limiter-bounds", ok, worst, 1e-12,
        f"{n} instances" + (" (sign violation)" if sign_fail else ""),
    )


def suite_free_stream(seed, steps=20):
    """Uniform gas flow stays uniform on an irregular mesh with open BCs."""
    law = physics.Euler()
    mesh = meshgen.perturb_interior(
        meshgen.generate_rect_mesh((0.0, 2.0, 0.0, 1.0), 16, 8), 0.2, seed=seed
    )
    qinf = law.freestream(0.5, 15.0)
    bcs = BoundarySet(mesh, law, {
        "left": ("farfield", qinf),
        "bottom": ("farfield", qinf),
        "top": ("farfield", qinf),
        "right": ("outflow", None),
    })
    worst = 0.0
    scale = float(np.linalg.norm(qinf))
    for scheme in ("n", "rxn"):
        cfg = SolverConfig(scheme=scheme, limited=True, corrected=True,
                           max_iters=steps, stop_tol=0.0)
        solver = Solver(mesh, law, bcs, cfg)
        q = np.tile(qinf, (mesh.n_nodes, 1))
        for _ in range(steps):
            q_new, _, _ = solver.step(q)
            worst = max(worst, float(np.abs(q_new - q).max()) / scale)
            q = q_new
    return SuiteResult(
        "free-stream", worst <= 1e-12, worst, 1e-12,
        f"{steps} steps x 2 schemes, {mesh.n_tris} triangles",
    )


SUITES = {
    "conservation": suite_conservation,
    "monotone-coefficients": suite_monotone_coefficients,
    "1d-reduction": suite_1d_reduction,
    "limiter-bounds": suite_limiter_bounds,
    "free-stream": suite_free_stream,
}


def _guarded(name, fn, seed):
    """Run one suite; an exception counts as a failure, not a crash."""
    try:
        return fn(seed)
    except Exception as exc:  # noqa: BLE001 - a broken invariant may surface anywhere
        return SuiteResult(
            name, False, float("nan"), float("nan"),
            f"raised {type(exc).__name__}: {exc}",
        )


def run_all(seed=0):
    """Run every suite; returns the list of SuiteResult in fixed order."""
    return [_guarded(name, fn, seed) for name, fn in SUITES.items()]
