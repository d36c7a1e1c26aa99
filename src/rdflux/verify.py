"""Built-in self-check suites, runnable from the command line.

Five seeded property suites cover the core guarantees of the package:
conservation of the distributed parts, nonnegativity of the
monotonicity coefficients, the one-dimensional reduction to classic
fluctuations, the limiter's weight bounds, and free-stream preservation
of the full solver.  Each suite returns a pass/fail verdict plus the
worst observed metric, so a regression shows up as a number and not
just a flag.

The suites re-derive their expectations from first principles where
possible.  In particular, the conservation suite rebuilds the
relaxation parts from the public upwind-state function, so an error
planted there (as the test harness does) breaks the suite — a mutation
check on the suite itself.  The distribution variants themselves run
through ``solver.distribute``, the pipeline the solver assembles with.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distribution as dist
from . import limiting, meshgen, oracle1d, physics
from .boundary import BoundarySet
from .mesh import compute_normals, triangle_areas
from .solver import Solver, SolverConfig, distribute

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


def suite_conservation(seed, n=2000):
    """Sum of distributed parts equals the total residual, all variants.

    Also rebuilds the relaxation parts from the public upwind-state
    function and checks the same identity, so that path is covered
    independently of the scheme's internal star computation.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    laws = [physics.Advection((1.3, -0.7)), physics.Burgers(), physics.Euler()]
    for law in laws:
        coords = random_triangles(rng, n)
        normals = compute_normals(coords)
        areas = triangle_areas(coords)
        q_nodes = _random_states(rng, law, n)
        lin_total = dist.total_residual_linear(law, normals, q_nodes)
        for scheme in ("n", "rxn"):
            ref_total = (
                dist.total_residual_rsd(law, normals, q_nodes)
                if scheme == "n"
                else lin_total
            )
            scale = np.maximum(1.0, np.abs(ref_total).max(axis=-1))
            for limited, corrected in ((False, False), (True, False), (True, True)):
                cfg = SolverConfig(scheme=scheme, limited=limited, corrected=corrected)
                parts, _ = distribute(law, cfg, normals, areas, q_nodes)
                err = np.abs(parts.sum(axis=1) - ref_total).max(axis=-1) / scale
                worst = max(worst, float(err.max()))

        # independent rebuild from the public upwind state
        s = dist.wave_speed_bound(law, q_nodes)
        qstar = dist.rxn_qstar(law, normals, q_nodes, s)
        law.check_physical(qstar)
        fx, fy = law.flux(q_nodes)
        nf = normals[..., 0, None] * fx + normals[..., 1, None] * fy
        fsx, fsy = law.flux(qstar)
        nf_star = (
            normals[..., 0, None] * fsx[:, None, :]
            + normals[..., 1, None] * fsy[:, None, :]
        )
        nlen = np.hypot(normals[..., 0], normals[..., 1])
        parts = 0.25 * (
            s[:, None, None] * nlen[..., None] * (q_nodes - qstar[:, None, :])
            + nf
            - nf_star
        )
        scale = np.maximum(1.0, np.abs(lin_total).max(axis=-1))
        err = np.abs(parts.sum(axis=1) - lin_total).max(axis=-1) / scale
        worst = max(worst, float(err.max()))
    return SuiteResult(
        "conservation", worst <= 1e-11, worst, 1e-11,
        f"{n} triangles x 3 laws x 6 variants + star rebuild",
    )


def suite_monotone_coefficients(seed, n=2000):
    """Nonnegativity of the update coefficients on convex scalar flux.

    For the characteristic scheme: c_ij = k_i^+ k_j^- / sum k^- >= 0.
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

    uvec = law.fprime(law.rsd_average(q_nodes).qhat)
    k = 0.5 * (normals * uvec[..., None, :]).sum(axis=-1)
    kp = np.maximum(k, 0.0)
    kn = np.minimum(k, 0.0)
    den = kn.sum(axis=-1)
    ok = den < 0.0
    cij = kp[ok][:, :, None] * kn[ok][:, None, :] / den[ok][:, None, None]
    worst = max(worst, float(-cij.min()) if cij.size else 0.0)

    s = dist.wave_speed_bound(law, q_nodes)
    res = dist.rxn_scheme(law, normals, q_nodes, s=s)
    qstar = res.star
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
    coords = random_triangles(rng, n)
    normals = compute_normals(coords)
    areas = triangle_areas(coords)
    q_nodes = _random_states(rng, law, n)
    cfg = SolverConfig(scheme="rxn", limited=True, corrected=True)
    p2, res = distribute(law, cfg, normals, areas, q_nodes)
    t2 = res.total
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
