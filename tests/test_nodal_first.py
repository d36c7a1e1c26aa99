"""Nodal-first iteration: precomputed nodal data changes no bit of a result.

Every public function that accepts nodal data computed once per mesh node
(and gathered to the triangles) must return exactly what it returns when
it evaluates the same quantities itself on the (T, 3) triangle nodes.  The
solver's march must reproduce a reference loop written out here from the
public functions called without precomputed data: bit for bit with the RXN
scheme, and to 1e-12 relative with the systems N scheme.
"""

import numpy as np
import pytest

from rdflux import boundary, config, meshgen, physics
from rdflux import distribution as dist
from rdflux import limiting
from rdflux.solver import Solver, SolverConfig


@pytest.fixture(scope="module")
def mesh():
    return meshgen.perturb_interior(
        meshgen.generate_rect_mesh((0.0, 2.0, 0.0, 1.0), 12, 8), 0.2, seed=4
    )


def perturbed_gas(law, mesh, seed):
    """Physical nodal states: a Mach 0.8 stream with small random perturbations."""
    rng = np.random.default_rng(seed)
    n = mesh.n_nodes
    rho = 1.0 + 0.1 * rng.random(n)
    p = law.gamma**-law.gamma * (1.0 + 0.1 * rng.random(n))
    a = np.sqrt(law.gamma * p / rho)
    u = 0.8 * a + 0.05 * rng.standard_normal(n)
    v = 0.2 * a + 0.05 * rng.standard_normal(n)
    return law.conserved(rho, u, v, p)


def assert_same(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)


class TestPrecomputedNodalData:
    @pytest.fixture
    def case(self, mesh):
        law = physics.Euler()
        q = perturbed_gas(law, mesh, seed=1)
        return law, q, np.asarray(mesh.tris), np.asarray(mesh.normals, dtype=float)

    def test_wave_speed_bound(self, case):
        law, q, tris, _ = case
        speeds = law.max_wavespeed(q)[tris]
        assert_same(
            dist.wave_speed_bound(law, q[tris], speeds=speeds),
            dist.wave_speed_bound(law, q[tris]),
        )

    def test_rxn_scheme(self, case):
        law, q, tris, normals = case
        f, g = law.flux(q)
        given = dist.rxn_scheme(law, normals, q[tris], flux=(f[tris], g[tris]))
        own = dist.rxn_scheme(law, normals, q[tris])
        for name in ("parts", "star", "s"):
            assert_same(getattr(given, name), getattr(own, name))

    def test_rsd_average(self, case):
        law, q, tris, _ = case
        given = law.rsd_average(z_nodes=law.to_params(q)[tris])
        own = law.rsd_average(q[tris])
        for name in ("zhat", "qhat", "qhat_nodes"):
            assert_same(getattr(given, name), getattr(own, name))
        for a, b in zip(given.prim, own.prim):
            assert_same(a, b)

    def test_qhat_nodes_on_demand(self, case):
        law, q, tris, _ = case
        avg = law.rsd_average(q[tris])
        z_nodes = law.to_params(q[tris])
        expected = z_nodes @ np.swapaxes(law.dqdz(avg.zhat), -1, -2)
        assert_same(avg.qhat_nodes, expected)

    def test_limit_system(self, case):
        law, q, tris, normals = case
        parts = dist.rxn_scheme(law, normals, q[tris]).parts
        q_mean = q[tris].mean(axis=1)
        prim = law.primitives(q_mean)
        direction = limiting.limiting_direction(law, q_mean, prim)
        assert_same(direction, limiting.limiting_direction(law, q_mean))
        given = law.eigensystem(q_mean, direction, prim)
        own = law.eigensystem(q_mean, direction)
        for name in ("lam", "right", "left"):
            assert_same(getattr(given, name), getattr(own, name))
        assert_same(limiting.limit_system(parts, given), limiting.limit_system(parts, own))

    def test_n_scheme_system(self, case):
        law, q, tris, normals = case
        given = dist.n_scheme_system(law, normals, q[tris], z_nodes=law.to_params(q)[tris])
        own = dist.n_scheme_system(law, normals, q[tris])
        assert_same(given.parts, own.parts)
        assert_same(given.fallback, own.fallback)


def reference_march(mesh, law, bcs, q, cfg, n_chunks, iters):
    """Scheme+limit+correction march from public functions, no shared data.

    ``cfg.scheme`` picks the RXN or the systems N scheme.  The limiter and
    the correction are evaluated at each triangle's arithmetic-mean state,
    with the Jacobians of ``law.flux_jacobian``.  The time step
    and scatter follow ``Solver``: chunks of contiguous triangles, each
    summed into the nodes with one bincount per component.
    """
    tris = np.asarray(mesh.tris)
    normals = np.asarray(mesh.normals, dtype=float)
    areas = np.asarray(mesh.areas, dtype=float)
    dual = np.asarray(mesh.dual_areas, dtype=float)
    nlen = np.hypot(normals[..., 0], normals[..., 1])
    n_nodes, m = q.shape
    bounds = np.linspace(0, len(tris), n_chunks + 1).astype(int)
    q = q.copy()
    bcs.apply(q)
    for _ in range(iters):
        q_nodes = q[tris]
        s = dist.wave_speed_bound(law, q_nodes, safety=cfg.safety)
        if cfg.dt_mode == "relaxation":
            contrib = nlen * s[:, None]
        else:
            rho, u, v, p = law.primitives(q_nodes)
            rho_m, u_m, v_m, p_m = (x.mean(axis=1) for x in (rho, u, v, p))
            a = np.sqrt(law.gamma * p_m / rho_m)
            un = u_m[:, None] * normals[..., 0] + v_m[:, None] * normals[..., 1]
            contrib = np.maximum(un + a[:, None] * nlen, 0.0)
        d = np.bincount(tris.ravel(), weights=contrib.ravel(), minlength=n_nodes)
        pos = d > 0.0
        dt = cfg.cfl_fraction * (2.0 * dual[pos] / d[pos]).min()
        residual = np.zeros((n_nodes, m))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sl = slice(lo, hi)
            if cfg.scheme == "n":
                res = dist.n_scheme_system(law, normals[sl], q_nodes[sl], safety=cfg.safety)
                assert not res.fallback.any()
            else:
                res = dist.rxn_scheme(law, normals[sl], q_nodes[sl], s=s[sl], safety=cfg.safety)
            q_mean = (q_nodes[sl, 0] + q_nodes[sl, 1] + q_nodes[sl, 2]) / 3.0
            direction = limiting.limiting_direction(law, q_mean)
            es = law.eigensystem(q_mean, direction)
            parts = limiting.limit_system(res.parts, es)
            parts = limiting.correction_system(
                parts, res.total, areas[sl], normals[sl],
                law.flux_jacobian(q_mean, np.array([1.0, 0.0])),
                law.flux_jacobian(q_mean, np.array([0.0, 1.0])),
                es.left[..., law.ENTROPY_WAVE, :],
            )
            for j in range(m):
                residual[:, j] += np.bincount(
                    tris[sl].ravel(), weights=parts[..., j].ravel(), minlength=n_nodes
                )
        q = q - dt / dual[:, None] * residual
        bcs.apply(q)
        law.check_physical(q)
    return q


def march_and_reference(mesh, scheme, dt_mode, n_threads):
    """30 iterations of the solver and of ``reference_march``: (result, q, q0)."""
    law = physics.Euler()
    q_inf = law.freestream(0.8, 10.0)
    bcs = boundary.BoundarySet(mesh, law, {
        t: ("farfield", q_inf) for t in ("left", "right", "top", "bottom")
    })
    q0 = perturbed_gas(law, mesh, seed=2)
    cfg = SolverConfig(scheme=scheme, limited=True, corrected=True, dt_mode=dt_mode,
                       cfl_fraction=0.5, max_iters=30, stop_tol=0.0, n_threads=n_threads)
    result = Solver(mesh, law, bcs, cfg).march(q0)
    return result, reference_march(mesh, law, bcs, q0, cfg, n_threads, 30), q0


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("dt_mode", ["relaxation", "upwind"])
def test_march_matches_reference_pipeline(mesh, n_threads, dt_mode):
    result, expected, _ = march_and_reference(mesh, "rxn", dt_mode, n_threads)
    assert result.iterations == 30
    assert_same(result.q, expected)


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("dt_mode", ["relaxation", "upwind"])
def test_n_scheme_march_matches_reference_pipeline(mesh, n_threads, dt_mode):
    """Agreement to 1e-12 relative, not bit for bit: the N scheme's sums may
    run in an order that depends on the operands' memory layout, which
    differs between the solver (triangle axis innermost) and the reference
    loop (C order)."""
    result, expected, q0 = march_and_reference(mesh, "n", dt_mode, n_threads)
    assert result.iterations == 30 and result.fallback_triangles == 0
    assert np.abs(result.q - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.abs(result.q - q0).max() > 1e-3 * np.abs(q0).max()


def small_supersonic(scheme):
    """``cylinder-supersonic`` on a 6 x 16 mesh, 5 iterations of ``scheme``."""
    mapping = config.preset("cylinder-supersonic")
    mapping.update({"mesh.n_radial": "6", "mesh.n_circum": "16", "solver.scheme": scheme,
                    "solver.max_iters": "5", "solver.stop_tol": "0"})
    return config.build_problem(mapping)


def test_primitive_conversions_per_iteration(monkeypatch):
    """Each iteration converts to primitives at most six times.

    Once each for the nodes, the triangles' mean states in the wave-speed
    bound, the relaxation star states, the mean states again for the
    limiter and the correction, and twice in the far-field blend.  Every
    conversion goes through ``Euler.primitives``, so the count is
    complete.
    """
    problem = small_supersonic("rxn")
    calls = []
    original = physics.Euler.primitives

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(physics.Euler, "primitives", counted)
    seen = []
    solver = Solver(problem.mesh, problem.law, problem.boundaries, problem.solver_config)
    solver.march(problem.q0, callback=lambda it, q, rel: seen.append(len(calls)))
    assert len(seen) == 5
    # The first count also holds the boundary enforcement on the initial state.
    assert seen[0] <= 6 + 2
    assert np.diff(seen).max() <= 6


@pytest.mark.parametrize("scheme", ["rxn", "n"])
def test_parameter_vector_only_for_n_scheme(monkeypatch, scheme):
    """A limited and corrected RXN march never builds the parameter vector
    or the Roe-Struijs-Deconinck average; the systems N scheme does."""
    problem = small_supersonic(scheme)
    cfg = problem.solver_config
    assert cfg.limited and cfg.corrected
    calls = {"to_params": 0, "rsd_average": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(physics.Euler, "to_params")
    counting(physics.ConservationLaw, "rsd_average")
    result = Solver(problem.mesh, problem.law, problem.boundaries, cfg).march(problem.q0)
    assert result.iterations == 5
    if scheme == "rxn":
        assert calls == {"to_params": 0, "rsd_average": 0}
    else:
        assert calls["to_params"] >= 5 and calls["rsd_average"] >= 5
