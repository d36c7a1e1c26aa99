"""Nodal-first iteration: precomputed nodal data changes no bit of a result.

Nodal data computed once per mesh node and gathered to the triangles must
give exactly what the same quantities give when evaluated on the (T, 3)
triangle nodes.  The solver's march must reproduce a reference loop
written out here from the public functions, fed with inputs the loop forms
itself per triangle (the wave-speed bound from the speeds of the gathered
and mean states, the parameter vectors of the gathered states, and the
mean states' wave data per chunk): bit for bit with the RXN scheme, on a
gas and on a rotating scalar field, bit for bit with the N scheme on that
field, and to 1e-12 relative with the systems N scheme.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rdflux import boundary, config, meshgen, physics
from rdflux import distribution as dist
from rdflux import limiting
from rdflux.solver import Solver, SolverConfig

from .conftest import edge_lengths, sweep_bound


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

    def test_rxn_scheme(self, case):
        law, q, tris, normals = case
        pressure = law.primitives(q)[3][tris]
        args = (law, normals, q[tris], sweep_bound(law, q[tris]), edge_lengths(normals))
        given = dist.rxn_scheme(*args, pressure=pressure)
        own = dist.rxn_scheme(*args)
        for name in ("parts", "star"):
            assert_same(getattr(given, name), getattr(own, name))

    def test_rsd_average(self, case):
        law, q, tris, _ = case
        given = law.rsd_average(law.to_params(q)[tris])
        own = law.rsd_average(law.to_params(q[tris]))
        for name in ("zhat", "qhat", "qhat_nodes"):
            assert_same(getattr(given, name), getattr(own, name))
        for a, b in zip(given.prim, own.prim):
            assert_same(a, b)

    def test_qhat_nodes_on_demand(self, case):
        """The transformed nodal states are ``transform_nodes`` of the
        gathered parameter vectors, and match (dq/dz)(Zhat) Z_i with the
        matrix written out here."""
        law, q, tris, _ = case
        z_nodes = law.to_params(q[tris])
        avg = law.rsd_average(z_nodes)
        assert_same(avg.qhat_nodes, law.transform_nodes(avg.zhat, z_nodes))
        g = law.gamma
        z0, z1, z2, z3 = np.moveaxis(avg.zhat, -1, 0)
        zero = np.zeros_like(z0)
        dqdz = np.stack([
            np.stack([2.0 * z0, zero, zero, zero], axis=-1),
            np.stack([z1, z0, zero, zero], axis=-1),
            np.stack([z2, zero, z0, zero], axis=-1),
            np.stack([z3 / g, (g - 1.0) / g * z1, (g - 1.0) / g * z2, z0 / g], axis=-1),
        ], axis=-2)
        expected = np.einsum("tij,tnj->tni", dqdz, z_nodes)
        assert np.abs(avg.qhat_nodes - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_limit_system(self, case):
        """The limiter's linearization: the mean states' wave data and the
        reference eigensystem, from the primitives the sweep already has."""
        law, q, tris, _ = case
        q_mean = q[tris].mean(axis=1)
        prim = law.primitives(q_mean)
        waves = law.waves(q_mean, prim)
        for a, b in zip(waves, law.waves(q_mean)):
            assert_same(a, b)
        direction = limiting.limiting_direction(waves)
        given = law.eigensystem(q_mean, direction, prim)
        own = law.eigensystem(q_mean, direction)
        for name in ("lam", "right", "left"):
            assert_same(getattr(given, name), getattr(own, name))


def reference_march(mesh, law, bcs, q, cfg, n_chunks, iters):
    """Scheme+limit+correction march from public functions, no shared data.

    ``cfg.scheme`` picks the RXN or the systems N scheme.  The limiter and
    the correction are evaluated at each triangle's arithmetic-mean state,
    from that state's wave data, which each chunk forms itself.  The time
    step is the relaxation bound of a system, and the step and scatter
    follow ``Solver``: chunks of contiguous triangles, each summed into the
    nodes with one bincount per component.  Every nodal sum adds each
    node's entries in (vertex slot, triangle) order, the order of
    ``Solver``'s triangle-innermost arrays.
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
        s = sweep_bound(law, q_nodes)
        contrib = nlen * s[:, None]
        d = np.bincount(tris.T.ravel(), weights=contrib.T.ravel(), minlength=n_nodes)
        pos = d > 0.0
        dt = cfg.cfl_fraction * (2.0 * dual[pos] / d[pos]).min()
        residual = np.zeros((n_nodes, m))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sl = slice(lo, hi)
            if cfg.scheme == "n":
                res = dist.n_scheme_system(law, normals[sl], q_nodes[sl],
                                           law.to_params(q_nodes[sl]), nlen[sl], s[sl])
                assert not res.fallback.any()
            else:
                res = dist.rxn_scheme(law, normals[sl], q_nodes[sl], s[sl], nlen[sl])
            waves = law.waves((q_nodes[sl, 0] + q_nodes[sl, 1] + q_nodes[sl, 2]) / 3.0)
            direction = limiting.limiting_direction(waves)
            parts = limiting.limit_system(res.parts, law, direction, waves)
            parts = limiting.correction_system(parts, res.total, areas[sl], normals[sl], law,
                                               waves)
            for j in range(m):
                residual[:, j] += np.bincount(
                    tris[sl].T.ravel(), weights=parts[..., j].T.ravel(), minlength=n_nodes
                )
        q = q - dt / dual[:, None] * residual
        bcs.apply(q)
        law.check_physical(q)
    return q


def march_and_reference(mesh, scheme, n_threads):
    """30 iterations of the solver and of ``reference_march``: (result, q, q0)."""
    law = physics.Euler()
    q_inf = law.freestream(0.8, 10.0)
    bcs = boundary.BoundarySet(mesh, law, {
        t: ("farfield", q_inf) for t in ("left", "right", "top", "bottom")
    })
    q0 = perturbed_gas(law, mesh, seed=2)
    cfg = SolverConfig(scheme=scheme, limited=True, corrected=True, cfl_fraction=0.5,
                       max_iters=30, stop_tol=0.0, n_threads=n_threads)
    result = Solver(mesh, law, bcs, cfg).march(q0)
    return result, reference_march(mesh, law, bcs, q0, cfg, n_threads, 30), q0


# The ids name the step rule, the relaxation bound of a system, and the
# number of assembly threads.
THREADS = pytest.mark.parametrize("n_threads", [1, 2], ids=["relaxation-1", "relaxation-2"])


@THREADS
def test_march_matches_reference_pipeline(mesh, n_threads):
    result, expected, _ = march_and_reference(mesh, "rxn", n_threads)
    assert result.iterations == 30
    assert_same(result.q, expected)


@THREADS
def test_n_scheme_march_matches_reference_pipeline(mesh, n_threads):
    """Agreement to 1e-12 relative, not bit for bit: the N scheme's sums may
    run in an order that depends on the operands' memory layout, which
    differs between the solver (triangle axis innermost) and the reference
    loop (C order)."""
    result, expected, q0 = march_and_reference(mesh, "n", n_threads)
    assert result.iterations == 30 and result.fallback_triangles == 0
    assert np.abs(result.q - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.abs(result.q - q0).max() > 1e-3 * np.abs(q0).max()


def reference_scalar_march(mesh, law, bcs, q, cfl, iters, lts, scheme):
    """Limited and corrected march of an advection field from public
    functions, with nothing hoisted out of the loop.

    Each iteration builds the upwind parameters k and the scheme's linear
    map (g, w) from the mesh (the relaxation map under RXN, the upwind map
    of k under N), steps by the upwind bound of k (per node under
    ``lts``), and calls the public correction with the weights of k.
    Nodal sums add each node's entries in (vertex slot, triangle) order,
    as ``Solver`` does.
    """
    tris = np.asarray(mesh.tris)
    normals = np.asarray(mesh.normals, dtype=float)
    areas = np.asarray(mesh.areas, dtype=float)
    dual = np.asarray(mesh.dual_areas, dtype=float)
    tri_xy = mesh.tri_coords()
    slots = tris.T.ravel()
    n_nodes = mesh.n_nodes
    q = q.copy()
    bcs.apply(q)
    for _ in range(iters):
        k = dist.advection_upwind_k(law, tri_xy)
        if scheme == "rxn":
            vel = np.broadcast_to(law.velocity_at(tri_xy), tri_xy.shape)
            coefficients = dist.advection_coefficients(normals, edge_lengths(normals), vel)
        else:
            coefficients = dist.upwind_coefficients(k)
        d = np.bincount(slots, weights=np.maximum(2.0 * k, 0.0).T.ravel(), minlength=n_nodes)
        pos = d > 0.0
        dt = cfl * (2.0 * dual[pos] / d[pos]).min()
        if lts:
            dt = np.full(n_nodes, dt)
            dt[pos] = cfl * 2.0 * dual[pos] / d[pos]
            dt = dt[:, None]
        res = dist.linear_scheme(q[tris], coefficients)
        parts = limiting.limit_scalar(res.parts, res.total)
        parts = limiting.correction_scalar(parts, res.total, areas,
                                           limiting.correction_weights(k))
        residual = np.bincount(slots, weights=parts[..., 0].T.ravel(), minlength=n_nodes)
        q = q - dt / dual[:, None] * residual[:, None]
        bcs.apply(q)
    return q


@pytest.mark.parametrize(("scheme", "lts"),
                         [("rxn", False), ("rxn", True), ("n", False), ("n", True)],
                         ids=["global", "local", "n-global", "n-local"])
def test_scalar_march_matches_reference_pipeline(mesh, scheme, lts):
    """A rotating field under RXN or N with the limiter, the correction,
    the static step and Dirichlet inflow: bit for bit against the
    reference."""
    law = physics.RotatingAdvection()
    bcs = boundary.BoundarySet(mesh, law, {
        "bottom": ("dirichlet", lambda xy: np.sin(0.5 * np.pi * xy[:, 0]) ** 2),
        "right": ("dirichlet", 0.0), "top": ("outflow", None), "left": ("outflow", None),
    })
    q0 = np.random.default_rng(3).random((mesh.n_nodes, 1))
    cfg = SolverConfig(scheme=scheme, limited=True, corrected=True, cfl_fraction=0.5,
                       max_iters=40, stop_tol=0.0, local_time_stepping=lts)
    sol = Solver(mesh, law, bcs, cfg)
    assert sol.dt_static is not None and sol.map_static is not None
    result = sol.march(q0)
    assert result.iterations == 40
    expected = reference_scalar_march(mesh, law, bcs, q0, 0.5, 40, lts, scheme)
    assert_same(result.q, expected)
    assert np.abs(expected - q0).max() > 0.1


def small_supersonic(scheme):
    """``cylinder-supersonic`` on a 6 x 16 mesh, 5 iterations of ``scheme``."""
    mapping = config.preset("cylinder-supersonic")
    mapping.update({"mesh.n_radial": "6", "mesh.n_circum": "16", "solver.scheme": scheme,
                    "solver.max_iters": "5", "solver.stop_tol": "0"})
    return config.build_problem(mapping)


def test_primitive_conversions_per_iteration(monkeypatch):
    """Each iteration converts to primitives at most six times.

    Once each for the nodes and the triangles' mean states (shared by the
    wave-speed bound, the limiter and the correction), once for the
    relaxation star states (their check's primitives serve their flux),
    twice in the far-field blend, and once in the check of the new state.  Every
    conversion, the checks' included, goes through ``Euler.primitives``,
    so the count is complete.
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
    # The first count also holds the boundary enforcement on the initial
    # state and its check.
    assert seen[0] <= 6 + 3
    assert np.diff(seen).max() <= 6


def counted_march(monkeypatch, scheme, methods):
    """Calls of ``methods`` ((owner, name) pairs) in 5 limited, corrected
    iterations of ``small_supersonic(scheme)``."""
    problem = small_supersonic(scheme)
    cfg = problem.solver_config
    assert cfg.limited and cfg.corrected
    calls = dict.fromkeys((name for _, name in methods), 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in methods:
        counting(owner, name)
    result = Solver(problem.mesh, problem.law, problem.boundaries, cfg).march(problem.q0)
    assert result.iterations == 5
    return calls


@pytest.mark.parametrize("scheme", ["rxn", "n"])
def test_parameter_vector_only_for_n_scheme(monkeypatch, scheme):
    """A limited and corrected RXN march never builds the parameter vector
    or the Roe-Struijs-Deconinck average; the systems N scheme does."""
    calls = counted_march(monkeypatch, scheme, [
        (physics.Euler, "to_params"), (physics.ConservationLaw, "rsd_average"),
    ])
    if scheme == "rxn":
        assert calls == {"to_params": 0, "rsd_average": 0}
    else:
        assert calls["to_params"] >= 5 and calls["rsd_average"] >= 5


def measure_rsd_average(monkeypatch):
    """Wrap ``rsd_average``: the returned list collects, per call, the peak
    memory it allocated beyond the arrays of its result, in units of one
    (T, m, m) array (``tracemalloc`` sees NumPy's allocations)."""
    original = physics.ConservationLaw.rsd_average
    excess = []

    def measured(self, *args, **kwargs):
        tracemalloc.start()
        try:
            avg = original(self, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(x.nbytes for x in (avg.zhat, avg.qhat, avg.qhat_nodes, *avg.prim))
        excess.append((peak - kept) / (avg.qhat.shape[0] * self.m * self.m * 8))
        return avg

    monkeypatch.setattr(physics.ConservationLaw, "rsd_average", measured)
    return excess


@pytest.mark.parametrize("scheme", ["rxn", "n"])
def test_no_matrices_for_limiter_and_correction(monkeypatch, scheme):
    """A limited and corrected march builds no eigensystem or Jacobian matrix:
    the limiter, the correction and the systems N scheme all apply closed
    forms.  The N scheme's parameter-vector average builds no (T, m, m)
    array either: what it allocates beyond its result stays under half of
    one."""
    excess = measure_rsd_average(monkeypatch)
    calls = counted_march(monkeypatch, scheme, [
        (physics.Euler, "eigensystem"),
    ])
    assert calls == {"eigensystem": 0}
    if scheme == "n":
        assert len(excess) == 5 and max(excess) < 0.5


@pytest.mark.parametrize("limited", [False, True], ids=["corrected-only", "limited"])
def test_limiting_direction_only_for_the_limiter(monkeypatch, limited):
    """The limiting direction is formed once per iteration when the limiter
    runs, and never when only the correction does: the correction reads no
    direction."""
    problem = small_supersonic("rxn")
    cfg = replace(problem.solver_config, limited=limited)
    assert cfg.corrected
    calls = []
    fn = limiting.limiting_direction
    monkeypatch.setattr(limiting, "limiting_direction", lambda *a: calls.append(1) or fn(*a))
    result = Solver(problem.mesh, problem.law, problem.boundaries, cfg).march(problem.q0)
    assert result.iterations == 5
    assert len(calls) == (5 if limited else 0)


@pytest.mark.parametrize("scheme", ["rxn", "n"])
def test_wave_data_once_per_state(monkeypatch, scheme):
    """A limited and corrected iteration computes the wave data (u, v, h, k,
    a^2, a) once for the triangles' mean states, shared by the limiter and
    the correction, and the systems N scheme once more for its
    parameter-vector average."""
    calls = counted_march(monkeypatch, scheme, [(physics.Euler, "waves")])
    assert calls == {"waves": 5 if scheme == "rxn" else 10}
