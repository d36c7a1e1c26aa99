"""Steady-state marching loop: stepping, step sizes, convergence control."""

import gc
import threading

import numpy as np
import pytest

from rdflux import boundary, config, meshgen, physics, solver
from rdflux import distribution as dist
from rdflux.errors import Diverged, NonPhysicalState, StagnantField
from rdflux.solver import SolverConfig

from .conftest import random_euler_states


def scalar_problem(nx=12, ny=12, speed=(1.0, 0.0)):
    mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), nx, ny)
    law = physics.Advection(speed)

    def inlet(xy):
        return np.sin(2.0 * np.pi * xy[:, 1])[:, None]

    bset = boundary.BoundarySet(mesh, law, {
        "left": ("dirichlet", inlet),
        "bottom": ("dirichlet", 0.0),
        "top": ("dirichlet", 0.0),
        "right": ("outflow", None),
    })
    return mesh, law, bset


class TestStep:
    def test_uniform_euler_state_is_steady(self, euler):
        mesh = meshgen.perturb_interior(
            meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 9, 9), 0.2, seed=5
        )
        q_inf = euler.freestream(0.8, 3.0)
        bset = boundary.BoundarySet(mesh, euler, {
            t: ("farfield", q_inf) for t in ("left", "right", "top", "bottom")
        })
        for scheme in ("n", "rxn"):
            cfg = SolverConfig(scheme=scheme, limited=True, corrected=True)
            sol = solver.Solver(mesh, euler, bset, cfg)
            q = np.tile(q_inf, (mesh.n_nodes, 1))
            q_new, rate, fallback = sol.step(q)
            assert np.abs(q_new - q).max() <= 1e-13 * np.abs(q).max()
            assert rate <= 1e-11
            assert fallback == 0

    def test_update_telescopes_to_total_residual(self, rng):
        # Without boundaries, the summed dual-cell update rate equals the
        # summed per-triangle residual exactly (scatter conserves).
        mesh, law, _ = scalar_problem()
        cfg = SolverConfig(scheme="rxn", limited=False, corrected=False)
        sol = solver.Solver(mesh, law, None, cfg)
        q = rng.standard_normal((mesh.n_nodes, 1))
        residual, _ = sol.assemble(q)
        dt = sol.stable_dt(q)
        q_new, _, _ = sol.step(q, dt=dt)
        rate = sol.dual[:, None] * (q_new - q) / dt
        assert np.abs(rate.sum(axis=0) + residual.sum(axis=0)).max() < 1e-11 * max(
            1.0, np.abs(residual).max()
        )

    def test_scalar_maximum_principle_short_run(self, rng):
        mesh, law, bset = scalar_problem()
        cfg = SolverConfig(scheme="n", limited=False, corrected=False,
                           cfl_fraction=0.8)
        sol = solver.Solver(mesh, law, bset, cfg)
        q = rng.uniform(-1.0, 1.0, (mesh.n_nodes, 1))
        bset.apply(q)
        lo, hi = q.min(), q.max()
        for _ in range(50):
            q, _, _ = sol.step(q)
            assert q.min() >= lo - 1e-12 and q.max() <= hi + 1e-12


class TestStableDt:
    def test_scales_linearly_with_mesh_size(self):
        dts = []
        for n in (8, 16, 32):
            mesh, law, _ = scalar_problem(n, n)
            sol = solver.Solver(mesh, law, None, SolverConfig(scheme="n"))
            q = np.zeros((mesh.n_nodes, 1))
            dts.append(sol.stable_dt(q))
        assert np.isclose(dts[0] / dts[1], 2.0, rtol=0.05)
        assert np.isclose(dts[1] / dts[2], 2.0, rtol=0.05)

    @pytest.mark.parametrize("scheme", ["n", "rxn"])
    def test_system_takes_relaxation_bound(self, small_irregular_mesh, rng, scheme):
        # dt = cfl min_i 2 |C_i| / sum_T s_T ||n_i||, written out from the mesh.
        mesh = small_irregular_mesh
        law = physics.Euler()
        q = random_euler_states(rng, mesh.n_nodes)
        cfg = SolverConfig(scheme=scheme, cfl_fraction=0.7)
        dt = solver.Solver(mesh, law, None, cfg).stable_dt(q)
        tris = np.asarray(mesh.tris)
        normals = np.asarray(mesh.normals, dtype=float)
        s = dist.wave_speed_bound(law, q[tris])
        d = np.zeros(mesh.n_nodes)
        np.add.at(d, tris, s[:, None] * np.hypot(normals[..., 0], normals[..., 1]))
        expected = 0.7 * (2.0 * np.asarray(mesh.dual_areas) / d).min()
        assert np.isclose(dt, expected, rtol=1e-13, atol=0.0)

    def test_local_time_stepping_dominates_global(self, rng):
        mesh, law, _ = scalar_problem()
        q = rng.standard_normal((mesh.n_nodes, 1)) + 2.0
        cfg = SolverConfig(scheme="rxn", local_time_stepping=True)
        sol = solver.Solver(mesh, law, None, cfg)
        dt = sol.stable_dt(q)
        assert dt.shape == (mesh.n_nodes,)
        dt_global = solver.Solver(
            mesh, law, None, SolverConfig(scheme="rxn")
        ).stable_dt(q)
        assert (dt >= dt_global * (1.0 - 1e-12)).all()
        assert np.isclose(dt.min(), dt_global, rtol=1e-12)

    def test_stagnant_field_raises(self):
        mesh, _, _ = scalar_problem()
        law = physics.Advection((0.0, 0.0))
        sol = solver.Solver(mesh, law, None, SolverConfig(scheme="n"))
        with pytest.raises(StagnantField):
            sol.stable_dt(np.zeros((mesh.n_nodes, 1)))

    def test_stagnant_field_raises_under_rxn(self):
        # The relaxation map is built at construction, where s = 0: that
        # must not divide 0 by 0 (RuntimeWarning is an error here).
        mesh, _, _ = scalar_problem()
        law = physics.Advection((0.0, 0.0))
        sol = solver.Solver(mesh, law, None, SolverConfig(scheme="rxn"))
        g, w = sol.rxn_static
        assert (g == 0.0).all() and np.isfinite(w).all()
        with pytest.raises(StagnantField):
            sol.stable_dt(np.zeros((mesh.n_nodes, 1)))


class TestMarch:
    def test_already_steady_returns_immediately(self, euler):
        mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 8, 8)
        q_inf = euler.freestream(0.6, 0.0)
        bset = boundary.BoundarySet(mesh, euler, {
            t: ("farfield", q_inf) for t in ("left", "right", "top", "bottom")
        })
        sol = solver.Solver(mesh, euler, bset, SolverConfig())
        res = sol.march(np.tile(q_inf, (mesh.n_nodes, 1)))
        assert res.converged
        assert res.iterations <= 1

    def test_scalar_case_converges_and_history_monotone_iters(self):
        mesh, law, bset = scalar_problem()
        cfg = SolverConfig(scheme="rxn", limited=False, corrected=False,
                           stop_tol=1e-8, max_iters=4000, history_stride=25)
        res = solver.Solver(mesh, law, bset, cfg).march(np.zeros((mesh.n_nodes, 1)))
        assert res.reason == "converged"
        assert res.final_residual < 1e-8
        iters = [h[0] for h in res.history]
        assert all(b > a for a, b in zip(iters, iters[1:]))
        # Steady advection: inlet profile transported across the strip.
        assert np.abs(res.q).max() > 0.5

    def test_divergence_detector(self):
        # Control-flow check: a run whose update rate grows tenfold per
        # iteration must abort with the iteration number in the message.
        mesh, law, bset = scalar_problem(6, 6)

        class GrowingSolver(solver.Solver):
            level = 1.0

            def step(self, q, dt=None, sweep=None):
                type(self).level *= 10.0
                return q, type(self).level, 0

        cfg = SolverConfig(scheme="n", limited=False, corrected=False,
                           divergence_factor=50.0, max_iters=100)
        sol = GrowingSolver(mesh, law, bset, cfg)
        with pytest.raises(Diverged, match="iteration"):
            sol.march(np.zeros((mesh.n_nodes, 1)))

    def test_nonphysical_state_names_iteration_node_and_quantity(self):
        # The relaxation bound covers only the unlimited scheme; with local
        # time steps the limited, corrected march on this preset drives a
        # nodal state non-physical within ~40 iterations.
        mapping = config.preset("cylinder-supersonic")
        mapping["solver.local_time_stepping"] = "true"
        problem = config.build_problem(mapping)
        sol = solver.Solver(problem.mesh, problem.law, problem.boundaries, problem.solver_config)
        with pytest.raises(
            NonPhysicalState,
            match=r"^iteration \d+: non-positive (density|pressure) -\S+ at node \d+ ",
        ):
            sol.march(problem.q0)

    def test_reduced_subsonic_preset_stays_physical(self):
        # The preset's CFL on a 25 x 64 mesh, where a step past the
        # relaxation bound loses positivity within 20 iterations.
        mapping = config.preset("cylinder-subsonic")
        mapping.update({"mesh.n_radial": "25", "mesh.n_circum": "64",
                        "solver.max_iters": "40", "solver.stop_tol": "0"})
        problem = config.build_problem(mapping)
        sol = solver.Solver(problem.mesh, problem.law, problem.boundaries, problem.solver_config)
        res = sol.march(problem.q0)
        assert res.iterations == 40
        problem.law.check_physical(res.q)

    def test_callback_sees_every_iteration(self):
        mesh, law, bset = scalar_problem(6, 6)
        cfg = SolverConfig(scheme="n", limited=False, corrected=False,
                           max_iters=37, stop_tol=0.0)
        seen = []
        solver.Solver(mesh, law, bset, cfg).march(
            np.zeros((mesh.n_nodes, 1)), callback=lambda i, q, r: seen.append(i)
        )
        assert seen == list(range(1, 38))


class TestMeshStaticData:
    def test_advection_bound_and_inflow_coefficients_computed_once(self, monkeypatch):
        # Under a velocity_at law the relaxation scheme's linear map (g, w)
        # with its own wave-speed bound, the upwind parameters k and the
        # upwind inflow coefficients depend on the mesh alone: the solver
        # builds them once and passes its own arrays into each sweep,
        # which computes no other bound.
        class Recomputing(solver.Solver):
            def _sweep(self, q):
                xy = self.mesh.tri_coords()
                vel = solver._triangle_inner(np.broadcast_to(self.law.velocity_at(xy), xy.shape))
                coef = dist.advection_coefficients(self.normals, vel)
                self.rxn_static = tuple(solver._triangle_inner(c) for c in coef)
                self.k_static = solver._triangle_inner(dist.advection_upwind_k(self.law, xy))
                self.d_static = np.bincount(
                    self.tris_flat, weights=np.maximum(2.0 * self.k_static, 0.0).ravel(),
                    minlength=self.n_nodes,
                )
                return super()._sweep(q)

        mapping = config.preset("advection-rotating")
        mapping.update({"solver.max_iters": "30", "solver.stop_tol": "0"})
        problem = config.build_problem(mapping)
        args = (problem.mesh, problem.law, problem.boundaries, problem.solver_config)
        assert problem.solver_config.scheme == "rxn"
        reference = Recomputing(*args).march(problem.q0).q

        sol = solver.Solver(*args)
        sweep = sol._sweep(problem.q0)
        assert sweep.s is None and sweep.k is sol.k_static
        assert sweep.coefficients is sol.rxn_static
        calls = []
        for name in ("wave_speed_bound", "advection_coefficients", "advection_upwind_k",
                     "scalar_upwind_k"):
            fn = getattr(dist, name)
            monkeypatch.setattr(dist, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        res = sol.march(problem.q0)
        assert res.iterations == 30
        assert not calls
        assert np.array_equal(res.q, reference)


class TestSweep:
    @pytest.mark.parametrize("scheme", ["n", "rxn"])
    def test_burgers_upwind_parameters_once_per_iteration(self, monkeypatch, scheme):
        # A scalar law's k is read by the N scheme, the upwind step rule
        # and the correction; the sweep computes it once for all three.
        mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 8, 6)
        law = physics.Burgers()
        bset = boundary.BoundarySet(mesh, law, {
            "left": ("dirichlet", 1.0), "right": ("outflow", None),
            "top": ("outflow", None), "bottom": ("outflow", None),
        })
        cfg = SolverConfig(scheme=scheme, limited=True, corrected=True,
                           max_iters=10, stop_tol=0.0)
        calls = []
        fn = dist.scalar_upwind_k
        monkeypatch.setattr(dist, "scalar_upwind_k", lambda *a: calls.append(1) or fn(*a))
        res = solver.Solver(mesh, law, bset, cfg).march(np.full((mesh.n_nodes, 1), 0.5))
        assert res.iterations == 10
        assert len(calls) == 10


class TestDeterminism:
    def test_env_flag_bit_identical(self):
        # Threaded chunks are accumulated in chunk order, so repeated
        # two-thread runs give identical bits.
        mesh, law, bset = scalar_problem()
        cfg = SolverConfig(scheme="rxn", limited=True, corrected=True,
                           max_iters=200, stop_tol=0.0, n_threads=2)
        outs = []
        for _ in range(2):
            res = solver.Solver(mesh, law, bset, cfg).march(np.zeros((mesh.n_nodes, 1)))
            outs.append(res.q.copy())
        assert (outs[0] == outs[1]).all()


class TestThreads:
    def test_assembly_threads_end_with_solver(self):
        mesh, law, _ = scalar_problem()
        before = set(threading.enumerate())
        sol = solver.Solver(mesh, law, None, SolverConfig(scheme="rxn", n_threads=2))
        sol.assemble(np.ones((mesh.n_nodes, 1)))
        workers = set(threading.enumerate()) - before
        assert workers
        del sol
        gc.collect()
        for t in workers:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in workers)
