"""Steady-state marching loop: stepping, step sizes, convergence control."""

import gc
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from rdflux import boundary, config, limiting, meshgen, physics, solver
from rdflux import distribution as dist
from rdflux.errors import (
    ConfigError, Diverged, InvalidArgument, NonPhysicalState, StagnantField,
)
from rdflux.solver import SolverConfig

from .conftest import n_system, random_euler_states, sweep_bound


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


class TestSolverConfig:
    @pytest.mark.parametrize(("name", "value"), [
        ("stop_tol", math.nan), ("divergence_factor", math.nan),
        ("max_iters", 2.5), ("history_stride", 2.5), ("n_threads", 1.5),
    ], ids=["nan-stop_tol", "nan-divergence_factor", "fractional-max_iters",
            "fractional-history_stride", "fractional-n_threads"])
    def test_validate_rejects(self, name, value):
        # A NaN tolerance never converges, a NaN divergence factor turns the
        # guard off (rel > nan is False), and a fractional budget, stride or
        # thread count fails only later, in the march or the solver.
        with pytest.raises(InvalidArgument, match=f"^{name} must"):
            SolverConfig(**{name: value}).validate()

    def test_build_problem_rejects_a_nan_stop_tol(self):
        mapping = config.preset("advection-rotating")
        mapping["solver.stop_tol"] = "nan"
        with pytest.raises(ConfigError, match="^solver: stop_tol must"):
            config.build_problem(mapping)


class TestAnderson:
    """Type-II Anderson mixing of the march (``solver.acceleration``)."""

    @staticmethod
    def rotating(**keys):
        """The ``advection-rotating`` preset on a 27 x 27 mesh, and its solver."""
        mapping = config.preset("advection-rotating")
        mapping.update({"mesh.nx": "27", "mesh.ny": "27", **keys})
        problem = config.build_problem(mapping)
        return problem, solver.Solver(problem.mesh, problem.law, problem.boundaries,
                                      problem.solver_config)

    def test_validate_rejects_an_unknown_acceleration(self):
        with pytest.raises(InvalidArgument, match="^acceleration must"):
            SolverConfig(acceleration="x").validate()

    def test_a_plain_march_counts_no_resets(self):
        problem, sol = self.rotating(**{"solver.acceleration": "none",
                                        "solver.stop_tol": "1e-3"})
        res = sol.march(problem.q0)
        assert res.converged and res.acceleration_resets == 0

    def test_a_nonphysical_mix_falls_back_to_the_plain_step(self, monkeypatch):
        # The law's check rejects the first mixed state once; that
        # iteration takes the plain step of its iterate instead, and the
        # march still converges.
        problem, sol = self.rotating(**{"solver.stop_tol": "1e-3"})
        inside, planted = [], []
        real_next, real_check = solver._Anderson.next, problem.law.check_physical

        def mixing(self, q, g):
            inside.append(True)
            try:
                return real_next(self, q, g)
            finally:
                inside.pop()

        def check(q, *args, **kwargs):
            if inside and not planted:
                planted.append(True)
                raise NonPhysicalState("planted")
            return real_check(q, *args, **kwargs)

        monkeypatch.setattr(solver._Anderson, "next", mixing)
        monkeypatch.setattr(problem.law, "check_physical", check)
        states = []
        res = sol.march(problem.q0, callback=lambda it, q, rel: states.append(q.copy()))
        assert planted and res.acceleration_resets == 1
        assert res.converged
        # The first mix is formed at iteration 2.
        plain = solver.Solver(problem.mesh, problem.law, problem.boundaries,
                              replace(problem.solver_config, acceleration="none"))
        np.testing.assert_array_equal(states[1], plain.step(states[0])[0])

    def test_every_iterate_holds_its_dirichlet_values(self):
        # Each mix is admitted as a step is, so every iterate of the
        # accelerated march carries the Dirichlet data exactly (a mix of
        # steps that all carry it would carry it only to rounding).
        problem, sol = self.rotating(**{"solver.stop_tol": "1e-3"})
        nodes = np.concatenate([problem.mesh.boundary_nodes(t) for t in ("bottom", "right")])
        data = sol.boundaries.apply(problem.q0.copy())[nodes]
        states = []
        res = sol.march(problem.q0, callback=lambda it, q, rel: states.append(q[nodes]))
        assert res.converged and res.acceleration_resets == 0 and len(states) > 2
        for held in states:
            np.testing.assert_array_equal(held, data)

    @staticmethod
    def feed(acc, sol, q, n):
        """``n`` calls of ``acc.next`` along the accelerated march from ``q``."""
        for _ in range(n):
            q = acc.next(q, sol.step(q)[0])
        return q

    def test_a_reset_clears_the_history(self):
        problem, sol = self.rotating()
        q = sol.boundaries.apply(problem.q0.copy())
        reject = []

        def admit(q):
            if reject:
                raise NonPhysicalState("planted")
            return sol._admit(q)

        acc = solver._Anderson(q, admit)
        q = self.feed(acc, sol, q, 4)
        assert acc.k == 4 and acc.resets == 0
        reject.append(True)
        g = sol.step(q)[0]
        assert acc.next(q, g) is g
        assert acc.k == 0 and acc.resets == 1
        reject.clear()
        # The history starts again: the first step held is taken as it is.
        g2 = sol.step(g)[0]
        assert acc.next(g, g2) is g2
        assert acc.k == 1 and acc.resets == 1

    def test_the_mix_is_the_type_ii_least_squares_step(self):
        # Seven calls fill the ring and overwrite its oldest row once; the
        # mix of the last six steps is g - dG gamma, with gamma the
        # least-squares fit of f by the differences of successive f.
        problem, sol = self.rotating()
        q = sol.boundaries.apply(problem.q0.copy())
        acc = solver._Anderson(q, sol._admit)
        qs, gs = [], []
        for _ in range(7):
            g = sol.step(q)[0]
            qs.append(q)
            gs.append(g)
            q = acc.next(q, g)
        f = np.array([(b - a).ravel() for a, b in zip(qs[1:], gs[1:])])
        g_rows = np.array([b.ravel() for b in gs[1:]])
        gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
        expected = g_rows[-1] - np.diff(g_rows, axis=0).T @ gamma
        assert acc.k == solver.ANDERSON_DEPTH + 1 and acc.resets == 0
        np.testing.assert_allclose(q.ravel(), expected, rtol=1e-9, atol=1e-12)

    def test_a_singular_gram_system_falls_back(self):
        # A steady state twice: both residuals held are zero, so the
        # bordered system is singular.
        problem, sol = self.rotating()
        acc = solver._Anderson(problem.q0, sol._admit)
        g = sol.step(sol.boundaries.apply(problem.q0.copy()))[0]
        assert acc.next(g, g) is g and acc.k == 1
        assert acc.next(g, g) is g
        assert acc.k == 0 and acc.resets == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_long_march_stays_finite(self):
        # Past convergence, as the benchmark's traced run marches: 500
        # iterations at stop_tol 0 on the preset itself.
        mapping = config.preset("advection-rotating")
        mapping.update({"solver.stop_tol": "0", "solver.max_iters": "500"})
        problem = config.build_problem(mapping)
        res = solver.Solver(problem.mesh, problem.law, problem.boundaries,
                            problem.solver_config).march(problem.q0)
        assert res.iterations == 500
        assert np.isfinite(res.q).all()
        assert res.final_residual < 1e-10  # 1.03e-12 with no reset when measured


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
            q_new, rate, fallback, _ = sol.step(q)
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
        q_new, _, _, dt = sol.step(q)
        assert np.array_equal(dt, sol.stable_dt(q))
        rate = sol.dual[:, None] * (q_new - q) / dt[:, None]
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
            q = sol.step(q)[0]
            assert q.min() >= lo - 1e-12 and q.max() <= hi + 1e-12


class TestStableDt:
    def test_scales_linearly_with_mesh_size(self):
        dts = []
        for n in (8, 16, 32):
            mesh, law, _ = scalar_problem(n, n)
            sol = solver.Solver(mesh, law, None, SolverConfig(scheme="n"))
            dt = sol.stable_dt(np.zeros((mesh.n_nodes, 1)))
            # A global step is one value, at every node.
            assert dt.shape == (mesh.n_nodes,) and (dt == dt[0]).all()
            dts.append(dt[0])
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
        s = sweep_bound(law, q[tris])
        d = np.zeros(mesh.n_nodes)
        np.add.at(d, tris, s[:, None] * np.hypot(normals[..., 0], normals[..., 1]))
        expected = 0.7 * (2.0 * np.asarray(mesh.dual_areas) / d).min()
        assert dt.shape == (mesh.n_nodes,)
        assert np.allclose(dt, expected, rtol=1e-13, atol=0.0)

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
        assert dt_global.shape == (mesh.n_nodes,) and (dt_global == dt_global[0]).all()
        assert (dt >= dt_global * (1.0 - 1e-12)).all()
        assert np.isclose(dt.min(), dt_global[0], rtol=1e-12)

    @pytest.mark.parametrize("lts", [False, True], ids=["global", "local"])
    def test_advection_step_computed_once(self, rng, lts):
        # An advection field's step depends on the mesh alone: the solver
        # computes it at construction and returns that read-only step,
        # whatever the state.
        mesh, law, _ = scalar_problem()
        cfg = SolverConfig(scheme="rxn", cfl_fraction=0.7, local_time_stepping=lts)
        sol = solver.Solver(mesh, law, None, cfg)
        d = sol._inflow_coefficients(None, sol.k_static)
        pos = d > 0.0
        expected = np.full(mesh.n_nodes, 0.7 * (2.0 * sol.dual[pos] / d[pos]).min())
        if lts:
            expected[pos] = 0.7 * 2.0 * sol.dual[pos] / d[pos]
        dt = sol.stable_dt(rng.standard_normal((mesh.n_nodes, 1)))
        assert np.array_equal(dt, expected) and np.shape(dt) == np.shape(expected)
        assert dt is sol.dt_static
        assert sol.stable_dt(np.zeros((mesh.n_nodes, 1))) is dt
        with pytest.raises((TypeError, ValueError)):
            dt[...] = 1.0
        assert np.array_equal(dt, expected)

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
        g, w = sol.map_static
        assert (g == 0.0).all() and np.isfinite(w).all()
        with pytest.raises(StagnantField):
            sol.stable_dt(np.zeros((mesh.n_nodes, 1)))

    @pytest.mark.parametrize("scheme", ["n", "rxn"])
    def test_stagnant_field_raises_on_every_call(self, scheme):
        mesh, _, _ = scalar_problem()
        law = physics.Advection((0.0, 0.0))
        sol = solver.Solver(mesh, law, None, SolverConfig(scheme=scheme))
        assert sol.dt_static is None
        for _ in range(2):
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

            def step(self, q):
                type(self).level *= 10.0
                return q, type(self).level, 0, self.stable_dt(q)

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

    @staticmethod
    def poison_assemble(monkeypatch, rows):
        """Wrap ``Solver.assemble``: each (node, component) of ``rows`` gets
        its residual entry replaced by the given value."""
        fn = solver.Solver.assemble

        def poisoned(self, q, sweep=None):
            residual, fallback = fn(self, q, sweep)
            for (node, j), value in rows.items():
                residual[node, j] = value
            return residual, fallback

        monkeypatch.setattr(solver.Solver, "assemble", poisoned)

    @staticmethod
    def interior_nodes(mesh):
        on_boundary = np.concatenate([mesh.boundary_nodes(t) for t in mesh.tags])
        return np.setdiff1d(np.arange(mesh.n_nodes), on_boundary)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_names_iteration_and_first_node(self, monkeypatch, value):
        mesh, law, bset = scalar_problem()
        first, later = self.interior_nodes(mesh)[[3, 10]]
        self.poison_assemble(monkeypatch, {(later, 0): np.nan, (first, 0): value})
        cfg = SolverConfig(scheme="rxn", limited=True, corrected=True)
        sol = solver.Solver(mesh, law, bset, cfg)
        q0 = np.zeros((mesh.n_nodes, 1))
        with pytest.raises(NonPhysicalState, match=rf"^non-finite state at node {first}$"):
            sol.step(q0)
        with pytest.raises(NonPhysicalState,
                           match=rf"^iteration 1: non-finite state at node {first}$"):
            sol.march(q0)

    def test_non_finite_state_reported_before_non_physical_one(self, monkeypatch, euler):
        # A lower node with a finite, negative density would be named by
        # ``check_physical``; the non-finite node is reported first.
        mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 8, 8)
        q_inf = euler.freestream(0.8, 3.0)
        bset = boundary.BoundarySet(mesh, euler, {
            t: ("farfield", q_inf) for t in ("left", "right", "top", "bottom")
        })
        negative, bad = self.interior_nodes(mesh)[[2, 7]]
        self.poison_assemble(monkeypatch, {(negative, 0): 1e30, (bad, 1): np.nan})
        sol = solver.Solver(mesh, euler, bset, SolverConfig(scheme="rxn"))
        q0 = np.tile(q_inf, (mesh.n_nodes, 1))
        with pytest.raises(NonPhysicalState,
                           match=rf"^iteration 1: non-finite state at node {bad}$"):
            sol.march(q0)
        monkeypatch.undo()
        self.poison_assemble(monkeypatch, {(negative, 0): 1e30})
        with pytest.raises(NonPhysicalState, match=rf"^iteration 1: non-positive density "
                                                   rf"-\S+ at node {negative} "):
            sol.march(q0)

    @pytest.mark.parametrize("law_kind", ["advection", "euler"])
    def test_non_finite_initial_state_rejected_before_iteration_1(self, law_kind, euler):
        # Node 20 of the 6 x 6 rectangle lies on the outflow side, which
        # enforcement leaves as it is; a march that let the NaN in would
        # report the node it reached first in iteration 1.
        if law_kind == "advection":
            mesh, law, bset = scalar_problem(6, 6)
            q0 = np.zeros((mesh.n_nodes, 1))
        else:
            mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 6, 6)
            q_inf = euler.freestream(0.8, 3.0)
            law, bset = euler, boundary.BoundarySet(mesh, euler, {
                "left": ("farfield", q_inf), "bottom": ("farfield", q_inf),
                "top": ("farfield", q_inf), "right": ("outflow", None),
            })
            q0 = np.tile(q_inf, (mesh.n_nodes, 1))
        q0[20, 0] = np.nan
        sol = solver.Solver(mesh, law, bset, SolverConfig(scheme="rxn"))
        with pytest.raises(NonPhysicalState,
                           match=r"^non-finite state at node 20 in initial state$"):
            sol.march(q0)

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
    @pytest.mark.parametrize("scheme", ["rxn", "n"])
    def test_advection_bound_and_inflow_coefficients_computed_once(self, monkeypatch, scheme):
        # Under a velocity_at law the scheme's linear map (g, w) (under RXN
        # the relaxation map with its own wave-speed bound, under N the
        # upwind map of k), the upwind parameters k and the step depend on
        # the mesh alone: the solver builds them once and passes its own
        # arrays into each sweep, which computes no bound and no map, and
        # each iteration steps by the one step built at construction, with
        # no inflow coefficients.
        class Recomputing(solver.Solver):
            def _sweep(self, q):
                xy = self.mesh.tri_coords()
                self.k_static = solver._triangle_inner(dist.advection_upwind_k(self.law, xy))
                if scheme == "rxn":
                    vel = np.broadcast_to(self.law.velocity_at(xy), xy.shape)
                    coef = dist.advection_coefficients(self.normals, self.nlen,
                                                       solver._triangle_inner(vel))
                else:
                    coef = dist.upwind_coefficients(self.k_static)
                self.map_static = tuple(solver._triangle_inner(c) for c in coef)
                self.dt_static = None  # stable_dt rebuilds the step from the sweep's k
                return super()._sweep(q)

        mapping = config.preset("advection-rotating")
        mapping.update({"solver.max_iters": "30", "solver.stop_tol": "0",
                        "solver.scheme": scheme})
        problem = config.build_problem(mapping)
        args = (problem.mesh, problem.law, problem.boundaries, problem.solver_config)
        reference = Recomputing(*args).march(problem.q0).q

        sol = solver.Solver(*args)
        sweep = sol._sweep(problem.q0)
        assert sweep.s is None and sweep.k is sol.k_static
        assert sweep.coefficients is sol.map_static
        assert sol.stable_dt(problem.q0, sweep) is sol.dt_static
        calls = []
        for name in ("wave_speed_bound", "advection_coefficients", "advection_upwind_k",
                     "scalar_upwind_k", "upwind_coefficients"):
            fn = getattr(dist, name)
            monkeypatch.setattr(dist, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        for name in ("_inflow_coefficients", "_step_of"):
            fn = getattr(solver.Solver, name)
            monkeypatch.setattr(solver.Solver, name,
                                lambda *a, _fn=fn: calls.append(1) or _fn(*a))
        res = sol.march(problem.q0)
        assert res.iterations == 30
        assert not calls
        assert np.array_equal(res.q, reference)

    @pytest.mark.parametrize("lts", [False, True], ids=["global", "local"])
    def test_static_step_advances_pseudo_time_by_its_minimum(self, lts):
        # Each iteration adds the smallest nodal step of the static step
        # to the pseudo-time that ``history`` records.
        mesh, law, bset = scalar_problem(6, 6)
        cfg = SolverConfig(scheme="n", max_iters=12, stop_tol=0.0, history_stride=1,
                           local_time_stepping=lts)
        sol = solver.Solver(mesh, law, bset, cfg)
        res = sol.march(np.zeros((mesh.n_nodes, 1)))
        assert sol.dt_static.shape == (mesh.n_nodes,)
        # A global step is one value at every node, a local one is not.
        assert (sol.dt_static == sol.dt_static[0]).all() != lts
        t, expected = 0.0, []
        for _ in range(12):
            t += float(np.min(sol.dt_static))
            expected.append(t)
        assert [h[1] for h in res.history] == expected

    @pytest.mark.parametrize("scheme", ["rxn", "n"])
    def test_correction_weights_built_once(self, monkeypatch, scheme):
        # An advection field's correction weights depend on the mesh alone:
        # the solver builds them once, each sweep carries the solver's own
        # array, and no iteration forms them again.  Uncorrected, none are
        # built.
        mapping = config.preset("advection-rotating")
        mapping.update({"mesh.nx": "8", "mesh.ny": "8", "solver.scheme": scheme,
                        "solver.max_iters": "5", "solver.stop_tol": "0"})
        problem = config.build_problem(mapping)
        args = (problem.mesh, problem.law, problem.boundaries)
        sol = solver.Solver(*args, problem.solver_config)
        assert sol._sweep(problem.q0).weights is sol.weights_static
        assert np.array_equal(sol.weights_static,
                              limiting.correction_weights(sol.k_static))
        calls = []
        fn = limiting.correction_weights
        monkeypatch.setattr(limiting, "correction_weights",
                            lambda k: calls.append(1) or fn(k))
        assert sol.march(problem.q0).iterations == 5
        assert not calls
        plain = solver.Solver(*args, replace(problem.solver_config, corrected=False))
        assert plain.weights_static is None


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


class TestNSchemeFallback:
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_assemble_gathers_the_fallback_states(self, euler, rng, monkeypatch, n_threads):
        # One triangle's nodes hold equal densities and pressures with
        # cancelling velocities, so its averaged state is at rest and its
        # star matrix singular.  The pass keeps no gathered state: the
        # fallback gathers that triangle's states from the nodal state,
        # and the residual is the scatter of the kernel's parts on q[tris].
        # The fallback takes its bound from the sweep: the assembly
        # evaluates the speeds twice, once for the nodes and once for the
        # mean states.
        mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4)
        tris = np.asarray(mesh.tris)
        q = random_euler_states(rng, (mesh.n_nodes,))
        q[tris[7]] = euler.conserved(1.2, np.array([0.3, -0.3, 0.0]),
                                     np.array([0.1, -0.1, 0.0]), 0.9)
        cfg = SolverConfig(scheme="n", limited=False, corrected=False, n_threads=n_threads)
        sol = solver.Solver(mesh, euler, None, cfg)
        assert len(sol._chunks) == n_threads
        calls = []
        fn = physics.Euler.max_wavespeed
        monkeypatch.setattr(physics.Euler, "max_wavespeed",
                            lambda *a, **k: calls.append(1) or fn(*a, **k))
        residual, fallback = sol.assemble(q)
        assert len(calls) == 2
        monkeypatch.undo()
        res = n_system(euler, np.asarray(mesh.normals), q[tris])
        assert np.flatnonzero(res.fallback).tolist() == [7]
        assert fallback == 1
        expected = np.zeros((mesh.n_nodes, 4))
        for sl, nodes in zip(sol._chunks, sol._chunk_nodes):
            sol._scatter_add(expected, nodes, res.parts[sl])
        assert np.array_equal(residual, expected)


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


    def test_scatter_adds_each_bin_in_triangle_order(self, euler, rng):
        # Each chunk's bincounts, one per component, add a node's entries
        # by vertex slot, and within a slot in triangle order: the memory
        # order of triangle-innermost parts.  The chunk sums are added in chunk
        # order.  The bits do not depend on the parts' memory layout.
        mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 7, 5)
        tris = np.asarray(mesh.tris)
        shape = (len(tris), 3, 4)
        parts = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        for n_threads in (1, 2):
            sol = solver.Solver(mesh, euler, None, SolverConfig(scheme="n", n_threads=n_threads))
            if n_threads == 1:  # the one chunk's node ids are the triangles' own
                assert np.shares_memory(sol._chunk_nodes[0], sol._tris_t)

            def loop_sum(order):
                total = np.zeros((mesh.n_nodes, 4))
                for sl in sol._chunks:
                    chunk = np.zeros((mesh.n_nodes, 4))
                    for j in range(4):
                        for i, t in order(range(sl.start, sl.stop)):
                            chunk[tris[t, i], j] += parts[t, i, j]
                    total += chunk
                return total

            expected = loop_sum(lambda ts: ((i, t) for i in range(3) for t in ts))
            by_triangle = loop_sum(lambda ts: ((i, t) for t in ts for i in range(3)))
            assert not np.array_equal(expected, by_triangle)  # the order shows in these sums
            for layout in (parts, solver._triangle_inner(parts)):
                out = np.zeros((mesh.n_nodes, 4))
                for sl, nodes in zip(sol._chunks, sol._chunk_nodes):
                    sol._scatter_add(out, nodes, layout[sl])
                assert np.array_equal(out, expected)

    @pytest.mark.parametrize("scheme", ["rxn", "n"])
    @pytest.mark.parametrize("preset, size", [
        ("advection-rotating", {"mesh.nx": "8", "mesh.ny": "8"}),
        ("cylinder-supersonic", {"mesh.n_radial": "6", "mesh.n_circum": "16"}),
    ], ids=["advection-rotating", "cylinder-supersonic"])
    def test_march_scatters_parts_as_stored(self, monkeypatch, preset, size, scheme):
        # The parts that reach the scatter are triangle-innermost, so the
        # bincount reads them as a view, with no transposing copy.
        mapping = config.preset(preset)
        mapping.update({**size, "solver.scheme": scheme, "solver.max_iters": "2",
                        "solver.stop_tol": "0"})
        problem = config.build_problem(mapping)
        seen = []
        fn = solver.Solver._scatter_add

        def scatter(self, out, bins, parts):
            seen.append(np.shares_memory(parts.T.ravel(), parts))
            return fn(self, out, bins, parts)

        monkeypatch.setattr(solver.Solver, "_scatter_add", scatter)
        cfg = replace(problem.solver_config, n_threads=2)
        solver.Solver(problem.mesh, problem.law, problem.boundaries, cfg).march(problem.q0)
        assert seen and all(seen)


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
