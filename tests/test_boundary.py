"""Boundary bindings: coverage validation, wall projection, far-field branches."""

import math

import numpy as np
import pytest

from rdflux import boundary, config, meshgen, physics
from rdflux.solver import Solver
from rdflux.errors import ConfigError, InvalidArgument, NonPhysicalState

from .conftest import random_euler_states


@pytest.fixture
def rect_mesh():
    return meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 6, 6)


def euler_bindings(law, q_inf):
    return {
        "left": ("farfield", q_inf),
        "right": ("outflow", None),
        "top": ("farfield", q_inf),
        "bottom": ("slip_wall", None),
    }


class TestBindingValidation:
    def test_missing_tag_rejected(self, rect_mesh, euler):
        q_inf = euler.freestream(0.5, 0.0)
        b = euler_bindings(euler, q_inf)
        del b["top"]
        with pytest.raises(ConfigError, match="top"):
            boundary.BoundarySet(rect_mesh, euler, b)

    def test_unknown_tag_rejected(self, rect_mesh, euler):
        q_inf = euler.freestream(0.5, 0.0)
        b = euler_bindings(euler, q_inf)
        b["lid"] = ("outflow", None)
        with pytest.raises(ConfigError, match="lid"):
            boundary.BoundarySet(rect_mesh, euler, b)

    def test_unknown_kind_rejected(self, rect_mesh, euler):
        q_inf = euler.freestream(0.5, 0.0)
        b = euler_bindings(euler, q_inf)
        b["right"] = ("teleport", None)
        with pytest.raises(ConfigError, match="teleport"):
            boundary.BoundarySet(rect_mesh, euler, b)

    def test_slip_wall_needs_system(self, rect_mesh):
        law = physics.Burgers()
        with pytest.raises(ConfigError):
            boundary.BoundarySet(rect_mesh, law, {
                "left": ("dirichlet", 1.0),
                "right": ("outflow", None),
                "top": ("outflow", None),
                "bottom": ("slip_wall", None),
            })

    def test_farfield_needs_gas_law(self, rect_mesh):
        # Rejected at construction, not at the first apply.
        with pytest.raises(ConfigError, match="gas-dynamics"):
            boundary.BoundarySet(rect_mesh, physics.Advection((1.0, 0.0)), {
                "left": ("farfield", [1.0]),
                "right": ("outflow", None),
                "top": ("outflow", None),
                "bottom": ("outflow", None),
            })

    def test_farfield_needs_single_state(self, rect_mesh, euler):
        b = euler_bindings(euler, np.zeros(3))  # wrong length
        with pytest.raises(ConfigError):
            boundary.BoundarySet(rect_mesh, euler, b)


class TestBindingData:
    """Far-field and Dirichlet data are checked at construction, not by
    the first iteration of a march."""

    def test_farfield_state_must_be_physical(self, rect_mesh, euler):
        b = euler_bindings(euler, np.array([1.0, 0.5, 0.0, 0.0]))  # zero energy
        with pytest.raises(ConfigError, match=r"^boundary\.left: farfield data: "
                                              r"non-positive pressure -0\.05 "):
            boundary.BoundarySet(rect_mesh, euler, b)

    def test_farfield_state_must_be_finite(self, rect_mesh, euler):
        q_inf = euler.freestream(0.5, 0.0)
        q_inf[0] = np.nan
        b = euler_bindings(euler, q_inf)
        with pytest.raises(ConfigError, match=r"^boundary\.left: farfield data is not finite$"):
            boundary.BoundarySet(rect_mesh, euler, b)

    @pytest.mark.parametrize("data, node", [
        (np.nan, 0),
        (lambda xy: np.where(xy[:, 1] > 0.5, np.inf, 1.0), 28),
    ], ids=["constant", "profile"])
    def test_scalar_dirichlet_value_must_be_finite(self, rect_mesh, data, node):
        # The error names the first node whose value is not finite.
        law = physics.Advection((1.0, 1.0))
        assert rect_mesh.points[node, 0] == 0.0
        with pytest.raises(ConfigError, match=rf"^boundary\.left: dirichlet data at node "
                                              rf"{node} is not finite$"):
            boundary.BoundarySet(rect_mesh, law, {
                "left": ("dirichlet", data), "right": ("outflow", None),
                "top": ("outflow", None), "bottom": ("outflow", None),
            })

    def test_gas_dirichlet_states_must_be_physical(self, rect_mesh, euler):
        # A profile whose upper half has negative density: the error names
        # the mesh node of the first bad state, not its place in the binding.
        q_inf = euler.freestream(0.5, 0.0)
        b = euler_bindings(euler, q_inf)
        b["right"] = ("dirichlet", lambda xy: np.where(
            xy[:, 1:] > 0.5, np.array([-1.0, 0.0, 0.0, 2.5]), q_inf))
        nodes = rect_mesh.boundary_nodes("right")
        first = int(np.argmax(rect_mesh.points[nodes, 1] > 0.5))
        assert first > 0
        with pytest.raises(ConfigError, match=rf"^boundary\.right: dirichlet data at node "
                                              rf"{nodes[first]}: non-positive density -1 "):
            boundary.BoundarySet(rect_mesh, euler, b)

    def test_first_faulty_node_named_whatever_the_fault(self, rect_mesh, euler):
        # A non-physical state before a non-finite one: the earlier node wins.
        q_inf = euler.freestream(0.5, 0.0)
        nodes = rect_mesh.boundary_nodes("right")
        values = np.tile(q_inf, (len(nodes), 1))
        values[1, 0] = -1.0
        values[2, 1] = np.nan
        b = euler_bindings(euler, q_inf)
        b["right"] = ("dirichlet", values)
        with pytest.raises(ConfigError, match=rf"^boundary\.right: dirichlet data at node "
                                              rf"{nodes[1]}: non-positive density -1 "):
            boundary.BoundarySet(rect_mesh, euler, b)
        values[1, 0] = q_inf[0]
        with pytest.raises(ConfigError, match=rf"^boundary\.right: dirichlet data at node "
                                              rf"{nodes[2]} is not finite$"):
            boundary.BoundarySet(rect_mesh, euler, b)


class TestDirichletForms:
    def _base(self, rect_mesh):
        law = physics.Advection((1.0, 1.0))
        return law, {
            "left": ("dirichlet", 2.5),
            "bottom": ("dirichlet", lambda xy: xy[:, 0] ** 2),
            "right": ("outflow", None),
            "top": ("outflow", None),
        }

    def test_constant_and_callable(self, rect_mesh):
        law, bindings = self._base(rect_mesh)
        bset = boundary.BoundarySet(rect_mesh, law, bindings)
        q = np.zeros((rect_mesh.n_nodes, 1))
        bset.apply(q)
        left = rect_mesh.boundary_nodes("left")
        bottom = rect_mesh.boundary_nodes("bottom")
        # The corner shared by both tags gets the later binding's value; test
        # non-corner nodes only.
        interior_left = left[rect_mesh.points[left, 1] > 0.0]
        assert (q[interior_left, 0] == 2.5).all()
        xb = rect_mesh.points[bottom, 0]
        inner = xb > 0.0
        assert np.allclose(q[bottom[inner], 0], xb[inner] ** 2)

    def test_per_node_array(self, rect_mesh):
        law = physics.Advection((1.0, 0.0))
        left = rect_mesh.boundary_nodes("left")
        vals = np.linspace(0.0, 1.0, left.size)[:, None]
        bset = boundary.BoundarySet(rect_mesh, law, {
            "left": ("dirichlet", vals),
            "right": ("outflow", None),
            "top": ("outflow", None),
            "bottom": ("outflow", None),
        })
        q = np.zeros((rect_mesh.n_nodes, 1))
        bset.apply(q)
        assert np.allclose(q[left, 0], vals[:, 0])


class TestSlipWall:
    def test_normal_momentum_removed(self, rect_mesh, euler, rng):
        q_inf = euler.freestream(0.5, 0.0)
        bset = boundary.BoundarySet(rect_mesh, euler, euler_bindings(euler, q_inf))
        q = random_euler_states(rng, (rect_mesh.n_nodes,))
        bset.apply(q)
        wall, normals = rect_mesh.outward_normals("bottom")
        mn = (q[wall, 1:3] * normals).sum(axis=1)
        assert np.abs(mn).max() < 1e-13
        # Density and energy untouched by the projection.

    def test_tangential_flow_unchanged(self, rect_mesh, euler):
        q_inf = euler.freestream(0.5, 0.0)  # horizontal flow, wall along y=0
        bset = boundary.BoundarySet(rect_mesh, euler, euler_bindings(euler, q_inf))
        q = np.tile(q_inf, (rect_mesh.n_nodes, 1))
        out = bset.apply(q.copy())
        wall = rect_mesh.boundary_nodes("bottom")
        inner = rect_mesh.points[wall, 0] * (1.0 - rect_mesh.points[wall, 0]) > 0.0
        assert np.allclose(out[wall[inner]], q_inf, rtol=1e-14)


class TestFarfieldBlend:
    def test_supersonic_inflow_pins_freestream(self, euler):
        q_inf = euler.freestream(2.0, 0.0)
        # Branch selection uses the interior state's normal Mach number,
        # so the interior must itself be supersonically incoming.
        interior = euler.conserved(0.9, 2.5, 0.05, 0.5)
        out = boundary.farfield_blend(
            euler, interior[None], q_inf, np.array([[-1.0, 0.0]])
        )
        assert np.allclose(out[0], q_inf, rtol=1e-14)

    def test_supersonic_outflow_keeps_interior(self, euler):
        q_inf = euler.freestream(2.0, 0.0)
        interior = euler.freestream(3.0, 5.0)
        out = boundary.farfield_blend(
            euler, interior[None], q_inf, np.array([[1.0, 0.0]])
        )
        assert np.allclose(out[0], interior, rtol=1e-14)

    def test_tangential_supersonic_outflow_keeps_interior(self, euler):
        # Behind a shock the flow leaves nearly tangentially: u_n = 0.1 a
        # is subsonic, but |u| = 1.5 a is supersonic and outgoing, so the
        # free stream has no characteristic to impose.
        q_inf = euler.freestream(5.0, 0.0)
        rho, p = 1.0, 1.0 / euler.gamma  # a = 1
        interior = euler.conserved(rho, 0.1, math.sqrt(1.5**2 - 0.1**2), p)
        out = boundary.farfield_blend(
            euler, interior[None], q_inf, np.array([[1.0, 0.0]])
        )
        assert np.array_equal(out[0], interior)

    def test_subsonic_outflow_mixes_invariants(self, euler):
        g = euler.gamma
        q_inf = euler.freestream(0.4, 0.0)
        rho_i, u_i, v_i, p_i = 1.1, 0.25, 0.05, 0.8
        interior = euler.conserved(rho_i, u_i, v_i, p_i)
        out = boundary.farfield_blend(
            euler, interior[None], q_inf, np.array([[1.0, 0.0]])
        )[0]
        a_i = np.sqrt(g * p_i / rho_i)
        rho_f, u_f, v_f, p_f = euler.primitives(q_inf)
        a_f = np.sqrt(g * p_f / rho_f)
        r_out = u_i + 2.0 * a_i / (g - 1.0)
        r_in = u_f - 2.0 * a_f / (g - 1.0)
        un_b = 0.5 * (r_out + r_in)
        a_b = 0.25 * (g - 1.0) * (r_out - r_in)
        # Outgoing: entropy and tangential velocity from the interior side.
        ent = p_i / rho_i**g
        rho_b = (a_b * a_b / (g * ent)) ** (1.0 / (g - 1.0))
        p_b = rho_b * a_b * a_b / g
        expect = euler.conserved(rho_b, un_b, v_i, p_b)
        assert np.allclose(out, expect, rtol=1e-12)

    def test_supersonic_inflow_ignores_its_blended_sound_speed(self, euler):
        # Inflow at normal Mach 12 against a Mach 0.5 free stream leaving
        # through the face: the blended sound speed would be negative, but
        # the node takes the free stream, so nothing is wrong.
        q_inf = euler.freestream(0.5, 180.0)
        p = euler.gamma**-euler.gamma
        a = math.sqrt(euler.gamma * p)
        interior = euler.conserved(1.0, -12.0 * a, 0.0, p)
        out = boundary.farfield_blend(euler, interior[None], q_inf, np.array([[1.0, 0.0]]))
        assert np.array_equal(out[0], q_inf)

    def test_non_positive_blended_sound_speed_names_the_node(self, euler, rect_mesh):
        # A Mach 8 free stream leaving through the right face, and one node
        # there at rest with half its sound speed: that node is blended, at
        # a_b = (gamma - 1)/4 (3 a_f / (gamma - 1) - 8 a_f) = -0.05 a_f.
        # The error names the mesh node and that value.
        g = euler.gamma
        q_inf = euler.freestream(8.0, 0.0)
        rho_f, _, _, p_f = euler.primitives(q_inf)
        a_f = math.sqrt(g * p_f / rho_f)
        bset = boundary.BoundarySet(rect_mesh, euler, {
            "left": ("outflow", None), "right": ("farfield", q_inf),
            "top": ("outflow", None), "bottom": ("outflow", None),
        })
        q = np.tile(q_inf, (rect_mesh.n_nodes, 1))
        node = int(rect_mesh.boundary_nodes("right")[3])
        q[node] = euler.conserved(1.0, 0.0, 0.0, 0.25 * p_f)  # a = a_f / 2
        a_b = 0.25 * (g - 1.0) * (2.0 * (0.5 * a_f + a_f) / (g - 1.0) - 8.0 * a_f)
        assert a_b < 0.0
        with pytest.raises(NonPhysicalState, match=(
            rf"^far-field blend produced a non-positive sound speed {a_b:.6g} at node {node}$"
        )):
            bset.apply(q)

    def test_non_physical_interior_state_names_the_mesh_node(self):
        # Mesh node 2537 of the preset is the 13th of its 101 far-field
        # nodes; the error names the mesh node, not its place in the binding.
        problem = config.build_problem(config.preset("cylinder-supersonic"))
        law, node = problem.law, 2537
        assert list(problem.mesh.boundary_nodes("farfield")).index(node) == 12
        q = np.array(problem.q0)
        rho, u, v, _ = law.primitives(q[node])
        q[node] = law.conserved(rho, u, v, -0.004)
        message = rf"^non-positive pressure -0\.004 at node {node} \(1 of 101 nodes\)$"
        with pytest.raises(NonPhysicalState, match=message):
            problem.boundaries.apply(q.copy())
        sol = Solver(problem.mesh, law, problem.boundaries, problem.solver_config)
        with pytest.raises(NonPhysicalState, match=message):
            sol.march(q)

    def test_uniform_freestream_is_fixed_point(self, euler, rng):
        q_inf = euler.freestream(0.8, 30.0)
        normals = rng.standard_normal((40, 2))
        normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
        out = boundary.farfield_blend(
            euler, np.tile(q_inf, (40, 1)), q_inf, normals
        )
        assert np.allclose(out, q_inf, rtol=1e-12)


class TestApplyOrdering:
    def test_farfield_applied_after_wall_at_shared_corner(self, euler):
        # Documented junction order: wall projection first, then the
        # far-field blend.  At a corner shared by both, the final state
        # is the blend of the wall-projected state, reproduced here by
        # applying the two steps by hand in that order.
        mesh = meshgen.generate_rect_mesh((0.0, 1.0, 0.0, 1.0), 4, 4)
        q_inf = euler.freestream(0.5, -20.0)
        bset = boundary.BoundarySet(mesh, euler, {
            "left": ("farfield", q_inf),
            "right": ("farfield", q_inf),
            "top": ("farfield", q_inf),
            "bottom": ("slip_wall", None),
        })
        q = np.tile(q_inf, (mesh.n_nodes, 1))
        out = bset.apply(q.copy())

        wall_ids, wall_n = mesh.outward_normals("bottom")
        far_ids, far_n = mesh.outward_normals("left")
        corner = np.intersect1d(wall_ids, far_ids)
        assert corner.size == 1
        wslot = np.searchsorted(wall_ids, corner[0])
        fslot = np.searchsorted(far_ids, corner[0])

        staged = q_inf.copy()[None]
        mom = staged[:, 1:3]
        mn = (mom * wall_n[wslot]).sum(axis=1)
        staged[:, 1:3] = mom - mn[:, None] * wall_n[wslot]
        expected = boundary.farfield_blend(
            euler, staged, q_inf, far_n[fslot][None]
        )
        assert np.allclose(out[corner[0]], expected[0], rtol=1e-12)

        # Away from the junction the wall stays exactly tangent.
        inner = ~np.isin(wall_ids, far_ids) & (mesh.points[wall_ids, 0] < 1.0)
        mn = (out[wall_ids[inner], 1:3] * wall_n[inner]).sum(axis=1)
        assert np.abs(mn).max() < 1e-13


def test_supersonic_cylinder_outflow_admits_a_steady_state():
    # The bow shock leaves through the far field near the exit corners.
    # Classified by the normal Mach number, the post-shock states there
    # would take the free stream's incoming invariant, and unlimited RXN
    # with local time steps would enter a limit cycle: on this mesh the
    # rate falls to 0.08 by iteration 500, then rises to 1.48 at 1000.
    # By the total Mach number it decays geometrically, to 0.023 at 1000.
    mapping = config.preset("cylinder-supersonic")
    mapping.update({
        "mesh.n_radial": "10", "mesh.n_circum": "40",
        "solver.limited": "false", "solver.corrected": "false",
        "solver.local_time_stepping": "true",
        "solver.max_iters": "1000", "solver.stop_tol": "0",
    })
    problem = config.build_problem(mapping)
    res = Solver(problem.mesh, problem.law, problem.boundaries, problem.solver_config).march(problem.q0)
    assert res.iterations == 1000
    assert res.final_residual < 0.05
