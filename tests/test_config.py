"""Run-configuration parsing, validation, presets, and problem assembly."""

import dataclasses

import numpy as np
import pytest

from rdflux import config, physics
from rdflux.errors import ConfigError
from rdflux.mesh import save_mesh
from rdflux.solver import Solver, SolverConfig

ADVECTION_TEXT = """\
# transport of a sine hump across the unit square
law.kind = advection
law.velocity = 1.0 0.0

mesh.kind = rect
mesh.nx = 6
mesh.ny = 6

boundary.left = dirichlet sine-band 0.2 0.8
boundary.bottom = dirichlet 0.0
boundary.top = outflow
boundary.right = outflow
"""


class TestParseText:
    def test_comments_and_blanks_ignored(self):
        m = config.parse_text("# all comment\n\n a = 1 # trailing\n")
        assert m == {"a": "1"}

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3.*duplicate.*'a'"):
            config.parse_text("a = 1\nb = 2\na = 3\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            config.parse_text("a = 1\nnot a pair\n")

    def test_key_with_spaces_rejected(self):
        with pytest.raises(ConfigError, match="malformed key"):
            config.parse_text("bad key = 1\n")


class TestCanonicalize:
    def test_unknown_key_full_path(self):
        for key in ("solver.warp_speed", "solver.star_flux", "solver.dt_mode", "solver.safety",
                    "mesh.pattern"):
            m = config.parse_text(ADVECTION_TEXT)
            m[key] = "9"
            with pytest.raises(ConfigError, match=key):
                config.canonicalize(m)

    def test_inapplicable_key_rejected(self):
        m = config.parse_text(ADVECTION_TEXT)
        m["law.mach"] = "2.0"  # gas-dynamics knob on a scalar law
        with pytest.raises(ConfigError, match="law.mach"):
            config.canonicalize(m)

    def test_padded_selectors_match_stripped(self):
        # Mappings need not come from parse_text, which strips values.
        base = {
            "law.kind": "euler", "law.mach": "5.0", "mesh.kind": "rect",
            "mesh.nx": "4", "mesh.ny": "4", "init.kind": "uniform", "init.value": "1 0 0 2",
            "boundary.left": "outflow", "boundary.right": "outflow",
            "boundary.top": "outflow", "boundary.bottom": "outflow",
        }
        padded = dict(base)
        for key in ("law.kind", "mesh.kind", "init.kind"):
            padded[key] = f" {base[key]} "
        assert config.canonicalize(padded) == config.canonicalize(base)

    def test_mesh_source_exclusive(self):
        for build in (config.canonicalize, config.build_mesh_only):
            m = config.parse_text(ADVECTION_TEXT)
            m["mesh.file"] = "grid.msh"
            with pytest.raises(ConfigError, match="mutually exclusive"):
                build(m)
            del m["mesh.file"]
            del m["mesh.kind"]
            with pytest.raises(ConfigError, match="mesh.file or mesh.kind"):
                build(m)

    def test_defaults_filled(self):
        canon = config.canonicalize(config.parse_text(ADVECTION_TEXT))
        assert canon["solver.scheme"] == "rxn"
        assert canon["solver.cfl_fraction"] == "0.85"
        assert canon["init.kind"] == "uniform"

    def test_bool_spellings_normalized(self):
        m = config.parse_text(ADVECTION_TEXT)
        m["solver.limited"] = "Yes"
        m["solver.corrected"] = "off"
        canon = config.canonicalize(m)
        assert canon["solver.limited"] == "true"
        assert canon["solver.corrected"] == "false"

    def test_choice_violation_names_options(self):
        m = config.parse_text(ADVECTION_TEXT)
        m["solver.scheme"] = "sweepy"
        with pytest.raises(ConfigError, match="must be one of"):
            config.canonicalize(m)

    def test_outer_spec_normalized_and_validated(self):
        base = {
            "law.kind": "euler", "law.mach": "5.0",
            "mesh.kind": "cylinder", "mesh.radius": "1.0",
            "mesh.outer": "radius 4", "mesh.n_radial": "4", "mesh.n_circum": "8",
            "boundary.wall": "slip_wall", "boundary.farfield": "farfield",
        }
        canon = config.canonicalize(base)
        assert canon["mesh.outer"] == "radius 4.0"
        radius_mesh = config.build_mesh_only(base)
        assert np.isclose(np.hypot(*radius_mesh.points.T).max(), 4.0)
        base["mesh.outer"] = "rect -5 3 -2 2.5"
        assert config.canonicalize(base)["mesh.outer"] == "rect -5.0 3.0 -2.0 2.5"
        rect_mesh = config.build_mesh_only(base)
        assert np.allclose(rect_mesh.points.min(axis=0), [-5.0, -2.0])
        assert np.allclose(rect_mesh.points.max(axis=0), [3.0, 2.5])
        for bad in ("ellipse 1 2", "radius", "rect 1 2 3"):
            base["mesh.outer"] = bad
            with pytest.raises(ConfigError, match="mesh.outer"):
                config.canonicalize(base)


class TestSerializeRoundTrip:
    def test_round_trip_fixed_point(self):
        presets = [config.serialize(config.preset(name)) for name in config.preset_names()]
        for source in [ADVECTION_TEXT, *presets]:
            canon = config.canonicalize(config.parse_text(source))
            text = config.serialize(canon)
            again = config.canonicalize(config.parse_text(text))
            assert again == canon
            assert config.serialize(again) == text

    def test_sections_in_stable_order(self):
        text = config.serialize(config.parse_text(ADVECTION_TEXT))
        sections = [block.split(".", 1)[0] for block in text.split("\n\n")]
        order = [s for s in config.SECTION_ORDER if s in sections]
        assert sections == order

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        config.save_config(config.parse_text(ADVECTION_TEXT), path)
        assert config.load_config(path) == config.canonicalize(
            config.parse_text(ADVECTION_TEXT)
        )


class TestPresets:
    def test_names_stable(self):
        assert config.preset_names() == [
            "advection-rotating",
            "cylinder-subsonic",
            "cylinder-supersonic",
        ]

    @pytest.mark.parametrize("name", config.preset_names())
    def test_presets_canonical_and_buildable(self, name):
        canon = config.preset(name)
        assert config.canonicalize(canon) == canon
        mesh = config.build_mesh_only(canon)
        assert mesh.n_tris > 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="available"):
            config.preset("windtunnel")


class TestBuildProblem:
    def test_advection_problem_assembly(self):
        prob = config.build_problem(config.parse_text(ADVECTION_TEXT))
        assert isinstance(prob.law, physics.Advection)
        assert prob.q0.shape == (prob.mesh.n_nodes, 1)
        assert (prob.q0 == 0.0).all()
        assert prob.solver_config.scheme == "rxn"
        assert prob.output.basename == "run"

    def test_solver_keys_are_config_fields(self):
        # Every solver.* key names a SolverConfig field, and a config
        # without solver keys builds the dataclass defaults.
        canon = config.canonicalize(config.parse_text(ADVECTION_TEXT))
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        keys = [k for k in canon if k.startswith("solver.")]
        assert keys and all(k[len("solver."):] in fields for k in keys)
        prob = config.build_problem(config.parse_text(ADVECTION_TEXT))
        assert prob.solver_config == SolverConfig()

    def test_euler_freestream_init_default(self):
        base = {
            "law.kind": "euler", "law.mach": "0.5", "law.aoa_deg": "10.0",
            "mesh.kind": "rect", "mesh.nx": "4", "mesh.ny": "4",
            "boundary.left": "farfield", "boundary.right": "farfield",
            "boundary.top": "farfield", "boundary.bottom": "farfield",
        }
        prob = config.build_problem(base)
        law = prob.law
        assert np.allclose(prob.q0, law.freestream(0.5, 10.0)[None, :])

    def test_unbound_tag_rejected(self):
        m = config.parse_text(ADVECTION_TEXT)
        del m["boundary.top"]
        with pytest.raises(ConfigError, match="boundary.top"):
            config.build_problem(m)

    def test_scalar_farfield_rejected(self):
        m = config.parse_text(ADVECTION_TEXT)
        m["boundary.top"] = "farfield"
        with pytest.raises(ConfigError, match="gas-dynamics"):
            config.build_problem(m)

    def test_dirichlet_component_count_checked(self):
        base = {
            "law.kind": "euler", "law.mach": "0.5",
            "mesh.kind": "rect", "mesh.nx": "4", "mesh.ny": "4",
            "boundary.left": "dirichlet 1.0 0.5", "boundary.right": "outflow",
            "boundary.top": "outflow", "boundary.bottom": "outflow",
        }
        with pytest.raises(ConfigError, match="4 components"):
            config.build_problem(base)

    def test_sine_band_needs_ordered_interval(self):
        m = config.parse_text(ADVECTION_TEXT)
        m["boundary.left"] = "dirichlet sine-band 0.8 0.2"
        with pytest.raises(ConfigError, match="x0 < x1"):
            config.build_problem(m)

    def test_gamma_bound(self):
        base = {
            "law.kind": "euler", "law.mach": "0.5", "law.gamma": "0.9",
            "mesh.kind": "rect", "mesh.nx": "4", "mesh.ny": "4",
            "boundary.left": "farfield", "boundary.right": "farfield",
            "boundary.top": "farfield", "boundary.bottom": "farfield",
        }
        with pytest.raises(ConfigError, match="gamma"):
            config.build_problem(base)

    @pytest.mark.parametrize(("key", "value", "message"), [
        ("law.gamma", "nan", "law: gamma must be finite and exceed 1, got nan"),
        ("law.gamma", "inf", "law: gamma must be finite and exceed 1, got inf"),
        ("mesh.perturb", "nan",
         "mesh: perturbation amplitude must be finite and nonnegative, got nan"),
    ])
    def test_a_non_finite_value_is_a_config_error(self, key, value, message):
        # A non-finite value fails each range check, so it is reported
        # under its section, not later by what it breaks.
        mapping = {
            "law.kind": "euler", "law.mach": "0.5", "mesh.kind": "rect",
            "mesh.nx": "4", "mesh.ny": "4", key: value,
            "boundary.left": "farfield", "boundary.right": "farfield",
            "boundary.top": "farfield", "boundary.bottom": "farfield",
        }
        with pytest.raises(ConfigError, match=f"^{message}$"):
            config.build_problem(mapping)

    def test_mesh_range_rule_is_a_config_error(self):
        mapping = config.preset("cylinder-subsonic")
        mapping["mesh.grading"] = "1.5"
        with pytest.raises(ConfigError, match=r"^mesh: grading ratio must lie in \[1.0, 1.2\]"):
            config.build_problem(mapping)

    def test_probe_tag_must_be_a_mesh_tag(self):
        m = config.parse_text(ADVECTION_TEXT)
        m["output.probes"] = "bottom nope"
        with pytest.raises(
            ConfigError, match=r"^output.probes: no mesh tag nope; tags: bottom, left, right, top$"
        ):
            config.build_problem(m)

    def test_a_mesh_file_builds_the_problem_of_its_mesh_keys(self, tmp_path):
        # The jittered 8 x 8 rect, saved and named by mesh.file, gives the
        # mesh of its mesh.* keys in every field, and the same march.
        jitter = {"mesh.kind": "rect", "mesh.nx": "8", "mesh.ny": "8",
                  "mesh.perturb": "0.2", "mesh.seed": "3"}
        path = tmp_path / "jitter.mesh"
        save_mesh(config.build_mesh_only(jitter), path)
        case = {"law.kind": "advection", "law.velocity": "1 0.5",
                "boundary.left": "dirichlet 1", "boundary.bottom": "dirichlet 0",
                "boundary.top": "outflow", "boundary.right": "outflow",
                "solver.max_iters": "20", "solver.stop_tol": "0"}
        from_keys = config.build_problem({**case, **jitter})
        from_file = config.build_problem({**case, "mesh.file": str(path)})
        for name in ("points", "tris", "normals", "areas", "dual_areas", "bedges"):
            a, b = getattr(from_keys.mesh, name), getattr(from_file.mesh, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert from_file.mesh.btags == from_keys.mesh.btags
        assert from_file.mesh.reoriented == from_keys.mesh.reoriented == 0
        assert from_file.q0.tobytes() == from_keys.q0.tobytes()
        results = [Solver(p.mesh, p.law, p.boundaries, p.solver_config).march(p.q0)
                   for p in (from_keys, from_file)]
        assert [r.iterations for r in results] == [20, 20]
        assert results[0].q.tobytes() == results[1].q.tobytes()
