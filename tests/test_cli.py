"""Command-line exit codes, shipped presets and saved-state checks."""

import numpy as np
import pytest

from rdflux import cli, config
from rdflux.mesh import load_mesh

# Burgers flow into a slower uniform state: the update rate first falls,
# then grows past its first value at iteration 9 as the front steepens.
CASE = """\
law.kind = burgers
mesh.kind = rect
mesh.nx = 8
mesh.ny = 4
init.kind = uniform
init.value = 0.5
boundary.left = dirichlet 1.0
boundary.right = outflow
boundary.top = outflow
boundary.bottom = outflow
solver.max_iters = 30
solver.stop_tol = 0
solver.divergence_factor = {factor}
output.directory = {out}
"""


def run_case(tmp_path, factor):
    path = tmp_path / "case.cfg"
    path.write_text(CASE.format(factor=factor, out=tmp_path / "out"))
    return cli.main(["run", str(path), "--quiet"])


def write_case(tmp_path, keys):
    """CASE with ``keys`` set, replaced or (at None) removed; returns its path."""
    mapping = config.parse_text(CASE.format(factor="1e6", out=tmp_path / "out"))
    mapping.update(keys)
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items() if v is not None))
    return path


def config_error_of(tmp_path, capsys, keys):
    """The stderr of ``rdflux run`` on ``write_case(keys)``, which must exit 1."""
    assert cli.main(["run", str(write_case(tmp_path, keys)), "--quiet"]) == 1
    return capsys.readouterr().err


def test_divergence_exits_with_code_3(tmp_path, capsys):
    assert run_case(tmp_path, "1.1") == 3
    err = capsys.readouterr().err
    assert err.startswith("diverged: iteration")


def test_exhausted_budget_exits_with_code_2(tmp_path):
    assert run_case(tmp_path, "1e6") == 2
    assert (tmp_path / "out" / "run_state.csv").is_file()


@pytest.mark.parametrize("edit, message", [
    (lambda row: row[:3] + ["abc"] + row[4:], "could not convert string to float: 'abc'"),
    (lambda row: row[:-1], "expected 4 fields, got 3"),
    (lambda row: ["7"] + row[1:], "node 7, expected 4"),
    (lambda row: row[:3] + ["nan"], "non-finite state"),
], ids=["bad-number", "short-row", "node-order", "non-finite"])
def test_probe_rejects_malformed_state(tmp_path, capsys, edit, message):
    assert run_case(tmp_path, "1e6") == 2
    state = tmp_path / "out" / "run_state.csv"
    lines = state.read_text().splitlines()
    lines[5] = ",".join(edit(lines[5].split(",")))  # the row of node 4
    state.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["probe", str(tmp_path / "case.cfg"), "left"]) == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: saved state {state}:6: {message}\n"


@pytest.mark.parametrize("name", config.preset_names())
def test_presets_run_and_probe(tmp_path, name):
    mapping = config.preset(name)
    mapping["solver.max_iters"] = "2"
    mapping["output.directory"] = str(tmp_path)
    path = tmp_path / "case.cfg"
    config.save_config(mapping, path)
    assert cli.main(["run", str(path), "--quiet"]) == 2
    base = mapping["output.basename"]
    outputs = [".vtk", "_history.csv", "_state.csv"]
    if mapping["law.kind"] == "euler":
        outputs.append("_probe_wall.csv")
    for suffix in outputs:
        assert (tmp_path / f"{base}{suffix}").is_file(), suffix
    probe = tmp_path / "probe.csv"
    assert cli.main(["probe", str(path), "wall" if "boundary.wall" in mapping else "bottom",
                     "--out", str(probe)]) == 0
    assert probe.is_file()


def test_unknown_probe_tag_fails_before_the_march(tmp_path, capsys):
    path = tmp_path / "case.cfg"
    path.write_text(CASE.format(factor="1e6", out=tmp_path / "out") + "output.probes = nope\n")
    assert cli.main(["run", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("configuration error: output.probes: ")
    assert not (tmp_path / "out").exists()
    assert run_case(tmp_path, "1e6") == 2
    assert cli.main(["probe", str(path), "nope"]) == 1
    assert capsys.readouterr().err.startswith("error: no boundary edges tagged 'nope'")


def test_unwritable_field_file_is_an_io_error(tmp_path, capsys):
    # Every write failure takes the one OSError path of ``cli.main``.
    path = tmp_path / "case.cfg"
    path.write_text(CASE.format(factor="1e6", out=tmp_path / "out"))
    (tmp_path / "out" / "run.vtk").mkdir(parents=True)
    assert cli.main(["run", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "run.vtk" in err


def test_run_rejects_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "case.cfg"
    path.write_bytes(b"law.kind = burgers\xff\n")
    assert cli.main(["run", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config {path}: ")
    assert "0xff" in err


def test_mesh_gen_rejects_non_utf8_spec(tmp_path, capsys):
    spec = tmp_path / "spec.cfg"
    spec.write_bytes(b"mesh.kind = rect\xff\n")
    assert cli.main(["mesh-gen", str(spec), str(tmp_path / "out.mesh")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read mesh spec {spec}: ")
    assert not (tmp_path / "out.mesh").exists()


def test_mesh_gen_rejects_negative_perturbation(tmp_path, capsys):
    spec = tmp_path / "spec.cfg"
    spec.write_text("mesh.kind = rect\nmesh.nx = 4\nmesh.ny = 4\nmesh.perturb = -0.5\n")
    assert cli.main(["mesh-gen", str(spec), str(tmp_path / "out.mesh")]) == 1
    err = capsys.readouterr().err
    assert err == ("configuration error: mesh: perturbation amplitude must be finite and "
                   "nonnegative, got -0.5\n")
    assert not (tmp_path / "out.mesh").exists()


@pytest.mark.parametrize("name", config.preset_names())
def test_mesh_gen_writes_the_preset_mesh_and_mesh_info_reads_it(tmp_path, capsys, name):
    mapping = {k: v for k, v in config.preset(name).items() if k.startswith("mesh.")}
    spec = tmp_path / "spec.cfg"
    spec.write_text("".join(f"{key} = {value}\n" for key, value in mapping.items()))
    out = tmp_path / "out.mesh"
    assert cli.main(["mesh-gen", str(spec), str(out)]) == 0
    expected = config.build_mesh_only(mapping)
    mesh = load_mesh(out)
    for attr in ("points", "tris", "normals", "areas", "dual_areas", "bedges"):
        assert np.array_equal(getattr(mesh, attr), getattr(expected, attr)), attr
    assert mesh.btags == expected.btags
    capsys.readouterr()
    assert cli.main(["mesh-info", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"nodes:     {expected.n_nodes}" in lines
    assert f"triangles: {expected.n_tris}" in lines
    assert [line.split(":")[0] for line in lines if line.startswith("tag ")] == [
        f"tag {tag!r}" for tag in expected.tags
    ]


def test_mesh_info_rejects_non_utf8_mesh(tmp_path, capsys):
    path = tmp_path / "bad.mesh"
    path.write_bytes(b"rdmesh 1\xff\n")
    assert cli.main(["mesh-info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text: ")


def test_probe_rejects_non_ascii_state(tmp_path, capsys):
    assert run_case(tmp_path, "1e6") == 2
    state = tmp_path / "out" / "run_state.csv"
    state.write_bytes(state.read_bytes().replace(b"\n", b"\xff\n", 3))
    capsys.readouterr()
    assert cli.main(["probe", str(tmp_path / "case.cfg"), "left"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: saved state {state} is not ASCII text: ")


GAS = {"law.kind": "euler", "law.mach": "0.5", "init.kind": None, "init.value": None,
       **{f"boundary.{tag}": "farfield" for tag in ("left", "right", "top", "bottom")}}


@pytest.mark.parametrize("keys, message", [
    ({"solver.cfl_fraction": "2"}, "solver: cfl_fraction must lie in (0, 1]"),
    ({"solver.max_iters": "0"}, "solver: max_iters must be an integer of at least 1, got 0"),
    ({"solver.stop_tol": "-1"}, "solver: stop_tol must be nonnegative, got -1.0"),
    ({"solver.history_stride": "0"},
     "solver: history_stride must be an integer of at least 1, got 0"),
    ({**GAS, "law.aoa_deg": "inf"},
     "law: mach and aoa_deg must be finite, got mach 0.5, aoa_deg inf"),
    ({**GAS, "law.mach": "nan"}, "law: mach and aoa_deg must be finite, got mach nan, aoa_deg 0.0"),
    ({**GAS, "law.mach": "inf"}, "law: mach and aoa_deg must be finite, got mach inf, aoa_deg 0.0"),
    ({"law.kind": "advection", "law.velocity": "nan 0"},
     "law: advection velocity must be a finite 2-vector, got (nan, 0.0)"),
    ({"law.kind": "rotating-advection", "law.omega": "nan"},
     "law: rotation rate omega must be finite, got nan"),
    ({"init.value": "0.5 0.5"}, "init.value must have 1 component, got 2"),
], ids=["cfl_fraction", "max_iters", "stop_tol", "history_stride", "inf-aoa_deg", "nan-mach",
        "inf-mach", "nan-velocity", "nan-omega", "scalar-init-value"])
def test_a_rejected_option_is_a_configuration_error_of_its_section(tmp_path, capsys, keys,
                                                                   message):
    assert config_error_of(tmp_path, capsys, keys) == f"configuration error: {message}\n"


@pytest.mark.parametrize("key", ["output.fields", "output.history", "mesh.center"])
def test_a_deleted_key_is_unknown(tmp_path, capsys, key):
    err = config_error_of(tmp_path, capsys, {key: "0"})
    assert err == f"configuration error: unknown configuration key {key!r}\n"


def test_written_csv_files_have_header_rows_and_crlf_lines(tmp_path):
    path = write_case(tmp_path, {"output.probes": "bottom"})
    assert cli.main(["run", str(path), "--quiet"]) == 2
    headers = {
        "run_history.csv": b"iteration,pseudo_time,relative_rate",
        "run_state.csv": b"node,x,y,q0",
        "run_probe_bottom.csv": b"node,arc_length,x,y,solution",
    }
    for name, header in headers.items():
        lines = (tmp_path / "out" / name).read_bytes().split(b"\r\n")
        assert lines[0] == header, name
        # Every line ends in CRLF: the text ends with one, and no other
        # line break is left.
        assert lines[-1] == b"" and not any(b"\n" in x or b"\r" in x for x in lines), name
    history = (tmp_path / "out" / "run_history.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in history] == ["1", "10", "20", "30"]


def test_state_round_trips_bit_for_bit(tmp_path):
    problem = config.build_problem(config.parse_text(CASE.format(factor="1e6", out=tmp_path)))
    mesh, law = problem.mesh, problem.law
    q = np.linspace(-1.0, 1.0, mesh.n_nodes)[:, None] / 3.0
    q[4, 0] = 0.1 + 0.2
    path = tmp_path / "state.csv"
    cli._write_state_csv(mesh, law, q, path)
    assert path.read_text().splitlines()[5].split(",")[3] == "0.30000000000000004"
    assert cli._read_state_csv(path, mesh.n_nodes, law.m).tobytes() == q.tobytes()


def test_vtk_blocks_match_the_mesh(tmp_path):
    assert run_case(tmp_path, "1e6") == 2
    mesh = config.build_mesh_only(config.parse_text(CASE.format(factor="1e6", out=tmp_path)))
    n, t = mesh.n_nodes, mesh.n_tris
    lines = (tmp_path / "out" / "run.vtk").read_text().splitlines()
    assert lines[4] == f"POINTS {n} double"
    points = np.array([[float(w) for w in line.split()] for line in lines[5:5 + n]])
    assert np.array_equal(points, np.column_stack([mesh.points, np.zeros(n)]))
    assert lines[5 + n] == f"CELLS {t} {4 * t}"
    cells = [[int(w) for w in line.split()] for line in lines[6 + n:6 + n + t]]
    assert cells == [[3, *tri] for tri in mesh.tris.tolist()]
    assert lines[6 + n + t] == f"CELL_TYPES {t}"
    assert lines[7 + n + t:7 + n + 2 * t] == ["5"] * t
    k = 7 + n + 2 * t
    assert lines[k:k + 3] == [f"POINT_DATA {n}", "SCALARS solution double 1",
                              "LOOKUP_TABLE default"]
    state = cli._read_state_csv(tmp_path / "out" / "run_state.csv", n, 1)
    assert np.array_equal([float(x) for x in lines[k + 3:]], state[:, 0])


# The 8 x 4 rect of CASE, from a mesh file in place of its mesh.* keys.
FROM_FILE = {"mesh.kind": None, "mesh.nx": None, "mesh.ny": None}


@pytest.mark.parametrize("node, message", [
    ("nan 1", "non-finite node coordinates"),
    ("2 0", "triangle 0 has zero area"),
], ids=["nan", "flat"])
def test_a_faulty_mesh_file_is_a_configuration_error_naming_it(tmp_path, capsys, node,
                                                               message):
    path = tmp_path / "bad.mesh"
    path.write_text(f"rdmesh 1\nnodes 3\n0 0\n1 0\n{node}\ntriangles 1\n0 1 2\n"
                    "boundary 3\n0 1 bottom\n1 2 right\n2 0 left\n")
    err = config_error_of(tmp_path, capsys, {**FROM_FILE, "mesh.file": str(path)})
    assert err == f"configuration error: mesh.file: {path}: {message}\n"


def test_a_missing_mesh_file_is_a_configuration_error(tmp_path, capsys):
    path = tmp_path / "nope.mesh"
    err = config_error_of(tmp_path, capsys, {**FROM_FILE, "mesh.file": str(path)})
    assert err.startswith(f"configuration error: mesh.file: cannot read {path}: ")
