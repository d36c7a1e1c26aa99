"""Command-line exit codes, shipped presets and saved-state checks."""

import pytest

from rdflux import cli, config

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
output.fields = false
"""


def run_case(tmp_path, factor):
    path = tmp_path / "case.cfg"
    path.write_text(CASE.format(factor=factor, out=tmp_path / "out"))
    return cli.main(["run", str(path), "--quiet"])


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
    path.write_text(CASE.format(factor="1e6", out=tmp_path / "out")
                    .replace("output.fields = false", "output.fields = true"))
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
    assert err == "configuration error: mesh: perturbation amplitude must be nonnegative, got -0.5\n"
    assert not (tmp_path / "out.mesh").exists()


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
