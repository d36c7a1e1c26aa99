"""Command-line exit codes of ``rdflux run``."""

from rdflux import cli

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
