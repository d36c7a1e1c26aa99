"""The test session's warning filter (``pyproject.toml``), run on a probe file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert False


def test_passes():
    pass


def test_package_deprecation_is_an_error():
    code = "import warnings; warnings.warn('old api', DeprecationWarning)"
    exec(code, {"__name__": "rdflux.probe"})
'''


def test_failing_property_test_leaves_the_session_running(tmp_path):
    # Reporting a failed hypothesis test imports libcst, which raises a
    # third-party DeprecationWarning; that must not stop the session, while
    # a DeprecationWarning from an rdflux module still fails its test.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout
    assert proc.returncode == 1, out + proc.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out
    assert "FAILED test_probe.py::test_package_deprecation_is_an_error" in out
    assert "DeprecationWarning: old api" in out
