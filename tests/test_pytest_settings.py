"""The repository's pytest settings let a failing test report as a failure."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_pytest(directory: Path, test_file: str) -> subprocess.CompletedProcess:
    """pytest on one file of directory, under the repository's settings."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", test_file],
        cwd=directory,
        capture_output=True,
        text=True,
        timeout=120,
    )

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    # On failure hypothesis imports libcst, which warns through mypy_extensions;
    # under filterwarnings = ["error"] that warning used to end the session.
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN, encoding="utf-8")
    proc = run_pytest(tmp_path, "test_given.py")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


# (test file, what the failed session reports)
SILENT_MARKERS = {
    # a plain xfail that passes: an XPASS must fail the session
    "passing-xfail": (
        "import pytest\n\n\n@pytest.mark.xfail\ndef test_passes():\n    pass\n",
        "XPASS(strict)",
    ),
    # a misspelt marker must not be a silent no-op
    "misspelt-marker": (
        "import pytest\n\n\n@pytest.mark.xfial\ndef test_passes():\n    pass\n",
        "xfial",
    ),
}


@pytest.mark.parametrize("source,reported", SILENT_MARKERS.values(), ids=SILENT_MARKERS)
def test_silent_markers_fail_the_session(tmp_path, source, reported):
    (tmp_path / "test_marked.py").write_text(source, encoding="utf-8")
    proc = run_pytest(tmp_path, "test_marked.py")
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert reported in proc.stdout
