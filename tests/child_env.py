"""The environment for running hilbstab in a child process, shared by the test files."""

import os
import subprocess
import sys
from pathlib import Path

import hilbstab

# The src directory of the hilbstab this test process imported, so a child
# runs the same tree as the in-process tests, whatever PYTHONPATH selected it.
SRC = str(Path(hilbstab.__file__).resolve().parent.parent)


def child_env() -> dict[str, str]:
    """A copy of os.environ with SRC first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_hilbstab(*argv: str, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """`python -m hilbstab ARGV` in a child with child_env() and its output
    captured; kwargs (stdout=, env=, preexec_fn=, text=) go to subprocess.run."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "env": child_env(), **kwargs}
    return subprocess.run([sys.executable, "-m", "hilbstab", *argv], timeout=timeout, **kwargs)
