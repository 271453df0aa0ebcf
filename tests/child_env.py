"""The environment for running hilbstab in a child process, shared by the test files."""

import os
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
