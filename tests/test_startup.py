"""What `import hilbstab.cli` loads.

Every `check`, `report` and `ext` call pays for the CLI's imports, so the
heavy standard-library modules stay off that path: none of the value
types is a dataclass, `fractions` is imported by the two slope functions
that need it, and the process pool and the temporary-file module load
only when `search --workers` or `--out` uses them.
"""

import subprocess
import sys

from child_env import child_env

KEPT_OFF = (
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "typing",
    "concurrent.futures",
    "tempfile",
)

PROBE = f"""
import hilbstab.cli, sys
loaded = [m for m in {KEPT_OFF!r} if m in sys.modules]
print(" ".join(loaded))
from hilbstab import K3Surface, MukaiVector, slope_on_X
print(type(slope_on_X(K3Surface(50), MukaiVector(3, 1, 8))).__name__)
"""


def test_cli_import_keeps_heavy_modules_off():
    # -S: the interpreter's site hooks may import typing on their own
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, slope_type = proc.stdout.splitlines()
    assert loaded == ""
    assert slope_type == "Fraction"
