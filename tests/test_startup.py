"""What `import hilbstab.cli` loads.

Every `check`, `report` and `ext` call pays for the CLI's imports, so the
heavy standard-library modules stay off that path: none of the value
types is a dataclass, `fractions` is imported by the two slope functions
that need it, CSV is written by joining cells that need no quoting, the
process pool (`multiprocessing`) loads only when `search --workers` uses
it, `--out` creates its temporary file with `os.open`, so `tempfile`
never loads at all (it stays in KEPT_OFF so that it does not come back),
and `signal` is imported by `cli.main`, which sets the SIGTERM and SIGHUP
handlers, so the import alone does not pay for it.
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
    "multiprocessing",
    "csv",
    "tempfile",
    "signal",
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
