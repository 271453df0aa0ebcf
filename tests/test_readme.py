"""Every ```python block of README.md runs as written, and so does every
`hilbstab` line of its ```sh blocks."""

import re
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from child_env import child_env

from hilbstab import SearchQuery, enumerate_hits

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
    for line in block.splitlines()
    if line.startswith("hilbstab ")
]
# The two tallies of the Library section, in README order: by cell, then by rank.
TALLIES = [line for line in COMMANDS if line.endswith("| uniq -c")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})


@cache
def run_sh(line: str) -> subprocess.CompletedProcess:
    """Run one README line in bash, with `hilbstab` the module of the tree under test."""
    script = 'hilbstab() { "$PY" -m hilbstab "$@"; }\n' + line
    return subprocess.run(
        ["bash", "-o", "pipefail", "-c", script],
        capture_output=True,
        text=True,
        env={**child_env(), "PY": sys.executable},
        timeout=30,
    )


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split(" #")[0].rstrip() for line in COMMANDS])
def test_readme_hilbstab_line_runs(line):
    proc = run_sh(line)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def tally(line: str) -> list[tuple[str, int]]:
    """The `uniq -c` output of a README line as (key, count) pairs, in output order."""
    return [(key, int(count)) for count, key in map(str.split, run_sh(line).stdout.splitlines())]


def test_readme_tallies_count_every_hit():
    assert len(TALLIES) == 2
    by_cell, by_rank = map(tally, TALLIES)
    hits = enumerate_hits(SearchQuery((2, 200), (2, 4)))
    cells = Counter((c.surface.h_squared, c.k) for c in hits)
    assert by_cell == [(f"{h2},{k}", n) for (h2, k), n in sorted(cells.items())]
    assert by_rank == [(str(r), n) for r, n in sorted(Counter(c.v.r for c in hits).items())]
    assert (len(cells), len(hits)) == (291, 807)
