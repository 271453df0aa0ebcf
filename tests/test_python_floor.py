"""The oldest Python that CI runs is the oldest that pyproject.toml admits."""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def version(text: str) -> tuple[int, int]:
    major, minor = text.split(".")
    return int(major), int(minor)


def test_ci_starts_at_the_python_floor():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floor = re.fullmatch(r">=(\d+\.\d+)", project["requires-python"])
    assert floor, project["requires-python"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    matrix = re.search(r"^\s*python-version: \[(.*)\]$", workflow, re.MULTILINE)
    assert matrix, "no python-version list in tier1.yml"
    ci = [version(v) for v in re.findall(r'"(\d+\.\d+)"', matrix.group(1))]
    assert min(ci) == version(floor.group(1)), (ci, floor.group(1))
