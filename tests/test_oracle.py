"""Candidates and search cells against the oracle in `perfbench/oracle.py`.

The oracle re-derives every certificate field, every byte that `check`,
`report` and `ext` print, and the admissible vectors of a search cell
from the numerical conditions alone, without importing hilbstab.  These
properties pin the program to it field by field, for huge h^2, k from 1
to 6, m != 1, empty moduli and negative image ranks.
"""

import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from child_env import child_env
from hypothesis import example, given, settings

from hilbstab import K3Surface, MukaiVector, build_certificate
from hilbstab.certificate import certificate_csv_row, certificate_to_dict
from hilbstab.cli import main
from hilbstab.search import _scan_cell

_ROOT = Path(__file__).resolve().parent.parent
_ORACLE_PATH = _ROOT / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


@st.composite
def candidates(draw):
    """(h^2, k, r, m, s), with s near or away from (m^2 h^2 + 2) / 2r.

    Near that value v^2 is close to -2 and the conditions change verdict;
    away from it the moduli are empty or the image rank is negative.
    """
    h2 = 2 * draw(st.one_of(st.integers(1, 600), st.integers(1, 5 * 10**29)))
    k = draw(st.integers(1, 6))
    r = draw(st.integers(1, 20))
    m = draw(st.integers(-3, 3))
    centre = (m * m * h2 + 2) // (2 * r)
    s = draw(
        st.one_of(
            st.integers(-3, 3).map(lambda d: centre + d),
            st.integers(-50, 50),
            st.integers(-(10**31), 10**31),
        )
    )
    return h2, k, r, m, s


@settings(max_examples=300)
@given(candidates())
@example((50, 2, 3, 1, 8))  # worked example A
@example((186, 3, 5, 1, 18))  # worked example B
@example((50, 1, 3, 1, 8))  # k = 1: no rank-2 Neron-Severi basis
@example((50, 2, 3, 2, 8))  # m != 1
@example((50, 2, 1, 1, 100))  # v^2 < -2: empty moduli
@example((50, 4, 3, 1, 8))  # negative image rank
def test_certificate_projections_equal_oracle(cand):
    h2, k, r, m, s = cand
    cert = build_certificate(K3Surface(h2), MukaiVector(r, m, s), k)
    expected = oracle.certificate(h2, k, r, m, s, notes=True)
    assert certificate_to_dict(cert, include_notes=True) == expected
    assert certificate_to_dict(cert, include_notes=False) == oracle.certificate(
        h2, k, r, m, s, notes=False
    )
    assert certificate_csv_row(cert) == oracle.csv_row(expected)


def run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode()


FLAGS = {"check": ("--csv", "--strict"), "report": ("--csv", "--strict"), "ext": ("--csv", "--distinct")}


@settings(max_examples=200)
@given(
    cand=candidates(),
    cmd=st.sampled_from(sorted(FLAGS)),
    first=st.booleans(),
    second=st.booleans(),
)
@example(cand=(50, 2, 3, 1, 8), cmd="check", first=False, second=True)
@example(cand=(50, 2, 3, 2, 8), cmd="report", first=True, second=True)
@example(cand=(50, 2, 3, 1, 30), cmd="ext", first=False, second=False)  # negative ext^1
@example(cand=(50, 2, 1, 1, 25), cmd="ext", first=True, second=True)  # v^2 = 0, distinct
def test_cli_stdout_and_exit_code_equal_oracle(cand, cmd, first, second):
    flags = [f for f, on in zip(FLAGS[cmd], (first, second)) if on]
    argv = [cmd, *map(str, cand), *flags]
    assert run(argv) == oracle.expected_call(argv)


@pytest.fixture
def no_digit_cap():
    """Lift Python's 4300-digit cap on int <-> str here, as `hilbstab` does
    at entry, so the oracle can read and print the same integers."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "8" * 4300, "2", "3", "2", "8"],  # m^2 h^2 has 4301 digits
        ["check", "2", "2", "1", "9" * 2500, "1"],  # m^2 h^2 has 5001 digits
        ["report", "8" * 5000, "2", "3", "1", "8", "--csv"],  # h^2 itself
        ["ext", "8" * 5000, "2", "3", "1", "8"],
    ],
    ids=["check-h2-4300", "check-m-2500", "report-csv-h2-5000", "ext-h2-5000"],
)
def test_integers_of_any_length_render_as_the_oracle_does(argv, no_digit_cap):
    proc = subprocess.run(
        [sys.executable, "-m", "hilbstab", *argv], capture_output=True, env=child_env(), timeout=30
    )
    assert proc.stderr == b""
    assert (proc.returncode, proc.stdout) == oracle.expected_call(argv)


@settings(max_examples=60)
@given(h2=st.integers(1, 2000).map(lambda n: 2 * n), k=st.integers(1, 6))
@example(h2=50, k=2)
@example(h2=186, k=3)
@example(h2=2, k=3)  # no rank admits a nonempty s-interval
def test_scanned_cell_equals_oracle_cell(h2, k):
    found = _scan_cell((h2, k, None))
    assert found == oracle.cell_hits(h2, k)
    if h2 <= 300:
        assert found == oracle.cell_hits_raw(h2, k)
