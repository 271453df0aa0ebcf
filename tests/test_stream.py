"""Streamed `search` output against two whole-list renderings.

The CLI writes search output record by record.  Its bytes must equal the
rendering of the complete, truncated hit list, both as the program renders
a list (`json.dumps(..., indent=2)`, `_render_csv`) and as the independent
oracle in `perfbench/oracle.py` derives it from the conditions alone.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import example, given, settings

from hilbstab.certificate import CSV_COLUMNS, certificate_csv_row, certificate_to_dict
from hilbstab.cli import _render_csv, main
from hilbstab.search import SearchQuery, enumerate_hits

_ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def streamed(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def whole_list(h2: tuple[int, int], k: tuple[int, int], csv: bool, limit) -> str:
    hits = enumerate_hits(SearchQuery(h2, k))[:limit]
    if csv:
        return _render_csv(CSV_COLUMNS, [certificate_csv_row(h.certificate) for h in hits])
    return json.dumps(
        [certificate_to_dict(h.certificate, include_notes=True) for h in hits], indent=2
    ) + "\n"


def from_oracle(h2: tuple[int, int], k: tuple[int, int], csv: bool, limit) -> bytes:
    certs = [
        oracle.certificate(h, kk, r, 1, s, notes=True)
        for h in range(h2[0], h2[1] + 1, 2)
        for kk in range(k[0], k[1] + 1)
        for r, s in oracle.cell_hits(h, kk)
    ][:limit]
    if csv:
        return oracle.render_csv(oracle.CSV_COLUMNS, [oracle.csv_row(c) for c in certs])
    return oracle.render_json(certs)


@settings(max_examples=40)
@given(
    h_lo=st.integers(1, 40).map(lambda n: 2 * n),
    h_cells=st.integers(0, 6),
    k_lo=st.integers(1, 5),
    k_cells=st.integers(0, 2),
    csv=st.booleans(),
    workers=st.sampled_from([1, 2]),
    limit=st.one_of(st.none(), st.integers(0, 12)),
)
@example(h_lo=2, h_cells=0, k_lo=3, k_cells=0, csv=False, workers=1, limit=None)  # empty box
@example(h_lo=2, h_cells=0, k_lo=3, k_cells=0, csv=True, workers=2, limit=None)
@example(h_lo=50, h_cells=0, k_lo=2, k_cells=0, csv=False, workers=1, limit=0)
@example(h_lo=50, h_cells=0, k_lo=2, k_cells=0, csv=True, workers=2, limit=1)
@example(h_lo=48, h_cells=2, k_lo=2, k_cells=1, csv=False, workers=2, limit=4)  # mid-cell cut
@example(h_lo=48, h_cells=2, k_lo=2, k_cells=1, csv=True, workers=1, limit=4)
def test_streamed_search_equals_whole_list_rendering(
    h_lo, h_cells, k_lo, k_cells, csv, workers, limit
):
    h2 = (h_lo, h_lo + 2 * h_cells)
    k = (k_lo, k_lo + k_cells)
    argv = ["search", f"{h2[0]}-{h2[1]}", f"{k[0]}-{k[1]}", "--workers", str(workers)]
    argv += ["--csv"] if csv else []
    argv += ["--limit", str(limit)] if limit is not None else []
    out = streamed(argv)
    assert out == whole_list(h2, k, csv, limit)
    assert out.encode() == from_oracle(h2, k, csv, limit)


def test_mid_cell_example_cuts_inside_a_cell():
    # the explicit limit=4 examples above stop between two hits of one cell
    keys = [(h.h_squared, h.k) for h in enumerate_hits(SearchQuery((48, 52), (2, 3)))]
    assert keys[3] == keys[4]
