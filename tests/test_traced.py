"""The span-tracing harness in `perfbench/traced.py` against the CLI.

The harness times each layer by rebinding, in the calling module, the
names of the functions one layer calls in the next.  Here it is loaded by
path, read-only, and its tracer is installed in a subprocess, since the
rebinding lasts for the life of the process.  Traced calls must print the
same bytes and exit with the same codes as untraced ones, and every
rebound CLI name must still be reached, so a refactor that drops or
bypasses one fails here rather than in a benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from child_env import child_env

ROOT = Path(__file__).resolve().parent.parent
_TRACED_PATH = ROOT / "perfbench" / "traced.py"
_spec = importlib.util.spec_from_file_location("perfbench_traced", _TRACED_PATH)
traced = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traced)

CALLS = [
    ["check", "50", "2", "3", "1", "8"],
    ["report", "50", "2", "3", "1", "8", "--csv"],
    ["ext", "50", "2", "3", "1", "8"],
    ["search", "2-60", "2-3"],
    ["search", "2-60", "2-3", "--csv", "--workers", "2"],
]

# Load the harness, install its tracer (with fine-grained spans in two
# cells and on every certificate) and run the calls; print the results and
# the name of every recorded span.
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_traced", sys.argv[1])
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
tracer = traced.Tracer()
traced.install(tracer, {(50, 2), (60, 3)}, True)
results = traced.run_calls(json.loads(sys.argv[2]), tracer)
print(json.dumps({"calls": results, "spans": [span[0] for span in tracer.spans]}))
"""


def run_traced() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(_TRACED_PATH), json.dumps(CALLS)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_calls_equal_untraced_calls():
    untraced = traced.run_calls(CALLS, None)
    run = run_traced()
    assert [c["exit"] for c in untraced] == [0, 0, 0, 0, 0]
    for argv, plain, with_spans in zip(CALLS, untraced, run["calls"]):
        assert with_spans["exit"] == plain["exit"], argv
        assert with_spans["stdout_sha256"] == plain["stdout_sha256"], argv
        assert with_spans["stderr"] == plain["stderr"] == "", argv

    spans = run["spans"]
    assert spans.count("cli.main") == len(CALLS)
    assert spans.count("cli.build_parser") == len(CALLS)
    assert spans.count("cli.emit") == len(CALLS)  # one writer call per command
    for name in (
        "cli.render_json",
        "cli.render_csv",
        "certificate.build",
        "certificate.to_dict",
        "certificate.csv_row",
        "search.scan_cell",
        "conditions.report",
        "lattice.vector_new",
        "lattice.mukai_square",
    ):
        assert name in spans, name
