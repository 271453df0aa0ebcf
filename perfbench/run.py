#!/usr/bin/env python3
"""Benchmark for the hilbstab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` there, nothing is installed.  Each workload is a closed loop with one
client: the next `python3 -m hilbstab ...` starts only after the previous
one exits.  Every output is checked against `oracle.py`, which shares no
code with the program, against the goldens in `tests/golden/` (read only)
and against the stdout digests pinned in `expected.json`.

--trace 0 measures the end-to-end metrics for S seconds.  --trace 1 runs
the workload's calls once more in-process through `traced.py`, with and
without span tracing, and reports per-layer metrics; it does a fixed
amount of work rather than running for S seconds.  The last stdout line
is the JSON result; a full record (environment, samples, failures) goes to
`.perfbench/`, with spans and per-layer self times for traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 20.0
CERTIFY_TIMEOUT_S = 10.0
SEARCH_TIMEOUT_S = 60.0
TRACE_TIMEOUT_S = 90.0
TRACE_CERTIFY_CALLS = 300
DETAIL_CELLS = 6
RAW_CHECK_CELLS = 8

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "wall_s": "s",
    "first_output_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.main_us": "us",
    "cli.render_json_s": "s",
    "cli.render_csv_s": "s",
    "cli.output_mb": "MB",
    "search.scan_s": "s",
    "search.cells": "count",
    "search.candidates": "count",
    "search.hits": "count",
    "search.hit_ratio": "ratio",
    "search.pool_speedup": "ratio",
    "conditions.report_us": "us",
    "conditions.report_calls": "count",
    "lattice.vector_new_us": "us",
    "lattice.mukai_square_us": "us",
    "certificate.build_s": "s",
    "certificate.to_dict_s": "s",
    "certificate.csv_row_s": "s",
    "hilb.invariants_us": "us",
    "pfunctor.ext_us": "us",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_s": "s",
}


# --------------------------------------------------------------------------
# Running one program invocation


@dataclass
class Invocation:
    argv: list[str]
    exit: int | None = None
    stdout: bytes = b""
    stderr: bytes = b""
    t_spawn: float = 0.0
    latency: float = 0.0
    first_output: float | None = None
    peak_rss_mb: float = 0.0
    timed_out: bool = False


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def invoke(cmd: list[str], timeout: float) -> Invocation:
    """Run cmd to completion, timing spawn-to-exit and spawn-to-first-stdout-byte.

    The child runs in its own session; on timeout the whole process group
    (pool workers included) is killed and the invocation counts as failed.
    Peak RSS is the child tree's, from os.wait4.
    """
    inv = Invocation(argv=cmd)
    inv.t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )

    def kill() -> None:
        inv.timed_out = True
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    err_chunks: list[bytes] = []
    err_reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    err_reader.start()
    out_chunks = []
    try:
        while chunk := os.read(proc.stdout.fileno(), 1 << 16):
            if inv.first_output is None:
                inv.first_output = time.perf_counter() - inv.t_spawn
            out_chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        inv.latency = time.perf_counter() - inv.t_spawn
    finally:
        timer.cancel()
        err_reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = inv.exit = os.waitstatus_to_exitcode(status)
    inv.stdout = b"".join(out_chunks)
    inv.stderr = b"".join(err_chunks)
    inv.peak_rss_mb = usage.ru_maxrss / 1024
    return inv


def hilbstab(argv: list[str], timeout: float) -> Invocation:
    return invoke([sys.executable, "-m", "hilbstab", *argv], timeout)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Workload:
    name: str
    timeout: float
    search: tuple | None = None  # ((h2_lo, h2_hi), (k_lo, k_hi), csv, limit, workers)
    expected: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        (h_lo, h_hi), (k_lo, k_hi), csv, limit, workers = self.search
        out = ["search", _range(h_lo, h_hi), _range(k_lo, k_hi)]
        out += ["--csv"] if csv else []
        out += ["--limit", str(limit)] if limit is not None else []
        out += ["--workers", str(workers)] if workers != 1 else []
        return out

    def cells(self) -> list[tuple[int, int]]:
        (h_lo, h_hi), (k_lo, k_hi) = self.search[:2]
        return [(h2, k) for h2 in range(h_lo, h_hi + 1, 2) for k in range(k_lo, k_hi + 1)]

    def calls(self, seed: int):
        """Endless seeded stream of argv lists for the closed loop."""
        if self.search is not None:
            while True:
                yield self.argv()
        yield from certify_calls(seed)


def _range(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


GOLDEN_CALLS = [
    (["check", "50", "2", "3", "1", "8", "--csv"], "check_50_2_3_1_8.csv"),
    (["report", "50", "2", "3", "1", "8"], "report_50_2_3_1_8.json"),
    (["check", "186", "3", "5", "1", "18", "--csv"], "check_186_3_5_1_18.csv"),
    (["report", "186", "3", "5", "1", "18"], "report_186_3_5_1_18.json"),
]


def certify_calls(seed: int):
    """Seeded single-candidate calls.

    h^2 is even and up to about 10^30, k in 1..6, r in 1..20, m in {1, 2}.
    Most s sit next to (m^2 h^2 + 2) // (2r), where v^2 is near -2 and
    admissible vectors live; the rest are spread wider, so both verdicts
    and both exit codes occur.
    """
    rng = random.Random(seed)
    while True:
        digits = rng.randint(1, 30)
        h2 = 2 * rng.randrange(1, 10**digits // 2 + 1)
        k, r, m = rng.randint(1, 6), rng.randint(1, 20), rng.choice((1, 2))
        s0 = (m * m * h2 + 2) // (2 * r)
        if rng.random() < 0.7:
            s = max(0, s0 + rng.choice((-1, 0, 0, 1)))
        else:
            s = rng.randint(0, 2 * s0 + 2)
        cmd = rng.choice(("check", "check", "report", "ext"))
        argv = [cmd, str(h2), str(k), str(r), str(m), str(s)]
        if cmd == "ext":
            argv += ["--distinct"] if rng.random() < 0.5 else []
        else:
            argv += ["--strict"] if rng.random() < 0.5 else []
        argv += ["--csv"] if rng.random() < 0.3 else []
        yield argv


def load_workloads() -> dict[str, Workload]:
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    sweep = ((2, 1000), (2, 4))
    return {
        "certify": Workload("certify", CERTIFY_TIMEOUT_S),
        "sweep": Workload("sweep", SEARCH_TIMEOUT_S, (*sweep, False, None, 1), expected["sweep"]),
        "sweep-csv": Workload("sweep-csv", SEARCH_TIMEOUT_S, (*sweep, True, None, 2),
                              expected["sweep-csv"]),
        "deep": Workload("deep", SEARCH_TIMEOUT_S, ((100000, 100000), (2, 3), True, 5, 1),
                         expected["deep"]),
    }


# --------------------------------------------------------------------------
# Correctness checks


def check_certify(argv: list[str], exit_code: int | None, stdout: bytes) -> list[str]:
    errors = []
    want_code, want_out = oracle.expected_call(argv)
    if exit_code != want_code:
        errors.append(f"exit {exit_code}, oracle says {want_code}")
    if stdout != want_out:
        errors.append("stdout differs from oracle")
    return errors


def _golden_body(name: str) -> bytes:
    """Golden search output without its header line (CSV) or brackets (JSON)."""
    data = (GOLDEN / name).read_bytes()
    if name.endswith(".csv"):
        return b"\n" + data.split(b"\n", 1)[1]
    return data[len(b"[\n"):-len(b"\n]\n")]


def check_search(w: Workload, stdout: bytes, seed: int, workloads: dict) -> list[str]:
    (_, _), (_, _), csv, limit, _ = w.search
    errors = []
    if sha256(stdout) != w.expected["sha256"]:
        errors.append("stdout digest differs from the pinned digest")
    try:
        if csv:
            lines = stdout.decode().split("\n")
            if lines[0] != ",".join(oracle.CSV_COLUMNS) or lines[-1] != "":
                errors.append("CSV header or trailing newline wrong")
            rows = [line.split(",") for line in lines[1:-1]]
            keys = [tuple(int(x) for x in row[:5]) for row in rows]
        else:
            rows = json.loads(stdout)
            keys = [tuple(int(row["input"][f]) for f in ("h_squared", "k", "r", "m", "s"))
                    for row in rows]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return errors + [f"unparsable output: {exc!r}"]

    for key, row in zip(keys, rows):
        want = oracle.certificate(*key, notes=True)
        if not want["report"]["admissible"]:
            errors.append(f"non-admissible row {key}")
        if want["extension_euler"]["formula"] != want["extension_euler"]["direct"]:
            errors.append(f"extension_euler formula != direct for {key}")
        if row != (oracle.csv_row(want) if csv else want):
            errors.append(f"row {key} differs from oracle")
        if len(errors) > 20:
            return errors

    emitted: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h2, k, r, _, s in keys:
        emitted.setdefault((h2, k), []).append((r, s))
    want_keys = []
    for h2, k in w.cells():
        want_keys += [(h2, k, r, 1, s) for r, s in oracle.cell_hits(h2, k)]
        if limit is not None and len(want_keys) >= limit:
            break
    if keys != want_keys[:limit]:
        errors.append("emitted (h2, k, r, s) sequence differs from oracle enumeration")
    if limit is None:
        rng = random.Random(seed)
        for h2, k in rng.sample(w.cells(), RAW_CHECK_CELLS):
            if oracle.cell_hits_raw(h2, k) != emitted.get((h2, k), []):
                errors.append(f"cell {(h2, k)} differs from brute-force scan")
        for name in ("search_50_2", "search_186_3"):
            golden = name + (".csv" if csv else ".json")
            if _golden_body(golden) not in stdout:
                errors.append(f"golden {golden} not found byte-exact in output")
        if not csv:
            projected = oracle.render_csv(oracle.CSV_COLUMNS, [oracle.csv_row(row) for row in rows])
            if sha256(projected) != workloads["sweep-csv"].expected["sha256"]:
                errors.append("CSV projection of the JSON rows differs from sweep-csv output")
    return errors


def check_call(w: Workload, argv, exit_code, stdout, seed, workloads) -> list[str]:
    if w.search is None:
        return check_certify(argv, exit_code, stdout)
    errors = [] if exit_code == 0 else [f"exit {exit_code}"]
    return errors + check_search(w, stdout, seed, workloads)


# --------------------------------------------------------------------------
# Measurement


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Below 21 samples that percentile would not lie above the median, so the
    maximum stands in for it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


def check_goldens(record: dict) -> None:
    """Run the two worked examples once; they must match tests/golden byte for byte."""
    for argv, name in GOLDEN_CALLS:
        inv = hilbstab(argv, CERTIFY_TIMEOUT_S)
        record["attempted"] += 1
        errors = ["timed out"] if inv.timed_out else check_certify(argv, inv.exit, inv.stdout)
        if inv.stdout != (GOLDEN / name).read_bytes():
            errors.append(f"stdout differs from golden {name}")
        if errors:
            record["failures"].append({"argv": argv, "errors": errors,
                                       "stderr": inv.stderr.decode()[-500:]})


def measure_setup() -> list[float]:
    """Times for a fresh interpreter to import hilbstab.cli and exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        inv = invoke([sys.executable, "-c", "import hilbstab.cli"], SETUP_TIMEOUT_S)
        if inv.exit != 0:
            raise RuntimeError(f"importing hilbstab.cli failed: {inv.stderr.decode()[-500:]}")
        times.append(inv.latency)
    return times


def run_untraced(w: Workload, seed: int, seconds: float, workloads, record: dict) -> dict:
    calls = w.calls(seed)
    samples: list[Invocation] = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        argv = next(calls)
        inv = hilbstab(argv, w.timeout)
        errors = ["timed out"] if inv.timed_out else check_call(
            w, argv, inv.exit, inv.stdout, seed, workloads)
        samples.append(inv)
        if errors:
            record["failures"].append({"argv": argv, "errors": errors,
                                       "stderr": inv.stderr.decode()[-500:]})
    latencies = [s.latency for s in samples]
    firsts = [s.first_output for s in samples if s.first_output is not None]
    tail_s, pct = tail(latencies)
    record["samples"] = [
        {"argv": s.argv[3:], "exit": s.exit, "latency_s": s.latency,
         "first_output_s": s.first_output, "peak_rss_mb": s.peak_rss_mb}
        for s in samples
    ]
    record["tail_percentile"] = pct
    record["attempted"] += len(samples)
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "wall_s": statistics.fmean(latencies),
        "first_output_s": statistics.median(firsts) if firsts else float("nan"),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
    }


def trace_plan(w: Workload, seed: int) -> dict:
    if w.search is None:
        calls = certify_calls(seed)
        return {"calls": [next(calls) for _ in range(TRACE_CERTIFY_CALLS)],
                "detail_cells": [], "detail_all": True, "pool_query": None}
    cells = w.cells()
    detail = random.Random(seed).sample(cells, min(DETAIL_CELLS, len(cells)))
    (h_range, k_range), workers = w.search[:2], w.search[4]
    return {"calls": [w.argv()], "detail_cells": detail, "detail_all": False,
            "pool_query": [h_range, k_range] if workers > 1 else None}


def run_harness(plan_path: Path, out_path: Path, traced: bool) -> tuple[Invocation, dict | None]:
    cmd = [sys.executable, str(HERE / "traced.py"), str(plan_path), str(out_path)]
    inv = invoke(cmd + (["--trace"] if traced else []), TRACE_TIMEOUT_S)
    if inv.exit != 0 or inv.timed_out:
        return inv, None
    dump = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    return inv, dump


def run_traced(w: Workload, seed: int, record: dict, run_dir: Path,
               setup_times: list[float]) -> dict:
    bare = [invoke([sys.executable, "-c", "pass"], SETUP_TIMEOUT_S).latency
            for _ in range(SETUP_REPEATS)]
    import_ms = (statistics.median(setup_times) - statistics.median(bare)) * 1e3
    plan = trace_plan(w, seed)
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    walls = {}
    dumps = {}
    for traced in (False, True):
        label = "trace" if traced else "notrace"
        inv, dump = run_harness(plan_path, run_dir / f"{label}.json", traced)
        record["attempted"] += len(plan["calls"])
        if dump is None:
            record["failures"].append({"argv": label, "errors": ["harness failed or timed out"],
                                       "stderr": inv.stderr.decode()[-2000:]})
            return {}
        for argv, res in zip(plan["calls"], dump["calls"]):
            errors = check_harness_call(w, argv, res)
            if errors:
                record["failures"].append({"argv": argv, "errors": errors, "phase": label,
                                           "stderr": res["stderr"]})
        walls[label] = (dump["t_main_end"] - inv.t_spawn * 1e9) / 1e9
        dumps[label] = dump

    dump = dumps["trace"]
    metrics = layer_metrics(dump)
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_ratio"] = walls["trace"] / walls["notrace"]
    metrics["trace.uncovered_s"] = walls["trace"] - covered_s(dump["main"]["spans"])
    if "pool" in dump:
        for workers, phase in dump["pool"].items():
            record["attempted"] += 1
            if phase["hits"] != w.expected["hits"]:
                record["failures"].append({"argv": f"enumerate_hits workers={workers}",
                                           "errors": [f"{phase['hits']} hits"]})
    record["walls_s"] = walls
    write_spans(dump, run_dir)
    return metrics


def check_harness_call(w: Workload, argv, res: dict) -> list[str]:
    """Check one in-process call by its exit code and stdout digest."""
    if w.search is None:
        want_code, want_out = oracle.expected_call(argv)
        errors = [] if res["exit"] == want_code else [f"exit {res['exit']}, oracle {want_code}"]
        if res["stdout_sha256"] != sha256(want_out):
            errors.append("stdout differs from oracle")
        return errors
    errors = [] if res["exit"] == 0 else [f"exit {res['exit']}"]
    if res["stdout_sha256"] != w.expected["sha256"]:
        errors.append("stdout digest differs from the pinned digest")
    return errors


def _by_name(spans) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for name, _, _, start, end in spans:
        out.setdefault(name, []).append(end - start)
    return out


def _leaf_durations(spans, name: str, parent_name: str | None) -> list[int]:
    """Durations of `name` spans without child spans, optionally under `parent_name`."""
    has_child = {parent for _, parent, _, _, _ in spans}
    return [
        end - start
        for i, (n, parent, _, start, end) in enumerate(spans)
        if n == name and i not in has_child
        and (parent_name is None or (parent >= 0 and spans[parent][0] == parent_name))
    ]


def layer_metrics(dump: dict) -> dict:
    main = dump["main"]
    spans, counts = main["spans"], main["counts"]
    pool = dump.get("pool")
    # With a worker pool the scan runs in other processes; its spans come
    # from the 1-worker enumerate_hits phase instead.
    scan = pool["1"] if pool else main
    durs, scan_durs = _by_name(spans), _by_name(scan["spans"])
    builds = len(durs.get("certificate.build", []))

    def per_call_us(name: str, caller: str) -> float:
        """Median per-call time inside the scan; without a scan, over all calls."""
        values = _leaf_durations(scan["spans"], name, caller)
        values = values or _leaf_durations(spans, name, None)
        return statistics.median(values) / 1e3 if values else 0.0

    def per_build_us(prefix: str) -> float:
        total = sum(end - start for name, parent, _, start, end in spans
                    if name.startswith(prefix) and parent >= 0
                    and spans[parent][0] == "certificate.build")
        return total / builds / 1e3 if builds else 0.0

    candidates = scan["counts"].get("search.candidates", 0)
    hits = scan["counts"].get("search.hits", 0)
    report_calls = counts.get("certificate.reports", 0) + candidates
    return {
        "cli.main_us": statistics.median(durs["cli.main"]) / 1e3,
        "cli.render_json_s": sum(durs.get("cli.render_json", ())) / 1e9,
        "cli.render_csv_s": sum(durs.get("cli.render_csv", ())) / 1e9,
        "cli.output_mb": sum(c["stdout_bytes"] for c in dump["calls"]) / 1e6,
        "search.scan_s": sum(scan_durs.get("search.scan_cell", ())) / 1e9,
        "search.cells": scan["counts"].get("search.cells", 0),
        "search.candidates": candidates,
        "search.hits": hits,
        "search.hit_ratio": hits / candidates if candidates else 0.0,
        "search.pool_speedup": ((pool["1"]["t1"] - pool["1"]["t0"])
                                / (pool["2"]["t1"] - pool["2"]["t0"])) if pool else 0.0,
        "conditions.report_us": per_call_us("conditions.report", "search.scan_cell"),
        "conditions.report_calls": report_calls,
        "lattice.vector_new_us": per_call_us("lattice.vector_new", "search.scan_cell"),
        "lattice.mukai_square_us": per_call_us("lattice.mukai_square", "conditions.report"),
        "certificate.build_s": sum(durs.get("certificate.build", ())) / 1e9,
        "certificate.to_dict_s": sum(durs.get("certificate.to_dict", ())) / 1e9,
        "certificate.csv_row_s": sum(durs.get("certificate.csv_row", ())) / 1e9,
        "hilb.invariants_us": per_build_us("hilb."),
        "pfunctor.ext_us": per_build_us("pfunctor."),
    }


def covered_s(spans) -> float:
    """Time covered by layer spans: the import, and everything below cli.main.

    Children of one span never overlap (one thread), so durations add up.
    What remains of the traced wall time is interpreter start, the
    harness, and cli.main's own code outside any layer call.
    """
    covered = 0
    for name, parent, _, start, end in spans:
        if (parent < 0 and name != "cli.main") or (parent >= 0 and spans[parent][0] == "cli.main"):
            covered += end - start
    return covered / 1e9


def self_times(spans) -> dict:
    """Per span name: calls, total and self time (duration minus child spans)."""
    child_ns = [0] * len(spans)
    for name, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += (end - start) / 1e9
        agg["self_s"] += (end - start - child_ns[i]) / 1e9
    return out


def write_spans(dump: dict, run_dir: Path) -> None:
    phases = {"main": dump["main"]}
    if "pool" in dump:
        phases["pool1"] = dump["pool"]["1"]
    summary = {}
    with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for label, phase in phases.items():
            for i, (name, parent, req, start, end) in enumerate(phase["spans"]):
                fh.write(json.dumps({"phase": label, "id": i, "name": name, "parent": parent,
                                     "req": req, "start_ns": start, "end_ns": end}) + "\n")
            summary[label] = {"self_times": self_times(phase["spans"]), "counts": phase["counts"]}
    (run_dir / "self_times.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")


# --------------------------------------------------------------------------


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    On a shared host the machine's speed drifts with other tenants' load,
    which the load average inside this machine cannot see.  Recorded at the
    start and end of each run so a noisy run can be told apart; it enters
    no metric.
    """
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "speed_probe_ms_start": speed_probe_ms(),
        "git_commit": commit or "unknown",
    }


def preflight() -> str | None:
    for path in (ROOT / "src" / "hilbstab" / "cli.py", GOLDEN, HERE / "expected.json"):
        if not path.exists():
            return f"missing {path.relative_to(ROOT)}: run from a hilbstab source checkout"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    w = workloads[args.workload]
    run_dir = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "failures": [], "attempted": 0}

    try:
        setup_times = measure_setup()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    check_goldens(record)
    if args.trace:
        metrics = run_traced(w, args.seed, record, run_dir, setup_times)
        metrics = {name: metrics.get(name, 0.0) for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        metrics = run_untraced(w, args.seed, args.seconds, workloads, record)
        metrics["setup_s"] = statistics.median(setup_times)
        units = E2E_UNITS
    record["environment"]["loadavg_1m_end"] = os.getloadavg()[0]
    record["environment"]["speed_probe_ms_end"] = speed_probe_ms()
    record["setup_times_s"] = setup_times
    attempted = max(record["attempted"], 1)
    failed = min(len(record["failures"]), attempted)
    record["error_rate"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for key, value in record["environment"].items():
        print(f"# {key}: {value}")
    for failure in record["failures"][:10]:
        print(f"# FAILED {failure['argv']}: {'; '.join(failure['errors'][:3])}")
    if not args.trace:
        print(f"# latency_tail_ms is p{record['tail_percentile']} of {len(record['samples'])} invocations")
    print(f"error_rate {record['error_rate']} ratio")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
