import json
import os
import re
import signal
import subprocess
import sys
from time import perf_counter

import pytest
from brute_force import raw_scan
from child_env import child_env

from hilbstab.conditions import (
    check_fineness,
    check_inequality,
    check_local_freeness,
    extension_euler_direct,
    extension_euler_formula,
)
from hilbstab.hilb import HilbNSClass
from hilbstab.lattice import K3Surface, MukaiVector, euler_char, mukai_square, require_positive_k
from hilbstab.pfunctor import tangent_match
from hilbstab import cli, search
from hilbstab.search import (
    InvalidQuery,
    SearchQuery,
    _cells,
    _pool_size,
    enumerate_hits,
    iter_hits,
    search_bounds,
)


# ----------------------------------------------------------------- bounds


def test_bounds_worked_example_a():
    r_max, s_range = search_bounds(K3Surface(50), 2)
    assert r_max == 4
    assert s_range(3) == (5, 8)


def test_bounds_worked_example_b():
    r_max, s_range = search_bounds(K3Surface(186), 3)
    assert r_max >= 5
    lo, hi = s_range(5)
    assert (lo, hi) == (13, 18)
    assert lo <= 18 <= hi


def test_bounds_can_be_empty():
    # h^2 = 2, k = 2: already r = 1 forces s >= 3 while 2rs <= 4 needs s <= 2,
    # so no rank admits a nonempty interval; the raw scan agrees below
    r_max, _ = search_bounds(K3Surface(2), 2)
    assert r_max == 0
    assert raw_scan(2, 2) == []


@pytest.mark.parametrize("h_squared", range(2, 62, 2))
@pytest.mark.parametrize("k", [2, 3])
def test_bounds_complete_against_raw_scan(h_squared, k):
    r_max, s_range = search_bounds(K3Surface(h_squared), k)
    for r, _, s in raw_scan(h_squared, k):
        assert 1 <= r <= r_max
        lo, hi = s_range(r)
        assert lo <= s <= hi


def _loop_r_max(h_squared: int, k: int) -> int:
    """The rank ceiling by its definition: the largest r >= 0 with
    r(r(k-1) + k) <= (h^2+2)/2, found by counting r up."""
    half = (h_squared + 2) // 2
    r = 0
    while (r + 1) * ((r + 1) * (k - 1) + k) <= half:
        r += 1
    return r


def test_rank_ceiling_matches_its_definition():
    for h_squared in range(2, 2001, 2):
        for k in range(1, 9):
            r_max, _ = search_bounds(K3Surface(h_squared), k)
            assert r_max == _loop_r_max(h_squared, k), (h_squared, k)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_rank_ceiling_of_huge_h2_returns_at_once(k):
    # counting ranks up one by one would take r_max >= 10^14 steps here
    half = 10**30 + 1
    t0 = perf_counter()
    r, _ = search_bounds(K3Surface(2 * 10**30), k)
    assert perf_counter() - t0 < 1.0
    assert r * (r * (k - 1) + k) <= half < (r + 1) * ((r + 1) * (k - 1) + k)


# ------------------------------------------------------------ enumeration


def test_enumerate_hit_set_50_2():
    hits = enumerate_hits(SearchQuery(50, 2))
    assert [(c.v.r, c.v.m, c.v.s) for c in hits] == [(1, 1, 26), (2, 1, 13), (3, 1, 8)]
    assert all(c.report.admissible for c in hits)


def test_enumerate_contains_worked_example_b():
    hits = enumerate_hits(SearchQuery(186, 3))
    assert (5, 1, 18) in [(c.v.r, c.v.m, c.v.s) for c in hits]


def test_enumerate_matches_raw_scan_small_grid():
    for h_squared in range(2, 42, 2):
        for k in (2, 3):
            hits = enumerate_hits(SearchQuery(h_squared, k))
            got = [(c.v.r, c.v.m, c.v.s) for c in hits]
            assert got == raw_scan(h_squared, k), (h_squared, k)


def test_enumerate_ordering_over_ranges():
    hits = enumerate_hits(SearchQuery((2, 60), (2, 3)))
    keys = [(c.surface.h_squared, c.k, c.v.r, c.v.s) for c in hits]
    assert keys == sorted(keys)


def test_enumerate_r_max_override_is_an_audit_knob():
    base = enumerate_hits(SearchQuery(50, 2))
    widened = enumerate_hits(SearchQuery(50, 2, r_max=20))
    assert [(c.v.r, c.v.s) for c in widened] == [(c.v.r, c.v.s) for c in base]
    restricted = enumerate_hits(SearchQuery(50, 2, r_max=1))
    assert [(c.v.r, c.v.s) for c in restricted] == [(1, 26)]


def test_invalid_queries():
    with pytest.raises(InvalidQuery):
        SearchQuery((4, 2), 2)  # empty range
    with pytest.raises(InvalidQuery):
        SearchQuery(49, 2)  # odd h^2
    with pytest.raises(InvalidQuery):
        SearchQuery((2, 7), 2)  # odd upper endpoint
    with pytest.raises(InvalidQuery):
        SearchQuery(50, 0)  # non-positive k
    with pytest.raises(InvalidQuery):
        SearchQuery(0, 2)
    with pytest.raises(InvalidQuery):
        SearchQuery(50, 2, r_max=0)


@pytest.mark.parametrize(
    "args, owner",
    [
        ((3, 2), lambda: K3Surface(3)),
        ((0, 2), lambda: K3Surface(0)),
        (((2, 11), 2), lambda: K3Surface(11)),
        ((50, 0), lambda: require_positive_k(0)),
    ],
    ids=["h2-3", "h2-0", "h2-2-11", "k-0"],
)
def test_invalid_query_carries_the_owners_message(args, owner):
    with pytest.raises(ValueError) as expected:
        owner()
    with pytest.raises(InvalidQuery) as info:
        SearchQuery(*args)
    assert str(info.value) == str(expected.value)


# ------------------------------------------------------------ determinism


def test_repeated_runs_identical():
    q = SearchQuery((2, 40), (2, 3))
    assert enumerate_hits(q) == enumerate_hits(q)


def test_worker_count_does_not_change_output():
    q = SearchQuery((2, 40), (2, 3))
    assert enumerate_hits(q, workers=1) == enumerate_hits(q, workers=3)


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        enumerate_hits(SearchQuery(50, 2), workers=0)
    with pytest.raises(ValueError):
        iter_hits(SearchQuery(50, 2), workers=0)  # raised before any hit is asked for


def test_pool_size_never_exceeds_cpus(monkeypatch):
    # computes the count only; no process is started
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
    assert _pool_size(1) == 1
    assert _pool_size(2) == 2
    assert _pool_size(10**9) == 2  # the affinity mask, not the host's CPUs
    monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
    assert _pool_size(10**9) == 64
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert _pool_size(10**9) == 1


def test_cells_skip_only_cells_without_hits():
    # the k clamp and the h^2 skip drop exactly cells the raw scan finds empty
    query = SearchQuery((2, 40), (1, 12))
    kept = [(h2, k) for h2, k, _ in _cells(query)]
    assert kept == [(h2, k) for h2 in range(2, 41, 2) for k in range(1, 13)
                    if 4 * k <= h2 + 4]
    for h2 in range(2, 41, 2):
        for k in range(1, 13):
            if (h2, k) not in kept:
                assert raw_scan(h2, k) == [], (h2, k)
    assert list(_cells(SearchQuery(2, (100, 10**4)))) == []
    assert next(_cells(SearchQuery((2, 10**4), (100, 200)))) == (396, 100, None)


def test_iter_hits_scans_cells_on_demand(monkeypatch):
    scanned = []
    scan = search._scan_cell

    def recording_scan(cell):
        scanned.append(cell[:2])
        return scan(cell)

    monkeypatch.setattr(search, "_scan_cell", recording_scan)
    hits = iter_hits(SearchQuery((2, 2000), 2))
    assert scanned == []
    first = next(hits)
    hits.close()
    assert (first.surface.h_squared, first.k, first.v.r, first.v.s) == (4, 2, 1, 3)
    assert scanned == [(4, 2)]


# ------------------------------------------------------------- early stop

# Each pool test runs a child that rebinds `search._scan_cell` and forks the
# pool, so the workers run the rebinding.  The first cell, h^2 = 50 with
# k = 2, is scanned for real and holds hits; every later cell logs a line
# when it starts and another when it ends, `delay` seconds later, and holds
# no hit.  The cell h^2 = kill_h2 kills its worker instead.
POOL_CHILD = """
import multiprocessing, os, signal, sys, time
from multiprocessing import active_children
from hilbstab import cli, search
from hilbstab.search import SearchQuery, iter_hits

multiprocessing.set_start_method("fork")
log, delay, kill_h2 = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
scan = search._scan_cell

def note(line):
    with open(log, "a") as f:
        f.write(line + "\\n")

def stub_scan(cell):
    if cell[0] == 50:
        return scan(cell)
    if cell[0] == kill_h2:
        os.kill(os.getpid(), signal.SIGKILL)
    note("start")
    time.sleep(delay)
    note("end")
    return []

search._scan_cell = stub_scan
"""


def _run_pool_child(tmp_path, driver, delay=0.0, kill_h2=0):
    """Run POOL_CHILD and then `driver` in a child; return its exit code,
    stdout, stderr and the lines the stub cells logged.  A child still
    running after 60 s is killed with its workers and fails the test."""
    log = tmp_path / "cells.log"
    log.touch()
    proc = subprocess.Popen(
        [sys.executable, "-c", POOL_CHILD + driver, str(log), str(delay), str(kill_h2)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the child hung")
    return proc.returncode, out, err, log.read_text().split()


def test_closing_the_pooled_stream_ends_the_workers_at_once(tmp_path):
    """close() after the first hit ends the two stub cells already running
    (5 s each) instead of waiting for them, and leaves no worker."""
    code, out, err, lines = _run_pool_child(tmp_path, """
hits = iter_hits(SearchQuery((50, 450), 2), workers=2)
next(hits)
while open(log).read().count("start") < 2:  # both workers are in a stub cell
    time.sleep(0.01)
t0 = time.perf_counter()
hits.close()
print(time.perf_counter() - t0, len(active_children()))
""", delay=5.0)
    assert (code, err) == (0, b"")
    close_s, children = out.split()
    assert lines == ["start", "start"]
    assert int(children) == 0
    assert float(close_s) < 5.0


def test_search_limit_with_workers_exits_once_the_limit_is_written(tmp_path):
    """`--limit 1` exits without finishing the stub cells (5 s each) that
    the pool had started by then."""
    code, out, err, lines = _run_pool_child(tmp_path, """
sys.exit(cli.main(["search", "50-450", "2", "--workers", "2", "--limit", "1"]))
""", delay=5.0)
    assert (code, err) == (0, b"")
    assert len(json.loads(out)) == 1
    assert "end" not in lines


def test_pool_reads_ahead_a_bounded_window(tmp_path):
    """A consumer that stops after one hit lets the workers scan at most
    eight cells per process past it, not the 20,000-cell box."""
    code, out, err, lines = _run_pool_child(tmp_path, """
hits = iter_hits(SearchQuery((50, 40050), 2), workers=2)
next(hits)
time.sleep(0.5)  # time enough for an unbounded pool to scan thousands of cells
hits.close()
""")
    assert (code, err) == (0, b"")
    assert lines.count("start") <= 8 * 2


def test_a_killed_pool_worker_exits_2_with_one_error_line(tmp_path):
    """A worker killed by SIGKILL loses its cell; search stops with one
    error line instead of waiting for that cell for ever."""
    code, out, err, lines = _run_pool_child(tmp_path, """
sys.exit(cli.main(["search", "50-450", "2", "--workers", "2"]))
""", kill_h2=60)
    assert code == 2
    assert re.fullmatch(rb"error: search worker \d+ died with exit code -9\n", err), err


def test_a_process_started_beside_the_pool_is_not_taken_for_a_worker(tmp_path, capsys):
    """A process that another caller starts while the pool starts, and that
    exits 0 while the stub cells (0.25 s each) run, does not stop the search."""
    code, out, err, lines = _run_pool_child(tmp_path, """
import multiprocessing.pool

class BystanderPool(multiprocessing.pool.Pool):
    def __init__(self, *args, **kwargs):
        multiprocessing.Process(target=time.sleep, args=(0.2,)).start()
        super().__init__(*args, **kwargs)

multiprocessing.Pool = BystanderPool
code = cli.main(["search", "50-70", "2", "--workers", "2", "--csv"])
assert not active_children()
sys.exit(code)
""", delay=0.25)
    assert (code, err) == (0, b"")
    assert lines.count("end") == 10
    assert cli.main(["search", "50", "2", "--csv"]) == 0  # the stub cells hold no hit
    assert out.decode() == capsys.readouterr().out


def test_searches_in_two_threads_do_not_stop_each_other(tmp_path):
    """Two pooled searches started together in one process each watch only
    their own workers: the one that ends first, terminating its pool, does
    not stop the other, and both return their one-worker lists."""
    code, out, err, lines = _run_pool_child(tmp_path, """
import threading

queries = [SearchQuery((50, 60), 2), SearchQuery((50, 70), 2)]  # one ends first
expected = [search.enumerate_hits(query) for query in queries]
results = [None, None]
start = threading.Barrier(2)

def run(i):
    start.wait()
    results[i] = search.enumerate_hits(queries[i], workers=2)

threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert results == expected
assert not active_children()
""", delay=0.02)
    assert (code, err) == (0, b"")


def test_a_worker_out_of_memory_exits_2_with_one_error_line(tmp_path):
    """MemoryError raised in a pool worker reaches main's exit codes, and
    the pool's workers are ended."""
    code, out, err, lines = _run_pool_child(tmp_path, """
def oom_scan(cell):
    if cell[0] == 60:
        raise MemoryError
    return stub_scan(cell)

search._scan_cell = oom_scan
code = cli.main(["search", "50-450", "2", "--workers", "2", "--csv"])
assert not active_children()
sys.exit(code)
""")
    assert (code, err) == (2, b"error: out of memory\n")


START_METHOD_CHILD = """
import multiprocessing, sys
from multiprocessing import active_children
from hilbstab import cli

multiprocessing.set_start_method(sys.argv[1])
code = cli.main(["search", "2-120", "2-3", "--csv", "--workers", "2"])
assert not active_children()
sys.exit(code)
"""


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_every_start_method_prints_the_one_worker_bytes(method, capsys):
    """The pool's unit of work pickles under every start method, so no
    method changes a byte; the other pool tests fork."""
    proc = subprocess.run(
        [sys.executable, "-c", START_METHOD_CHILD, method],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert cli.main(["search", "2-120", "2-3", "--csv"]) == 0
    assert proc.stdout.decode() == capsys.readouterr().out


# ------------------------------------------------- per-hit certificate audit


def test_hits_satisfy_cross_module_invariants():
    hits = enumerate_hits(SearchQuery((2, 80), (2, 4)))
    assert hits, "expected at least one hit in the audit grid"
    for cert in hits:
        S, v, k = cert.surface, cert.v, cert.k
        # rank additivity and positive image rank
        assert cert.image_rank is not None and cert.image_rank >= 1
        assert cert.image_rank + cert.taut_rank == euler_char(v)
        assert cert.image_c1 + cert.taut_c1 == HilbNSClass(0, 0)
        assert cert.image_c1.b == v.r
        # extension Euler pairing: both routes agree and are >= 4
        assert cert.extension_euler_formula == cert.extension_euler_direct
        assert cert.extension_euler_formula == extension_euler_formula(S, v, k)
        assert cert.extension_euler_formula >= 4
        # tangent dimensions transport to the Hilbert scheme
        assert tangent_match(S, v, k).match is True
        assert cert.moduli_dim == mukai_square(S, v) + 2


def test_report_flags_independent_of_each_other():
    # every candidate in the bounded box carries recomputable per-condition
    # flags; dropping one condition widens the hit set exactly as the flags say
    for h_squared in (8, 26, 50):
        for k in (2, 3):
            S = K3Surface(h_squared)
            r_max, s_range = search_bounds(S, k)
            admissible = set()
            all_but_local_freeness = set()
            for r in range(1, r_max + 1):
                lo, hi = s_range(r)
                for s in range(lo, hi + 1):
                    v = MukaiVector(r, 1, s)
                    ineq_ok, _ = check_inequality(S, v, k)
                    flags = (
                        mukai_square(S, v) >= -2,
                        ineq_ok,
                        check_local_freeness(S, v),
                        check_fineness(S, v)[0],
                    )
                    if all(flags):
                        admissible.add((r, s))
                    if flags[0] and flags[1] and flags[3]:
                        all_but_local_freeness.add((r, s))
            got = {
                (c.v.r, c.v.s)
                for c in enumerate_hits(SearchQuery(h_squared, k))
            }
            assert got == admissible
            assert admissible <= all_but_local_freeness
