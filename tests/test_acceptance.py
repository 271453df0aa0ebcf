"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison is exact integer equality, and the stated runtime
caps are asserted on wall-clock time.
"""

import json
from pathlib import Path
from time import perf_counter

import pytest
from brute_force import raw_scan

from hilbstab.certificate import build_certificate
from hilbstab.cli import main
from hilbstab.conditions import extension_euler_direct, extension_euler_formula
from hilbstab.hilb import HilbNSClass, image_c1, image_rank
from hilbstab.lattice import K3Surface, MukaiVector, mukai_square
from hilbstab.pfunctor import ext_dims_on_hilb, ext_dims_on_X, tangent_match
from hilbstab.search import SearchQuery, enumerate_hits

GOLDEN = Path(__file__).parent / "golden"


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_grid():
    """Search grid for the oracle-equivalence and property criteria."""
    t0 = perf_counter()
    hits = enumerate_hits(SearchQuery((2, 200), (2, 4)))
    by_cell: dict[tuple[int, int], list[tuple[int, int, int]]] = {
        (h2, k): [] for h2 in range(2, 201, 2) for k in (2, 3, 4)
    }
    for c in hits:
        by_cell[(c.surface.h_squared, c.k)].append((c.v.r, c.v.m, c.v.s))
    oracle = {
        (h2, k): raw_scan(h2, k)
        for h2 in range(2, 201, 2)
        for k in (2, 3, 4)
    }
    elapsed = perf_counter() - t0
    return {"hits": hits, "by_cell": by_cell, "oracle": oracle, "elapsed": elapsed}


def _timed_certificate(h2: int, k: int, r: int, m: int, s: int) -> float:
    surface = K3Surface(h2)
    v = MukaiVector(r, m, s)
    build_certificate(surface, v, k)  # warm-up
    best = min(
        _time_once(surface, v, k) for _ in range(5)
    )
    return best


def _time_once(surface, v, k) -> float:
    t0 = perf_counter()
    build_certificate(surface, v, k)
    return perf_counter() - t0


def test_criterion_1_worked_example_a(capsys):
    code = main(["check", "50", "2", "3", "1", "8", "--strict"])
    payload = json.loads(capsys.readouterr().out)
    rep = payload["report"]
    ok = (
        code == 0
        and rep["chi"] == "11"
        and rep["v_sq"] == "2"
        and rep["threshold"] == "10"
        and int(rep["v_sq"]) + 2 == 4 < 6 == 2 * 3
        and rep["locally_free_ok"] is True
        and rep["fine_ok"] is True
        and rep["admissible"] is True
    )
    runtime = _timed_certificate(50, 2, 3, 1, 8)
    ok = ok and runtime < 0.010
    _report(
        "example (a): h2=50 k=2 v=(3,1,8)",
        ok,
        f"chi=11 v2=2 threshold=10, {runtime * 1000:.3f} ms",
    )


def test_criterion_2_worked_example_b(capsys):
    code = main(["check", "186", "3", "5", "1", "18", "--strict"])
    payload = json.loads(capsys.readouterr().out)
    rep = payload["report"]
    ok = (
        code == 0
        and rep["chi"] == "23"
        and rep["v_sq"] == "6"
        and rep["threshold"] == "22"
        and int(rep["v_sq"]) + 2 == 8 < 10 == 2 * 5
        and rep["gcd_value"] == "1"
        and rep["admissible"] is True
    )
    runtime = _timed_certificate(186, 3, 5, 1, 18)
    ok = ok and runtime < 0.010
    _report(
        "example (b): h2=186 k=3 v=(5,1,18)",
        ok,
        f"chi=23 v2=6 threshold=22, {runtime * 1000:.3f} ms",
    )


def test_criterion_3_image_invariants():
    va, vb = MukaiVector(3, 1, 8), MukaiVector(5, 1, 18)
    ok = (
        image_rank(va, 2) == 5
        and image_c1(va, 2) == HilbNSClass(-1, 3)
        and image_rank(vb, 3) == 8
        and image_c1(vb, 3) == HilbNSClass(-1, 5)
    )
    _report("image rank and c1 for both examples", ok, "rank 5, c1 (-1,3); rank 8, c1 (-1,5)")


def test_criterion_4_extension_euler_grid():
    t0 = perf_counter()
    cases = 0
    mismatches = 0
    surfaces = [K3Surface(h2) for h2 in range(2, 201, 2)]
    for r in range(1, 21):
        for s in range(1, 21):
            v = MukaiVector(r, 1, s)
            for S in surfaces:
                for k in range(1, 6):
                    cases += 1
                    if extension_euler_formula(S, v, k) != extension_euler_direct(
                        S, v, k
                    ):
                        mismatches += 1
    elapsed = perf_counter() - t0
    ok = mismatches == 0 and cases == 200_000 and elapsed < 10.0
    _report(
        "extension Euler pairing: closed form == direct lattice sum",
        ok,
        f"{cases} cases, {mismatches} mismatches, {elapsed:.2f} s",
    )


def test_criterion_5_extension_euler_at_least_4_on_hits(full_grid):
    hits = full_grid["hits"]
    bad = [
        (c.surface.h_squared, c.k, c.v.r, c.v.s)
        for c in hits
        if extension_euler_formula(c.surface, c.v, c.k) < 4
    ]
    ok = not bad and len(hits) > 0
    _report(
        "chi(G,G) >= 4 on every admissible hit",
        ok,
        f"{len(hits)} hits, {len(bad)} violations",
    )


def test_criterion_6_search_oracle_equivalence(full_grid):
    mismatched_cells = [
        cell
        for cell in full_grid["oracle"]
        if full_grid["by_cell"][cell] != full_grid["oracle"][cell]
    ]
    set_50_2 = full_grid["by_cell"][(50, 2)]
    set_186_3 = full_grid["by_cell"][(186, 3)]
    ok = (
        not mismatched_cells
        and set_50_2 == [(1, 1, 26), (2, 1, 13), (3, 1, 8)]
        and (5, 1, 18) in set_186_3
        and full_grid["elapsed"] < 30.0
    )
    _report(
        "bounded search == raw brute-force scan (h2 <= 200, k in 2..4)",
        ok,
        f"{len(full_grid['oracle'])} cells, {len(mismatched_cells)} mismatches, "
        f"{full_grid['elapsed']:.2f} s",
    )


def test_criterion_7_ext_and_tangent_bookkeeping(full_grid):
    S = K3Surface(50)
    v = MukaiVector(3, 1, 8)
    ok = (
        ext_dims_on_X(S, v, v, True).dims == (1, 4, 1)
        and ext_dims_on_hilb(ext_dims_on_X(S, v, v, True), 2).dims == (1, 4, 2, 4, 1)
        and ext_dims_on_hilb(ext_dims_on_X(S, v, v, False), 2)[0] == 0
    )
    checked = 0
    for c in full_grid["hits"]:
        on_x = ext_dims_on_X(c.surface, c.v, c.v, True)
        on_hilb = ext_dims_on_hilb(on_x, c.k)
        if on_hilb.total != c.k * on_x.total or on_hilb.euler != c.k * on_x.euler:
            ok = False
        if not tangent_match(c.surface, c.v, c.k).match:
            ok = False
        checked += 1
    # sweep beyond the hit set: every nonempty-moduli candidate must match
    for h2 in (2, 10, 26, 50, 186):
        hs = K3Surface(h2)
        for r in range(1, 9):
            for s in range(-10, 21):
                w = MukaiVector(r, 1, s)
                if mukai_square(hs, w) < -2:
                    continue
                for k in range(1, 5):
                    if not tangent_match(hs, w, k).match:
                        ok = False
                    checked += 1
    _report(
        "Ext tables, degree-0 injectivity input, tangent match, k-multiplicativity",
        ok,
        f"{checked} candidates checked",
    )


def test_criterion_8_determinism_and_goldens(capsys):
    main(["search", "2-60", "2-3", "--json"])
    first = capsys.readouterr().out
    main(["search", "2-60", "2-3", "--json"])
    second = capsys.readouterr().out
    main(["search", "2-60", "2-3", "--json", "--workers", "3"])
    parallel = capsys.readouterr().out
    ok = first == second == parallel

    for name, argv in [
        ("report_50_2_3_1_8.json", ["report", "50", "2", "3", "1", "8"]),
        ("report_186_3_5_1_18.json", ["report", "186", "3", "5", "1", "18"]),
        ("search_50_2.json", ["search", "50", "2", "--json"]),
        ("search_50_2.csv", ["search", "50", "2", "--csv"]),
    ]:
        main(argv)
        out = capsys.readouterr().out
        if out != (GOLDEN / name).read_text(encoding="utf-8"):
            ok = False
    _report("determinism across runs/workers and golden files", ok)
