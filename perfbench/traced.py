"""In-process harness: run CLI calls with or without span tracing.

    python3 perfbench/traced.py PLAN.json OUT.json [--trace]

PLAN.json holds {"calls": [argv, ...], "detail_cells": [[h2, k], ...],
"detail_all": bool, "pool_query": [[h2_lo, h2_hi], [k_lo, k_hi]] or null}.
Run with `src` on PYTHONPATH.  Each call goes through `cli.main(argv)`
with stdout and stderr captured; OUT.json receives exit codes, stdout
digests, timestamps and, with --trace, the recorded spans and counts.

Tracing wraps the public functions each module calls in the next one,
by rebinding the name in the calling module; the program's files are not
changed.  Spans are kept in memory and written out after the last call.
Timestamps are time.perf_counter_ns(), the system-wide monotonic clock on
Linux, so they line up with the parent's clock.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import sys
import time

# Fine-grained calls run about a million times per sweep.  They are spanned
# only inside detail cells, and only for this many candidates per cell, so
# tracing adds little to the scan it measures.
DETAIL_BUDGET = 2000


class Tracer:
    """Spans as [name, parent index, request id, start ns, end ns]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.req: str | None = None
        self.counts: dict[str, int] = {}
        self.budget = 0
        self.candidates = itertools.count()

    def final_counts(self) -> dict[str, int]:
        """Counts, with candidates tested by the scan read off their counter."""
        candidates = next(self.candidates)
        self.candidates = itertools.count()
        return {**self.counts, "search.candidates": candidates}

    def record(self, name: str, fn, args, kwargs, req=None):
        rec = [name, self.stack[-1], req or self.req, 0, 0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        saved_req, self.req = self.req, rec[2]
        rec[3] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter_ns()
            self.stack.pop()
            self.req = saved_req

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span_wrapper(self, name: str, fn, req_of=None, counter: str | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self.count(counter)
            return self.record(name, fn, args, kwargs, req_of(*args) if req_of else None)

        return wrapper


def _candidate_id(surface, v, k, *_):
    return f"cand:{surface.h_squared}/{k}/{v.r}/{v.m}/{v.s}"


def install(tracer: Tracer, detail_cells: set, detail_all: bool) -> None:
    """Rebind each module's calls into the next layer to span-recording wrappers."""
    from hilbstab import certificate, cli, conditions, pfunctor, search

    t = tracer
    w = t.span_wrapper

    for name in ("_render_json", "_render_csv", "_emit", "build_parser"):
        setattr(cli, name, w("cli." + name.lstrip("_"), getattr(cli, name)))
    cli.build_certificate = w("certificate.build", cli.build_certificate, _candidate_id)
    cli.certificate_to_dict = w("certificate.to_dict", cli.certificate_to_dict)
    cli.certificate_csv_row = w("certificate.csv_row", cli.certificate_csv_row)
    cli.enumerate_hits = w("search.enumerate_hits", cli.enumerate_hits)
    for module in (cli, certificate):
        for name in ("ext_dims_on_X", "ext_dims_on_hilb"):
            setattr(module, name, w("pfunctor." + name, getattr(module, name)))

    search.build_certificate = w("certificate.build", search.build_certificate, _candidate_id)
    for name in ("image_rank", "image_c1", "taut_rank", "taut_c1", "product_c1"):
        setattr(certificate, name, w("hilb." + name, getattr(certificate, name)))
    for name in ("extension_euler_formula", "extension_euler_direct"):
        setattr(certificate, name, w("conditions." + name, getattr(certificate, name)))
    certificate.admissibility_report = w(
        "conditions.report", certificate.admissibility_report, counter="certificate.reports")

    # Fine-grained wrappers: lattice calls and the per-candidate report.
    square = conditions.mukai_square
    new_vector = search.MukaiVector
    report = search.admissibility_report
    traced_square = w("lattice.mukai_square", square)
    traced_vector = w("lattice.vector_new", new_vector)
    square_homes = (conditions, certificate, pfunctor)

    def counted_report(*args):
        next(t.candidates)
        return report(*args)

    def detailed_report(*args):
        """Span the report; every other call also spans its mukai_square calls.

        Calls without child spans give a clean per-call time; the others
        give the lattice cost inside the report.
        """
        next(t.candidates)
        t.budget -= 1
        if t.budget <= 0:
            search.admissibility_report = counted_report
            search.MukaiVector = new_vector
        if t.budget % 2:
            for home in square_homes:
                home.mukai_square = traced_square
            try:
                return t.record("conditions.report", report, args, {})
            finally:
                for home in square_homes:
                    home.mukai_square = square
        return t.record("conditions.report", report, args, {})

    scan = search._scan_cell

    @functools.wraps(scan)
    def traced_scan(args):
        h2, k, _ = args
        t.count("search.cells")
        detailed = (h2, k) in detail_cells
        if detailed:
            t.budget = DETAIL_BUDGET
            search.admissibility_report = detailed_report
            search.MukaiVector = traced_vector
        try:
            found = t.record("search.scan_cell", scan, (args,), {}, f"cell:{h2}/{k}")
        finally:
            search.admissibility_report = counted_report
            search.MukaiVector = new_vector
        t.count("search.hits", len(found))
        return found

    search._scan_cell = traced_scan
    search.admissibility_report = counted_report
    if detail_all:
        # conditions keeps the plain mukai_square, so report spans have no
        # children and their durations are clean.
        certificate.mukai_square = pfunctor.mukai_square = traced_square
        cli.MukaiVector = w("lattice.vector_new", cli.MukaiVector)


def run_calls(calls: list[list[str]], tracer: Tracer | None) -> list[dict]:
    from hilbstab import cli

    results = []
    for i, argv in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.record("cli.main", cli.main, (argv,), {}, f"call:{i}")
        data = out.getvalue().encode()
        results.append({
            "exit": code,
            "stdout_sha256": hashlib.sha256(data).hexdigest(),
            "stdout_bytes": len(data),
            "stderr": err.getvalue()[-500:],
        })
    return results


def main() -> int:
    plan_path, out_path = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.record("cli.import", __import__, ("hilbstab.cli",), {})
        install(tracer, {tuple(c) for c in plan["detail_cells"]}, plan["detail_all"])
    else:
        import hilbstab.cli  # noqa: F401
    results = run_calls(plan["calls"], tracer)
    t_main_end = time.perf_counter_ns()
    dump = {"t_main_end": t_main_end, "calls": results}
    if tracer is not None:
        dump["main"] = {"spans": tracer.spans, "counts": tracer.final_counts()}
        if plan.get("pool_query"):
            dump["pool"] = pool_phases(tracer, plan["pool_query"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh, separators=(",", ":"))
    return 0


def pool_phases(tracer: Tracer, pool_query) -> dict:
    """Time enumerate_hits with 1 and 2 workers, tracing kept on in both.

    The 1-worker phase also yields the scan-layer spans and counts, which
    the pool's worker processes cannot report back.
    """
    from hilbstab.search import SearchQuery, enumerate_hits

    query = SearchQuery(tuple(pool_query[0]), tuple(pool_query[1]))
    phases = {}
    for workers in (1, 2):
        tracer.spans, tracer.counts = [], {}
        t0 = time.perf_counter_ns()
        hits = enumerate_hits(query, workers=workers)
        t1 = time.perf_counter_ns()
        phases[str(workers)] = {"t0": t0, "t1": t1, "hits": len(hits)}
        if workers == 1:
            phases["1"].update(spans=tracer.spans, counts=tracer.final_counts())
    return phases


if __name__ == "__main__":
    sys.exit(main())
