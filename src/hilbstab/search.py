"""Complete, deterministic enumeration of admissible Mukai vectors (r, h, s).

Only primitive first Chern class (m = 1) is enumerated.  Two cheap
necessary consequences of the conditions confine the search to a finite
box for each (h^2, k):

  * nonemptiness gives v^2 = h^2 - 2rs >= -2, so 2rs <= h^2 + 2;
  * feeding v^2 >= -2 into the section-count inequality gives
    chi = r + s >= (r+1)k, so s >= r(k-1) + k.

Hence r(r(k-1) + k) <= (h^2 + 2)/2 bounds r, and for each r the component
s lies in [r(k-1) + k, floor((h^2+2)/(2r))].  Every point of the box is
then tested with the exact predicates, so the pruning cannot admit a
false positive; completeness of the bounds is checked against a raw
brute-force scan in the test suite.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterator
from itertools import chain, islice
from math import isqrt

from .certificate import Certificate, build_certificate
from .conditions import admissibility_report
from .lattice import K3Surface, MukaiVector, Value, require_positive_k


class InvalidQuery(ValueError):
    """The search query has an empty, odd-aligned or non-positive range."""


def _as_range(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        lo, hi = value
    else:
        lo = hi = value
    if not isinstance(lo, int) or not isinstance(hi, int):
        raise InvalidQuery(f"range endpoints must be integers, got {value!r}")
    if lo > hi:
        raise InvalidQuery(f"empty range {lo}-{hi}")
    return lo, hi


class SearchQuery(Value):
    """Search space: h^2 value or inclusive even range, k value or range.

    r_max, when given, overrides the derived rank ceiling; it exists for
    completeness audits (raising it must never add hits) and restriction
    experiments.
    """

    def __init__(
        self, h_squared: int | tuple[int, int], k: int | tuple[int, int], r_max: int | None = None
    ) -> None:
        h_lo, h_hi = _as_range(h_squared)
        k_lo, _ = _as_range(k)
        try:
            K3Surface(h_lo)
            K3Surface(h_hi)
            require_positive_k(k_lo)
        except ValueError as exc:
            raise InvalidQuery(str(exc)) from exc
        if r_max is not None and r_max < 1:
            raise InvalidQuery(f"r_max override must be positive, got {r_max}")
        object.__setattr__(self, "h_squared", h_squared)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r_max", r_max)


def search_bounds(
    surface: K3Surface, k: int
) -> tuple[int, Callable[[int], tuple[int, int]]]:
    """Rank ceiling and per-rank inclusive s-interval containing all hits.

    Returns (r_max, s_range) with s_range(r) = (r(k-1) + k,
    floor((h^2+2)/(2r))).  The interval may be empty (lo > hi) for r
    beyond r_max; r_max may be 0 when no rank admits a nonempty interval.

    For k >= 2, r_max is the floor of the positive root of (k-1)r^2 + kr -
    (h^2+2)/2; taking isqrt of the discriminant first keeps that floor exact.
    """
    require_positive_k(k)
    half = (surface.h_squared + 2) // 2

    def s_range(r: int) -> tuple[int, int]:
        return r * (k - 1) + k, half // r

    if k == 1:
        return half, s_range
    return (isqrt(k * k + 4 * (k - 1) * half) - k) // (2 * (k - 1)), s_range


def _scan_cell(args: tuple[int, int, int | None]) -> list[tuple[int, int]]:
    """Admissible (r, s) pairs for one (h^2, k) cell; pure, picklable worker."""
    h_squared, k, r_cap = args
    surface = K3Surface(h_squared)
    derived_r_max, s_range = search_bounds(surface, k)
    r_max = derived_r_max if r_cap is None else r_cap
    found: list[tuple[int, int]] = []
    for r in range(1, r_max + 1):
        lo, hi = s_range(r)
        for s in range(lo, hi + 1):
            if admissibility_report(surface, MukaiVector(r, 1, s), k).admissible:
                found.append((r, s))
    return found


def _cells(query: SearchQuery) -> Iterator[tuple[int, int, int | None]]:
    """Scan arguments for the cells of the query box that can hold hits.

    r = 1 has the loosest s-interval, [2k - 1, (h^2+2)/2], which is empty
    once k > (h^2 + 4) // 4; every higher rank is then empty too, whatever
    the r_max override.  So k is clamped per h^2, and h^2 below 4 k_lo - 4
    is skipped without visiting it.
    """
    h_lo, h_hi = _as_range(query.h_squared)
    k_lo, k_hi = _as_range(query.k)
    for h2 in range(max(h_lo, 4 * k_lo - 4), h_hi + 1, 2):
        for k in range(k_lo, min(k_hi, (h2 + 4) // 4) + 1):
            yield h2, k, query.r_max


def _pool_size(workers: int) -> int:
    """Worker processes to start for --workers: never more than the CPUs
    this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return min(workers, len(os.sched_getaffinity(0)))
    return min(workers, os.cpu_count() or 1)


def _scan_in_pool(
    cells: Iterator[tuple[int, int, int | None]], processes: int
) -> Iterator[tuple[tuple[int, int, int | None], list[tuple[int, int]]]]:
    """(cell, pairs) in cell order, scanned by a pool of `processes` workers.

    At most eight cells per process are queued, running or done ahead of
    the consumer, so a stalled writer holds neither the box nor its results
    in memory.  Closing the generator terminates the pool, so the workers
    end as soon as output stops.  One of the pool's own workers dying (out
    of memory, say) raises ChildProcessError; no other process is watched.
    """
    from multiprocessing import Pool  # not at top level: only --workers uses it

    with Pool(processes) as pool:
        workers = list(pool._pool)  # the processes this pool started
        tasks = ((cell, pool.apply_async(_scan_cell, (cell,))) for cell in cells)
        pending = deque(islice(tasks, 8 * processes))
        while pending:
            pending.extend(islice(tasks, 1))
            cell, task = pending.popleft()
            while not task.ready():  # a pool never delivers the cell of a worker that died
                for worker in workers:
                    if worker.exitcode is not None:
                        raise ChildProcessError(
                            f"search worker {worker.pid} died with exit code {worker.exitcode}"
                        )
                task.wait(1)
            yield cell, task.get()


def _stream_hits(query: SearchQuery, processes: int) -> Iterator[Certificate]:
    cells = _cells(query)
    head = list(islice(cells, 2))
    if processes == 1 or len(head) < 2:
        scanned = ((cell, _scan_cell(cell)) for cell in chain(head, cells))
    else:
        scanned = _scan_in_pool(chain(head, cells), processes)
    try:
        for (h2, k, _), pairs in scanned:
            surface = K3Surface(h2)
            for r, s in pairs:
                yield build_certificate(surface, MukaiVector(r, 1, s), k)
    finally:
        scanned.close()


def iter_hits(query: SearchQuery, workers: int = 1) -> Iterator[Certificate]:
    """The certificate of every admissible vector in the query box, lazily,
    ordered by (h^2, k, r, s).

    Cells are visited in (h^2, k) order and each yields its pairs in (r, s)
    order, so hits stream out already sorted, identically for any worker
    count.  With workers > 1, at most min(workers, CPUs) processes scan at
    most eight cells each ahead of the consumer.  Closing the iterator ends
    them at once; one of them dying raises ChildProcessError.  Searches in
    other threads run their own pools and never stop this one.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return _stream_hits(query, _pool_size(workers))


def enumerate_hits(query: SearchQuery, workers: int = 1) -> list[Certificate]:
    """The certificates of all admissible vectors in the query box as a list;
    see iter_hits."""
    return list(iter_hits(query, workers))
