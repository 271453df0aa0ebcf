#!/usr/bin/env python3
"""Survey admissible Mukai vectors across a sweep of surfaces.

Prints one line per (h^2, k) cell with the number of admissible vectors
and the vectors themselves, plus a short summary of how the count grows
with h^2.  Everything is exact; runtime is a few seconds for the default
sweep.

Usage:
    python scripts/survey_hits.py --h2-max 200 --k-min 2 --k-max 4
"""

import argparse
from collections import Counter

from hilbstab.search import SearchQuery, iter_hits


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--h2-max", type=int, default=200, help="largest even h^2")
    parser.add_argument("--k-min", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=4)
    parser.add_argument(
        "--only-nonempty", action="store_true", help="skip cells without hits"
    )
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    try:
        query = SearchQuery((2, args.h2_max), (args.k_min, args.k_max))
        stream = iter_hits(query, workers=args.workers)  # checks workers before any scan
    except ValueError as exc:  # InvalidQuery, or --workers below 1
        parser.error(str(exc))
    hits = list(stream)

    by_cell: dict[tuple[int, int], list] = {}
    for c in hits:
        by_cell.setdefault((c.surface.h_squared, c.k), []).append(c)

    print(f"{'h^2':>5} {'k':>3} {'hits':>5}  vectors (r,1,s) with margin")
    for h2 in range(2, args.h2_max + 1, 2):
        for k in range(args.k_min, args.k_max + 1):
            cell = by_cell.get((h2, k), [])
            if args.only_nonempty and not cell:
                continue
            rendered = ", ".join(
                f"({c.v.r},1,{c.v.s}) m={c.report.margin}" for c in cell
            )
            print(f"{h2:>5} {k:>3} {len(cell):>5}  {rendered}")

    counts = Counter(len(cell) for cell in by_cell.values())
    total_cells = ((args.h2_max - 2) // 2 + 1) * (args.k_max - args.k_min + 1)
    print()
    print(f"total hits: {len(hits)} over {total_cells} cells")
    for n in sorted(counts):
        print(f"  cells with {n} hit(s): {counts[n]}")
    ranks = Counter(c.v.r for c in hits)
    print("  hits by rank:", dict(sorted(ranks.items())))


if __name__ == "__main__":
    main()
