"""The raw brute-force oracle for enumeration, shared by the test files."""

from math import gcd


def raw_scan(h_squared: int, k: int) -> list[tuple[int, int, int]]:
    """Raw scan with the predicates written out as plain integer arithmetic.

    Intentionally independent of search_bounds and of the library's check
    functions; rank runs to h^2 and s over [-(h^2+2), h^2+2], far beyond
    where hits can live.
    """
    hits = []
    bound = h_squared + 2
    for r in range(1, h_squared + 1):
        two_r = 2 * r
        ineq_rhs = 2 * ((r + 1) * k + 1)
        for s in range(-bound, bound + 1):
            v2 = h_squared - two_r * s
            if v2 < -2:
                continue
            if 2 * (r + s) < v2 + ineq_rhs:
                continue
            if v2 + 2 >= two_r:
                continue
            if gcd(r, h_squared, r + s) != 1:
                continue
            hits.append((r, 1, s))
    return hits
