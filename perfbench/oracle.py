"""Independent oracle for hilbstab outputs.

Re-derives, from the numerical conditions alone, every field the CLI
prints for a candidate (h^2, k, r, m, s) and every admissible vector of a
search cell.  It imports nothing from hilbstab, so a defect in the program
cannot hide in a shared helper.

A candidate is admissible when m = 1, v^2 >= -2, chi >= v^2/2 + (r+1)k + 1,
v^2 + 2 < 2r and gcd(r, m*h^2, chi) = 1, where v^2 = m^2 h^2 - 2rs and
chi = r + s.
"""

from __future__ import annotations

import csv
import io
import json
from math import gcd

NOTE_AMPLE = "ample class H near h_k: exists, not computed"
NOTE_COHOM = "cohomological transform of v on X^[k]: only rank and c1 computed"
NOTE_RANK_TWO = "NS(X^[k]) has rank 2 only for k >= 2: c1-level fields not computed"
NOTE_NEG_RANK = "image rank r+s-rk is negative: not computed"
NOTE_EMPTY = "v^2 < -2: moduli space is empty, moduli_dim and ext tables not computed"
NOTE_NONPRIM = "m != 1: product-space c1 not computed"

CSV_COLUMNS = [
    "h_squared", "k", "r", "m", "s", "chi", "v_sq", "threshold", "margin",
    "primitive_ok", "nonempty_ok", "ineq_ok", "locally_free_ok", "fine_ok",
    "gcd_triple", "gcd_value", "admissible", "image_rank", "image_c1_hk",
    "image_c1_delta", "taut_rank", "taut_c1_hk", "taut_c1_delta", "product_c1",
    "moduli_dim", "ext_on_X", "ext_on_hilb", "extension_euler_formula",
    "extension_euler_direct",
]


def conditions(h2: int, k: int, r: int, m: int, s: int) -> dict:
    """Every intermediate quantity and verdict of the admissibility test."""
    v_sq = m * m * h2 - 2 * r * s
    chi = r + s
    threshold = v_sq // 2 + (r + 1) * k + 1
    g = gcd(r, m * h2, chi)
    out = {
        "chi": chi,
        "v_sq": v_sq,
        "threshold": threshold,
        "margin": chi - threshold,
        "primitive_ok": m == 1,
        "nonempty_ok": v_sq >= -2,
        "ineq_ok": chi >= threshold,
        "locally_free_ok": v_sq + 2 < 2 * r,
        "fine_ok": g == 1,
        "gcd_triple": (r, m * h2, chi),
        "gcd_value": g,
    }
    out["admissible"] = all(
        out[f] for f in ("primitive_ok", "nonempty_ok", "ineq_ok", "locally_free_ok", "fine_ok")
    )
    return out


def admissible(h2: int, k: int, r: int, m: int, s: int) -> bool:
    return conditions(h2, k, r, m, s)["admissible"]


def _hilb_table(x: list[int], k: int) -> list[int]:
    """Convolve a degree-0..2 table with H^*(P^(k-1)): 1 in each even degree."""
    out = [0] * (2 * k + 1)
    for i, d in enumerate(x):
        for j in range(0, 2 * k - 1, 2):
            out[i + j] += d
    return out


def certificate(h2: int, k: int, r: int, m: int, s: int, notes: bool) -> dict:
    """The certificate JSON object the CLI prints, built from first principles."""
    c = conditions(h2, k, r, m, s)
    v_sq = c["v_sq"]
    note_list = []
    image_rank = c["chi"] - r * k
    if image_rank < 0:
        image_rank = None
        note_list.append(NOTE_NEG_RANK)
    if k >= 2:
        image = [-m, r]
        taut_rank, taut = r * k, [m, -r]
        product = -1 if m == 1 else None
        if m != 1:
            note_list.append(NOTE_NONPRIM)
    else:
        image = taut_rank = taut = product = None
        note_list.append(NOTE_RANK_TWO)
    if v_sq >= -2:
        moduli_dim = v_sq + 2
        ext_x = [1, v_sq + 2, 1]
        ext_h = _hilb_table(ext_x, k)
    else:
        moduli_dim = ext_x = ext_h = None
        note_list.append(NOTE_EMPTY)
    note_list += [NOTE_AMPLE, NOTE_COHOM]
    # v(G) = dual of v plus v(I_Z) = (r + 1, -m, s + 1 - k); chi(G, G) = -<v(G), v(G)>.
    direct = -(m * m * h2 - 2 * (r + 1) * (s + 1 - k))
    formula = 2 * (-(v_sq // 2) + c["chi"] - (r + 1) * k + 1)

    def strs(xs):
        return None if xs is None else [str(x) for x in xs]

    def opt(x):
        return None if x is None else str(x)

    out = {
        "input": {"h_squared": str(h2), "k": str(k), "r": str(r), "m": str(m), "s": str(s)},
        "report": {
            "chi": str(c["chi"]),
            "v_sq": str(v_sq),
            "threshold": str(c["threshold"]),
            "margin": str(c["margin"]),
            "primitive_ok": c["primitive_ok"],
            "nonempty_ok": c["nonempty_ok"],
            "ineq_ok": c["ineq_ok"],
            "locally_free_ok": c["locally_free_ok"],
            "fine_ok": c["fine_ok"],
            "gcd_triple": strs(c["gcd_triple"]),
            "gcd_value": str(c["gcd_value"]),
            "admissible": c["admissible"],
        },
        "image": {"rank": opt(image_rank), "c1": strs(image)},
        "taut": {"rank": opt(taut_rank), "c1": strs(taut)},
        "product_c1": opt(product),
        "moduli_dim": opt(moduli_dim),
        "ext_on_X": strs(ext_x),
        "ext_on_hilb": strs(ext_h),
        "extension_euler": {"formula": str(formula), "direct": str(direct)},
    }
    if notes:
        out["notes"] = note_list
    return out


def csv_row(cert: dict) -> list[str]:
    """Flat projection of a certificate object onto CSV_COLUMNS."""
    inp, rep = cert["input"], cert["report"]

    def cell(x):
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        return x

    def pair(c, i):
        return "" if c is None else c[i]

    def joined(xs):
        return "" if xs is None else " ".join(xs)

    return [
        inp["h_squared"], inp["k"], inp["r"], inp["m"], inp["s"],
        rep["chi"], rep["v_sq"], rep["threshold"], rep["margin"],
        cell(rep["primitive_ok"]), cell(rep["nonempty_ok"]), cell(rep["ineq_ok"]),
        cell(rep["locally_free_ok"]), cell(rep["fine_ok"]),
        " ".join(rep["gcd_triple"]), rep["gcd_value"], cell(rep["admissible"]),
        cell(cert["image"]["rank"]), pair(cert["image"]["c1"], 0), pair(cert["image"]["c1"], 1),
        cell(cert["taut"]["rank"]), pair(cert["taut"]["c1"], 0), pair(cert["taut"]["c1"], 1),
        cell(cert["product_c1"]), cell(cert["moduli_dim"]),
        joined(cert["ext_on_X"]), joined(cert["ext_on_hilb"]),
        cert["extension_euler"]["formula"], cert["extension_euler"]["direct"],
    ]


def render_json(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def render_csv(header: list[str], rows: list[list[str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def expected_call(argv: list[str]) -> tuple[int, bytes]:
    """(exit code, stdout) that `hilbstab <argv>` must produce for check/report/ext."""
    cmd, h2, k, r, m, s = argv[0], *map(int, argv[1:6])
    flags = set(argv[6:])
    if cmd in ("check", "report"):
        cert = certificate(h2, k, r, m, s, notes=cmd == "report")
        if "--csv" in flags:
            out = render_csv(CSV_COLUMNS, [csv_row(cert)])
        else:
            out = render_json(cert)
        code = 1 if "--strict" in flags and not cert["report"]["admissible"] else 0
        return code, out
    if cmd != "ext":
        raise ValueError(f"no oracle for subcommand {cmd!r}")
    distinct = "--distinct" in flags
    v_sq = m * m * h2 - 2 * r * s
    x = [0, v_sq, 0] if distinct else [1, v_sq + 2, 1]
    if x[1] < 0:
        return 1, b""
    x_cells = [str(d) for d in x]
    hilb_cells = [str(d) for d in _hilb_table(x, k)]
    if "--csv" in flags:
        return 0, render_csv(["space", "dims"], [["X", " ".join(x_cells)], ["hilb", " ".join(hilb_cells)]])
    payload = {
        "input": {"h_squared": str(h2), "k": str(k), "r": str(r), "m": str(m), "s": str(s)},
        "distinct": distinct,
        "ext_on_X": x_cells,
        "ext_on_hilb": hilb_cells,
    }
    return 0, render_json(payload)


def cell_hits(h2: int, k: int) -> list[tuple[int, int]]:
    """Admissible (r, s) with m = 1 for one cell, in closed form.

    Nonemptiness and local freeness give (h^2+2)/(2r) - 1 < s <= (h^2+2)/(2r),
    so each rank has the single candidate s = (h^2+2) // (2r).  The
    inequality with v^2 >= -2 forces s >= r(k-1) + k, which ends the ranks.
    """
    half = (h2 + 2) // 2
    hits = []
    r = 1
    while r * (r * (k - 1) + k) <= half:
        s = half // r
        if admissible(h2, k, r, 1, s):
            hits.append((r, s))
        r += 1
    return hits


def cell_hits_raw(h2: int, k: int) -> list[tuple[int, int]]:
    """Brute-force scan of the box 1 <= r, 1 <= s, 2rs <= h^2 + 2.

    Every admissible vector lies in it: v^2 >= -2 gives the last bound, and
    the inequality gives s(r + 1) >= h^2/2 + (r+1)k + 1 - r > 0.  Slow; it
    validates cell_hits on small cells.
    """
    half = (h2 + 2) // 2
    return [
        (r, s)
        for r in range(1, half + 1)
        for s in range(1, half // r + 1)
        if admissible(h2, k, r, 1, s)
    ]
