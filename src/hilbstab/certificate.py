"""Per-candidate certificate aggregation and its JSON/CSV projections.

A certificate collects, for one (h^2, k, v), the admissibility report and
every invariant of the image bundle that the lattice determines.  Fields
whose preconditions fail (k = 1 has no rank-2 Neron-Severi basis, m != 1
has no product-space comparison, v^2 < -2 has empty moduli) are left
unset and explained by a fixed note string.

Integer payloads are rendered as decimal strings in JSON: h^2 is
unbounded, so values can exceed any fixed-width integer a consumer might
parse into.  Booleans stay JSON booleans.
"""

from __future__ import annotations

from .conditions import AdmissibilityReport, admissibility_report
from .conditions import extension_euler_direct, extension_euler_formula
from .hilb import HilbNSClass, NegativeRank, image_c1, image_rank, product_c1, taut_c1, taut_rank
from .lattice import K3Surface, MukaiVector, Value, mukai_square
from .pfunctor import GradedDims, ext_dims_on_hilb, ext_dims_on_X

NOTE_AMPLE_CLASS = "ample class H near h_k: exists, not computed"
NOTE_COHOM_TRANSFORM = (
    "cohomological transform of v on X^[k]: only rank and c1 computed"
)
NOTE_RANK_TWO_BASIS = (
    "NS(X^[k]) has rank 2 only for k >= 2: c1-level fields not computed"
)
NOTE_NEGATIVE_RANK = "image rank r+s-rk is negative: not computed"
NOTE_EMPTY_MODULI = (
    "v^2 < -2: moduli space is empty, moduli_dim and ext tables not computed"
)
NOTE_NONPRIMITIVE_PRODUCT = "m != 1: product-space c1 not computed"


class Certificate(Value):
    """Everything the lattice pins down about one candidate."""

    def __init__(
        self, surface: K3Surface, k: int, v: MukaiVector, report: AdmissibilityReport,
        image_rank: int | None, image_c1: HilbNSClass | None, taut_rank: int | None,
        taut_c1: HilbNSClass | None, product_c1_a: int | None, moduli_dim: int | None,
        ext_on_X: GradedDims | None, ext_on_hilb: GradedDims | None,
        extension_euler_formula: int, extension_euler_direct: int, notes: tuple[str, ...],
    ) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "image_rank", image_rank)
        object.__setattr__(self, "image_c1", image_c1)
        object.__setattr__(self, "taut_rank", taut_rank)
        object.__setattr__(self, "taut_c1", taut_c1)
        object.__setattr__(self, "product_c1_a", product_c1_a)
        object.__setattr__(self, "moduli_dim", moduli_dim)
        object.__setattr__(self, "ext_on_X", ext_on_X)
        object.__setattr__(self, "ext_on_hilb", ext_on_hilb)
        object.__setattr__(self, "extension_euler_formula", extension_euler_formula)
        object.__setattr__(self, "extension_euler_direct", extension_euler_direct)
        object.__setattr__(self, "notes", notes)


def build_certificate(surface: K3Surface, v: MukaiVector, k: int) -> Certificate:
    """Compute the full certificate for (surface, v, k); requires r >= 1, k >= 1."""
    report = admissibility_report(surface, v, k)
    notes: list[str] = []

    try:
        img_rank = image_rank(v, k)
    except NegativeRank:
        img_rank = None
        notes.append(NOTE_NEGATIVE_RANK)

    if k >= 2:
        img_c1 = image_c1(v, k)
        t_rank = taut_rank(v, k)
        t_c1 = taut_c1(v, k)
        if v.m == 1:
            prod_a = product_c1(v, k).a
        else:
            prod_a = None
            notes.append(NOTE_NONPRIMITIVE_PRODUCT)
    else:
        img_c1 = t_rank = t_c1 = prod_a = None
        notes.append(NOTE_RANK_TWO_BASIS)

    if mukai_square(surface, v) >= -2:
        mod_dim = mukai_square(surface, v) + 2
        ext_x = ext_dims_on_X(surface, v, v, same_object=True)
        ext_h = ext_dims_on_hilb(surface, v, v, k, same_object=True)
    else:
        mod_dim = ext_x = ext_h = None
        notes.append(NOTE_EMPTY_MODULI)

    notes.append(NOTE_AMPLE_CLASS)
    notes.append(NOTE_COHOM_TRANSFORM)

    return Certificate(
        surface=surface,
        k=k,
        v=v,
        report=report,
        image_rank=img_rank,
        image_c1=img_c1,
        taut_rank=t_rank,
        taut_c1=t_c1,
        product_c1_a=prod_a,
        moduli_dim=mod_dim,
        ext_on_X=ext_x,
        ext_on_hilb=ext_h,
        extension_euler_formula=extension_euler_formula(surface, v, k),
        extension_euler_direct=extension_euler_direct(surface, v, k),
        notes=tuple(notes),
    )


def _int_str(x: int | None) -> str | None:
    return None if x is None else str(x)


def _class_pair(c: HilbNSClass | None) -> list[str] | None:
    return None if c is None else [str(c.a), str(c.b)]


def _dims_list(g: GradedDims | None) -> list[str] | None:
    return None if g is None else [str(d) for d in g.dims]


def certificate_to_dict(cert: Certificate, include_notes: bool = True) -> dict:
    """JSON-ready dict with a fixed field order and string-encoded integers."""
    rep = cert.report
    out = {
        "input": {
            "h_squared": str(cert.surface.h_squared),
            "k": str(cert.k),
            "r": str(cert.v.r),
            "m": str(cert.v.m),
            "s": str(cert.v.s),
        },
        "report": {
            "chi": str(rep.chi),
            "v_sq": str(rep.v_sq),
            "threshold": str(rep.threshold),
            "margin": str(rep.margin),
            "primitive_ok": rep.primitive_ok,
            "nonempty_ok": rep.nonempty_ok,
            "ineq_ok": rep.ineq_ok,
            "locally_free_ok": rep.locally_free_ok,
            "fine_ok": rep.fine_ok,
            "gcd_triple": [str(x) for x in rep.gcd_triple],
            "gcd_value": str(rep.gcd_value),
            "admissible": rep.admissible,
        },
        "image": {"rank": _int_str(cert.image_rank), "c1": _class_pair(cert.image_c1)},
        "taut": {"rank": _int_str(cert.taut_rank), "c1": _class_pair(cert.taut_c1)},
        "product_c1": _int_str(cert.product_c1_a),
        "moduli_dim": _int_str(cert.moduli_dim),
        "ext_on_X": _dims_list(cert.ext_on_X),
        "ext_on_hilb": _dims_list(cert.ext_on_hilb),
        "extension_euler": {
            "formula": str(cert.extension_euler_formula),
            "direct": str(cert.extension_euler_direct),
        },
    }
    if include_notes:
        out["notes"] = list(cert.notes)
    return out


def certificate_from_dict(data: dict) -> Certificate:
    """Inverse of certificate_to_dict (lossless round trip)."""
    inp = data["input"]
    rep = data["report"]

    def opt_int(x: str | None) -> int | None:
        return None if x is None else int(x)

    def opt_class(pair: list[str] | None) -> HilbNSClass | None:
        return None if pair is None else HilbNSClass(int(pair[0]), int(pair[1]))

    def opt_dims(dims: list[str] | None) -> GradedDims | None:
        return None if dims is None else GradedDims(tuple(int(d) for d in dims))

    report = AdmissibilityReport(
        chi=int(rep["chi"]),
        v_sq=int(rep["v_sq"]),
        threshold=int(rep["threshold"]),
        margin=int(rep["margin"]),
        nonempty_ok=rep["nonempty_ok"],
        ineq_ok=rep["ineq_ok"],
        locally_free_ok=rep["locally_free_ok"],
        fine_ok=rep["fine_ok"],
        gcd_triple=tuple(int(x) for x in rep["gcd_triple"]),
        gcd_value=int(rep["gcd_value"]),
        primitive_ok=rep["primitive_ok"],
    )
    return Certificate(
        surface=K3Surface(int(inp["h_squared"])),
        k=int(inp["k"]),
        v=MukaiVector(int(inp["r"]), int(inp["m"]), int(inp["s"])),
        report=report,
        image_rank=opt_int(data["image"]["rank"]),
        image_c1=opt_class(data["image"]["c1"]),
        taut_rank=opt_int(data["taut"]["rank"]),
        taut_c1=opt_class(data["taut"]["c1"]),
        product_c1_a=opt_int(data["product_c1"]),
        moduli_dim=opt_int(data["moduli_dim"]),
        ext_on_X=opt_dims(data["ext_on_X"]),
        ext_on_hilb=opt_dims(data["ext_on_hilb"]),
        extension_euler_formula=int(data["extension_euler"]["formula"]),
        extension_euler_direct=int(data["extension_euler"]["direct"]),
        notes=tuple(data.get("notes", ())),
    )


CSV_COLUMNS = [
    "h_squared",
    "k",
    "r",
    "m",
    "s",
    "chi",
    "v_sq",
    "threshold",
    "margin",
    "primitive_ok",
    "nonempty_ok",
    "ineq_ok",
    "locally_free_ok",
    "fine_ok",
    "gcd_triple",
    "gcd_value",
    "admissible",
    "image_rank",
    "image_c1_hk",
    "image_c1_delta",
    "taut_rank",
    "taut_c1_hk",
    "taut_c1_delta",
    "product_c1",
    "moduli_dim",
    "ext_on_X",
    "ext_on_hilb",
    "extension_euler_formula",
    "extension_euler_direct",
]


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def certificate_csv_row(cert: Certificate) -> list[str]:
    """Flat projection of a certificate, aligned with CSV_COLUMNS (notes dropped)."""
    rep = cert.report
    return [
        _cell(cert.surface.h_squared),
        _cell(cert.k),
        _cell(cert.v.r),
        _cell(cert.v.m),
        _cell(cert.v.s),
        _cell(rep.chi),
        _cell(rep.v_sq),
        _cell(rep.threshold),
        _cell(rep.margin),
        _cell(rep.primitive_ok),
        _cell(rep.nonempty_ok),
        _cell(rep.ineq_ok),
        _cell(rep.locally_free_ok),
        _cell(rep.fine_ok),
        " ".join(str(x) for x in rep.gcd_triple),
        _cell(rep.gcd_value),
        _cell(rep.admissible),
        _cell(cert.image_rank),
        _cell(cert.image_c1.a if cert.image_c1 is not None else None),
        _cell(cert.image_c1.b if cert.image_c1 is not None else None),
        _cell(cert.taut_rank),
        _cell(cert.taut_c1.a if cert.taut_c1 is not None else None),
        _cell(cert.taut_c1.b if cert.taut_c1 is not None else None),
        _cell(cert.product_c1_a),
        _cell(cert.moduli_dim),
        "" if cert.ext_on_X is None else " ".join(str(d) for d in cert.ext_on_X.dims),
        "" if cert.ext_on_hilb is None else " ".join(str(d) for d in cert.ext_on_hilb.dims),
        _cell(cert.extension_euler_formula),
        _cell(cert.extension_euler_direct),
    ]
