"""Per-candidate certificate aggregation and its JSON/CSV projections.

A certificate collects, for one (h^2, k, v), the admissibility report and
every invariant of the image bundle that the lattice determines.  Fields
whose preconditions fail (k = 1 has no rank-2 Neron-Severi basis, m != 1
has no product-space comparison, v^2 < -2 has empty moduli) are left
unset and explained by a fixed note string.

Both projections, the nested JSON dict and the flat CSV row, are read off
one field table, FIELDS.  Integer payloads are rendered as decimal strings
in JSON: h^2 is unbounded, so values can exceed any fixed-width integer a
consumer might parse into.  Booleans stay JSON booleans.
"""

from __future__ import annotations

from operator import attrgetter

from .conditions import AdmissibilityReport, admissibility_report
from .conditions import extension_euler_direct, extension_euler_formula
from .hilb import HilbNSClass, NegativeRank, image_c1, image_rank, product_c1, taut_c1, taut_rank
from .lattice import K3Surface, MukaiVector, Value
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
        if report.primitive_ok:
            prod_a = product_c1(v, k).a
        else:
            prod_a = None
            notes.append(NOTE_NONPRIMITIVE_PRODUCT)
    else:
        img_c1 = t_rank = t_c1 = prod_a = None
        notes.append(NOTE_RANK_TWO_BASIS)

    if report.nonempty_ok:
        ext_x = ext_dims_on_X(surface, v, v, same_object=True)
        ext_h = ext_dims_on_hilb(ext_x, k)
        mod_dim = ext_x[1]
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


# The certificate schema, one row per field in output order: its JSON path
# (group.key, or a bare key at the top level), its CSV column(s) and the
# Certificate attribute it reads.  A field is added here and nowhere else.
FIELDS = (
    ("input.h_squared", "h_squared", "surface.h_squared"),
    ("input.k", "k", "k"),
    ("input.r", "r", "v.r"),
    ("input.m", "m", "v.m"),
    ("input.s", "s", "v.s"),
    ("report.chi", "chi", "report.chi"),
    ("report.v_sq", "v_sq", "report.v_sq"),
    ("report.threshold", "threshold", "report.threshold"),
    ("report.margin", "margin", "report.margin"),
    ("report.primitive_ok", "primitive_ok", "report.primitive_ok"),
    ("report.nonempty_ok", "nonempty_ok", "report.nonempty_ok"),
    ("report.ineq_ok", "ineq_ok", "report.ineq_ok"),
    ("report.locally_free_ok", "locally_free_ok", "report.locally_free_ok"),
    ("report.fine_ok", "fine_ok", "report.fine_ok"),
    ("report.gcd_triple", "gcd_triple", "report.gcd_triple"),
    ("report.gcd_value", "gcd_value", "report.gcd_value"),
    ("report.admissible", "admissible", "report.admissible"),
    ("image.rank", "image_rank", "image_rank"),
    ("image.c1", "image_c1_hk image_c1_delta", "image_c1"),
    ("taut.rank", "taut_rank", "taut_rank"),
    ("taut.c1", "taut_c1_hk taut_c1_delta", "taut_c1"),
    ("product_c1", "product_c1", "product_c1_a"),
    ("moduli_dim", "moduli_dim", "moduli_dim"),
    ("ext_on_X", "ext_on_X", "ext_on_X"),
    ("ext_on_hilb", "ext_on_hilb", "ext_on_hilb"),
    ("extension_euler.formula", "extension_euler_formula", "extension_euler_formula"),
    ("extension_euler.direct", "extension_euler_direct", "extension_euler_direct"),
)

# (group, key, CSV width, getter) per field; group "" is the top level.
_COMPILED = [
    (*path.rpartition(".")[::2], len(columns.split()), attrgetter(attr))
    for path, columns, attr in FIELDS
]

CSV_COLUMNS = [column for _, columns, _ in FIELDS for column in columns.split()]


def _json_value(x: object) -> object:
    """A field as JSON: null, a boolean, a decimal string or a list of them."""
    if x is None or x is True or x is False:
        return x
    if isinstance(x, HilbNSClass):
        x = (x.a, x.b)
    if isinstance(x, (tuple, GradedDims)):
        return [str(d) for d in x]
    return str(x)


def certificate_to_dict(cert: Certificate, include_notes: bool = True) -> dict:
    """JSON-ready dict with a fixed field order and string-encoded integers."""
    out: dict = {}
    for group, key, _, get in _COMPILED:
        (out.setdefault(group, {}) if group else out)[key] = _json_value(get(cert))
    if include_notes:
        out["notes"] = list(cert.notes)
    return out


def certificate_csv_row(cert: Certificate) -> list[str]:
    """Flat projection of a certificate, aligned with CSV_COLUMNS (notes dropped).

    Unset fields are empty cells and verdicts are true/false; a list spreads
    over its columns when it has several, and is space-joined otherwise.
    """
    row: list[str] = []
    for _, _, width, get in _COMPILED:
        value = _json_value(get(cert))
        if value is None:
            row += [""] * width
        elif value is True or value is False:
            row.append("true" if value else "false")
        elif isinstance(value, list):
            row += value if width > 1 else [" ".join(value)]
        else:
            row.append(value)
    return row
