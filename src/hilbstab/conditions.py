"""Admissibility verdicts for a candidate (surface, Mukai vector, k).

A candidate v = (r, m*h, s) is admissible when

  * v is primitive in the sense m = 1,
  * the moduli space M_{X,h}(v) is nonempty (v^2 >= -2),
  * the section-count inequality chi >= v^2/2 + (r+1)k + 1 holds,
  * every classified sheaf is locally free (v^2 + 2 < 2r), and
  * the moduli space is fine (gcd of rank, degree and chi is 1).

The module also computes the Euler pairing chi(G, G) of the extension
sheaf G of the ideal sheaf of k points by the dual bundle, two independent
ways, as an arithmetic self-check of the inequality's role: admissibility
forces chi(G, G) >= 4.
"""

from __future__ import annotations

from math import gcd

from .hilb import NegativeRank, image_rank
from .lattice import (
    HypothesisNotMet,
    K3Surface,
    MukaiVector,
    Value,
    dual_vector,
    euler_char,
    euler_pair,
    ideal_sheaf_vector,
    mukai_square,
    require_positive_k,
    require_positive_rank,
    require_primitive,
)

# A negative section count h^0 = r+s-rk is a negative image rank.
InconsistentCertificate = NegativeRank


class AdmissibilityReport(Value):
    """All intermediate quantities and verdicts for one candidate.

    Every field is a pure function of (h^2, k, r, m, s), computed once by
    admissibility_report; the check_* functions below return its fields.
    """

    _ints = ("chi", "v_sq", "threshold", "margin", "gcd_value")

    def __init__(
        self, chi: int, v_sq: int, threshold: int, margin: int, nonempty_ok: bool,
        ineq_ok: bool, locally_free_ok: bool, fine_ok: bool,
        gcd_triple: tuple[int, int, int], gcd_value: int, primitive_ok: bool,
    ) -> None:
        self._set(
            chi, v_sq, threshold, margin, nonempty_ok, ineq_ok, locally_free_ok, fine_ok,
            gcd_triple, gcd_value, primitive_ok,
        )

    @property
    def admissible(self) -> bool:
        return (
            self.primitive_ok
            and self.nonempty_ok
            and self.ineq_ok
            and self.locally_free_ok
            and self.fine_ok
        )


def check_inequality(
    surface: K3Surface, v: MukaiVector, k: int
) -> tuple[bool, int]:
    """Section-count inequality chi >= v^2/2 + (r+1)k + 1.

    Returns (verdict, margin) with margin = chi - threshold; the division
    by 2 is exact because v^2 is even.
    """
    report = admissibility_report(surface, v, k)
    return report.ineq_ok, report.margin


# The three conditions below do not depend on k, so they read the report at k = 1.


def check_local_freeness(surface: K3Surface, v: MukaiVector) -> bool:
    """True iff v^2 + 2 < 2r, so every sheaf in M_{X,h}(v) is locally free."""
    return admissibility_report(surface, v, 1).locally_free_ok


def check_fineness(surface: K3Surface, v: MukaiVector) -> tuple[bool, int]:
    """Fineness of M_{X,h}(v) via gcd(r, c1.h, chi) = 1.

    This is the standard sufficient criterion; it is implied by the shortcut
    gcd(r, s) = 1 since gcd(r, s) = gcd(r, r+s).
    """
    report = admissibility_report(surface, v, 1)
    return report.fine_ok, report.gcd_value


def check_nonempty(surface: K3Surface, v: MukaiVector) -> bool:
    """Nonemptiness of M_{X,h}(v) for primitive v of positive rank: v^2 >= -2."""
    report = admissibility_report(surface, v, 1)
    require_primitive(v)
    return report.nonempty_ok


def admissibility_report(
    surface: K3Surface, v: MukaiVector, k: int
) -> AdmissibilityReport:
    """Evaluate each condition on (surface, v, k) once and collect the verdicts.

    The check_* functions return fields of this report.  The raw bound
    v^2 >= -2 is recorded for any m so that non-primitive candidates still
    get a full report; primitivity itself is the separate primitive_ok flag,
    and admissibility requires all five verdicts.
    """
    require_positive_rank(v)
    require_positive_k(k)
    chi = euler_char(v)
    v_sq = mukai_square(surface, v)
    threshold = v_sq // 2 + (v.r + 1) * k + 1
    gcd_triple = (v.r, v.m * surface.h_squared, chi)
    gcd_value = gcd(*gcd_triple)
    # Positional, in field order: the scan builds one report per candidate,
    # and keywords cost about 0.5 us more per report, about what its five
    # integer checks cost.  The tests of every verdict catch a swap.
    return AdmissibilityReport(
        chi, v_sq, threshold, chi - threshold, v_sq >= -2, chi >= threshold,
        v_sq + 2 < 2 * v.r, gcd_value == 1, gcd_triple, gcd_value, v.m == 1,
    )


def extension_euler_formula(surface: K3Surface, v: MukaiVector, k: int) -> int:
    """chi(G, G) for the extension sheaf G, in closed form.

    G extends the ideal sheaf of k points by the dual of a bundle with
    vector v, and chi(G, G) = 2*(-v^2/2 + chi - (r+1)k + 1).
    """
    require_positive_k(k)
    v_sq = mukai_square(surface, v)
    return 2 * (-(v_sq // 2) + euler_char(v) - (v.r + 1) * k + 1)


def extension_euler_direct(surface: K3Surface, v: MukaiVector, k: int) -> int:
    """chi(G, G) computed directly from v(G) = v(dual) + v(ideal sheaf).

    Must agree with extension_euler_formula on every input; the test suite
    checks the identity on an exhaustive grid.
    """
    require_positive_k(k)
    v_g = dual_vector(v) + ideal_sheaf_vector(k)
    return euler_pair(surface, v_g, v_g)


def vanishing_certificate(
    surface: K3Surface, v: MukaiVector, k: int
) -> tuple[int, int, int]:
    """Cohomology dimensions (h^0, h^1, h^2) of the twist by an ideal sheaf.

    Under the section-count inequality (and m = 1) the higher cohomology of
    E tensor I_Z vanishes, so h^0 = chi = r + s - rk.

    Raises HypothesisNotMet when the inequality fails or m != 1, and
    NegativeRank (InconsistentCertificate) when h^0 would be negative.
    """
    # check_inequality runs the rank and k guards; m = 1 is refused before its verdict.
    ok, margin = check_inequality(surface, v, k)
    require_primitive(v)
    if not ok:
        raise HypothesisNotMet(
            f"section-count inequality fails with margin {margin}"
        )
    return image_rank(v, k), 0, 0
