"""Invariants on the Hilbert scheme X^[k] and on the product X^k.

For k >= 2, NS(X^[k]) = Z*h_k + Z*delta, where h_k is the divisor induced
by h and 2*delta is the exceptional divisor of the Hilbert-Chow morphism;
classes are stored as integer pairs in the (h_k, delta) basis.  On the
product X^k the only classes needed are the integer multiples of
sum_i q_i^* h, and slopes there are exact rationals.
"""

from __future__ import annotations

from enum import Enum
from math import factorial

from .lattice import K3Surface, MukaiVector, Value, twisted_chi
from .lattice import require_positive_k, require_positive_rank, require_primitive


class NegativeRank(ValueError):
    """The image bundle's rank, the section count h^0(E tensor I_Z), would be negative."""


class HilbNSClass(Value):
    """Class a*h_k + b*delta in NS(X^[k])."""

    def __init__(self, a: int, b: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __add__(self, other: "HilbNSClass") -> "HilbNSClass":
        return HilbNSClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "HilbNSClass") -> "HilbNSClass":
        return HilbNSClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "HilbNSClass":
        return HilbNSClass(-self.a, -self.b)


class ProductClass(Value):
    """Class a * (sum_i q_i^* h) on the product X^k."""

    def __init__(self, a: int) -> None:
        object.__setattr__(self, "a", a)

    def __add__(self, other: "ProductClass") -> "ProductClass":
        return ProductClass(self.a + other.a)

    def __neg__(self) -> "ProductClass":
        return ProductClass(-self.a)


class DestabilizerCase(Enum):
    """Trichotomy for the c1 coefficient a of an invariant subsheaf on X^k."""

    NEGATIVE_SLOPE_NOT_DESTABILIZING = "negative-slope-not-destabilizing"
    ZERO_SLOPE_SECTION_ARGUMENT = "zero-slope-section-argument"
    POSITIVE_SLOPE_IMPOSSIBLE = "positive-slope-impossible"


def _require_rank_two_ns(k: int) -> None:
    if k < 2:
        raise ValueError(
            f"NS(X^[k]) has rank 2 only for k >= 2, got k={k}"
        )


def image_rank(v: MukaiVector, k: int) -> int:
    """Rank r + s - rk of the image bundle on X^[k] (fiberwise the sections of E tensor I_Z)."""
    require_positive_rank(v)
    rank = twisted_chi(v, k)
    if rank < 0:
        raise NegativeRank(f"image rank r+s-rk = {rank} is negative")
    return rank


def image_c1(v: MukaiVector, k: int) -> HilbNSClass:
    """c1 of the image bundle: -c1(E)_k + r*delta, i.e. (-m, r) in the basis."""
    require_positive_rank(v)
    _require_rank_two_ns(k)
    return HilbNSClass(-v.m, v.r)


def taut_rank(v: MukaiVector, k: int) -> int:
    """Rank r*k of the tautological bundle E^[k]."""
    require_positive_rank(v)
    _require_rank_two_ns(k)
    return v.r * k


def taut_c1(v: MukaiVector, k: int) -> HilbNSClass:
    """c1 of the tautological bundle: (m, -r), the negative of image_c1.

    The image bundle, the trivial bundle of global sections and E^[k] sit
    in a short exact sequence, so ranks and first Chern classes are additive.
    """
    return -image_c1(v, k)


def product_c1(v: MukaiVector, k: int) -> ProductClass:
    """c1 of the image bundle pulled to X^k: -(sum_i q_i^* h), so a = -1."""
    require_primitive(v)
    _require_rank_two_ns(k)
    return ProductClass(-1)


def product_selfintersection(surface: K3Surface, k: int) -> int:
    """Top self-intersection (sum_i q_i^* h)^(2k) on X^k.

    Multinomial expansion leaves only the terms with exponent exactly 2 on
    each factor, giving (2k)!/2^k * (h^2)^k; the quotient is exact.
    """
    require_positive_k(k)
    return factorial(2 * k) // 2**k * surface.h_squared**k


def slope_on_product(
    surface: K3Surface, k: int, c: ProductClass, rank: int
) -> Fraction:
    """Slope of a sheaf on X^k with c1 = a*(sum q_i^* h) and the given rank."""
    from fractions import Fraction  # not at top level: no CLI path needs it

    if rank < 1:
        raise ValueError(f"slope is defined only for positive rank, got {rank}")
    return Fraction(c.a * product_selfintersection(surface, k), rank)


def destabilizer_case(a: int) -> DestabilizerCase:
    """Classify a potential invariant destabilizer on X^k by the sign of a.

    a <= -1: strictly smaller slope, never destabilizing.  a = 0: ruled out
    because the image bundle restricted to X^k has no global sections.
    a >= 1: impossible inside a trivial bundle, which is semistable of
    slope zero.
    """
    if a <= -1:
        return DestabilizerCase.NEGATIVE_SLOPE_NOT_DESTABILIZING
    if a == 0:
        return DestabilizerCase.ZERO_SLOPE_SECTION_ARGUMENT
    return DestabilizerCase.POSITIVE_SLOPE_IMPOSSIBLE
