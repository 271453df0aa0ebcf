from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given

from hilbstab.hilb import (
    DestabilizerCase,
    HilbNSClass,
    NegativeRank,
    ProductClass,
    destabilizer_case,
    image_c1,
    image_rank,
    product_c1,
    product_selfintersection,
    slope_on_product,
    taut_c1,
    taut_rank,
)
from hilbstab.lattice import HypothesisNotMet, K3Surface, MukaiVector, euler_char

surfaces = st.integers(1, 60).map(lambda n: K3Surface(2 * n))
sheaf_vectors = st.builds(
    MukaiVector, st.integers(1, 20), st.integers(-4, 4), st.integers(-30, 30)
)
ks = st.integers(2, 6)


# ------------------------------------------------------------ image bundle


def test_image_rank_examples():
    assert image_rank(MukaiVector(3, 1, 8), 2) == 5
    assert image_rank(MukaiVector(5, 1, 18), 3) == 8
    assert image_rank(MukaiVector(1, 0, 1), 1) == 1


def test_image_rank_negative_raises():
    with pytest.raises(NegativeRank):
        image_rank(MukaiVector(3, 1, 1), 4)


def test_image_c1_examples():
    assert image_c1(MukaiVector(3, 1, 8), 2) == HilbNSClass(-1, 3)
    assert image_c1(MukaiVector(5, 1, 18), 3) == HilbNSClass(-1, 5)
    assert image_c1(MukaiVector(2, -1, 5), 2) == HilbNSClass(1, 2)


# ------------------------------------------------------ tautological bundle


def test_taut_examples():
    assert taut_rank(MukaiVector(3, 1, 8), 2) == 6
    assert taut_c1(MukaiVector(3, 1, 8), 2) == HilbNSClass(1, -3)
    assert taut_rank(MukaiVector(1, 1, 5), 2) == 2
    assert taut_c1(MukaiVector(1, 1, 5), 2) == HilbNSClass(1, -1)


@pytest.mark.parametrize("invariant", [image_c1, taut_rank, taut_c1, product_c1])
def test_k_1_is_a_hypothesis_not_met(invariant):
    # a HypothesisNotMet, which `except ValueError` callers still catch
    message = r"^NS\(X\^\[k\]\) has rank 2 only for k >= 2, got k=1$"
    with pytest.raises(ValueError, match=message) as info:
        invariant(MukaiVector(3, 1, 8), 1)
    assert info.type is HypothesisNotMet


def test_rank_additivity_worked_example():
    v = MukaiVector(5, 1, 18)
    assert image_rank(v, 3) + taut_rank(v, 3) == 23 == euler_char(v)


@given(surfaces, sheaf_vectors, ks)
def test_exact_sequence_additivity(S, v, k):
    # image + tautological = trivial bundle of the full section space
    assert image_c1(v, k) + taut_c1(v, k) == HilbNSClass(0, 0)
    if euler_char(v) - v.r * k >= 0:
        assert image_rank(v, k) + taut_rank(v, k) == euler_char(v)


@given(sheaf_vectors, ks)
def test_image_c1_delta_coefficient_is_rank(v, k):
    assert image_c1(v, k).b == v.r


def test_ns_class_arithmetic():
    a = HilbNSClass(2, -3)
    b = HilbNSClass(-1, 5)
    assert a + b == HilbNSClass(1, 2)
    assert a - b == HilbNSClass(3, -8)
    assert -a == HilbNSClass(-2, 3)


# ------------------------------------------------------------ product space


def test_product_c1_examples():
    assert product_c1(MukaiVector(3, 1, 8), 2) == ProductClass(-1)
    assert product_c1(MukaiVector(5, 1, 18), 3) == ProductClass(-1)
    with pytest.raises(ValueError):
        product_c1(MukaiVector(3, 2, 8), 2)


def _selfintersection_oracle(h_squared: int, k: int) -> int:
    # expand (q_1*h + ... + q_k*h)^(2k) slot by slot; a term survives only
    # when every factor carries exponent exactly 2, contributing (h^2)^k
    count = 0
    for assignment in product(range(k), repeat=2 * k):
        if all(assignment.count(i) == 2 for i in range(k)):
            count += 1
    return count * h_squared**k


def test_product_selfintersection_examples():
    assert product_selfintersection(K3Surface(2), 1) == 2
    assert product_selfintersection(K3Surface(2), 2) == 24
    assert product_selfintersection(K3Surface(50), 2) == 15000


@pytest.mark.parametrize("h_squared", [2, 6, 50])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_product_selfintersection_matches_expansion_oracle(h_squared, k):
    assert product_selfintersection(K3Surface(h_squared), k) == _selfintersection_oracle(
        h_squared, k
    )


def test_slope_on_product_examples():
    S = K3Surface(50)
    assert slope_on_product(S, 2, ProductClass(-1), 5) == -3000
    assert slope_on_product(K3Surface(8), 3, ProductClass(0), 7) == 0
    with pytest.raises(ValueError):
        slope_on_product(S, 2, ProductClass(-1), 0)


@given(surfaces, st.integers(1, 4), st.integers(-5, 5), st.integers(1, 30))
def test_slope_on_product_sign_and_monotonicity(S, k, a, rank):
    slope = slope_on_product(S, k, ProductClass(a), rank)
    if a < 0:
        assert slope < 0
    elif a == 0:
        assert slope == 0
    else:
        assert slope > 0
    assert slope < slope_on_product(S, k, ProductClass(a + 1), rank)


def test_slope_on_product_exact_rational():
    assert slope_on_product(K3Surface(2), 2, ProductClass(1), 7) == Fraction(24, 7)


# ------------------------------------------------------------- trichotomy


def test_destabilizer_cases():
    assert destabilizer_case(-3) is DestabilizerCase.NEGATIVE_SLOPE_NOT_DESTABILIZING
    assert destabilizer_case(0) is DestabilizerCase.ZERO_SLOPE_SECTION_ARGUMENT
    assert destabilizer_case(2) is DestabilizerCase.POSITIVE_SLOPE_IMPOSSIBLE


def test_destabilizer_partitions_integers():
    for a in range(-50, 51):
        case = destabilizer_case(a)
        expected = (
            DestabilizerCase.NEGATIVE_SLOPE_NOT_DESTABILIZING
            if a <= -1
            else DestabilizerCase.ZERO_SLOPE_SECTION_ARGUMENT
            if a == 0
            else DestabilizerCase.POSITIVE_SLOPE_IMPOSSIBLE
        )
        assert case is expected
