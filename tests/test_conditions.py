from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

from hilbstab import conditions
from hilbstab.conditions import (
    HypothesisNotMet,
    InconsistentCertificate,
    admissibility_report,
    check_fineness,
    check_inequality,
    check_local_freeness,
    check_nonempty,
    extension_euler_direct,
    extension_euler_formula,
    vanishing_certificate,
)
from hilbstab.hilb import NegativeRank, image_rank, product_c1
from hilbstab.lattice import K3Surface, MukaiVector, require_primitive, twisted_chi

surfaces = st.integers(1, 100).map(lambda n: K3Surface(2 * n))
sheaf_vectors = st.builds(
    MukaiVector, st.integers(1, 25), st.integers(-4, 4), st.integers(-40, 40)
)
primitive_vectors = st.builds(
    MukaiVector, st.integers(1, 25), st.just(1), st.integers(-40, 40)
)
ks = st.integers(1, 6)


# ----------------------------------------------------------- inequality


def test_inequality_worked_examples():
    assert check_inequality(K3Surface(50), MukaiVector(3, 1, 8), 2) == (True, 1)
    assert check_inequality(K3Surface(186), MukaiVector(5, 1, 18), 3) == (True, 1)
    assert check_inequality(K3Surface(50), MukaiVector(4, 1, 6), 2) == (False, -2)


def test_inequality_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_inequality(K3Surface(50), MukaiVector(0, 1, 8), 2)
    with pytest.raises(ValueError):
        check_inequality(K3Surface(50), MukaiVector(3, 1, 8), 0)


# ------------------------------------------------------- local freeness


def test_local_freeness_examples():
    assert check_local_freeness(K3Surface(50), MukaiVector(3, 1, 8)) is True
    assert check_local_freeness(K3Surface(50), MukaiVector(2, 1, 12)) is False
    assert check_local_freeness(K3Surface(2), MukaiVector(1, 1, 1)) is False


# ------------------------------------------------------------- fineness


def test_fineness_examples():
    assert check_fineness(K3Surface(50), MukaiVector(3, 1, 8)) == (True, 1)
    assert check_fineness(K3Surface(4), MukaiVector(2, 1, 4)) == (False, 2)
    assert check_fineness(K3Surface(8), MukaiVector(1, 3, -7)) == (True, 1)


@given(surfaces, sheaf_vectors)
def test_gcd_r_s_coprime_implies_fine(S, v):
    # gcd(r, s) = 1 is the shortcut criterion; it implies the triple one
    if gcd(v.r, v.s) == 1:
        assert check_fineness(S, v)[0] is True


# ----------------------------------------------------------- nonemptiness


def test_nonempty_examples():
    assert check_nonempty(K3Surface(50), MukaiVector(3, 1, 8)) is True
    assert check_nonempty(K3Surface(50), MukaiVector(1, 1, 26)) is True
    assert check_nonempty(K3Surface(50), MukaiVector(1, 1, 27)) is False


def test_nonempty_rejects_nonprimitive():
    with pytest.raises(ValueError):
        check_nonempty(K3Surface(50), MukaiVector(3, 2, 8))


# ---------------------------------------------------------------- report


def test_report_worked_example_a():
    rep = admissibility_report(K3Surface(50), MukaiVector(3, 1, 8), 2)
    assert rep.chi == 11
    assert rep.v_sq == 2
    assert rep.threshold == 10
    assert rep.margin == 1
    assert rep.gcd_triple == (3, 50, 11)
    assert rep.gcd_value == 1
    assert rep.admissible is True


def test_report_worked_example_b():
    rep = admissibility_report(K3Surface(186), MukaiVector(5, 1, 18), 3)
    assert rep.chi == 23
    assert rep.v_sq == 6
    assert rep.threshold == 22
    assert rep.margin == 1
    assert rep.admissible is True


def test_report_nonprimitive_not_admissible():
    rep = admissibility_report(K3Surface(50), MukaiVector(3, 2, 8), 2)
    assert rep.primitive_ok is False
    assert rep.admissible is False


@given(surfaces, sheaf_vectors, ks)
def test_report_flags_recomputable(S, v, k):
    # an oracle written from (h^2, r, m, s, k) alone, apart from the report
    h2, r, m, s = S.h_squared, v.r, v.m, v.s
    v_sq = m * m * h2 - 2 * r * s
    chi = r + s
    threshold = v_sq // 2 + (r + 1) * k + 1
    g = gcd(gcd(r, m * h2), chi)
    rep = admissibility_report(S, v, k)
    assert (rep.v_sq, rep.chi, rep.threshold, rep.margin) == (
        v_sq, chi, threshold, chi - threshold
    )
    assert (rep.gcd_triple, rep.gcd_value) == ((r, m * h2, chi), g)
    assert rep.nonempty_ok == (v_sq >= -2)
    assert rep.ineq_ok == (chi >= threshold)
    assert rep.locally_free_ok == (v_sq + 2 < 2 * r)
    assert rep.fine_ok == (g == 1)
    assert rep.primitive_ok == (m == 1)
    assert rep.admissible == (
        m == 1 and v_sq >= -2 and chi >= threshold and v_sq + 2 < 2 * r and g == 1
    )
    assert check_inequality(S, v, k) == (chi >= threshold, chi - threshold)
    assert check_local_freeness(S, v) == (v_sq + 2 < 2 * r)
    assert check_fineness(S, v) == (g == 1, g)
    if m == 1:
        assert check_nonempty(S, v) == (v_sq >= -2)


def test_each_value_is_computed_once_per_call(monkeypatch):
    # admissibility_report owns v^2, chi and the gcd; the check_* read its fields
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    once = ["mukai_square", "euler_char", "gcd", "require_positive_rank", "require_positive_k"]
    for name in once + ["require_primitive"]:
        monkeypatch.setattr(conditions, name, counted(name, getattr(conditions, name)))
    S, v = K3Surface(50), MukaiVector(3, 1, 8)
    for call, primitive_guard in (
        (lambda: admissibility_report(S, v, 2), []),
        (lambda: check_inequality(S, v, 2), []),
        (lambda: check_local_freeness(S, v), []),
        (lambda: check_fineness(S, v), []),
        (lambda: check_nonempty(S, v), ["require_primitive"]),
        (lambda: vanishing_certificate(S, v, 2), ["require_primitive"]),
    ):
        calls.clear()
        call()
        assert sorted(calls) == sorted(once + primitive_guard)


# ------------------------------------------------- extension Euler pairing


def test_extension_euler_worked_examples():
    assert extension_euler_formula(K3Surface(50), MukaiVector(3, 1, 8), 2) == 6
    assert extension_euler_direct(K3Surface(50), MukaiVector(3, 1, 8), 2) == 6
    assert extension_euler_formula(K3Surface(186), MukaiVector(5, 1, 18), 3) == 6
    assert extension_euler_direct(K3Surface(186), MukaiVector(5, 1, 18), 3) == 6


def test_extension_euler_direct_vector():
    # v(G) = (4, -1, 7) for v = (3, 1, 8), k = 2: -<v(G), v(G)> = -(50 - 56) = 6
    assert extension_euler_direct(K3Surface(50), MukaiVector(3, 1, 8), 2) == -(
        50 - 2 * 4 * 7
    )


@given(surfaces, st.builds(MukaiVector, st.integers(-20, 20), st.integers(-5, 5), st.integers(-30, 30)), ks)
def test_extension_euler_crosscheck(S, v, k):
    assert extension_euler_formula(S, v, k) == extension_euler_direct(S, v, k)


@given(surfaces, sheaf_vectors, ks)
def test_extension_euler_margin_relation(S, v, k):
    # chi(G, G) = 2*(margin + 2): margin >= 0 forces chi(G, G) >= 4
    _, margin = check_inequality(S, v, k)
    assert extension_euler_formula(S, v, k) == 2 * (margin + 2)


@given(surfaces, primitive_vectors, ks)
def test_admissible_implies_extension_euler_at_least_4(S, v, k):
    if admissibility_report(S, v, k).admissible:
        assert extension_euler_formula(S, v, k) >= 4


# ------------------------------------------------------------- vanishing


def test_vanishing_worked_examples():
    assert vanishing_certificate(K3Surface(50), MukaiVector(3, 1, 8), 2) == (5, 0, 0)
    assert vanishing_certificate(K3Surface(186), MukaiVector(5, 1, 18), 3) == (8, 0, 0)


def test_vanishing_requires_inequality():
    with pytest.raises(HypothesisNotMet):
        vanishing_certificate(K3Surface(50), MukaiVector(4, 1, 6), 2)


def test_vanishing_requires_primitive():
    with pytest.raises(HypothesisNotMet):
        vanishing_certificate(K3Surface(50), MukaiVector(3, 2, 8), 2)


def test_vanishing_inconsistent_section_count():
    # inequality holds (chi=7 >= 4) but r+s-rk = -3: certificate impossible
    with pytest.raises(InconsistentCertificate):
        vanishing_certificate(K3Surface(2), MukaiVector(5, 1, 2), 2)


def test_vanishing_errors_come_in_guard_order():
    # rank, then k, then m = 1, then the inequality, then h^0
    cases = (
        (50, MukaiVector(0, 2, 6), 0, "rank must be positive"),
        (50, MukaiVector(4, 2, 6), 0, "k must be a positive integer"),
        (50, MukaiVector(4, 2, 6), 2, "the hypotheses need primitive"),
        (50, MukaiVector(4, 1, 6), 2, "section-count inequality fails"),
        (2, MukaiVector(10, 1, 50), 10, "image rank"),
    )
    for h2, v, k, message in cases:
        with pytest.raises(ValueError, match=message):
            vanishing_certificate(K3Surface(h2), v, k)


def test_m_not_1_is_refused_by_one_guard_with_one_message():
    S, v = K3Surface(50), MukaiVector(3, 2, 8)
    with pytest.raises(HypothesisNotMet) as owner:
        require_primitive(v)
    for call in (
        lambda: check_nonempty(S, v),
        lambda: vanishing_certificate(S, v, 2),
        lambda: product_c1(v, 2),
    ):
        with pytest.raises(HypothesisNotMet) as info:
            call()
        assert str(info.value) == str(owner.value)


def test_negative_section_count_is_the_negative_image_rank():
    # the inequality holds with margin 448, yet h^0 = r+s-rk = -40
    S, v, k = K3Surface(2), MukaiVector(10, 1, 50), 10
    assert check_inequality(S, v, k) == (True, 448)
    assert InconsistentCertificate is NegativeRank
    with pytest.raises(NegativeRank) as owner:
        image_rank(v, k)
    with pytest.raises(NegativeRank) as info:
        vanishing_certificate(S, v, k)
    assert str(info.value) == str(owner.value) == "image rank r+s-rk = -40 is negative"


@given(surfaces, primitive_vectors, ks)
def test_admissible_implies_vanishing_certificate(S, v, k):
    if admissibility_report(S, v, k).admissible:
        h0, h1, h2 = vanishing_certificate(S, v, k)
        assert (h1, h2) == (0, 0)
        assert h0 == twisted_chi(v, k) >= 0
