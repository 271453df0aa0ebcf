import hypothesis.strategies as st
import pytest
from hypothesis import given

from hilbstab.certificate import build_certificate
from hilbstab.hilb import image_rank
from hilbstab.lattice import K3Surface, MukaiVector, euler_pair, mukai_pairing, twisted_chi
from hilbstab.pfunctor import (
    GradedDims,
    NegativeExt,
    ext_dims_on_hilb,
    ext_dims_on_X,
    graded_tensor,
    moduli_dim,
    projective_space_cohomology,
    tangent_match,
)

surfaces = st.integers(1, 60).map(lambda n: K3Surface(2 * n))
graded = st.lists(st.integers(0, 9), max_size=6).map(lambda d: GradedDims(tuple(d)))
ks = st.integers(1, 5)
# tables on a surface, degrees 0..2; zeros give stripped and empty tables
tables_on_X = st.lists(st.integers(0, 10**6), max_size=3).map(lambda d: GradedDims(tuple(d)))


# -------------------------------------------------------------- GradedDims


def test_canonical_form_strips_trailing_zeros():
    assert GradedDims((1, 0, 1, 0, 0)) == GradedDims((1, 0, 1))
    assert GradedDims((0,)) == GradedDims(())
    assert GradedDims((1, 0, 1)).dims == (1, 0, 1)


def test_graded_dims_rejects_negative_entries():
    with pytest.raises(ValueError):
        GradedDims((1, -1, 1))


def test_degree_access_beyond_length_is_zero():
    g = GradedDims((1, 4, 1))
    assert g[0] == 1 and g[1] == 4 and g[2] == 1
    assert g[3] == 0 and g[100] == 0
    with pytest.raises(IndexError):
        g[-1]


def test_total_and_euler():
    g = GradedDims((1, 4, 2, 4, 1))
    assert g.total == 12
    assert g.euler == 1 - 4 + 2 - 4 + 1 == -4


# --------------------------------------------------- projective space table


def test_projective_space_cohomology_small():
    assert projective_space_cohomology(0) == GradedDims((1,))
    assert projective_space_cohomology(1) == GradedDims((1, 0, 1))
    assert projective_space_cohomology(3) == GradedDims((1, 0, 1, 0, 1, 0, 1))


@given(st.integers(0, 12))
def test_projective_space_cohomology_shape(n):
    g = projective_space_cohomology(n)
    assert g.total == n + 1
    assert g.euler == n + 1
    assert all(g[i] == 0 for i in range(1, 2 * n + 1, 2))


# ------------------------------------------------------------ tensor product


def test_tensor_hand_convolution():
    assert graded_tensor(GradedDims((1, 4, 1)), GradedDims((1, 0, 1))) == GradedDims(
        (1, 4, 2, 4, 1)
    )


def test_tensor_identity_and_annihilator():
    a = GradedDims((2, 3, 5))
    one = GradedDims((1,))
    zero = GradedDims((0,))
    assert graded_tensor(a, one) == a
    assert graded_tensor(zero, a) == GradedDims(())


@given(graded, graded)
def test_tensor_commutative(a, b):
    assert graded_tensor(a, b) == graded_tensor(b, a)


@given(graded, graded, graded)
def test_tensor_associative(a, b, c):
    assert graded_tensor(graded_tensor(a, b), c) == graded_tensor(a, graded_tensor(b, c))


@given(graded, graded)
def test_tensor_total_and_euler_multiplicative(a, b):
    t = graded_tensor(a, b)
    assert t.total == a.total * b.total
    assert t.euler == a.euler * b.euler


# --------------------------------------------------------------- Ext tables


def test_ext_on_X_same_object():
    assert ext_dims_on_X(K3Surface(50), MukaiVector(3, 1, 8), MukaiVector(3, 1, 8), True) == GradedDims((1, 4, 1))
    o = MukaiVector(1, 0, 1)
    assert ext_dims_on_X(K3Surface(8), o, o, True) == GradedDims((1, 0, 1))


def test_ext_on_X_distinct_pair_same_vector():
    v = MukaiVector(3, 1, 8)
    assert ext_dims_on_X(K3Surface(50), v, v, False) == GradedDims((0, 2, 0))


def test_ext_on_X_same_object_requires_equal_vectors():
    with pytest.raises(ValueError):
        ext_dims_on_X(K3Surface(50), MukaiVector(3, 1, 8), MukaiVector(3, 1, 9), True)


@pytest.mark.parametrize("same", [True, False])
@pytest.mark.parametrize("r", [0, -1])
def test_ext_on_X_requires_positive_rank_of_v(r, same):
    bad = MukaiVector(r, 1, 8)
    with pytest.raises(ValueError, match=f"rank must be positive, got r={r}"):
        ext_dims_on_X(K3Surface(50), bad, bad, same)


def test_ext_on_X_requires_positive_rank_of_w():
    # r = 0: the pairing <v, w> = 50 would pass the sign check
    with pytest.raises(ValueError, match="rank must be positive, got r=0"):
        ext_dims_on_X(K3Surface(50), MukaiVector(3, 1, 8), MukaiVector(0, 1, 8), False)


def test_ext_on_X_negative_ext_raises():
    rigid = MukaiVector(1, 1, 26)  # v^2 = -2 on h^2 = 50
    with pytest.raises(NegativeExt):
        ext_dims_on_X(K3Surface(50), rigid, rigid, False)
    too_big = MukaiVector(1, 1, 27)  # v^2 = -4
    with pytest.raises(NegativeExt):
        ext_dims_on_X(K3Surface(50), too_big, too_big, True)


def test_ext_on_hilb_examples():
    S = K3Surface(50)
    v = MukaiVector(3, 1, 8)
    on_x = ext_dims_on_X(S, v, v, True)
    assert ext_dims_on_hilb(on_x, 2) == GradedDims((1, 4, 2, 4, 1))
    assert ext_dims_on_hilb(on_x, 1) == on_x
    distinct = ext_dims_on_hilb(ext_dims_on_X(S, v, v, False), 2)
    assert distinct == GradedDims((0, 2, 0, 2, 0))
    assert distinct[0] == 0
    # an empty table stays empty at large k, stripped in linear time
    assert ext_dims_on_hilb(GradedDims(()), 10**6) == GradedDims(())


@given(tables_on_X, st.integers(1, 40))
def test_ext_on_hilb_closed_form_equals_convolution(table, k):
    expected = graded_tensor(table, projective_space_cohomology(k - 1))
    assert ext_dims_on_hilb(table, k) == expected


def test_ext_on_hilb_rejects_bad_input():
    with pytest.raises(ValueError, match="k must be a positive integer, got 0"):
        ext_dims_on_hilb(GradedDims((1, 4, 1)), 0)
    with pytest.raises(ValueError):
        ext_dims_on_hilb(GradedDims((1, 0, 0, 1)), 2)
    # no list of 2k + 1 entries fits in memory: refused before any allocation
    for k in (10**18, 10**20):
        with pytest.raises(ValueError, match=f"k = {k} is too large"):
            ext_dims_on_hilb(GradedDims((1, 4, 1)), k)


@given(surfaces, st.builds(MukaiVector, st.integers(1, 15), st.just(1), st.integers(-20, 20)), ks)
def test_ext_multiplicativity(S, v, k):
    try:
        on_x = ext_dims_on_X(S, v, v, True)
    except NegativeExt:
        return
    on_hilb = ext_dims_on_hilb(on_x, k)
    assert on_hilb.total == k * on_x.total
    assert on_hilb.euler == k * on_x.euler


@given(
    surfaces,
    st.builds(MukaiVector, st.integers(1, 15), st.integers(-3, 3), st.integers(-20, 20)),
    st.builds(MukaiVector, st.integers(1, 15), st.integers(-3, 3), st.integers(-20, 20)),
    st.booleans(),
)
def test_ext_euler_matches_lattice_pairing(S, v, w, same):
    if same:
        w = v
    try:
        table = ext_dims_on_X(S, v, w, same)
    except NegativeExt:
        assert (mukai_pairing(S, v, w) if not same else mukai_pairing(S, v, v) + 2) < 0
        return
    assert table.euler == euler_pair(S, v, w)


# ---------------------------------------------------------- moduli / tangent


def test_moduli_dim_examples():
    assert moduli_dim(K3Surface(50), MukaiVector(3, 1, 8)) == 4
    assert moduli_dim(K3Surface(50), MukaiVector(1, 1, 26)) == 0
    assert moduli_dim(K3Surface(186), MukaiVector(5, 1, 18)) == 8
    with pytest.raises(ValueError):
        moduli_dim(K3Surface(50), MukaiVector(1, 1, 27))


def test_tangent_match_examples():
    assert tangent_match(K3Surface(50), MukaiVector(3, 1, 8), 2) == (4, 4, True)
    assert tangent_match(K3Surface(186), MukaiVector(5, 1, 18), 3) == (8, 8, True)
    assert tangent_match(K3Surface(50), MukaiVector(1, 1, 26), 2) == (0, 0, True)


@given(surfaces, st.builds(MukaiVector, st.integers(1, 15), st.integers(-3, 3), st.integers(-20, 20)), ks)
def test_tangent_match_always_true(S, v, k):
    try:
        result = tangent_match(S, v, k)
    except ValueError:
        return  # empty moduli
    assert result.match is True
    assert result.dim_X == result.dim_hilb


@st.composite
def nonempty_candidates(draw):
    """(surface, v, k) with r >= 1 and v^2 >= -2, i.e. s <= (m^2 h^2 + 2) / 2r."""
    S = draw(surfaces)
    r, m = draw(st.integers(1, 15)), draw(st.integers(-3, 3))
    s = (m * m * S.h_squared + 2) // (2 * r) - draw(st.integers(0, 40))
    return S, MukaiVector(r, m, s), draw(ks)


@given(nonempty_candidates())
def test_each_invariant_has_one_value(cand):
    S, v, k = cand
    dim = moduli_dim(S, v)
    assert dim == ext_dims_on_X(S, v, v, True)[1]
    assert dim == tangent_match(S, v, k).dim_X
    assert dim == build_certificate(S, v, k).moduli_dim
    if twisted_chi(v, k) >= 0:
        assert image_rank(v, k) == twisted_chi(v, k)
