"""Behaviour of the immutable value types, field by field.

Every value type compares equal only to an instance of its own class with
equal fields, hashes as the tuple of its fields, prints as
`Name(field=value, ...)`, refuses assignment and deletion, and survives
pickling and copying.  Each is built positionally or by keyword in field
order, and keeps its checks.
"""

import copy
import operator
import pickle
import re

import pytest

from hilbstab import (
    AdmissibilityReport,
    Certificate,
    GradedDims,
    HilbNSClass,
    InvalidQuery,
    K3Surface,
    MukaiVector,
    ProductClass,
    SearchQuery,
    TangentMatch,
    admissibility_report,
    build_certificate,
    tangent_match,
)

S = K3Surface(50)
V = MukaiVector(3, 1, 8)
REPORT = admissibility_report(S, V, 2)
CERT = build_certificate(S, V, 2)
OTHER_CERT = build_certificate(K3Surface(186), MukaiVector(5, 1, 18), 3)

REPORT_FIELDS = (
    "chi", "v_sq", "threshold", "margin", "nonempty_ok", "ineq_ok",
    "locally_free_ok", "fine_ok", "gcd_triple", "gcd_value", "primitive_ok",
)
CERT_FIELDS = (
    "surface", "k", "v", "report", "image_rank", "image_c1", "taut_rank",
    "taut_c1", "product_c1_a", "moduli_dim", "ext_on_X", "ext_on_hilb",
    "extension_euler_formula", "extension_euler_direct", "notes",
)


def _values(obj, fields):
    return tuple(getattr(obj, f) for f in fields)


# (class, field names in order, field values, field values of a different instance)
CASES = [
    (K3Surface, ("h_squared",), (50,), (186,)),
    (MukaiVector, ("r", "m", "s"), (3, 1, 8), (3, 1, 9)),
    (
        AdmissibilityReport,
        REPORT_FIELDS,
        _values(REPORT, REPORT_FIELDS),
        _values(OTHER_CERT.report, REPORT_FIELDS),
    ),
    (HilbNSClass, ("a", "b"), (-1, 3), (1, -3)),
    (ProductClass, ("a",), (-1,), (0,)),
    (GradedDims, ("dims",), ((1, 4, 1),), ((0, 4),)),
    (Certificate, CERT_FIELDS, _values(CERT, CERT_FIELDS), _values(OTHER_CERT, CERT_FIELDS)),
    (SearchQuery, ("h_squared", "k", "r_max"), ((2, 10), (2, 3), None), (50, 2, 7)),
]
IDS = [c[0].__name__ for c in CASES]


@pytest.mark.parametrize("cls,fields,values,other", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values, other):
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    assert _values(positional, fields) == values
    assert _values(keyword, fields) == values
    assert positional == keyword


@pytest.mark.parametrize("cls,fields,values,other", CASES, ids=IDS)
def test_equality_is_by_class_and_fields(cls, fields, values, other):
    a = cls(*values)
    assert a == cls(*values)
    assert not a != cls(*values)
    assert a != cls(*other)
    assert a != values
    assert a != object()
    # another value type never compares equal, even with the same fields
    stranger = ProductClass(50) if cls is K3Surface else K3Surface(50)
    assert a != stranger
    assert K3Surface(50) != ProductClass(50)


@pytest.mark.parametrize("cls,fields,values,other", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, values, other):
    a = cls(*values)
    assert hash(a) == hash(values)
    assert hash(a) == hash(cls(*values))
    assert len({a, cls(*values), cls(*other)}) == 2


@pytest.mark.parametrize("cls,fields,values,other", CASES, ids=IDS)
def test_repr_lists_the_fields_in_order(cls, fields, values, other):
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls,fields,values,other", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values, other):
    a = cls(*values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, 1)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) == values[fields.index(f)]
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("cls,fields,values,other", CASES, ids=IDS)
def test_values_survive_pickle_and_copy(cls, fields, values, other):
    a = cls(*values)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert b == a
        assert repr(b) == repr(a)


def test_exact_reprs():
    assert repr(S) == "K3Surface(h_squared=50)"
    assert repr(V) == "MukaiVector(r=3, m=1, s=8)"
    assert repr(HilbNSClass(-1, 3)) == "HilbNSClass(a=-1, b=3)"
    assert repr(ProductClass(-1)) == "ProductClass(a=-1)"
    assert repr(GradedDims([1, 4, 1, 0])) == "GradedDims(dims=(1, 4, 1))"
    assert repr(SearchQuery((2, 10), 2)) == "SearchQuery(h_squared=(2, 10), k=2, r_max=None)"
    assert repr(REPORT) == (
        "AdmissibilityReport(chi=11, v_sq=2, threshold=10, margin=1, nonempty_ok=True, "
        "ineq_ok=True, locally_free_ok=True, fine_ok=True, gcd_triple=(3, 50, 11), "
        "gcd_value=1, primitive_ok=True)"
    )


@pytest.mark.parametrize(
    "cls,fields", [(AdmissibilityReport, REPORT_FIELDS), (Certificate, CERT_FIELDS)],
    ids=["AdmissibilityReport", "Certificate"],
)
def test_each_field_reads_back_its_own_argument(cls, fields):
    # pairwise-distinct values, so two fields stored in each other's place
    # show; a declared integer field (by position in _ints) gets a distinct int
    values = tuple(1000 + i if i in dict(cls._ints) else object() for i in range(len(fields)))
    for built in (cls(*values), cls(**dict(zip(fields, values)))):
        for field, value in zip(fields, values):
            assert getattr(built, field) is value, field


# the fields whose __init__ parameter is annotated int, the ones _set checks;
# an annotation widened to `int | None` drops its check and shows here
INT_FIELDS = {
    "K3Surface": ("h_squared",),
    "MukaiVector": ("r", "m", "s"),
    "AdmissibilityReport": ("chi", "v_sq", "threshold", "margin", "gcd_value"),
    "HilbNSClass": ("a", "b"),
    "ProductClass": ("a",),
    "GradedDims": (),
    "Certificate": ("k", "extension_euler_formula", "extension_euler_direct"),
    "SearchQuery": (),
}


def test_each_value_type_checks_exactly_its_int_fields():
    checked = {
        cls.__name__: tuple(cls._fields[position] for position, _ in cls._ints)
        for cls, *_ in CASES
    }
    assert checked == INT_FIELDS


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize(
    "a,b", [(ProductClass(1), HilbNSClass(1, 2)), (V, 5)],
    ids=["ProductClass-HilbNSClass", "MukaiVector-int"],
)
def test_arithmetic_refuses_an_operand_of_another_type(op, a, b):
    for left, right in ((a, b), (b, a)):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            op(left, right)


def test_report_admissible_is_derived_not_a_field():
    assert REPORT.admissible is True
    assert "admissible=" not in repr(REPORT)


def test_search_query_r_max_defaults_to_none():
    assert SearchQuery(50, 2).r_max is None
    assert SearchQuery(50, 2) == SearchQuery(50, 2, None) == SearchQuery(h_squared=50, k=2)


def test_graded_dims_strips_trailing_zeros():
    assert GradedDims((1, 0, 0)).dims == (1,)
    assert GradedDims((1, 0, 0)) == GradedDims((1,))
    assert GradedDims([0, 0]).dims == ()
    assert GradedDims(dims=[0, 2, 0]).dims == (0, 2)
    assert hash(GradedDims((1, 0))) == hash(((1,),))


@pytest.mark.parametrize("bad", [0, 1, 3, 51, -2])
def test_k3_surface_rejects_odd_or_small_h2(bad):
    with pytest.raises(ValueError, match="positive even"):
        K3Surface(bad)


@pytest.mark.parametrize("bad", [50.0, "50", None, True])
def test_k3_surface_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        K3Surface(bad)


@pytest.mark.parametrize(
    "args", [(3.0, 1, 8), (3, "1", 8), (3, 1, None), (True, 1, 8), (3, True, 8), (3, 1, False)]
)
def test_mukai_vector_rejects_non_integer_components(args):
    with pytest.raises(ValueError, match="must be an integer"):
        MukaiVector(*args)


@pytest.mark.parametrize(
    "args,name,bad",
    [
        ((3.0, 1, 8), "r", "3.0"),
        ((3, "1", 8), "m", "'1'"),
        ((3, 1, None), "s", "None"),
        ((None, None, None), "r", "None"),
        ((True, 1, 8), "r", "True"),
    ],
)
def test_mukai_vector_error_names_the_first_bad_component(args, name, bad):
    message = f"^MukaiVector field {name} must be an integer, got {re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        MukaiVector(*args)


@pytest.mark.parametrize("dims", [(1, -1), (1, 2.0), ("1",), (1, True)])
def test_graded_dims_rejects_negative_or_non_integer(dims):
    with pytest.raises(ValueError, match="^graded dimension must be a non-negative integer, got "):
        GradedDims(dims)


@pytest.mark.parametrize(
    "args", [((3, 10), 2), ((2, 11), 2), ((0, 10), 2), ((2, 10), 0), ((2, 10), 2, 0)]
)
def test_search_query_rejects_bad_ranges(args):
    with pytest.raises(InvalidQuery):
        SearchQuery(*args)


@pytest.mark.parametrize(
    "cls,args,kwargs",
    [
        (MukaiVector, (3, 1), {}),
        (MukaiVector, (3, 1, 8, 9), {}),
        (MukaiVector, (3, 1, 8), {"r": 3}),
        (HilbNSClass, (1,), {"c": 2}),
        (ProductClass, (), {}),
        (Certificate, (S, 2, V), {}),
        (SearchQuery, (50,), {}),
    ],
)
def test_wrong_arguments_raise_type_error(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


def test_tangent_match_is_a_named_tuple():
    assert TangentMatch._fields == ("dim_X", "dim_hilb", "match")
    t = tangent_match(S, V, 2)
    assert t == (4, 4, True)
    assert (t.dim_X, t.dim_hilb, t.match) == (4, 4, True)
    assert isinstance(t, tuple)
    assert repr(t) == "TangentMatch(dim_X=4, dim_hilb=4, match=True)"
