"""Static guard for exact arithmetic in `src/hilbstab`.

Every quantity is an integer or a `Fraction`, so the package source holds
no float or complex literal, no true division (`/` or `/=`; `//` is
floor division and stays), no `float(` call, and no `math.sqrt`,
`math.log` or `math.pow`, whether reached as an attribute or through
`from math import`.  `math.isqrt` stays: it is exact.

Two guards of the value types sit beside it: every `Value` subclass is
covered by the contract tests in `tests/test_values.py`, and no module
stores a field behind `Value._set`'s back with `object.__setattr__`.
The last guards check the inputs: `type(x) is int` is written only in
`lattice.require_int`, and every `int`-annotated parameter of every
public class and function refuses a float or a bool.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import hilbstab
from hilbstab.hilb import ProductClass
from hilbstab.lattice import K3Surface, MukaiVector, Value
from hilbstab.pfunctor import GradedDims
from hilbstab.search import SearchQuery
from test_values import CASES

SOURCES = sorted(Path(hilbstab.__file__).resolve().parent.glob("*.py"))
INEXACT_MATH = {"sqrt", "log", "pow"}


def inexact_nodes(tree: ast.AST) -> list[str]:
    """A description of every inexact construct in tree, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            what = "float() call"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in INEXACT_MATH
        ):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = sorted(INEXACT_MATH & {alias.name for alias in node.names})
            if not names:
                continue
            what = f"from math import {', '.join(names)}"
        else:
            continue
        found.append((node.lineno, what))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_guard_sees_every_inexact_construct():
    source = (
        "from math import isqrt, log\n"
        "import math\n"
        "a = 1.5\nb = 2j\nc = 3 / 4\nc /= 2\nd = float(7)\ne = math.sqrt(2)\n"
        "f = math.pow(2, 3)\ng = 7 // 2\nh = isqrt(10)\n"
    )
    assert inexact_nodes(ast.parse(source)) == [
        "line 1: from math import log",
        "line 3: literal 1.5",
        "line 4: literal 2j",
        "line 5: true division",
        "line 6: true division",
        "line 7: float() call",
        "line 8: math.sqrt",
        "line 9: math.pow",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_source_is_exact(path):
    assert inexact_nodes(ast.parse(path.read_text(encoding="utf-8"))) == []


def _subclasses(cls: type) -> set[type]:
    direct = set(cls.__subclasses__())
    return direct.union(*(_subclasses(sub) for sub in direct))


def test_every_value_type_has_contract_cases():
    package = {cls for cls in _subclasses(Value) if cls.__module__.startswith("hilbstab.")}
    covered = {case[0] for case in CASES}
    assert package, "no Value subclass found"
    assert sorted(cls.__qualname__ for cls in package - covered) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_source_stores_fields_only_through_value_set(path):
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
        and node.attr == "__setattr__"
    ]
    assert calls == []


# Where `type(x) is int` may be written: the one guard.
INT_TEST_HOMES = {("lattice.py", "require_int")}


def int_type_tests(tree: ast.AST, scope: str = "") -> list[tuple[int, str]]:
    """(line, enclosing qualified name) of every `type(...) is int` and
    `type(...) is not int` in tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += int_type_tests(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
            and any(
                isinstance(op, (ast.Is, ast.IsNot)) and isinstance(right, ast.Name)
                and right.id == "int"
                for op, right in zip(node.ops, node.comparators)
            )
        ):
            found.append((node.lineno, scope))
        found += int_type_tests(node, scope)
    return found


def test_the_int_guard_sees_every_type_test():
    source = (
        "def f(x):\n    return type(x) is int\n"
        "class C:\n    def __init__(self, a, b):\n"
        "        if type(a) is not int or type(b) is float:\n            pass\n"
        "        self.ok = isinstance(a, int)\n"
        "y = [type(z) is not int for z in ()]\n"
    )
    assert int_type_tests(ast.parse(source)) == [(2, "f"), (5, "C.__init__"), (8, "")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_guard_tests_for_int(path):
    tests = int_type_tests(ast.parse(path.read_text(encoding="utf-8")))
    stray = [
        f"{path.name}:{line}" for line, scope in tests if (path.name, scope) not in INT_TEST_HOMES
    ]
    assert stray == [], "an integer check outside lattice.require_int"


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from hilbstab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(hilbstab.__all__)
    assert len(set(hilbstab.__all__)) == len(hilbstab.__all__)
    for name in hilbstab.__all__:
        export = getattr(hilbstab, name)
        assert inspect.isclass(export) or inspect.isfunction(export), name
        assert export.__module__.startswith("hilbstab."), name


# a valid argument for every parameter of a public function, by name
COMPANIONS = {
    "surface": K3Surface(50),
    "v": MukaiVector(3, 1, 8),
    "ext_on_X": GradedDims((1, 4, 1)),
    "c": ProductClass(-1),
    "query": SearchQuery(50, 2),
    "k": 2,
    "rank": 1,
    "a": 0,
    "n": 2,
    "workers": 1,
}
# and for every field of a value type, from its contract case
FIELD_VALUES = {case[0]: dict(zip(case[1], case[2])) for case in CASES}


def _signature(export):
    try:
        return inspect.signature(export)
    except ValueError:  # an exception class
        return None


INT_PARAMETERS = [
    pytest.param(export, name, id=f"{export.__name__}.{name}")
    for export in (getattr(hilbstab, name) for name in hilbstab.__all__)
    if (signature := _signature(export)) is not None
    for name, parameter in signature.parameters.items()
    if parameter.annotation in ("int", int)
]


def test_every_int_parameter_is_found():
    assert len(INT_PARAMETERS) >= 38


@pytest.mark.parametrize("bad", [2.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("export,name", INT_PARAMETERS)
def test_every_int_parameter_refuses_a_float_or_bool(export, name, bad):
    params = inspect.signature(export).parameters
    valid = FIELD_VALUES.get(export) or {p: COMPANIONS[p] for p in params}
    arguments = {**valid, name: bad}
    if export in FIELD_VALUES:
        what, kind = f"{export.__qualname__} field {name}", "an"
    elif name == "k":  # the k message is kept verbatim
        what, kind = "k", "a positive"
    else:
        what, kind = name, "(an|a positive|a non-negative)"
    message = f"^{re.escape(what)} must be {kind} integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        export(**arguments)
