"""Static guard for exact arithmetic in `src/hilbstab`.

Every quantity is an integer or a `Fraction`, so the package source holds
no float or complex literal, no true division (`/` or `/=`; `//` is
floor division and stays), no `float(` call, and no `math.sqrt`,
`math.log` or `math.pow`, whether reached as an attribute or through
`from math import`.  `math.isqrt` stays: it is exact.

Two guards of the value types sit beside it: every `Value` subclass is
covered by the contract tests in `tests/test_values.py`, and no module
stores a field behind `Value._set`'s back with `object.__setattr__`.  A
last guard checks the inputs: every public function that takes the
number of points k refuses a float or a bool for it.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import hilbstab
from hilbstab.hilb import ProductClass
from hilbstab.lattice import K3Surface, MukaiVector, Value
from hilbstab.pfunctor import GradedDims
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


# an argument for every parameter besides k of a public function taking k
K_COMPANIONS = {
    "surface": K3Surface(50),
    "v": MukaiVector(3, 1, 8),
    "ext_on_X": GradedDims((1, 4, 1)),
    "c": ProductClass(-1),
    "rank": 1,
}
TAKES_K = [
    function
    for path in SOURCES
    if not path.stem.startswith("_")
    for name, function in vars(importlib.import_module(f"hilbstab.{path.stem}")).items()
    if not name.startswith("_")
    and inspect.isfunction(function)
    and function.__module__ == f"hilbstab.{path.stem}"
    and "k" in inspect.signature(function).parameters
]


@pytest.mark.parametrize("k", [2.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("function", TAKES_K, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_every_function_taking_k_refuses_a_float_or_bool(function, k):
    names = inspect.signature(function).parameters
    args = [k if name == "k" else K_COMPANIONS[name] for name in names]
    message = f"^k must be a positive integer, got {re.escape(str(k))}$"
    with pytest.raises(ValueError, match=message):
        function(*args)
