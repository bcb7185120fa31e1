"""Rules every module under src/slopewalk keeps, checked on its syntax tree.

No float enters the package: no float literal, call to float, `import math`,
or name from math other than the integer functions gcd, lcm and isqrt. No
assert statement either, since `python -O` strips them, so no check may
depend on one; a line-based search misses `if x: assert y`, the tree does
not."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "slopewalk").glob("*.py"))
MATH_NAMES = {"gcd", "lcm", "isqrt"}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"line {node.lineno}: call to float")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"line {node.lineno}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: math.{a.name}" for a in node.names
                      if a.name not in MATH_NAMES]
    return found


def assert_uses(tree: ast.AST) -> list[str]:
    return [f"line {node.lineno}: assert" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_sources_are_found():
    assert {"padic.py", "linalg.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float_in_the_package(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "x = 0.5",
        "y = float(3)",
        "import math",
        "import os, math as m",
        "from math import ceil",
        "from math import gcd, log2",
        "from math import *",
    ],
)
def test_each_float_use_is_caught(snippet):
    assert float_uses(ast.parse(snippet)) != []


def test_integer_math_is_allowed():
    assert float_uses(ast.parse("from math import gcd, isqrt, lcm\nx = 7 // 2")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_in_the_package(path):
    assert assert_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "assert x",
        "if x: assert y",
        "x = 1; assert x, 'message'",
        "def f():\n    while True:\n        assert f",
        "class C:\n    def m(self):\n        assert (self)",
    ],
)
def test_each_assert_is_caught(snippet):
    assert assert_uses(ast.parse(snippet)) != []


def test_the_word_assert_elsewhere_is_allowed():
    assert assert_uses(ast.parse("asserted = 'assert x'  # assert y\nraise AssertionError")) == []
