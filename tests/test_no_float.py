"""No float enters the package: every module under src/slopewalk parses
without a float literal, a call to float, `import math`, or a name from math
other than the integer functions gcd, lcm and isqrt."""

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
