import ast
from pathlib import Path

import pytest

import cubespec

SOURCES = sorted(Path(cubespec.__file__).parent.glob("*.py"))
EXACT_MATH = {"gcd", "lcm", "isqrt", "comb", "factorial"}


def float_uses(tree):
    """(line, what) for each float literal, float(...) call and inexact math function.

    Naming float is fine elsewhere: annotations and isinstance(value, float)
    rejections only refer to the type.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...) call"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"from math import {a.name}") for a in node.names
                        if a.name not in EXACT_MATH)
        elif isinstance(node, ast.Import):
            # an alias would hide math.<name> from the check above
            yield from ((node.lineno, f"import math as {a.asname}") for a in node.names
                        if a.name == "math" and a.asname)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_package_computes_without_floats(path):
    # Exactness is the package's contract: every value is an int or a Fraction.
    assert list(float_uses(ast.parse(path.read_text()))) == []


def test_the_check_catches_each_kind():
    source = """
x = 0.5
y = float(3)
z = math.sqrt(2)
w = math.gcd(4, 6) + math.isqrt(9) + math.factorial(5)
t = math.fsum([1, 2])
from math import log, comb
import math as m
def f(v: float) -> float:
    if isinstance(v, float):
        raise ValueError
"""
    found = [what for _, what in float_uses(ast.parse(source))]
    assert sorted(found) == sorted(["literal 0.5", "float(...) call", "math.sqrt", "math.fsum",
                                    "from math import log", "import math as m"])
