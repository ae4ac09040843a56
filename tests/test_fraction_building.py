import ast
from pathlib import Path

import pytest

import cubespec

SOURCES = sorted(Path(cubespec.__file__).parent.glob("*.py"))
# the one place that turns a table into Fractions, one per distinct value
ALLOWED = {"_fractions"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_fraction(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "Fraction"


def per_entry_fractions(tree, function=None):
    """(line, function) for each Fraction built once per entry of a table.

    That is a Fraction(...) call inside a comprehension or generator
    expression, or map(Fraction, ...), outside the functions in ALLOWED.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from per_entry_fractions(node, node.name)
        elif isinstance(node, COMPREHENSIONS):
            if function not in ALLOWED:
                yield from ((call.lineno, function) for call in ast.walk(node)
                            if isinstance(call, ast.Call) and _is_fraction(call.func))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "map"
              and node.args and _is_fraction(node.args[0]) and function not in ALLOWED):
            yield node.lineno, function
            yield from per_entry_fractions(node, function)
        else:
            yield from per_entry_fractions(node, function)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_tables_become_fractions_in_one_place(path):
    assert list(per_entry_fractions(ast.parse(path.read_text()))) == []


def test_the_check_catches_each_kind():
    source = """
ONE = Fraction(1)
TABLE = [Fraction(c) for c in range(4)]
def f(ints, d):
    lead = Fraction(ints[0], d)
    pairs = {c: Fraction(c, d) for c in ints}
    return tuple(map(Fraction, ints)), sum(Fraction(c) for c in ints), lead
class A:
    def g(self, ints):
        return {Fraction(c) for c in ints if c}
def _fractions(ints, d):
    value = {c: Fraction(c, d) for c in set(ints)}
    def inner(xs):
        return [Fraction(x) for x in xs]
    return value, inner
"""
    assert list(per_entry_fractions(ast.parse(source))) == [
        (3, None), (6, "f"), (7, "f"), (7, "f"), (10, "g"), (14, "inner")]
