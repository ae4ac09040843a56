import ast
import re
from pathlib import Path

import pytest

import cubespec
from cubespec.functions import _check_int

PACKAGE = Path(cubespec.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
# the int rule itself, and the exact-rational value checks, which also admit Fraction
ALLOWED = {"functions.py": {"_check_int", "as_fraction", "VertexFunction.__init__"}}


def _is_int(node) -> bool:
    """True for the name int, or a tuple literal holding it."""
    if isinstance(node, ast.Tuple):
        return any(map(_is_int, node.elts))
    return isinstance(node, ast.Name) and node.id == "int"


def int_checks(tree, scope=""):
    """(scope, line) for each type(...) compared with int and each isinstance(..., int).

    scope is the dotted name of the enclosing classes and functions, "" at
    module level.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from int_checks(node, f"{scope}.{node.name}" if scope else node.name)
            continue
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                and any(map(_is_int, node.comparators))):
            yield scope, node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2 and _is_int(node.args[1])):
            yield scope, node.lineno
        yield from int_checks(node, scope)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_int_arguments_are_checked_by_the_one_helper(path):
    # every int argument goes through functions._check_int, so the rule is written once
    allowed = ALLOWED.get(path.name, set())
    found = [(scope, line) for scope, line in int_checks(ast.parse(path.read_text()))
             if scope not in allowed]
    assert found == []


def test_every_allowed_check_still_exists():
    tree = ast.parse((PACKAGE / "functions.py").read_text())
    assert {scope for scope, _ in int_checks(tree)} == ALLOWED["functions.py"]


def test_the_check_catches_a_hand_written_int_test():
    source = """
def restrict(f, r: int) -> int:
    if type(r) is not int or r < 1:
        raise ValueError
    return int(r)
class Pair:
    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError
        if type(self.n) in (bool, int) or type(self.n) == int:
            raise ValueError
FLAG = type(0) is int
def fine(v: int, kind=int) -> bool:
    return isinstance(v, str) or type(v) is bool or isinstance(v, kind)
"""
    assert list(int_checks(ast.parse(source))) == [
        ("restrict", 3), ("Pair.__post_init__", 8), ("Pair.__post_init__", 10),
        ("Pair.__post_init__", 10), ("", 12),
    ]


@pytest.mark.parametrize("lo, hi, bound", [
    (0, None, " >= 0"), (1, 3, " in [1, 3]"), (None, 3, " <= 3"), (None, None, ""),
])
def test_the_message_names_the_bound_it_applies(lo, hi, bound):
    for value in ["2", 4 if hi is not None else -1 if lo is not None else True]:
        with pytest.raises(ValueError, match=f"^x must be an int{re.escape(bound)}, got {re.escape(repr(value))}$"):
            _check_int("x", value, lo, hi)
    _check_int("x", 2, lo, hi)
