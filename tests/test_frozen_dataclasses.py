import ast
from pathlib import Path

import pytest

import cubespec

SOURCES = sorted(Path(cubespec.__file__).parent.glob("*.py"))


def _is_dataclass(node):
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def _frozen(node):
    return isinstance(node, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in node.keywords)


def mutable_dataclasses(tree):
    """(line, class name) for each @dataclass class that does not pass frozen=True."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                if _is_dataclass(deco) and not _frozen(deco):
                    yield node.lineno, node.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    # Value objects are immutable after construction: a report or a function
    # handed out cannot be changed under its holder.
    assert list(mutable_dataclasses(ast.parse(path.read_text()))) == []


def test_the_check_catches_each_kind():
    source = """
@dataclass
class A: pass
@dataclass()
class B: pass
@dataclass(frozen=False)
class C: pass
@dataclasses.dataclass(order=True)
class D: pass
@dataclass(frozen=True)
class E: pass
@dataclasses.dataclass(frozen=True, order=True)
class F: pass
class G: pass
"""
    found = [name for _, name in mutable_dataclasses(ast.parse(source))]
    assert found == ["A", "B", "C", "D"]
