import ast
from pathlib import Path

from cubespec import make_function
from conftest import random_rational_function
from oracles import naive_coefficient, naive_inverse_walsh, naive_level_projection, naive_walsh, weight


def test_oracles_import_only_the_value_type_from_the_library():
    # The oracles must share no code path with the library they check.
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "cubespec" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cubespec":
            imported |= {a.name for a in node.names}
    assert imported <= {"VertexFunction", "make_function"}


def test_single_level_oracles_match_the_full_double_sums(rng):
    # the sampled-level oracles against the full transforms at small n
    for n in range(5):
        f = random_rational_function(rng, n)
        fhat = naive_walsh(f)
        assert [naive_coefficient(f, u) for u in range(1 << n)] == list(fhat.values)
        for i in range(n + 1):
            masked = [c if weight(u) == i else 0 for u, c in enumerate(fhat.values)]
            assert naive_level_projection(f, i) == list(naive_inverse_walsh(make_function(n, masked)).values)
