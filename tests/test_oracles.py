import ast
from pathlib import Path


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
