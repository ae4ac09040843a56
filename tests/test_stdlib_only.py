import ast
import sys
from pathlib import Path

import cubespec


def test_the_package_imports_only_the_standard_library():
    # cubespec promises to run on a bare Python install.
    sources = sorted(Path(cubespec.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"
