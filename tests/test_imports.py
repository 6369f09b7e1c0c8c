"""``pyproject.toml`` declares ``dependencies = []``: hold ``src/repro`` to it."""

import ast
import sys
from pathlib import Path

import repro


def test_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"repro"}
    foreign = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert not foreign, foreign
