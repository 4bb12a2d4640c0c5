"""Package-wide guards: the library imports only the standard library, so
``dependencies = []`` stays true, and every public name resolves."""

import ast
import sys
from pathlib import Path

import subsetspace

SRC = Path(__file__).resolve().parents[1] / "src" / "subsetspace"


def test_stdlib_only_and_public_names_resolve():
    paths = sorted(SRC.glob("*.py"))
    assert "cli.py" in {p.name for p in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {module}"
    for name in subsetspace.__all__:
        assert getattr(subsetspace, name, None) is not None, name
