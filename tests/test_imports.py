"""Every name a package module imports is used in that module.

The package has no linter; this check keeps imports from outliving the code
that used them when code moves between modules. ``__init__.py`` is exempt,
since it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "teleportsim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
