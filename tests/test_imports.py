"""Every name a package module imports is used in that module, and every public name is used.

The package has no linter; these checks keep imports from outliving the code
that used them when code moves between modules, and keep public helpers
from outliving their callers. ``__init__.py`` is exempt from the first,
since it imports names to re-export them.
"""

import ast
import re
from pathlib import Path

import pytest

import teleportsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teleportsim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the code outside the tests that may use a public name
NON_TEST_CODE = [
    *(PACKAGE / m for m in MODULES), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")
]


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


def read_names(source: str) -> set[str]:
    """Names that ``source`` reads, bare (``f``) or as an attribute (``ts.f``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_read_names_counts_reads_only():
    source = "import ts\ndef f(): pass\nx = ts.g(h)\nts.k = 1\n"
    assert read_names(source) == {"ts", "g", "h"}


def test_every_public_name_is_used_outside_the_tests_or_documented():
    read = set().union(*(read_names(path.read_text()) for path in NON_TEST_CODE))
    readme = (ROOT / "README.md").read_text()
    unused = [
        name for name in teleportsim.__all__
        if name not in read and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []
