"""Every name a package module imports is used in that module, and every public name is used.

The package has no linter; these checks keep imports from outliving the code
that used them when code moves between modules, and keep public helpers
from outliving their callers. ``__init__.py`` is exempt from the first,
since it imports names to re-export them.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import typing
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


# a backticked dotted name in the README, such as `haar.form_monte_carlo`
README_REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")
# a Sphinx role in a docstring, such as :func:`haar.form_monte_carlo` or :attr:`~Protocol.gram`
ROLE_TARGET = re.compile(r":(?:func|attr|class|data|meth):`~?([\w.]+)`")
PACKAGE_MODULES = {
    Path(m).stem: importlib.import_module(f"teleportsim.{Path(m).stem}") for m in MODULES
}


def resolve(obj, dotted: str) -> bool:
    """Whether each part of ``dotted`` is an attribute of the last, a dataclass field counting."""
    for part in dotted.split("."):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = typing.get_type_hints(obj)[part]
        else:
            return False
    return True


def test_resolve_reads_attributes_and_fields():
    assert resolve(teleportsim, "haar.form_monte_carlo")
    assert resolve(teleportsim, "Protocol.corrections.stack")
    assert not resolve(teleportsim, "Protocol.nothing")


def test_every_package_reference_in_the_readme_resolves():
    refs = set(README_REFERENCE.findall((ROOT / "README.md").read_text()))
    unresolved = []
    for ref in sorted(refs):
        head, rest = ref.split(".", 1)
        if rest == "py":  # a file name, such as cli.py
            continue
        if head == "teleportsim":
            ok = resolve(teleportsim, rest)
        # a capitalized head names a class, and only the package's classes are cited
        elif head in PACKAGE_MODULES or head in teleportsim.__all__ or head[0].isupper():
            ok = resolve(teleportsim, ref)
        else:  # np., json. and other heads outside the package
            continue
        if not ok:
            unresolved.append(ref)
    assert unresolved == []


def docstring_targets(module):
    """(target, cls) of every role in the module's docstrings, cls the class whose docstring holds it."""
    tree = ast.parse(inspect.getsource(module))
    found = []

    def visit(node, cls):
        doc = ast.get_docstring(node, clean=False) or ""
        found.extend((target, cls) for target in ROLE_TARGET.findall(doc))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, getattr(cls or module, child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)

    visit(tree, None)
    return found


@pytest.mark.parametrize("name", sorted(PACKAGE_MODULES))
def test_every_docstring_reference_resolves(name):
    module = PACKAGE_MODULES[name]
    targets = docstring_targets(module)
    # every role in the source sits in a docstring, so none escapes the check
    assert len(targets) == len(ROLE_TARGET.findall(inspect.getsource(module)))
    unresolved = [
        target for target, cls in targets
        if not (resolve(module, target) or resolve(teleportsim, target)
                or (cls is not None and resolve(cls, target)))
    ]
    assert unresolved == []
