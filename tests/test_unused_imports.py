"""Every name a library module imports is used in that module.

The package `__init__` imports names to export them, so it is left out.
A name counts as used when the module reads it anywhere, in a quoted
annotation included.
"""

import ast
from pathlib import Path

import pytest

import polycenter

PACKAGE = Path(polycenter.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """name -> line of every binding an import statement makes."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    trees = [tree]
    for note in annotations(tree):
        for leaf in ast.walk(note) if note is not None else ():
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                trees.append(ast.parse(leaf.value, mode="eval"))
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"), module)
    unused = sorted(
        (line, name)
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    )
    assert unused == [], f"{module}: unused imports (line, name) {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n\ndef f(x: 'sep') -> None:\n    pass\n")
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["math", "path"]
