"""Code that nothing calls leaves `src/`. Every function, class and constant
defined at the top level of a module in `src/polycenter` is read by
`src/` outside its own definition and outside the definitions of names
that nothing reads, named in `__all__`, or read by `perfbench/`; dunder
names are exempt. Code that only the tests run lives under `tests/`.

In `src/` a name is read where it appears as a plain name, an attribute or
an imported name. `perfbench/` reads `module.name` as an attribute of the
module, an import from it, or the string its tracer names a span with."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polycenter"


def _parsed(directory):
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def _definitions(tree):
    """(name, statement) for each function, class and constant the module
    defines at its top level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        yield node.id, stmt


def _read(node):
    """The names read anywhere in node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _benched(trees):
    """`module.name` for each name of the package the trees read."""
    names = set()
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                names.add(f"{sub.value.id}.{sub.attr}")
            elif isinstance(sub, ast.ImportFrom) and sub.module:
                names.update(f"{sub.module.rpartition('.')[2]}.{alias.name}" for alias in sub.names)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)
    return names


def _public(trees):
    """The names listed in `__all__` of every module that has one."""
    names = set()
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                names.update(ast.literal_eval(stmt.value))
    return names


def uncalled(src, perfbench):
    """`module.name` for each top-level name in the package at src that is
    not exempt and that no live statement of src reads, in the order
    defined. A statement is live until every name it defines is found
    uncalled, so a helper that only uncalled code reads is found too."""
    trees = _parsed(src)
    public, benched = _public(trees), _benched(_parsed(perfbench))
    owners = {}  # id of a defining statement -> `module.name` of each name it defines
    candidates = []
    for module, tree in trees.items():
        for name, stmt in _definitions(tree):
            key = f"{module[:-3]}.{name}"
            owners.setdefault(id(stmt), set()).add(key)
            if not (name.startswith("__") and name.endswith("__") or name in public
                    or key in benched):
                candidates.append((key, name, stmt))
    statements = [(stmt, _read(stmt)) for tree in trees.values() for stmt in tree.body]
    found = set()
    while True:
        live = [(stmt, read) for stmt, read in statements
                if id(stmt) not in owners or not owners[id(stmt)] <= found]
        new = {key for key, name, own in candidates if key not in found and not any(
            name in read for stmt, read in live if stmt is not own)}
        if not new:
            return [key for key, _, _ in candidates if key in found]
        found |= new


def test_every_top_level_name_in_src_has_a_caller():
    assert uncalled(SRC, ROOT / "perfbench") == []


def test_the_scan_finds_a_name_only_its_own_definition_reads(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "__init__.py").write_text('from .a import shown\n__all__ = ["shown"]\n')
    (pkg / "a.py").write_text(
        "LIMIT = 3\n_ALSO, _UNUSED = 1, 2\n\n"
        "def shown():\n    return _helper(LIMIT) + _ALSO\n\n"
        "def _helper(k):\n    return _helper(k - 1) if k else 0\n\n"
        "def _recursive(k):\n    return _recursive(k - 1) if k else _only_uncalled_read(k)\n\n"
        "def _only_uncalled_read(k):\n    return k\n\n"
        "def _traced():\n    pass\n\n"
        "class _Lonely:\n    def __repr__(self):\n        return '_Lonely'\n")
    (bench / "tracing.py").write_text(
        'from pkg import a\nWRAPPED = {"a._traced": a.shown, "b._Lonely": None}\n')
    assert uncalled(pkg, bench) == ["a._UNUSED", "a._recursive", "a._only_uncalled_read", "a._Lonely"]
