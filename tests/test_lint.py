"""No unused import and no unused function local in the package.

A stdlib `ast` walk, so the check needs no linter.  An import counts as used
when its name is read anywhere in the module or listed in `__all__`; imports
from `__future__` are exempt.  A function local is a name bound by a plain
assignment (`x = ...`, `x: T = ...`) in a function body, and it counts as used
when the function, nested scopes included, reads it.  Unpacking targets, loop
variables and `_` are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wgl"


def _loads(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(tree: ast.Module) -> list:
    used = _loads(tree) | _exported(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, f"import {name}"))
    return out


def _assigned(fn: ast.AST) -> list:
    """(line, name) of the plain assignments in fn's own body."""
    out, todo = [], list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Assign):
            out += [(t.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and isinstance(node.target, ast.Name):
            out.append((node.lineno, node.target.id))
        todo.extend(ast.iter_child_nodes(node))
    return out


def _unused_locals(tree: ast.Module) -> list:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {name for node in ast.walk(fn)
                    if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        used = _loads(fn) | declared
        out += [(line, f"local {name} in {fn.name}") for line, name in _assigned(fn)
                if name != "_" and name not in used]
    return out


def unused_names() -> list:
    """`file:line what` for every unused import and function local in SRC."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for line, what in sorted(_unused_imports(tree) + _unused_locals(tree)):
            out.append(f"{path.name}:{line} {what}")
    return out


def test_no_unused_imports_or_locals():
    assert unused_names() == []


def test_the_walk_sees_an_unused_import_and_local():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "__all__ = ['exported']\n"
        "from x import exported\n"
        "def f(a):\n"
        "    pos = 1\n"
        "    kept = 2\n"
        "    i, j = a\n"
        "    def g():\n"
        "        return kept + sys.maxsize\n"
        "    return g\n")
    assert _unused_imports(tree) == [(2, "import os")]
    assert _unused_locals(tree) == [(6, "local pos in f")]
