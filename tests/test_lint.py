"""No unused import, no unused function local and no uncalled definition in
the package.

A stdlib `ast` walk, so the check needs no linter.  An import counts as used
when its name is read anywhere in the module or listed in `__all__`; imports
from `__future__` are exempt.  A function local is a name bound by a plain
assignment (`x = ...`, `x: T = ...`) in a function body, and it counts as used
when the function, nested scopes included, reads it.  Unpacking targets, loop
variables and `_` are not checked.  A module-level function or class counts
as used when some module of the package reads its name, as a name or as an
attribute, or lists it in `__all__`; `KEEP` names the few that only readers
outside the package use.  A method other than a dunder counts as used on the
same terms.  Every string in an `__all__` must name something its module
defines, assigns or imports at top level.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wgl"

# Definitions read only from outside src/wgl, each with its reader.
KEEP = {
    "_floor2": "perfbench/tracer.py, the floor of invert_matrix",
    "ucirc_mul": "tests/test_quotient.py, the oracle for w_product on the relation "
                 "tables; perfbench/tracer.py wraps it by name",
}


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


def _reads(tree: ast.Module) -> set:
    """Names a module reads, as names or attributes, or lists in `__all__`."""
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return _loads(tree) | attrs | _exported(tree)


def _uncalled(trees: dict) -> list:
    """(module, line, name) of each module-level function or class of the
    module trees that none of them reads and KEEP does not name."""
    read = set().union(*map(_reads, trees.values()))
    return [(mod, node.lineno, node.name) for mod, tree in sorted(trees.items())
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read and node.name not in KEEP]


def _unread_methods(trees: dict) -> list:
    """(module, line, Class.method) of each method, dunders aside, of the
    classes of the module trees whose name none of them reads and KEEP does
    not name."""
    read = set().union(*map(_reads, trees.values()))
    return [(mod, fn.lineno, f"{cls.name}.{fn.name}")
            for mod, tree in sorted(trees.items())
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in read and fn.name not in KEEP]


def _bound(tree: ast.Module) -> set:
    """Names a module binds at top level: definitions, assignments, imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return out


def _stale_exports(trees: dict) -> list:
    """(module, name) of each `__all__` entry its module does not bind."""
    return [(mod, name) for mod, tree in sorted(trees.items())
            for name in sorted(_exported(tree) - _bound(tree))]


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def unused_names() -> list:
    """`file:line what` for every unused import and function local in SRC."""
    out = []
    for name, tree in _trees().items():
        for line, what in sorted(_unused_imports(tree) + _unused_locals(tree)):
            out.append(f"{name}:{line} {what}")
    return out


def test_no_unused_imports_or_locals():
    assert unused_names() == []


def test_every_definition_has_a_reader():
    assert _uncalled(_trees()) == []


def test_every_method_has_a_reader():
    assert _unread_methods(_trees()) == []


def test_every_export_is_bound():
    assert _stale_exports(_trees()) == []


def test_the_walk_sees_a_stale_export():
    trees = {name: ast.parse(text) for name, text in {
        "a.py": "import os.path\n"
                "from x import y as z\n"
                "__all__ = ['os', 'z', 'C', 'f', 'K', 'T', 'gone', 'y']\n"
                "K: int = 1\n"
                "T, (U, V) = 1, (2, 3)\n"
                "class C: pass\n"
                "def f():\n"
                "    inner = 1\n"
                "    return inner\n",
        "b.py": "__all__ = ['inner', 'method']\n"
                "class D:\n"
                "    def method(self): pass\n",
    }.items()}
    assert _stale_exports(trees) == [("a.py", "gone"), ("a.py", "y"),
                                     ("b.py", "inner"), ("b.py", "method")]


def test_the_walk_sees_an_uncalled_definition():
    trees = {name: ast.parse(text) for name, text in {
        "a.py": "__all__ = ['Listed']\n"
                "class Listed: pass\n"
                "def helper(): pass\n"
                "def orphan(): return helper()\n"
                "def _floor2(): pass\n",
        "b.py": "import a\n"
                "def method_only(): pass\n"
                "def caller(): return a.orphan\n"
                "class C:\n"
                "    def method_only(self): pass\n",
    }.items()}
    assert _uncalled(trees) == [("b.py", 2, "method_only"), ("b.py", 3, "caller"),
                                ("b.py", 4, "C")]


def test_the_walk_sees_an_unread_method():
    trees = {name: ast.parse(text) for name, text in {
        "a.py": "class A:\n"
                "    def __init__(self): self.used()\n"
                "    def used(self): pass\n"
                "    def orphan(self): pass\n"
                "    @property\n"
                "    def size(self): return 0\n"
                "    class Inner:\n"
                "        def deep(self): pass\n"
                "    def _floor2(self): pass\n",
        "b.py": "from a import A\n"
                "def f(): return A().size\n",
    }.items()}
    assert _unread_methods(trees) == [("a.py", 4, "A.orphan"), ("a.py", 8, "Inner.deep")]


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
