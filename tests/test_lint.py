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
defines, assigns or imports at top level.  The package adds no runtime
dependency: every import is relative, of `wgl`, or of the standard library
(`sys.stdlib_module_names`).  Every parameter default of a function or method
is overridden by some call in the package, passing that parameter by position
or keyword: a call by the function's name, by attribute for a method (after
`self`), or by class name for `__init__` (after `self`); a call with `*args`
or `**kwargs` may pass anything from there on.  `KEEP` names the defaults
that only callers outside the package override.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wgl"

# Definitions read only from outside src/wgl, each with its reader.
KEEP = {
    "_floor2": "perfbench/tracer.py, the floor of invert_matrix",
    "ucirc_mul": "tests/test_quotient.py, the oracle for w_product on the relation "
                 "tables; perfbench/tracer.py wraps it by name",
    "main(argv)": "tests/test_cli.py and perfbench/child.py pass argv; the console "
                  "script reads sys.argv",
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


def _foreign_imports(trees: dict) -> list:
    """(module, line, name) of each import that is neither relative, nor of
    `wgl`, nor of the standard library."""
    allowed = sys.stdlib_module_names | {"wgl"}
    out = []
    for mod, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            out += [(mod, node.lineno, name) for name in names
                    if name.split(".")[0] not in allowed]
    return out


def _overrides(call: ast.Call, skip: int, param: str, index) -> bool:
    """Whether call passes param, at positional index (None if keyword-only)
    of a signature whose first `skip` parameters the call does not spell."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None or index < skip:
        return False
    head = call.args[:index - skip + 1]
    return len(head) > index - skip or any(isinstance(a, ast.Starred) for a in head)


def _unused_defaults(trees: dict) -> list:
    """(module, line, "[Class.]function(param)") of each parameter default in
    the module trees that no call in them overrides and KEEP does not name."""
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    out = []
    for mod, tree in sorted(trees.items()):
        owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls, a = owner.get(id(fn)), fn.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            params = [(p.arg, i) for i, p in enumerate(pos[first:], first)]
            params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            # (calls that reach fn, the parameters those calls do not spell)
            ways = [([c for c in calls if isinstance(c.func, ast.Name)
                      and c.func.id == fn.name], 0),
                    ([c for c in calls if isinstance(c.func, ast.Attribute)
                      and c.func.attr == fn.name], 1 if cls else 0)]
            if fn.name == "__init__":
                ways.append(([c for c in calls if isinstance(c.func, ast.Name)
                              and c.func.id == cls], 1))
            for param, index in params:
                what = f"{cls + '.' if cls else ''}{fn.name}({param})"
                if what not in KEEP and not any(_overrides(c, skip, param, index)
                                                for cs, skip in ways for c in cs):
                    out.append((mod, fn.lineno, what))
    return out


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


def test_every_import_is_of_the_standard_library():
    assert _foreign_imports(_trees()) == []


def test_every_default_is_overridden():
    assert _unused_defaults(_trees()) == []


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


def test_the_walk_sees_a_foreign_import():
    trees = {name: ast.parse(text) for name, text in {
        "a.py": "from __future__ import annotations\n"
                "import os.path, numpy\n"
                "from . import b\n"
                "from .uea import Algebra\n"
                "from wgl.series import solve\n"
                "def f():\n"
                "    from hypothesis import given\n"
                "    import json\n",
        "b.py": "from collections import defaultdict\n"
                "import wglx\n",
    }.items()}
    assert _foreign_imports(trees) == [("a.py", 2, "numpy"), ("a.py", 7, "hypothesis"),
                                       ("b.py", 2, "wglx")]


def test_the_walk_sees_an_unused_default():
    trees = {name: ast.parse(text) for name, text in {
        "a.py": "def f(x, y=1, z=2, *, k=3, m=4): pass\n"
                "def g(x, y=1, z=2): pass\n"
                "def main(argv=None): pass\n"
                "class C:\n"
                "    def __init__(self, a, b=0, c=0): pass\n"
                "    def m(self, p=0, q=0): pass\n",
        "b.py": "from a import f, g, C\n"
                "f(1, 2, m=5)\n"
                "g(*args)\n"
                "C(1, 2).m(q=1)\n"
                "C.m(p=0)\n",
    }.items()}
    assert _unused_defaults(trees) == [
        ("a.py", 1, "f(z)"), ("a.py", 1, "f(k)"), ("a.py", 5, "C.__init__(c)")]
