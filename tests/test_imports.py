"""Every import in src/nefsphere is read by its own module and stands at
module level, every function it defines is used by the program, every
field a class stores and every local a function stores is read, and no
module imports a standard-library module only for declaration sugar.

A name bound by an import must be read somewhere in the same module or be
re-exported, through its ``__all__`` or as ``import name as name``.  No
import stands inside a function, where a reader of the module's header
would miss it.  A function or method that is
not a dunder must be referenced somewhere in src/nefsphere outside its own
body, or be listed in an ``__all__``; code that only the tests call lives
in the tests.  A field, a ``self.X = ...`` target or a ``__slots__``
entry, must be loaded as ``.X`` somewhere in src/nefsphere or named in a
``getattr`` or ``hasattr`` call; data that only the tests read is built
by the tests.  A name that a function stores must be loaded somewhere in
that function, nested functions included; ``_`` is exempt.  These checks
go by name, so a method or field that shares
its name with another class's escapes them.  The source is read with the standard library's ``ast``, so
the checks need no linter.

``dataclasses`` would pull ``inspect``, ``ast``, ``dis``, ``tokenize`` and
more into every CLI process, and nothing else the CLI imports loads
``typing``; so the record classes are written out with ``__slots__`` or as
a ``tuple`` subclass.  A fresh interpreter checks that ``import
nefsphere.cli`` loads neither ``dataclasses`` nor ``inspect``, through any
module.
"""

import ast
import os
import subprocess
import sys
from collections import Counter

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "nefsphere")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def unused_imports(source):
    """The names the source imports but never reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname != alias.name:  # "as" itself re-exports
                    bound.append((node.lineno,
                                  alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for _, name in sorted(bound) if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_an_unread_import_is_found():
    source = ("import os\n"
              "from .polytope import convex_hull, dilate as grow\n"
              "from .polytope import intersect as intersect\n"
              "__all__ = ['os']\n"
              "def f():\n"
              "    from itertools import combinations\n"
              "    return grow\n")
    assert unused_imports(source) == ["convex_hull", "combinations"]


def function_local_imports(source):
    """(line, name) of every import made inside a function, in source
    order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    out.extend((inner.lineno, alias.asname or alias.name)
                               for alias in inner.names)
    return sorted(set(out))


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    with open(os.path.join(SRC, module)) as fh:
        assert function_local_imports(fh.read()) == []


def test_a_function_local_import_is_found():
    source = ("import os\n"
              "from .polytope import dilate\n"
              "class C:\n"
              "    def m(self):\n"
              "        import math\n"
              "        return math, os\n"
              "def f():\n"
              "    def g():\n"
              "        from .linalg import dot as inner_dot\n"
              "        return inner_dot\n"
              "    return g, dilate\n")
    assert function_local_imports(source) == [(5, "math"),
                                              (9, "inner_dot")]


def _references(tree):
    """The names a tree references: Name ids, Attribute names, the original
    names of ``from ... import name as alias``, and ``__all__`` entries."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


def unused_definitions(sources):
    """The (module, name) of every non-dunder function or method in
    `sources` (module -> source) that nothing references outside its own
    body, in module and source order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = Counter()
    for tree in trees.values():
        referenced.update(_references(tree))
    unused = []
    for module, tree in sorted(trees.items()):
        defs = sorted((node.lineno, node) for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
        for _, node in defs:
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if referenced[name] - _references(node)[name] == 0:
                unused.append((module, name))
    return unused


def test_every_definition_is_used():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    assert unused_definitions(sources) == []


def test_an_unused_definition_is_found():
    sources = {
        "a.py": ("from .b import used as alias\n"
                 "__all__ = ['exported']\n"
                 "def exported():\n"
                 "    return alias\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1)\n"
                 "class C:\n"
                 "    def __init__(self):\n"
                 "        self.called()\n"
                 "    def called(self):\n"
                 "        pass\n"
                 "    def method(self):\n"
                 "        def inner():\n"
                 "            pass\n"
                 "        return inner\n"),
        "b.py": ("def used():\n"
                 "    pass\n"
                 "def dead():\n"
                 "    return used\n"),
    }
    assert unused_definitions(sources) == [
        ("a.py", "recursive"), ("a.py", "method"), ("b.py", "dead")]


def unread_fields(sources):
    """The (class, field) of every field of a class in `sources` (module ->
    source) that nothing reads, in module and source order.  A field is a
    ``self.X = ...`` target or a ``__slots__`` entry (``__weakref__`` left
    out); it is read when some source loads ``.X`` or names "X" as a string
    constant in a ``getattr`` or ``hasattr`` call."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("getattr", "hasattr"):
                read.update(a.value for a in node.args
                            if isinstance(a, ast.Constant)
                            and isinstance(a.value, str))
    unread = []
    for module, tree in sorted(trees.items()):
        classes = sorted((node.lineno, node) for node in ast.walk(tree)
                         if isinstance(node, ast.ClassDef))
        for _, cls in classes:
            fields = {}  # name -> None, in source order
            assigns = sorted(((node.lineno, node.col_offset), node)
                             for node in ast.walk(cls)
                             if isinstance(node, ast.Assign))
            for _, node in assigns:
                for target in node.targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Attribute) and \
                                isinstance(t.value, ast.Name) and \
                                t.value.id == "self":
                            fields[t.attr] = None
                    if isinstance(target, ast.Name) and \
                            target.id == "__slots__":
                        fields.update(dict.fromkeys(
                            ast.literal_eval(node.value)))
            unread.extend((cls.name, name) for name in fields
                          if name != "__weakref__" and name not in read)
    return unread


# ConedSubdivision.marked is read by no stage, but the scan that fills it is
# subdivision's one call of linalg.dot, and bench/tests/test_bench.py still
# expects subdivision to bind dot.  The field goes with that expectation.
KNOWN_UNREAD = [("ConedSubdivision", "marked")]


def test_every_stored_field_is_read():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    assert unread_fields(sources) == KNOWN_UNREAD


def test_an_unread_field_is_found():
    sources = {
        "a.py": ("class Record:\n"
                 "    __slots__ = ('kept', 'dropped', '__weakref__')\n"
                 "    def __init__(self, kept, dropped):\n"
                 "        self.kept = kept\n"
                 "        self.dropped = dropped\n"
                 "class Tagged:\n"
                 "    def __init__(self):\n"
                 "        self.first, self.second = 1, 2\n"
                 "        self.stage = None\n"
                 "        self.count = 0\n"
                 "    def bump(self):\n"
                 "        self.count += 1\n"
                 "        self.later = self.first\n"),
        "b.py": ("from .a import Record, Tagged\n"
                 "def use(exc):\n"
                 "    t = Tagged()\n"
                 "    return Record(1, 2).kept, hasattr(exc, 'stage')\n"),
    }
    assert unread_fields(sources) == [
        ("Record", "dropped"), ("Tagged", "second"), ("Tagged", "count"),
        ("Tagged", "later")]


def unread_locals(source):
    """(function, name) for every name that a function stores as a plain
    ``Name`` and loads nowhere in its body, nested functions included, in
    source order of the first store; ``_`` is exempt."""
    found = {}
    funcs = sorted((node.lineno, node) for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)))
    for _, func in funcs:
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for n in sorted(names, key=lambda n: (n.lineno, n.col_offset)):
            if isinstance(n.ctx, ast.Store) and n.id != "_" and \
                    n.id not in loaded:
                found.setdefault((func.name, n.id), None)
    return list(found)


@pytest.mark.parametrize("module", MODULES)
def test_every_local_is_read(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unread_locals(fh.read()) == []


def test_an_unread_local_is_found():
    source = ("def f(rows):\n"
              "    out = []\n"
              "    kept, dropped = rows\n"
              "    for _, r in rows:\n"
              "        total = r\n"
              "        total += 1\n"
              "    def g():\n"
              "        inner = kept\n"
              "        return inner\n"
              "    return g, [0 for i in rows]\n"
              "class C:\n"
              "    def m(self):\n"
              "        self.x = seen = 1\n"
              "        return [seen]\n")
    assert unread_locals(source) == [("f", "out"), ("f", "dropped"),
                                     ("f", "total"), ("f", "i")]


SUGAR = ("dataclasses", "inspect", "typing")


def sugar_imports(source):
    """(line, module) of every absolute import of a SUGAR module, in source
    order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out.extend((node.lineno, name) for name in names
                   if name.split(".")[0] in SUGAR)
    return sorted(out)


@pytest.mark.parametrize("module", MODULES)
def test_no_declaration_sugar_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert sugar_imports(fh.read()) == []


def test_a_declaration_sugar_import_is_found():
    source = ("import os, inspect\n"
              "from dataclasses import dataclass\n"
              "from . import typing\n"
              "from .inspect import signature\n"
              "import typing as t\n"
              "def f():\n"
              "    import dataclasses.fields\n")
    assert sugar_imports(source) == [(1, "inspect"), (2, "dataclasses"),
                                     (5, "typing"), (7, "dataclasses.fields")]


def test_cli_import_loads_no_declaration_sugar():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import nefsphere.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "nefsphere.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
