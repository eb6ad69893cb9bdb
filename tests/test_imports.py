"""Every import in src/nefsphere is read by its own module.

A name bound by an import, at module level or inside a function, must be
read somewhere in the same module or be re-exported, through its
``__all__`` or as ``import name as name``.  The source is read with the standard library's ``ast``, so
the check needs no linter.
"""

import ast
import os

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
