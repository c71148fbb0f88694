"""Every private module-level function or class of the package is read by it.

An `ast` scan of `src/obstruct`: a function or class defined at module
level with a name starting with `_` must be read somewhere in the package,
as a bare name or as an attribute (`module._name`).  Reads from the tests
do not count, so a helper only the tests call shows up here.  The one
exception is `shifteq._eventual_invariant_general`, the general route the
tests check the closed-form invariant against."""

import ast
import pathlib

import obstruct

PACKAGE = pathlib.Path(obstruct.__file__).parent
ALLOWED = {"shifteq._eventual_invariant_general"}


def _unread_privates(trees):
    """Sorted `module._name` of the private module-level functions and
    classes of `trees` ({module: tree}) that no tree reads."""
    defined = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    ]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(name for name in defined if name.split(".", 1)[1] not in read)


def test_scanner_flags_an_unread_private():
    trees = {
        "a": ast.parse("def _called():\n    pass\n"
                       "def _unread():\n    pass\n"
                       "class _Imported:\n    pass\n"
                       "class Public:\n    def _method(self):\n        return _called()\n"),
        "b": ast.parse("from .a import _Imported\n"
                       "import a\n"
                       "def _by_attribute():\n    pass\n"
                       "x = _Imported()\n"
                       "def _stored():\n    pass\n"
                       "a._stored = None\n"),
        "c": ast.parse("from . import b\n"
                       "y = b._by_attribute\n"),
    }
    # a method is not module level; an attribute store is not a read
    assert _unread_privates(trees) == ["a._unread", "b._stored"]


def test_no_unused_privates():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) > 2
    assert set(_unread_privates(trees)) == ALLOWED
