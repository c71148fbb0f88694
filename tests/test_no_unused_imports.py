"""Every imported name is read by the module that imports it.

An `ast` scan of the package and of the tests: a name bound by `import` or
`from ... import` (at any level, function-local imports included) must be
read somewhere in the same module, as a bare name or as the root of an
attribute chain.  `from __future__` imports are exempt: they change how
the module compiles and are never read."""

import ast
import pathlib

import obstruct

TESTS = pathlib.Path(__file__).parent
PACKAGE = pathlib.Path(obstruct.__file__).parent


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scanner_flags_an_unread_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom a import b, c as d\n"
                     "def f():\n    from e import g\n    return b + os.sep\n")
    assert _unused_imports(tree) == [(3, "d"), (5, "g")]


def test_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 2
    found = [
        f"{path.name}:{line} {name}"
        for path in files
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"imported names never read: {found}"
