"""`python -O` strips assert statements, so a check that decides a verdict
must raise a real error; the package holds no assert statement at all, and
no `raise AssertionError` either, which would pass the same failure off as
a broken assert instead of a named error."""

import ast
import pathlib

import obstruct


def _is_assert(node):
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return False


def test_package_has_no_assert_statements():
    root = pathlib.Path(obstruct.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _is_assert(node)
    ]
    assert not found, f"assert statements in obstruct: {found}"
