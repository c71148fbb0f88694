"""`python -O` strips assert statements, so a check that decides a verdict
must raise a real error; the package holds no assert statement at all."""

import ast
import pathlib

import obstruct


def test_package_has_no_assert_statements():
    root = pathlib.Path(obstruct.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in obstruct: {found}"
