"""Every name the benchmark imports from the package must exist and be
declared.

bench/*.py import functions such as `unit_image_under` and `xk_invariant`
from `obstruct.*`, and reach others through an imported module, such as
`graphs.unit_compare`; a renamed or deleted one would only fail when the
benchmark runs.  Each must also be in its module's `__all__`, so that no
cleanup of undeclared names can remove it.  The files are read with `ast`;
the benchmark is not run or imported.
"""

import ast
import importlib
import inspect
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _resolve(module, name):
    """The attribute `name` of `module`, or its submodule of that name."""
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module.__name__}.{name}")


def _bench_references(tree):
    """(line, module, name) for every name imported from obstruct.*, and
    for every attribute read from a submodule bound by `from obstruct
    import ...` (the package itself defines nothing else)."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "obstruct":
            for alias in node.names:
                yield node.lineno, node.module, alias.name
                if node.module == "obstruct":
                    modules[alias.asname or alias.name] = f"obstruct.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "obstruct":
                    yield node.lineno, alias.name, None
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield node.lineno, modules[node.value.id], node.attr


def test_scanner_reads_imports_and_module_attributes():
    tree = ast.parse("from obstruct import graphs\nfrom obstruct.intlinalg import IntMatrix\n"
                     "import obstruct.laurent\nimport os\ngraphs.unit_compare(os.sep)\n")
    assert list(_bench_references(tree)) == [
        (1, "obstruct", "graphs"), (2, "obstruct.intlinalg", "IntMatrix"),
        (3, "obstruct.laurent", None), (5, "obstruct.graphs", "unit_compare")]


def test_every_name_the_benchmark_imports_resolves():
    files = sorted(BENCH.glob("*.py"))
    assert files
    missing, undeclared, found = [], [], 0
    for path in files:
        for line, module, name in _bench_references(ast.parse(path.read_text(), str(path))):
            found += 1
            try:
                target = importlib.import_module(module)
                if name is not None and not inspect.ismodule(_resolve(target, name)) \
                        and name not in target.__all__:
                    undeclared.append(f"{path.name}:{line} {module}.{name}")
            except (ImportError, AttributeError):
                missing.append(f"{path.name}:{line} {module}.{name or ''}")
    assert found and not missing, f"unresolved names in bench/: {missing}"
    assert not undeclared, f"names bench/ reads that are not in __all__: {undeclared}"
