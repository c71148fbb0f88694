"""Every function that bench/tracer.py wraps must exist in the package, and
it or its class must be in the module's `__all__`.

The tracer resolves SPANS by name when a traced run starts, so a renamed or
deleted function would only fail there.  SPANS is read with `ast`; the
benchmark is not run or imported.
"""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def _spans():
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS assignment in bench/tracer.py")


def test_every_traced_function_resolves():
    spans = _spans()
    assert spans
    for name, layer, path in spans:
        module = importlib.import_module(f"obstruct.{layer}")
        if "." in path:
            # methods are wrapped in their class's own namespace
            cls_name, meth = path.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, path, None)), name
        assert path.split(".")[0] in module.__all__, name
