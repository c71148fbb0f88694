"""Every module-level function or class, and every dataclass field, of the
package is declared or read.

An `ast` scan of `src/obstruct`, with five rules:

* a private function or class (name starting with `_`) must be read
  somewhere in the package, as a bare name or as an attribute
  (`module._name`).  The one exception is
  `shifteq._eventual_invariant_general`, the general route the tests check
  the closed-form invariant against;
* a public function or class must be named in its module's `__all__`, or
  be read in the package outside its own definition;
* every module that defines a function or class has an `__all__`, and
  each of its entries is a function, class or assignment of that module,
  not an import;
* an `__all__` entry that no file under `src/` or `bench/` reads outside
  its own definition is in `PUBLIC_ONLY`, with the reason it is public.
  A name that the SPANS of `bench/tracer.py` wrap counts as read;
* every field of a dataclass of the package is loaded as an attribute
  somewhere in `src/`, `tests/` or `bench/`.  Only the fields in
  `READ_BY_NAME` are exempt.

For functions and classes reads from the tests do not count, so a helper
only the tests call shows up here; such helpers live in
`tests/support.py`."""

import ast
import pathlib

import obstruct

PACKAGE = pathlib.Path(obstruct.__file__).parent
ROOT = PACKAGE.parent.parent
ALLOWED = {"shifteq._eventual_invariant_general"}
# fields read only by name, through getattr in tests/support.py's outcome record
READ_BY_NAME = {"abelian.SearchOutcome.reason", "graphs.CompareOutcome.reason"}
# declared names that only the tests call, with why each stays public
PUBLIC_ONLY = {
    "laurent.ext_r_pres": "Hom, Ext^1 and Ext^2 over Z[x, 1/x] for a canonical presentation",
    "posets.point_poset": "the one-point space, on which Ext^2 over Z vanishes",
    "posets.chain_poset": "the totally ordered spaces, unique path spaces of any length",
    "posets.antichain_poset": "the discrete spaces, whose incidence algebra is a product of Z",
    "posets.diamond_poset": "the smallest poset that is not a unique path space",
    "quiver.transport_class": "one Ext^2 class read against another resolution",
    "quiver.baer_sum": "the group law of Ext^2 on two-step extensions",
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(tree):
    """Names loaded in `tree`, as bare names or as attributes."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def _declared(tree):
    """The entries of the module's `__all__`, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _unread_privates(trees):
    """Sorted `module._name` of the private module-level functions and
    classes of `trees` ({module: tree}) that no tree reads."""
    defined = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFS) and node.name.startswith("_")
    ]
    read = set().union(*map(_names_read, trees.values()))
    return sorted(name for name in defined if name.split(".", 1)[1] not in read)


def _undeclared_publics(trees):
    """Sorted `module.name` of the public module-level functions and classes
    that are not in their module's `__all__` and that no other module-level
    statement of the package reads."""
    readers = [(node, _names_read(node)) for tree in trees.values() for node in tree.body]
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFS) and not node.name.startswith("_")
        and node.name not in (_declared(tree) or ())
        and not any(node.name in read for other, read in readers if other is not node)
    )


def _undefined_exports(trees):
    """Sorted `module.name` of the `__all__` entries that their module does
    not define, and `module.__all__` for a module that defines a function
    or class but has no `__all__`."""
    missing = []
    for module, tree in trees.items():
        declared = _declared(tree)
        if declared is None:
            if any(isinstance(node, DEFS) for node in tree.body):
                missing.append(f"{module}.__all__")
            continue
        defined = set()
        for node in tree.body:
            if isinstance(node, DEFS):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        missing.extend(f"{module}.{name}" for name in declared if name not in defined)
    return sorted(missing)


def _spanned(node):
    """The names a `SPANS = [(span, module, "name" or "Class.method"), ...]`
    statement wraps, as bench/tracer.py lists them; else none."""
    if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
        return {target.split(".")[0] for _, _, target in ast.literal_eval(node.value)}
    return set()


def _public_only(trees, readers):
    """Sorted `module.name` of the `__all__` entries of `trees` ({module:
    tree}) that no module-level statement of `readers` loads, other than
    the name's own definition, or wraps through SPANS."""
    statements = [(node, _names_read(node) | _spanned(node)) for tree in readers for node in tree.body]
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _declared(tree) or ()
        if not any(name in read for node, read in statements
                   if not (isinstance(node, DEFS) and node.name == name and node in tree.body))
    )


def _is_dataclass(node):
    """Is the class `node` decorated with `dataclass`, called or not, by
    bare name or as `dataclasses.dataclass`?"""
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", None) == "dataclass" or getattr(dec, "attr", None) == "dataclass":
            return True
    return False


def _unread_fields(trees, readers):
    """Sorted `module.Class.field` of the annotated fields of the module-level
    dataclasses of `trees` that no tree of `readers` loads as an attribute.
    A string naming a field, as getattr takes it, is not a read."""
    read = set()
    for tree in readers:
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return sorted(
        f"{module}.{node.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    )


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


def test_scanner_flags_an_undeclared_unread_public():
    trees = {
        "a": ast.parse("__all__ = ['entry']\n"
                       "def entry():\n    return helper()\n"
                       "def helper():\n    pass\n"
                       "def recursive(n):\n    return recursive(n - 1)\n"
                       "def unread():\n    pass\n"
                       "class Used:\n    def method(self):\n        pass\n"),
        "b": ast.parse("from .a import Used\n"
                       "__all__ = []\n"
                       "def stored():\n    pass\n"
                       "x = Used().method()\n"),
        "c": ast.parse("from . import b\n"
                       "b.stored = None\n"),
    }
    # reads by the name's own definition, and attribute stores, do not count
    assert _undeclared_publics(trees) == ["a.recursive", "a.unread", "b.stored"]


def test_scanner_flags_an_undefined_export():
    trees = {
        "a": ast.parse("from .b import g\n"
                       "__all__ = ['f', 'g', 'C', 'K', 'gone']\n"
                       "def f():\n    pass\n"
                       "class C:\n    pass\n"
                       "K = 1\n"),
        "b": ast.parse("def g():\n    pass\n"),
        "__init__": ast.parse(""),
    }
    # an imported name is not defined by the module that imports it
    assert _undefined_exports(trees) == ["a.g", "a.gone", "b.__all__"]


def test_scanner_flags_a_declared_name_only_its_definition_reads():
    trees = {
        "a": ast.parse("__all__ = ['used', 'spanned', 'Spanned', 'recursive', 'unread']\n"
                       "def used():\n    pass\n"
                       "def spanned():\n    pass\n"
                       "class Spanned:\n    def method(self):\n        pass\n"
                       "def recursive(n):\n    return recursive(n - 1)\n"
                       "def unread():\n    return 'unread'\n"),
        "b": ast.parse("__all__ = ['stored']\n"
                       "def stored():\n    pass\n"),
    }
    readers = [*trees.values(),
               ast.parse("from a import used, unread\n"
                         "import b\n"
                         "b.stored = used()\n"),
               ast.parse("SPANS = [('a.spanned', 'a', 'spanned'),\n"
                         "         ('a.method', 'a', 'Spanned.method')]\n")]
    # an import, a string, an attribute store and the name's own
    # definition are not reads; a SPANS entry is
    assert _public_only(trees, readers) == ["a.recursive", "a.unread", "b.stored"]


def test_scanner_flags_an_unread_dataclass_field():
    trees = {
        "a": ast.parse("import dataclasses\n"
                       "from dataclasses import dataclass, field\n"
                       "@dataclass\nclass A:\n    read: int\n    unread: int = 0\n"
                       "@dataclasses.dataclass(frozen=True)\nclass B:\n"
                       "    stored: int\n    by_name: int = field(default=0)\n"
                       "class Plain:\n    annotated: int\n"),
    }
    readers = [ast.parse("x = A(1).read\n"
                         "b = B(1)\n"
                         "b.stored = 2\n"
                         "y = getattr(b, 'by_name'), 'unread'\n")]
    # a store, a getattr by name and a string literal are not reads, and a
    # class that is not a dataclass has no fields to check
    assert _unread_fields(trees, readers) == ["a.A.unread", "a.B.by_name", "a.B.stored"]


def _package_trees():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) > 2
    return trees


def test_no_unused_privates():
    assert set(_unread_privates(_package_trees())) == ALLOWED


def test_every_public_name_is_declared_or_read():
    assert _undeclared_publics(_package_trees()) == []


def test_every_declared_name_is_defined():
    assert _undefined_exports(_package_trees()) == []


def test_every_declared_name_is_read_or_listed():
    trees = _package_trees()
    readers = [*trees.values(), *(ast.parse(path.read_text(), str(path))
                                  for path in sorted((ROOT / "bench").rglob("*.py")))]
    assert len(readers) > len(trees)
    assert _public_only(trees, readers) == sorted(PUBLIC_ONLY)


def test_every_dataclass_field_is_read():
    readers = [ast.parse(path.read_text(), str(path))
               for folder in ("src", "tests", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(readers) > 20
    assert set(_unread_fields(_package_trees(), readers)) == READ_BY_NAME
