"""Per-layer tracing of the obstruct package, applied from outside.

`Tracer.installed()` wraps the public functions listed in SPANS under every
`obstruct.*` module attribute that binds them, because `from .intlinalg
import solve` copies the binding into each importing module, and function
local imports (`from .quiver import ext2_compatible`) read the defining
module's attribute at call time.  Methods are wrapped on their class.  Every
binding is restored when the context exits.

Spans (name, start, end, parent, operation id) are kept in flat arrays and
reduced to per-layer metrics once the run ends: self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (span name, defining module, function or Class.method) wrapped by the tracer
SPANS = [
    ("intlinalg.smith_normal_form", "intlinalg", "smith_normal_form"),
    ("intlinalg.solve", "intlinalg", "solve"),
    ("intlinalg.kernel_basis", "intlinalg", "kernel_basis"),
    ("intlinalg.matrix_rank", "intlinalg", "matrix_rank"),
    ("intlinalg.is_unimodular", "intlinalg", "is_unimodular"),
    ("abelian.hom_z", "abelian", "hom_z"),
    ("abelian.ext1_z", "abelian", "ext1_z"),
    ("abelian.homology_at", "abelian", "homology_at"),
    ("abelian.eventual_image", "abelian", "eventual_image"),
    ("abelian.torsion_subgroup", "abelian", "torsion_subgroup"),
    ("posets.isomorphisms", "posets", "FinitePoset.isomorphisms"),
    ("quiver.resolve_projective", "quiver", "resolve_projective"),
    ("quiver.HomComplex.build", "quiver", "HomComplex.build"),
    ("quiver.yoneda_class", "quiver", "yoneda_class"),
    ("quiver.ext_poset", "quiver", "ext_poset"),
    ("quiver.rep_iso_bounded_multi", "quiver", "rep_iso_bounded_multi"),
    ("quiver.ext2_compatible", "quiver", "ext2_compatible"),
    ("graphs.hereditary_saturated", "graphs", "hereditary_saturated"),
    ("graphs.xk_invariant", "graphs", "xk_invariant"),
    ("graphs.compare_graph_invariants", "graphs", "compare_graph_invariants"),
    ("graphs.unit_compare", "graphs", "unit_compare"),
    ("graphs.unit_image_under", "graphs", "unit_image_under"),
    ("laurent.ext_r_fg", "laurent", "ext_r_fg"),
    ("laurent.ext2_block", "laurent", "ext2_block"),
    ("laurent.pair_iso", "laurent", "pair_iso"),
    ("laurent.count_liftings", "laurent", "count_liftings"),
    ("shifteq.distinguishing_invariant", "shifteq", "distinguishing_invariant"),
    ("shifteq.verify_shift_equivalence", "shifteq", "verify_shift_equivalence"),
    ("shifteq.shift_equivalent", "shifteq", "shift_equivalent"),
]

ROOT = "op"


def _max_bits(m):
    return max((abs(e).bit_length() for row in m.data for e in row), default=0)


class Tracer:
    """Span recorder plus the counters that need a call's arguments or result."""

    def __init__(self):
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.stack = []
        self.recording = False
        self.op_id = -1
        self.counts = {}

    # -- spans --------------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def parent_name(self):
        return self.names[self.span_name[self.stack[-1]]] if self.stack else None

    @contextlib.contextmanager
    def operation(self, op_id):
        """Record one closed-loop operation under a root span."""
        self.op_id = op_id
        self.recording = True
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.recording = False

    def bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def raise_to(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, binder):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, binder, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the SPANS functions; restore all on exit."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("obstruct.") and mod is not None}
        saved = []
        try:
            for name, layer, path in SPANS:
                home = modules["obstruct." + layer]
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    saved.append((cls, meth, raw))
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, layer)))
                    else:
                        setattr(cls, meth, self._wrap(name, raw, layer))
                    continue
                fn = getattr(home, path)
                for mod_name, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            saved.append((mod, attr, value))
                            setattr(mod, attr, self._wrap(name, fn, mod_name.split(".")[-1]))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- reduction ----------------------------------------------------------

    def layer_totals(self):
        """{span name: (calls, self seconds)} from the span tree."""
        n = len(self.span_name)
        child = [0.0] * n
        ends, starts, parents = self.span_end, self.span_start, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}


# -- observers: counters read from a call's arguments and result ----------------


def _obs_snf(tracer, binder, args, result):
    a = args[0]
    tracer.bump("intlinalg.smith_normal_form.cells", a.rows * a.cols)
    tracer.raise_to("intlinalg.smith_normal_form.max_bits", max(_max_bits(result.U), _max_bits(result.V)))


def _obs_solve(tracer, binder, args, result):
    if binder == "shifteq" and tracer.parent_name() == "shifteq.shift_equivalent":
        tracer.bump("shifteq.solve.calls")
        if result is not None:
            tracer.bump("shifteq.solve.hits")


def _obs_isomorphisms(tracer, binder, args, result):
    if result:
        tracer.bump("posets.isomorphisms.found")


def _obs_rep_iso(tracer, binder, args, result):
    if result.verdict == "unknown":
        tracer.bump("quiver.rep_iso_bounded_multi.unknown")


def _obs_ext2_compatible(tracer, binder, args, result):
    if result:
        tracer.bump("quiver.ext2_compatible.accepted")


def _obs_graph_verdict(tracer, binder, args, result):
    if tracer.parent_name() == ROOT and result.verdict == "no":
        tracer.bump(f"graphs.verdict_layer.{result.layer}")


OBSERVERS = {
    "intlinalg.smith_normal_form": _obs_snf,
    "intlinalg.solve": _obs_solve,
    "posets.isomorphisms": _obs_isomorphisms,
    "quiver.rep_iso_bounded_multi": _obs_rep_iso,
    "quiver.ext2_compatible": _obs_ext2_compatible,
    "graphs.compare_graph_invariants": _obs_graph_verdict,
    "graphs.unit_compare": _obs_graph_verdict,
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, overhead):
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    totals = tracer.layer_totals()
    counts = tracer.counts
    out = {}

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def both(*names):
        for name in names:
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self_s(name), "s")

    both("intlinalg.smith_normal_form")
    out["intlinalg.smith_normal_form.cells"] = (counts.get("intlinalg.smith_normal_form.cells", 0), "count")
    out["intlinalg.smith_normal_form.max_bits"] = (counts.get("intlinalg.smith_normal_form.max_bits", 0), "bits")
    both("intlinalg.solve")
    out["intlinalg.kernel_basis.calls"] = (calls("intlinalg.kernel_basis"), "count")
    out["intlinalg.diag_only.calls"] = (calls("intlinalg.matrix_rank") + calls("intlinalg.is_unimodular"), "count")
    both("abelian.hom_z", "abelian.ext1_z", "abelian.homology_at", "abelian.eventual_image",
         "abelian.torsion_subgroup")
    both("posets.isomorphisms")
    out["posets.isomorphisms.found"] = (counts.get("posets.isomorphisms.found", 0), "count")
    both("quiver.resolve_projective", "quiver.HomComplex.build", "quiver.yoneda_class", "quiver.ext_poset",
         "quiver.rep_iso_bounded_multi")
    out["quiver.rep_iso_bounded_multi.unknown_share"] = (
        _ratio(counts.get("quiver.rep_iso_bounded_multi.unknown", 0), calls("quiver.rep_iso_bounded_multi")), "ratio")
    both("quiver.ext2_compatible")
    out["quiver.ext2_compatible.accept_ratio"] = (
        _ratio(counts.get("quiver.ext2_compatible.accepted", 0), calls("quiver.ext2_compatible")), "ratio")
    both("graphs.hereditary_saturated", "graphs.xk_invariant", "graphs.compare_graph_invariants",
         "graphs.unit_compare")
    out["graphs.unit_image_under.calls"] = (calls("graphs.unit_image_under"), "count")
    for layer in ("poset", "module", "class"):
        out[f"graphs.verdict_layer.{layer}"] = (counts.get(f"graphs.verdict_layer.{layer}", 0), "count")
    both("laurent.ext_r_fg", "laurent.ext2_block", "laurent.pair_iso", "laurent.count_liftings")
    both("shifteq.distinguishing_invariant")
    out["shifteq.solve.calls"] = (counts.get("shifteq.solve.calls", 0), "count")
    out["shifteq.solve.hit_ratio"] = (
        _ratio(counts.get("shifteq.solve.hits", 0), counts.get("shifteq.solve.calls", 0)), "ratio")
    out["shifteq.verify_shift_equivalence.calls"] = (calls("shifteq.verify_shift_equivalence"), "count")
    out["shifteq.shift_equivalent.self_s"] = (self_s("shifteq.shift_equivalent"), "s")
    out["trace.overhead"] = (overhead, "ratio")
    return out
