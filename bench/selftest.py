"""Self-test of the benchmark itself (not collected by pytest).

    python3 bench/selftest.py

Runs every workload on a tiny pool and checks the output against the
metric lists in BENCHMARK.json, checks that tampered witnesses are counted
as errors, and checks that the traced run leaves every binding of the
obstruct package as it found it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from obstruct import graphs, laurent, posets, quiver, shifteq  # noqa: E402
from obstruct.abelian import FgAbGroup, GroupMorphism  # noqa: E402
from obstruct.intlinalg import IntMatrix  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "graph-pairs": [
        {"name": "relabel", "move": "relabel", "count": 1, "vertices": [3, 4], "blocks": [2, 2], "torsion_blocks": 1},
        {"name": "out_split", "move": "out_split", "count": 1, "vertices": [2, 3], "blocks": [1, 2], "torsion_blocks": 0},
        {"name": "in_split", "move": "in_split", "count": 1, "vertices": [2, 3], "blocks": [1, 2], "torsion_blocks": 0},
        {"name": "independent", "move": "independent", "count": 1, "vertices": [2, 4], "blocks": [1, 2], "torsion_blocks": 0},
    ],
    "shift-eq": [
        {"name": "conjugate", "kind": "conjugate", "count": 1, "n": 2, "max_entry": 2, "steps": 2},
        {"name": "same", "kind": "same_charpoly", "count": 1, "n": 2, "max_entry": 3, "draws": 100},
        {"name": "different", "kind": "different_charpoly", "count": 1, "n": 3, "max_entry": 3},
    ],
    "ext-algebra": [
        {"name": "ext2", "kind": "ext_poset", "count": 2, "degree": 2, "points": [2, 4], "edge_prob": 0.5, "summands": 2, "max_factor": 4},
        {"name": "liftings", "kind": "count_liftings", "count": 1, "gens": 2, "max_factor": 4, "ck_even": False},
        {"name": "liftings-ck", "kind": "count_liftings", "count": 1, "gens": 2, "max_factor": 4, "ck_even": True},
        {"name": "pair", "kind": "pair_iso", "count": 1, "partner": "self", "gens": 2, "max_factor": 4},
    ],
}


def _bench_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _spec_bounds(workload):
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)["workloads"][workload]["bounds"]


def _expect_failure(fn, *args):
    try:
        fn(*args)
    except check.CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted a tampered result")


def _schema(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = _bench_metrics(section)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), section)
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and set(v) == {"value", "unit"}


def test_workload_schemas():
    for workload, strata in TINY.items():
        ops = workloads.build_pool(workload, 7, strata, _spec_bounds(workload))
        probe = run.HostProbe()
        probe.sample()
        _schema(run.timed_run(ops, 0.0, 0.01, probe), "end_to_end")
        _schema(run.traced_run(ops), "per_layer")


def test_bypassed_layers_read_zero():
    expect_zero = {
        "ext-algebra": ("graphs.", "shifteq."),
        "shift-eq": ("graphs.", "quiver.", "laurent."),
        "graph-pairs": ("shifteq.", "laurent."),
    }
    for workload, prefixes in expect_zero.items():
        ops = workloads.build_pool(workload, 3, TINY[workload], _spec_bounds(workload))
        metrics = run.traced_run(ops)["metrics"]
        for name, m in metrics.items():
            if name.startswith(prefixes):
                assert m["value"] == 0, (workload, name, m["value"])


def test_tampered_shift_witness():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    b = IntMatrix.from_rows([[0, 1], [1, 1]])
    out = shifteq.shift_equivalent(a, b)
    assert out.verdict == "yes"
    check.shift_outcome(a, b, out, True)
    r = out.r.copy()
    r.data[0][0] += 1
    _expect_failure(check.shift_outcome, a, b, replace(out, r=r), True)
    _expect_failure(check.shift_outcome, a, b, shifteq.ShiftEqResult("no"), True)


def test_tampered_graph_witness():
    import random

    import gen

    rng = random.Random(5)
    g = gen.block_graph(rng, [2, 2], (1,))
    h = gen.relabel(rng, g)
    out = graphs.unit_compare(g, h)
    assert out.verdict == "yes"
    check.graph_outcome(g, h, out, True, True)
    f0, f1 = out.module_iso
    zero = quiver.RepMorphism.zero(f0.source, f0.target)
    _expect_failure(check.graph_outcome, g, h, replace(out, module_iso=(zero, f1)), True, True)
    no = graphs.CompareOutcome("no", layer="class")
    _expect_failure(check.graph_outcome, g, h, no, True, True)


def test_tampered_ext_results():
    poset = posets.sierpinski_poset()
    z2 = FgAbGroup.cyclic(2)
    v = quiver.QuiverRep(poset, {"a": z2, "b": z2},
                         {("b", "a"): GroupMorphism(z2, z2, IntMatrix.from_rows([[0]]))})
    w = quiver.QuiverRep(poset, {"a": z2, "b": z2},
                         {("b", "a"): GroupMorphism(z2, z2, IntMatrix.from_rows([[0]]))})
    check.ext_outcome(v, w, 2, quiver.ext_poset(v, w, 2))
    _expect_failure(check.ext_outcome, v, w, 2, SimpleNamespace(group=FgAbGroup.cyclic(7)))

    m = laurent.GradedRModule(even=laurent.RModuleFg(z2, GroupMorphism.identity(z2)),
                              odd=laurent.RModuleFg(z2, GroupMorphism.identity(z2)))
    check.liftings_outcome(m, laurent.count_liftings(m))
    _expect_failure(check.liftings_outcome, m, 3)

    z4 = FgAbGroup.cyclic(4)
    m4 = laurent.GradedRModule(even=laurent.RModuleFg(z4, GroupMorphism.identity(z4)),
                               odd=laurent.RModuleFg(z2, GroupMorphism.identity(z2)))
    p = laurent.PairDelta(m4, (0,), (0,))
    out = laurent.pair_iso(p, p)
    assert out.verdict == "yes"
    fe, fo = out.witness
    bad = replace(out, witness=(GroupMorphism.zero(z4, z4), fo))
    _expect_failure(check.pair_outcome, p, p, bad, True)


def test_failed_check_counts_as_error():
    def reject(result):
        raise check.CheckFailed("rejected on purpose")

    op = workloads.Op("probe", lambda: shifteq.ShiftEqResult("unknown"), reject, True)
    res = run.run_pass([op])
    assert res.failed == 1 and res.unknown == 1 and res.decisions == 1


def test_host_scale_uses_nearby_samples():
    probe = run.HostProbe()
    probe.times = [run.REFERENCE_S] * 10 + [2 * run.REFERENCE_S] * 10
    assert probe.scale(at=3) == 1.0
    assert probe.scale(at=17) == 0.5  # a host half as fast halves the times
    assert abs(probe.scale() - 2 / 3) < 1e-12  # median of all samples


def _bindings():
    """Every attribute of the obstruct modules and of the wrapped classes."""
    mods = {n: m for n, m in sys.modules.items() if n.startswith("obstruct.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    for cls in (posets.FinitePoset, quiver.HomComplex):
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snap


def test_traced_run_restores_bindings():
    before = _bindings()
    ops = workloads.build_pool("graph-pairs", 2, TINY["graph-pairs"][:1], _spec_bounds("graph-pairs"))
    run.traced_run(ops)
    tracer = Tracer()
    try:
        with tracer.installed():
            assert quiver.ext_poset is not before[("obstruct.quiver", "ext_poset")]
            raise RuntimeError("escape from the traced region")
    except RuntimeError:
        pass
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed, changed


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t()
        print(f"ok  {t.__name__}")
    print(f"{len(tests)} self-tests passed")


if __name__ == "__main__":
    main()
