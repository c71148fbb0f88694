"""The benchmark's operations and checks give the same verdicts under -O.

`python -O` strips `assert` statements, so every check a verdict or a
benchmark result rests on must raise a real error.  A `python -O`
subprocess runs the first operations of each workload's seed-1 pool
through `op.run` and `op.check` (bench/check.py raises `CheckFailed`, not
`AssertionError`), and the digest of their full outcome records
(`support.outcome_record`) must equal that of the same operations run in
this process.  Ext^2 is zero on every pool operation, so the same
subprocess also compares the relabel pair of `NONZERO_DELTA`, whose
obstruction class is nonzero and whose witness reaches the comparison
lifts of `yoneda_class` and `ext2_compatible`.

The digests of the first 120 operations of each seed-1 pool are also
pinned to constants, so that a change to the code which moves any outcome
(a group's presentation, a basis representative, a witness) fails here.  A
change that moves outcomes on purpose updates the constants and says why.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from obstruct.graphs import unit_compare, xk_invariant
from obstruct.quiver import Ext2Class, ext2_compatible, yoneda_class
from support import BENCH, ROOT, WORKLOADS, outcome_digest, outcome_record, pool_outcomes

BENCH_MODULES = ("check", "gen", "workloads")
OPS_PER_WORKLOAD = 40
PINNED_OPS = 120
PINNED_DIGESTS = {
    "ext-algebra": "cb13671cb4d69f58fed6b64cd7ce4e0a875f6761a8a82cc4489d3601cca5cf66",
    "graph-pairs": "7cb86824894fb074c718b2b706122a8a556fe926969f1ce543206e1528aa618c",
    "shift-eq": "07e40646f7d2e792b39d60ccf388534ebac991ca2ade7548dfc990047fa3b89a",
}


def run_ops(seed=1, limit=OPS_PER_WORKLOAD):
    """{workload: `outcome_digest` of the first `limit` ops of its pool},
    each op checked by bench/check.py.  A shift-eq `yes` with its lag moved
    must fail its check.  Needs bench/ on sys.path."""
    import check

    tampered = False

    def outcomes(name):
        nonlocal tampered
        for op, out in pool_outcomes(name, seed, limit):
            if name == "shift-eq" and out.verdict == "yes" and not tampered:
                with pytest.raises(check.CheckFailed):
                    op.check(dataclasses.replace(out, lag=out.lag + 1))
                tampered = True
            yield out

    digests = {name: outcome_digest(outcomes(name)) for name in WORKLOADS}
    if not tampered:
        raise RuntimeError("no shift-eq 'yes' to tamper with")
    return digests


def nonzero_delta_record():
    """The outcome record of `unit_compare` on the relabel pair of
    `NONZERO_DELTA`, checked by bench/check.py (ext2_compatible of the
    witness against `yoneda_class` of the pulled sequence), with the classes
    of both sequences and ext2_compatible of the witness against the pulled
    class and the zero class.  Needs bench/ on sys.path."""
    import check
    from test_graphs import NONZERO_DELTA, graph, relabelled, witness_classes

    e, h = graph(NONZERO_DELTA), relabelled(NONZERO_DELTA, (2, 0, 1))
    out = unit_compare(e, h)
    check.graph_outcome(e, h, out, unit=True, preserved=True)
    f0, delta, pulled, f1 = witness_classes(e, h, out)
    zero = Ext2Class(pulled.ambient, pulled.ambient.zero_class())
    return {"outcome": outcome_record(out),
            "classes": [list(yoneda_class(xk_invariant(g).sequence).coords) for g in (e, h)],
            "compatible": [ext2_compatible(f0, delta, c, f1) for c in (pulled, zero)]}


@pytest.fixture
def bench_on_path(monkeypatch):
    """bench/ on sys.path, and its modules dropped again afterwards."""
    saved = {n: sys.modules.pop(n) for n in BENCH_MODULES if n in sys.modules}
    monkeypatch.syspath_prepend(BENCH)
    yield
    for n in BENCH_MODULES:
        sys.modules.pop(n, None)
    sys.modules.update(saved)


def test_bench_ops_under_python_O(bench_on_path):
    script = ("import json, sys\n"
              "from test_optimized_mode import nonzero_delta_record, run_ops\n"
              "if not sys.flags.optimize:\n"
              "    raise SystemExit('not running under -O')\n"
              "print(json.dumps([run_ops(), nonzero_delta_record()]))\n")
    path = [os.path.join(ROOT, "src"), BENCH, os.path.join(ROOT, "tests"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    optimized, record = json.loads(out.stdout.splitlines()[-1])
    assert sorted(optimized) == list(WORKLOADS)
    assert optimized == run_ops()
    assert record["outcome"]["verdict"] == "yes" and record["compatible"] == [True, False]
    assert all(any(c) for c in record["classes"])
    assert record == nonzero_delta_record()


def test_pool_outcomes_keep_their_pinned_digests(bench_on_path):
    assert sorted(PINNED_DIGESTS) == list(WORKLOADS)
    for name, digest in PINNED_DIGESTS.items():
        outcomes = (out for _, out in pool_outcomes(name, 1, PINNED_OPS))
        assert outcome_digest(outcomes) == digest, name
