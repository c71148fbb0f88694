"""The benchmark's operations and checks give the same verdicts under -O.

`python -O` strips `assert` statements, so every check a verdict or a
benchmark result rests on must raise a real error.  A `python -O`
subprocess runs the first operations of each workload's seed-1 pool
through `op.run` and `op.check` (bench/check.py raises `CheckFailed`, not
`AssertionError`), and its digest of the outcomes must equal the digest of
the same operations run in this process.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
BENCH_MODULES = ("check", "gen", "workloads")
OPS_PER_WORKLOAD = 40


def _summary(out):
    """What an outcome decides: the verdict and the name of what decided
    it, the Ext group's invariant factors, or the lifting count."""
    if hasattr(out, "verdict"):
        return [out.verdict] + [getattr(out, k) for k in ("layer", "invariant", "lag")
                                if hasattr(out, k)]
    if hasattr(out, "group"):
        return out.group.invariant_factors
    return out


def run_ops(seed=1, limit=OPS_PER_WORKLOAD):
    """{workload: digest of the outcomes of the first `limit` ops of its
    pool}, each op checked by bench/check.py.  A shift-eq `yes` with its lag
    moved must fail its check.  Needs bench/ on sys.path."""
    import check
    import workloads

    with open(os.path.join(BENCH, "spec.json")) as fh:
        spec = json.load(fh)["workloads"]
    digests, tampered = {}, False
    for name, params in sorted(spec.items()):
        ops = workloads.build_pool(name, seed, params["strata"], params["bounds"])[:limit]
        h = hashlib.sha256()
        for op in ops:
            out = op.run()
            op.check(out)
            h.update(json.dumps(_summary(out)).encode())
            if name == "shift-eq" and out.verdict == "yes" and not tampered:
                with pytest.raises(check.CheckFailed):
                    op.check(dataclasses.replace(out, lag=out.lag + 1))
                tampered = True
        digests[name] = h.hexdigest()
    if not tampered:
        raise RuntimeError("no shift-eq 'yes' to tamper with")
    return digests


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
              "from test_optimized_mode import run_ops\n"
              "if not sys.flags.optimize:\n"
              "    raise SystemExit('not running under -O')\n"
              "print(json.dumps(run_ops()))\n")
    path = [os.path.join(ROOT, "src"), BENCH, os.path.join(ROOT, "tests"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    optimized = json.loads(out.stdout.splitlines()[-1])
    assert sorted(optimized) == ["ext-algebra", "graph-pairs", "shift-eq"]
    assert optimized == run_ops()
