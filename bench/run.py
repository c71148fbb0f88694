"""Benchmark for obstruct: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload graph-pairs --seed 1 --seconds 30 --trace 0

Set-up (import, input generation from the seed, warm-up) is timed apart
from the measured loop, several times; setup_s is the median.  Reported
times are scaled to a reference host speed (see HostProbe).  The loop
runs whole passes over the seeded pool of operations, one operation at a
time, and starts another pass only while it fits in --seconds of timed
operation time.  Every result is checked exactly (check.py) outside the
timed region; a later pass must repeat the first pass's verdicts.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics.  With --trace 1 the run makes one untraced and one
traced pass and reports the per-layer metrics instead.  Unknown and error
rates are printed above the JSON line; in the JSON they appear as their
complements decided_rate and ok_rate, which are never zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Pass:
    """Results of one pass over the pool."""

    def __init__(self):
        self.latencies = []
        self.probe_at = []  # number of host-probe samples when each op started
        self.verdicts = []
        self.failed = 0
        self.decisions = 0
        self.unknown = 0
        self.op_time = 0.0


# A shared host runs the same code up to about a quarter slower for minutes
# at a time, which moves every time of a run together.  So a fixed
# pure-Python reference routine is timed between operations, outside the
# timed region, all through the run, and each operation's time is multiplied
# by REFERENCE_S over the median of the PROBE_WINDOW reference times taken
# just before it and the PROBE_WINDOW taken just after it: times are given for a host on which the routine takes REFERENCE_S (about
# its median on the 2-vCPU VM the bounds were set on).  The routine does the
# kinds of work the library does (small-int loops, big-int row operations on
# lists of lists, dicts, tuples and sorting) and never calls the library, so
# a change to the library does not move it.  Raw figures print above the
# JSON line.
REFERENCE_S = 0.007
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 5
_REFERENCE_MATRIX = [[(7 * i + 3 * j * j) % 19 - 9 for j in range(10)] for i in range(10)]


def _reference_routine():
    total = 0
    for i in range(30_000):
        total += i * i % 7
    for _ in range(3):
        a = [row[:] for row in _REFERENCE_MATRIX]
        for k in range(len(a)):
            p = a[k][k] or 1
            for i in range(len(a)):
                if i != k:
                    f = a[i][k]
                    a[i] = [p * x - f * y for x, y in zip(a[i], a[k])]
        total += a[-1][-1].bit_length()
    groups = {}
    for i in range(4_000):
        groups.setdefault((i % 97, i % 13), []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return total + len({x for _, v in ordered for x in v[:3]})


class HostProbe:
    """Reference times of the host, sampled between operations."""

    def __init__(self):
        self.times = []
        self._since = 0.0

    def sample(self):
        t0 = time.perf_counter()
        _reference_routine()
        self.times.append(time.perf_counter() - t0)

    def tick(self, op_s):
        """Count op_s seconds of operation time; sample once per PROBE_EVERY_S."""
        self._since += op_s
        if self._since >= PROBE_EVERY_S:
            self._since = 0.0
            self.sample()

    def scale(self, at=None):
        """Factor from this host's time to the reference host's time: from
        the samples around sample index `at`, or from all samples."""
        near = self.times if at is None else self.times[max(0, at - PROBE_WINDOW):at + PROBE_WINDOW]
        return REFERENCE_S / statistics.median(near)


def run_pass(ops, reference=None, tracer=None, probe=None):
    """Run every op once.  With no reference pass, check each result
    exactly; otherwise require the reference pass's verdict."""
    import check

    out = Pass()
    for i, op in enumerate(ops):
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.operation(i):
                    result = op.run()
        except Exception:  # a crash counts as a failed operation
            dt = time.perf_counter() - t0
            error = traceback.format_exc(limit=3)
            result = None
        else:
            dt = time.perf_counter() - t0
        out.latencies.append(dt)
        out.op_time += dt
        if probe is not None:
            out.probe_at.append(len(probe.times))
            probe.tick(dt)
        verdict = getattr(result, "verdict", None)
        out.verdicts.append(verdict)
        if error is None:
            try:
                if reference is None:
                    op.check(result)
                elif verdict != reference.verdicts[i]:
                    raise check.CheckFailed(f"verdict {verdict!r} differs from the first pass")
            except check.CheckFailed as exc:
                error = str(exc)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            out.failed += 1
            print(f"[{op.stratum}] op {i} failed: {error}", file=sys.stderr)
        if op.decision:
            out.decisions += 1
            out.unknown += verdict == "unknown"
    return out


# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds, and setup_s is the median: one slow import or a short
# slow spell of a shared host then does not move the figure.  The host probe
# is sampled SETUP_PROBES times after each set-up, and setup_s is scaled by
# the median of those samples.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_PROBES = 5
BENCH_MODULES = ("check", "gen", "workloads")


def setup(workload, seed, params):
    """Import the library and the benchmark modules afresh, build the seeded
    pool and run the warm-up operations.  Each repeat starts from a fresh
    import, so module-level state of one repeat does not speed up the next."""
    for name in list(sys.modules):
        if name == "obstruct" or name.startswith("obstruct.") or name in BENCH_MODULES:
            del sys.modules[name]
    import obstruct.graphs  # noqa: F401  (imports every layer below it)
    import obstruct.laurent  # noqa: F401
    import obstruct.shifteq  # noqa: F401
    import workloads

    ops = workloads.build_pool(workload, seed, params["strata"], params["bounds"])
    for op in workloads.build_pool(workload, seed, params["warmup"], params["bounds"]):
        op.run()
    return ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "obstruct", "__init__.py")):
        print(f"error: no obstruct package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path[:0] = [SRC, HERE]
    probe = HostProbe()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        t0 = time.perf_counter()
        ops = setup(args.workload, args.seed, spec["workloads"][args.workload])
        setups.append(time.perf_counter() - t0)
        for _ in range(SETUP_PROBES):
            probe.sample()
    setup_s = statistics.median(setups) * probe.scale()

    if args.trace:
        result = traced_run(ops)
    else:
        result = timed_run(ops, args.seconds, setup_s, probe)
    print(json.dumps(result))
    return 0


def _summary(passes, attempted):
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def timed_run(ops, seconds, setup_s, probe):
    first = run_pass(ops, probe=probe)
    passes = [first]
    elapsed = first.op_time
    while elapsed + first.op_time <= seconds:
        passes.append(run_pass(ops, reference=first, probe=probe))
        elapsed += passes[-1].op_time
    latencies = sorted(t * probe.scale(at) for p in passes for t, at in zip(p.latencies, p.probe_at))
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    decisions = sum(p.decisions for p in passes)
    unknown = sum(p.unknown for p in passes)
    unknown_rate = unknown / decisions if decisions else 0.0
    error_rate = failed / attempted
    metrics = {
        "ops_per_s": (attempted / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * _percentile(latencies, 0.50), "ms"),
        "latency_p90_ms": (1000 * _percentile(latencies, 0.90), "ms"),
        "decided_rate": (1.0 - unknown_rate, "ratio"),
        "ok_rate": (1.0 - error_rate, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = sorted(t for p in passes for t in p.latencies)
    print(f"passes={len(passes)} ops={attempted} timed_s={elapsed:.3f} "
          f"reference_s={statistics.median(probe.times):.5f} probes={len(probe.times)} "
          f"raw: ops_per_s={attempted / elapsed:.4f} p50_ms={1000 * _percentile(raw, 0.5):.4f} "
          f"p90_ms={1000 * _percentile(raw, 0.9):.4f}")
    print(f"unknown_rate={unknown_rate:.4f} ({unknown}/{decisions} decisions) "
          f"error_rate={error_rate:.4f} ({failed}/{attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name:16s} {value:14.6f} {unit}")
    return {**_summary(passes, attempted),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_run(ops):
    from tracer import Tracer, per_layer_metrics

    untraced = run_pass(ops)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(ops, reference=untraced, tracer=tracer)
    layer = per_layer_metrics(tracer, traced.op_time / untraced.op_time)
    print(f"spans={len(tracer.span_name)} untraced_s={untraced.op_time:.3f} "
          f"traced_s={traced.op_time:.3f}")
    for name, (value, unit) in layer.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    return {**_summary([untraced, traced], 2 * len(ops)),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}}


if __name__ == "__main__":
    sys.exit(main())
