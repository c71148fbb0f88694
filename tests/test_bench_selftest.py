"""The benchmark's own self-test runs against the current package.

bench/gen.py, check.py and workloads.py call the public API of `obstruct`;
running `bench/selftest.py` (tiny pools of every workload, the checkers and
the tracer) makes an API change that breaks them fail here too.
"""

import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "selftest.py")


def test_bench_selftest_passes():
    out = subprocess.run([sys.executable, SELFTEST], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "self-tests passed" in out.stdout
