"""`python -m obstruct.cli shift-eq` end to end, on the matrix files in
tests/fixtures, in a subprocess."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import obstruct.cli
from obstruct.intlinalg import IntMatrix
from obstruct.shifteq import verify_shift_equivalence
from test_bench_imports import BENCH, _bench_references

TESTS = pathlib.Path(__file__).resolve().parent
FIXTURES = TESTS / "fixtures"


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "obstruct.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def shift_eq(name, *options):
    out = run_cli("shift-eq", FIXTURES / f"{name}_a.txt", FIXTURES / f"{name}_b.txt", *options)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def fixture(name):
    return IntMatrix.from_text((FIXTURES / name).read_text())


def test_shift_eq_yes_carries_a_verified_witness():
    res = shift_eq("golden")
    assert res["verdict"] == "yes" and res["invariant"] is None
    r, s = IntMatrix.from_rows(res["r"]), IntMatrix.from_rows(res["s"])
    assert verify_shift_equivalence(fixture("golden_a.txt"), fixture("golden_b.txt"), r, s, res["lag"])


def test_shift_eq_no_names_its_invariant():
    # charpoly x^2 - 4x - 1 on both sides; coker(A - I) = Z/4, coker(B - I) = (Z/2)^2
    assert shift_eq("x2_4x_1") == {
        "verdict": "no", "lag": None, "r": None, "s": None,
        "invariant": "colimit of coker(p(A^t)) for p = x - 1"}


def test_shift_eq_unknown_within_a_small_budget():
    # a lag-7 witness exists, beyond both the default max_lag and this budget
    assert shift_eq("lag7", "--budget", "20", "--max-lag", "3") == {
        "verdict": "unknown", "lag": None, "r": None, "s": None, "invariant": None}


def test_shift_eq_bounds_reach_the_search():
    res = shift_eq("golden", "--max-lag", "1", "--max-entry", "1", "--budget", "3")
    assert (res["verdict"], res["lag"]) == ("yes", 1)


def test_shift_eq_rejects_unsupported_input(tmp_path):
    zero_row = tmp_path / "zero_row.txt"
    zero_row.write_text(IntMatrix.from_rows([[0, 0], [1, 1]]).to_text())
    out = run_cli("shift-eq", zero_row, FIXTURES / "golden_b.txt")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("obstruct: error:")
    missing = run_cli("shift-eq", tmp_path / "missing.txt", FIXTURES / "golden_b.txt")
    assert missing.returncode == 2 and "missing.txt" in missing.stderr
    negative = tmp_path / "negative.txt"
    negative.write_text("0 -2\n")
    out = run_cli("shift-eq", negative, FIXTURES / "golden_b.txt")
    assert out.returncode == 2 and "negative dimension in matrix header '0 -2'" in out.stderr


def test_shift_eq_rejects_bounds_out_of_range():
    for option, value in (("--max-lag", 0), ("--max-entry", -1), ("--budget", -1)):
        out = run_cli("shift-eq", FIXTURES / "golden_a.txt", FIXTURES / "golden_b.txt",
                      option, value)
        assert out.returncode == 2 and out.stdout == "", (option, out.stdout)
        assert "bounds out of range" in out.stderr


def test_benchmark_does_not_import_the_cli():
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for line, module, name in _bench_references(tree):
            assert "cli" not in (module.split(".") + [name]), f"{path.name}:{line}"


def test_every_name_the_cli_imports_is_declared():
    tree = ast.parse(pathlib.Path(obstruct.cli.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert name in importlib.import_module(f"obstruct.{module}").__all__, (module, name)
    assert obstruct.cli.__all__ == ["main"]
