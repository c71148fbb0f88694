"""The `obstruct` command line.

    obstruct shift-eq A.txt B.txt [--max-lag N] [--max-entry N] [--budget N]

Matrices are read in the `IntMatrix.to_text` format: a `rows cols` header,
then one line of entries per row.  The result is one JSON object on
standard output:

    {"verdict": "yes" | "no" | "unknown", "lag": ..., "r": ..., "s": ...,
     "invariant": ...}

with R and S as lists of rows and the lag for `yes`, the named invariant
for `no`, and null for what a verdict does not carry.  Bounds left out
take the defaults of `shift_equivalent`.  Unreadable or unsupported input
exits with status 2 and a message on standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .intlinalg import IntMatrix
from .shifteq import shift_equivalent

__all__ = ["main"]


def _read_matrix(path):
    with open(path) as fh:
        return IntMatrix.from_text(fh.read())


def _shift_eq(args):
    bounds = {name: value for name, value in (("max_lag", args.max_lag),
                                              ("max_entry", args.max_entry),
                                              ("budget", args.budget))
              if value is not None}
    res = shift_equivalent(_read_matrix(args.a), _read_matrix(args.b), **bounds)
    yes = res.verdict == "yes"
    return {
        "verdict": res.verdict,
        "lag": res.lag if yes else None,
        "r": res.r.data if yes else None,
        "s": res.s.data if yes else None,
        "invariant": res.invariant or None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="obstruct", description="Exact invariants and decisions; results as JSON.")
    commands = parser.add_subparsers(dest="command", required=True)
    shift = commands.add_parser(
        "shift-eq", help="bounded shift-equivalence decision for two non-negative square "
                         "integer matrices with no zero row or column")
    shift.add_argument("a", help="file holding A")
    shift.add_argument("b", help="file holding B")
    shift.add_argument("--max-lag", type=int, help="largest lag tried")
    shift.add_argument("--max-entry", type=int,
                       help="bound on witness coefficients and on the battery's |k|")
    shift.add_argument("--budget", type=int, help="number of candidate witnesses R tried")
    shift.set_defaults(run=_shift_eq)
    args = parser.parse_args(argv)
    try:
        out = args.run(args)
    except (OSError, ValueError) as exc:
        parser.exit(2, f"obstruct: error: {exc}\n")
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
