"""Caps on the matrix products of the shift-equivalence search, of
`matrix_power` and of the unit class of a graph with no least point.

Every product and power of the search is built once: Faddeev-LeVerrier
adds each coefficient to the diagonal of the product it has just built,
the nonsingular route extends its powers of B one factor at a time up to
the lag it reaches, and `matrix_power` starts from a copy of A and never
squares past the top bit of k.  The unit class writes its lift down and
reads nat times the colimit relations by adding rows, so it multiplies no
matrices.  A change that builds a product again shows here as a higher
count of `IntMatrix.__matmul__` calls, before any benchmark sees it.  The
caps are the counts of the current code; lower them when a change does
less work."""

from obstruct.graphs import XKInvariant
from obstruct.intlinalg import IntMatrix, matrix_power
from obstruct.shifteq import shift_equivalent

from test_graphs import TWO_MINIMA, graph, has_least_point
from test_intlinalg import counter
from test_shifteq import BEYOND_THE_CUT

SEARCH_PAIRS = {"swap-conjugate pair": ([[2, 1], [1, 1]], [[1, 1], [1, 2]]),
                "first pair beyond the cut": BEYOND_THE_CUT[0]}
SEARCH_CAPS = {"swap-conjugate pair": 10, "first pair beyond the cut": 13}
POWER_CAPS = {1: 0, 10: 4}
# no least point; the second graph's poset has two arrows out of {v2}
UNIT_GRAPHS = {"TWO_MINIMA": TWO_MINIMA, "two arrows": [[2, 0, 1], [0, 3, 1], [0, 0, 2]]}
UNIT_CAPS = {"TWO_MINIMA": 0, "two arrows": 0}


def test_shift_equivalent_stays_within_its_product_counts(monkeypatch):
    calls = counter(monkeypatch, IntMatrix, "__matmul__")
    counts = {}
    for what, (a, b) in SEARCH_PAIRS.items():
        calls.clear()
        assert shift_equivalent(IntMatrix.from_rows(a), IntMatrix.from_rows(b)).verdict == "yes"
        counts[what] = len(calls)
    assert all(counts[what] <= cap for what, cap in SEARCH_CAPS.items()), counts


def test_matrix_power_stays_within_its_product_counts(monkeypatch):
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    calls = counter(monkeypatch, IntMatrix, "__matmul__")
    counts = {}
    for k in POWER_CAPS:
        calls.clear()
        matrix_power(a, k)
        counts[k] = len(calls)
    assert all(counts[k] <= cap for k, cap in POWER_CAPS.items()), counts


def test_unit_class_stays_within_its_product_counts(monkeypatch):
    invariants = {what: XKInvariant(graph(rows)) for what, rows in UNIT_GRAPHS.items()}
    for inv in invariants.values():
        inv.xk0
        assert not has_least_point(inv)
    calls = counter(monkeypatch, IntMatrix, "__matmul__")
    counts = {}
    for what, inv in invariants.items():
        calls.clear()
        inv.unit
        counts[what] = len(calls)
    assert all(counts[what] <= cap for what, cap in UNIT_CAPS.items()), counts
