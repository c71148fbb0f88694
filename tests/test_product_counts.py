"""Caps on the matrix products of the shift-equivalence search and of
`matrix_power`.

Every product and power of the search is built once: Faddeev-LeVerrier
adds each coefficient to the diagonal of the product it has just built,
the nonsingular route extends its powers of B one factor at a time up to
the lag it reaches, and `matrix_power` starts from a copy of A and never
squares past the top bit of k.  A change that builds a product again
shows here as a higher count of `IntMatrix.__matmul__` calls, before any
benchmark sees it.  The caps are the counts of the current code; lower
them when a change does less work."""

from obstruct.intlinalg import IntMatrix, matrix_power
from obstruct.shifteq import shift_equivalent

from test_intlinalg import counter
from test_shifteq import BEYOND_THE_CUT

SEARCH_PAIRS = {"swap-conjugate pair": ([[2, 1], [1, 1]], [[1, 1], [1, 2]]),
                "first pair beyond the cut": BEYOND_THE_CUT[0]}
SEARCH_CAPS = {"swap-conjugate pair": 10, "first pair beyond the cut": 13}
POWER_CAPS = {1: 0, 10: 4}


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
