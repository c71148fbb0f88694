"""Caps on the eliminations of three fixed constructions.

Every call of `smith_normal_form` eliminates, and a decomposition is kept by
the object that built its matrix.  A change that builds one of them again
shows here as a higher count, before any benchmark sees it.  The caps are
the counts of the current code; lower them when a change eliminates less."""

import random

from obstruct import intlinalg
from obstruct.graphs import XKInvariant
from obstruct.intlinalg import IntMatrix
from obstruct.laurent import GradedRModule, ck_module, count_liftings
from obstruct.posets import diamond_poset
from obstruct.quiver import ext_poset

from test_graphs import NONZERO_DELTA, graph
from test_intlinalg import counter
from test_laurent import fg, zmod
from test_quiver import presented_rep

CAPS = {"xk module layer and delta": 20, "ext_poset": 29, "count_liftings": 12}


def test_fixed_constructions_stay_within_their_elimination_counts(monkeypatch):
    inv = XKInvariant(graph(NONZERO_DELTA))
    v = presented_rep(random.Random(26), diamond_poset())  # Ext^2(v, v) = Z/3
    m = GradedRModule(even=ck_module(IntMatrix.from_rows([[4]])).even, odd=fg(zmod(3)))
    eliminated = counter(monkeypatch, intlinalg, "_eliminate")
    counts, results = {}, {}
    for name, build in [("xk module layer and delta", lambda: inv.delta.coords),
                        ("ext_poset", lambda: ext_poset(v, v, 2).group.invariant_factors),
                        ("count_liftings", lambda: count_liftings(m))]:
        eliminated.clear()
        results[name] = build()
        counts[name] = len(eliminated)
    assert list(results.values()) == [(1,), [3], 3]
    assert all(counts[name] <= cap for name, cap in CAPS.items()), counts
