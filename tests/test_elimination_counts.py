"""Caps on the eliminations and transform replays of six fixed
constructions.

Every call of `smith_normal_form` eliminates, and a decomposition is kept by
the object that built its matrix.  A change that builds one of them again
shows here as a higher elimination count, before any benchmark sees it.
U, U^-1 and V are each replayed from the record on their own first read,
and a matrix with no rows or no columns, or the kernel of a matrix of full
column rank, replays nothing; a change that loses one of these exits shows
as a higher count of identities built (`intlinalg._identity_rows`, which
every replay starts from).  The caps are the counts of the current code;
lower them when a change does less work."""

import random

from obstruct import intlinalg
from obstruct.abelian import FgAbGroup
from obstruct.graphs import XKInvariant
from obstruct.intlinalg import IntMatrix
from obstruct.laurent import GradedRModule, ck_module, count_liftings, ext_r_fg
from obstruct.posets import diamond_poset
from obstruct.quiver import ext_poset

from test_graphs import NONZERO_DELTA, TWO_MINIMA, graph
from test_intlinalg import counter
from test_laurent import fg, zmod
from test_quiver import presented_rep

CAPS = {"xk module layer and delta": 17, "ext_poset": 21, "count_liftings": 9, "ext_r_fg": 12,
        "unit class on two minimal points": 2, "unit class, a vertex in no H_x": 3}
REPLAY_CAPS = {"xk module layer and delta": 10, "ext_poset": 28, "count_liftings": 8,
               "ext_r_fg": 18, "unit class on two minimal points": 2,
               "unit class, a vertex in no H_x": 4}


def counts_of(monkeypatch, name):
    """Calls of intlinalg.`name` made by each fixed construction, built fresh."""
    inv = XKInvariant(graph(NONZERO_DELTA))
    v = presented_rep(random.Random(26), diamond_poset())  # Ext^2(v, v) = Z/3
    m = GradedRModule(even=ck_module(IntMatrix.from_rows([[4]])).even, odd=fg(zmod(3)))
    # Ext^2_R = Z/2 + Z/2: the total complex and the x-action on Ext^1_Z
    a = fg(FgAbGroup.from_invariant_factors([2, 4]), IntMatrix.from_rows([[1, 1], [0, 1]]))
    b = fg(zmod(6), IntMatrix.from_rows([[5]]))
    # no least point, so the unit class takes the colimit route: every
    # vertex lies in some H_x, or v0 of TWO_MINIMA lies in none; the module
    # layer is built before counting
    covered, uncovered = XKInvariant(graph([[2, 0], [0, 3]])), XKInvariant(graph(TWO_MINIMA))
    covered.xk0, uncovered.xk0
    calls = counter(monkeypatch, intlinalg, name)
    counts, results = {}, {}
    for what, build in [("xk module layer and delta", lambda: inv.delta.coords),
                        ("ext_poset", lambda: ext_poset(v, v, 2).group.invariant_factors),
                        ("count_liftings", lambda: count_liftings(m)),
                        ("ext_r_fg", lambda: ext_r_fg(a, b).ext2_r.invariant_factors),
                        ("unit class on two minimal points", lambda: covered.unit),
                        ("unit class, a vertex in no H_x", lambda: uncovered.unit)]:
        calls.clear()
        results[what] = build()
        counts[what] = len(calls)
    assert list(results.values()) == [(1,), [3], 3, [2, 2], (1,), (2,)]
    return counts


def test_fixed_constructions_stay_within_their_elimination_counts(monkeypatch):
    counts = counts_of(monkeypatch, "_eliminate")
    assert all(counts[name] <= cap for name, cap in CAPS.items()), counts


def test_fixed_constructions_stay_within_their_replay_counts(monkeypatch):
    counts = counts_of(monkeypatch, "_identity_rows")
    assert all(counts[name] <= cap for name, cap in REPLAY_CAPS.items()), counts
