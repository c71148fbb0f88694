import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from math import gcd

import pytest

from obstruct.abelian import DiagramHom, FgAbGroup
from obstruct.graphs import (
    DirectedGraph,
    _pull_class,
    _pull_rep,
    admissible,
    hereditary_saturated,
    unit_compare,
    xk_invariant,
)
from obstruct.intlinalg import ExactArithmeticError, IntMatrix
from obstruct.posets import FinitePoset
from obstruct.quiver import ExactnessError, RepMorphism, TwoExtension, transport_class, yoneda_class

from test_quiver import generator_extension, rep_diagram


def cuntz_graph(n):
    """One vertex with n loops: its graph algebra is the Cuntz algebra O_n."""
    return DirectedGraph(["v"], [("v", "v", n)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_cuntz_invariant(n):
    inv = xk_invariant(cuntz_graph(n))
    (point,) = inv.ideals.poset.points
    # K0(O_n) = coker(1 - n) = Z/(n-1), K1(O_n) = ker(1 - n) = 0
    expected = [n - 1] if n > 2 else []
    assert inv.xk0.groups[point].invariant_factors == expected
    assert inv.xk1.groups[point].is_trivial()
    assert inv.unit_group.invariant_factors == expected
    # the unit class [1] generates K0(O_n)
    if n > 2:
        (u,) = inv.unit
        assert gcd(u, n - 1) == 1
    else:
        assert inv.unit == ()


def test_cuntz_unit_compare():
    assert unit_compare(cuntz_graph(4), cuntz_graph(4)).verdict == "yes"
    assert unit_compare(cuntz_graph(4), cuntz_graph(3)).verdict == "no"


def graph(rows):
    return DirectedGraph.from_adjacency(IntMatrix.from_rows(rows))


def test_unit_compare_no_needs_exhaustive_search():
    # K0 = Z/4 on both sides, unit classes 3 (O_5) and 1 (E): the automorphism
    # x -> -x carries one to the other, but the walk of Hom = End(Z/4) starts
    # at the identity (x -> x, 2x, 3x, 0), so -x is its third element and a
    # budget of two elements proves nothing
    o5, e = cuntz_graph(5), graph([[0, 2], [1, 3]])
    assert unit_compare(o5, e, budget=2).verdict == "unknown"
    assert unit_compare(o5, e, budget=3).verdict == "yes"
    assert unit_compare(o5, e).verdict == "yes"
    # unit class 2 is no generator, so it is in no automorphism orbit of 3
    out = unit_compare(o5, graph([[0, 1], [2, 3]]))
    assert (out.verdict, out.layer) == ("no", "class")


def test_unit_compare_heavy_torsion_pair_within_a_small_budget():
    # K0 = Z/2 + Z/2 + Z/4 + Z and K1 = Z on one point, so Hom(K0, K0') is
    # infinite; walked from the identity, an isomorphism carrying unit to
    # unit lies among its first 64 elements (walked from zero, none lies
    # among the first 20,000)
    g = graph([[1, 0, 2, 0], [2, 1, 0, 2], [0, 4, 1, 0], [2, 0, 0, 3]])
    h = graph([[1, 2, 2, 0], [0, 1, 0, 2], [0, 2, 3, 0], [4, 0, 0, 1]])
    assert unit_compare(g, h, budget=64).verdict == "yes"


def test_empty_graph_is_a_named_error():
    with pytest.raises(ExactArithmeticError, match="empty primitive ideal space"):
        xk_invariant(DirectedGraph([], []))


def test_unit_compare_under_python_O():
    # python -O strips assert statements, so every check a graph verdict
    # rests on must raise a real error
    script = textwrap.dedent("""
        import json, sys
        from obstruct.graphs import DirectedGraph, unit_compare
        from obstruct.intlinalg import ExactArithmeticError, IntMatrix
        if not sys.flags.optimize:
            raise SystemExit("not running under -O")
        o5 = DirectedGraph(["v"], [("v", "v", 5)])
        e = DirectedGraph.from_adjacency(IntMatrix.from_rows([[0, 2], [1, 3]]))
        print(json.dumps([unit_compare(o5, e, budget=b).verdict for b in (2, 3)]))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["unknown", "yes"]


def test_xk_invariant_checks_exactness_once(monkeypatch):
    calls = []
    check = TwoExtension.verify_exact

    def counted(seq):
        calls.append(seq)
        return check(seq)

    monkeypatch.setattr(TwoExtension, "verify_exact", counted)
    inv = xk_invariant(graph([[2, 1], [0, 3]]))
    assert len(calls) == 1 and inv.delta is not None

    # a comparison that reaches the class layer checks each of its two
    # invariants once, and no transported copy of the second one
    calls.clear()
    out = unit_compare(graph([[2, 1], [0, 3]]), graph([[3, 0], [1, 2]]))
    assert out.verdict == "yes" and len(calls) == 2
    calls.clear()
    out = unit_compare(cuntz_graph(5), graph([[0, 1], [2, 3]]))
    assert (out.verdict, out.layer) == ("no", "class") and len(calls) == 2

    def broken(seq):
        raise ExactnessError("not exact at the inner node Q0")

    monkeypatch.setattr(TwoExtension, "verify_exact", broken)
    with pytest.raises(ExactArithmeticError, match="internal exactness failure"):
        xk_invariant(cuntz_graph(3))


def test_pulled_class_is_the_class_of_the_pulled_sequence():
    # the generator extension over a < b has the nonzero class in
    # Ext^2 = Z/2; read over s < t through sigma, the class is carried over
    # without a new resolution and must equal the class of the pulled sequence
    ext = generator_extension(twist=True)
    poset = FinitePoset(["t", "s"], [("s", "t")])
    sigma = {"s": "a", "t": "b"}
    m1, q1, q0, m0 = (_pull_rep(r, sigma, poset) for r in (ext.m1, ext.q1, ext.q0, ext.m0))

    def pull(mor, src, tgt):
        return RepMorphism(src, tgt, {p: mor.maps[sigma[p]] for p in poset.points})

    seq = TwoExtension(m1, q1, q0, m0, pull(ext.d2, m1, q1), pull(ext.d1, q1, q0),
                       pull(ext.eps, q0, m0))
    pulled = _pull_class(yoneda_class(ext), sigma, m0, m1)
    direct = yoneda_class(seq)
    assert not pulled.is_zero()
    assert transport_class(pulled, direct.ambient) == direct.coords


# Admissible graphs with finite K0: one to three ideals, cyclic and
# non-cyclic torsion at a point
TORSION_GRAPHS = [
    [[1, 2], [2, 1]],
    [[3, 0], [1, 4]],
    [[2, 1, 0], [0, 2, 1], [1, 0, 2]],
    [[3, 0, 0], [1, 3, 0], [1, 1, 5]],
    [[3, 0, 0], [0, 3, 0], [1, 1, 3]],
]


@pytest.mark.parametrize("rows", TORSION_GRAPHS, ids=[str(r) for r in TORSION_GRAPHS])
def test_relabel_is_never_no(rows):
    # relabelling the vertices (P E P^t) preserves the invariant with the
    # unit class; the Hom groups of the search are isomorphic to End(XK0) and
    # End(XK1), so the search is exhaustive once they fit in the budget
    e = graph(rows)
    inv = xk_invariant(e)
    orders = [DiagramHom(*rep_diagram(r, r)).group.order() for r in (inv.xk0, inv.xk1)]
    n = len(rows)
    for perm in itertools.permutations(range(n)):
        h = graph([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
        for budget in (1, 3, 20000):
            verdict = unit_compare(e, h, budget=budget).verdict
            assert verdict != "no"
            if all(o is not None and o <= budget for o in orders):
                assert verdict == "yes"


# ---------------------------------------------------------------------------
# Admissibility and the primitive ideal poset
# ---------------------------------------------------------------------------


ADMISSIBILITY_TABLE = [
    # (adjacency, sinks, Condition (K) witness)
    ([[0, 1], [0, 0]], ["v1"], None),
    ([[1]], [], ("v0",)),
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [], ("v0", "v2", "v1")),
    ([[2, 1, 0], [0, 0, 1], [0, 1, 0]], [], ("v1", "v2")),
    ([[0, 2], [1, 0]], [], None),  # doubled edge on the cycle
    ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], [], None),  # an exit that returns
    ([[0, 1, 0], [1, 0, 1], [0, 0, 2]], [], ("v0", "v1")),  # an exit that does not
]


@pytest.mark.parametrize("rows, sinks, witness", ADMISSIBILITY_TABLE,
                         ids=[str(r[0]) for r in ADMISSIBILITY_TABLE])
def test_admissible_table(rows, sinks, witness):
    report = admissible(graph(rows))
    assert report.sinks == sinks
    assert report.condition_k_witness == witness
    assert report.admissible == (not sinks and witness is None)


def hereditary_saturated_sets(e):
    """All hereditary saturated sets, by brute force over the 2^n subsets."""

    def hereditary(s):
        return all(w in s for v in s for w in e.targets(v))

    def saturated(s):
        return not any(v not in s and e.targets(v) and all(w in s for w in e.targets(v))
                       for v in e.vertices)

    subsets = (frozenset(c) for r in range(len(e.vertices) + 1)
               for c in itertools.combinations(e.vertices, r))
    return [s for s in subsets if hereditary(s) and saturated(s)]


def hereditary_saturated_oracle(e):
    """The join-irreducible hereditary saturated sets in the label order H0,
    H1, ...: a nonempty set is join-irreducible iff it covers exactly one set
    of the lattice."""
    sets = hereditary_saturated_sets(e)

    def covered(h):
        below = [k for k in sets if k < h]
        return [k for k in below if not any(k < m < h for m in below)]

    return sorted((h for h in sets if h and len(covered(h)) == 1),
                  key=lambda h: (len(h), sorted(e.index[v] for v in h)))


def return_paths(e, v, length):
    """Number of return paths at v (paths v -> v that do not pass through v
    in between) with at most `length` edges, counting parallel edges apart."""
    a, i = e.adjacency.data, e.index[v]
    walks = list(a[i])  # walks of the current length from v, by end vertex
    count = 0
    for _ in range(length):
        count += walks[i]
        walks[i] = 0
        walks = [sum(walks[u] * a[u][w] for u in range(len(a))) for w in range(len(a))]
    return count


def random_graph(rng, n, loops):
    """Edges mostly from lower to higher vertices, so that many vertices lie
    on no cycle; loop multiplicities are drawn from `loops`."""
    backward = rng.choice((0, 0.1, 0.5))

    def edge(i, j):
        if i == j:
            return rng.choice(loops)
        return rng.choice((1, 1, 2)) if rng.random() < (0.4 if i < j else backward) else 0

    return graph([[edge(i, j) for j in range(n)] for i in range(n)])


def test_hereditary_saturated_matches_subset_oracle():
    rng = random.Random(7)
    admissible_seen = reducible_seen = 0
    for k in range(400):
        # a loop of multiplicity one on its own makes Condition (K) fail
        e = random_graph(rng, rng.randint(1, 8), (0, 2, 3) if k % 2 else (0, 1, 2))
        report = admissible(e)
        # Condition (K): no vertex has exactly one return path.  A unique one
        # is simple, and two exist with at most 2n edges each if any do
        n = len(e.vertices)
        assert report.condition_k == all(return_paths(e, v, 2 * n) != 1 for v in e.vertices)
        if not report.admissible:
            continue
        admissible_seen += 1
        ideals = hereditary_saturated(e)
        expected = hereditary_saturated_oracle(e)
        labels = [f"H{i}" for i in range(len(expected))]
        assert ideals.poset.points == labels
        assert [ideals.vertex_sets[p] for p in labels] == expected
        for p, hp in zip(labels, expected):
            for q, hq in zip(labels, expected):
                assert ideals.poset.leq(p, q) == (hq <= hp)
        # some vertex's smallest hereditary saturated superset is a join of
        # smaller ones (the vertex lies on no cycle)
        sets = hereditary_saturated_sets(e)
        closures = {min((s for s in sets if v in s), key=len) for v in e.vertices}
        reducible_seen += len(closures) > len(expected)
    assert admissible_seen >= 100 and reducible_seen >= 5


def test_xk_invariant_on_sixty_vertices():
    # six strongly connected blocks of ten vertices (a ten-cycle with a loop,
    # so Condition (K) holds) joined along the block order below
    blocks, size = 6, 10
    joins = {(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)}
    n = blocks * size
    rows = [[0] * n for _ in range(n)]
    for b in range(blocks):
        first = b * size
        for i in range(size):
            rows[first + i][first + (i + 1) % size] = 1
        rows[first][first] = 1
    for b, c in joins:
        rows[b * size + 3][c * size + 7] = 1
    e = graph(rows)

    def below(b):  # blocks reachable from block b
        out = {b}
        for c in range(blocks):
            if (b, c) in joins:
                out |= below(c)
        return out

    inv = xk_invariant(e)
    ideals = inv.ideals
    assert len(ideals.poset.points) == blocks
    block_of = {}
    for p, h in ideals.vertex_sets.items():
        (b,) = [b for b in range(blocks)
                if h == {f"v{c * size + i}" for c in below(b) for i in range(size)}]
        block_of[p] = b
    for p, b in block_of.items():
        for q, c in block_of.items():
            assert ideals.poset.leq(p, q) == (c in below(b))
    # the colimit of XK0 is K0 of the whole algebra
    k0 = FgAbGroup(n, IntMatrix.identity(n) - e.adjacency.transpose())
    assert inv.unit_group.invariant_factors == k0.invariant_factors
