import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from math import gcd

import pytest

from obstruct import graphs, intlinalg, quiver
from obstruct.abelian import DiagramHom, FgAbGroup, GroupMorphism, IllDefinedMorphism
from obstruct.graphs import (
    DirectedGraph,
    IdealPoset,
    XKInvariant,
    _pull_class,
    _pull_rep,
    admissible,
    compare_graph_invariants,
    hereditary_saturated,
    unit_compare,
    xk_invariant,
)
from obstruct.intlinalg import ExactArithmeticError, IntMatrix, factor_through
from obstruct.posets import FinitePoset
from obstruct.quiver import (
    Ext2Class,
    ProjectiveRep,
    ProjIntoRep,
    QuiverRep,
    RepMorphism,
    TwoExtension,
    ext2_compatible,
    sierpinski_ext2,
    transport_class,
    verify_resolution,
    yoneda_class,
)

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


def test_unit_class_needs_an_isomorphic_colimit():
    # XK0 of O_4 with its torsion dropped: the colimit Z maps onto
    # K0 = Z/3, but not isomorphically, so no unit class is defined
    inv = graphs.XKInvariant(cuntz_graph(4))
    (point,) = inv.ideals.poset.points
    group, unit, _ = graphs._unit_class(inv.graph, inv.ideals, inv.xk0)
    assert group.invariant_factors == [3] and gcd(unit[0], 3) == 1
    tampered = QuiverRep(inv.xk0.poset, {point: FgAbGroup.free(1)}, {}, check=False)
    with pytest.raises(ExactArithmeticError, match="isomorphically"):
        graphs._unit_class(inv.graph, inv.ideals, tampered)


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
    e = DirectedGraph([], [])
    with pytest.raises(ExactArithmeticError, match="empty primitive ideal space"):
        xk_invariant(e)
    # two empty posets are isomorphic, so the error must come from building
    # the poset layer, not from a later layer that a verdict may skip
    for compare in (unit_compare, compare_graph_invariants):
        with pytest.raises(ExactArithmeticError, match="empty primitive ideal space"):
            compare(e, e)


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
        two = DirectedGraph.from_adjacency(IntMatrix.from_rows([[3, 0], [1, 4]]))
        o4 = DirectedGraph(["v"], [("v", "v", 4)])
        out = [unit_compare(o5, e, budget=b).verdict for b in (2, 3)]
        out += [[o.verdict, o.layer] for o in (unit_compare(o5, two), unit_compare(o4, o5))]
        print(json.dumps(out))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["unknown", "yes", ["no", "poset"], ["no", "module"]]


def test_xk_invariant_checks_exactness_once(monkeypatch):
    calls = counter(monkeypatch, graphs, "_check_exact")
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

    break_cokernel(monkeypatch)
    with pytest.raises(ExactArithmeticError, match="internal exactness failure"):
        xk_invariant(cuntz_graph(3))


def counter(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def break_cokernel(monkeypatch):
    """Make the module layer present XK0 on 2d in place of d, a wrong
    construction that the exactness check must catch."""
    cokernel = graphs.rep_cokernel

    def doubled(d):
        return cokernel(RepMorphism(d.source, d.target,
                                    {p: m.scaled(2) for p, m in d.maps.items()}, trusted=True))

    monkeypatch.setattr(graphs, "rep_cokernel", doubled)


@pytest.mark.parametrize("compare", [unit_compare, compare_graph_invariants])
def test_poset_no_builds_the_poset_layer_only(monkeypatch, compare):
    kernels = counter(monkeypatch, graphs, "rep_kernel")
    checks = counter(monkeypatch, graphs, "_check_exact")
    out = compare(cuntz_graph(4), graph([[3, 0], [1, 4]]))
    assert (out.verdict, out.layer) == ("no", "poset")
    assert kernels == [] and checks == []


@pytest.mark.parametrize("compare", [unit_compare, compare_graph_invariants])
def test_module_no_builds_no_class_layer(monkeypatch, compare):
    # K0 = Z/3 against Z/2 on one point: the groups differ, so neither the
    # resolution behind delta nor the unit colimit is built
    checks = counter(monkeypatch, graphs, "_check_exact")
    resolutions = counter(monkeypatch, quiver, "resolve_projective")
    own = counter(monkeypatch, graphs, "_graph_resolution")
    units = counter(monkeypatch, graphs, "_unit_class")
    out = compare(cuntz_graph(4), cuntz_graph(3))
    assert (out.verdict, out.layer) == ("no", "module")
    assert len(checks) == 2 and resolutions == [] and own == [] and units == []


def test_compare_graph_invariants_never_builds_the_unit_class(monkeypatch):
    units = counter(monkeypatch, graphs, "_unit_class")
    pairs = [
        (graph([[2, 1], [0, 3]]), graph([[3, 0], [1, 2]]), "yes"),
        (cuntz_graph(5), graph([[0, 1], [2, 3]]), "yes"),
        (cuntz_graph(4), cuntz_graph(3), "no"),
    ]
    for e1, e2, verdict in pairs:
        assert compare_graph_invariants(e1, e2).verdict == verdict
    assert units == []
    # the unit class differs in the second pair, which unit_compare reads;
    # it is tested first and fails for every candidate, so delta is not built
    resolutions = counter(monkeypatch, quiver, "resolve_projective")
    own = counter(monkeypatch, graphs, "_graph_resolution")
    out = unit_compare(cuntz_graph(5), graph([[0, 1], [2, 3]]))
    assert (out.verdict, out.layer) == ("no", "class")
    assert len(units) == 2 and resolutions == [] and own == []


def test_comparison_checks_exactness_of_what_it_reads(monkeypatch):
    break_cokernel(monkeypatch)
    # a poset verdict reads no module
    assert unit_compare(cuntz_graph(4), graph([[3, 0], [1, 4]])).layer == "poset"
    # a module verdict reads both modules, which must pass the check first
    for compare in (unit_compare, compare_graph_invariants):
        with pytest.raises(ExactArithmeticError, match="internal exactness failure"):
            compare(cuntz_graph(4), cuntz_graph(3))


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


# Bates and Pask ("Flow equivalence of graph algebras", 2004) split a vertex
# v in m parts.  Out-splitting gives every edge out of v to one part and
# copies every edge into v once per part; in-splitting gives every edge into
# v to one part and copies every edge out of v once per part.  Out-splitting keeps the graph algebra up to
# isomorphism, so the invariant with the unit class; in-splitting keeps it up
# to stable isomorphism only, so the invariant without the unit class
# (Eilers, Restorff, Ruiz and Sorensen, arXiv 1611.07120).


def edge_list(e):
    """The edges of e one by one, parallel edges apart, as index pairs."""
    a = e.adjacency.data
    return [(i, j) for i in range(len(a)) for j in range(len(a)) for _ in range(a[i][j])]


def split(e, v, parts, out):
    """Split vertex index v: parts[k] is the part of the k-th edge out of v
    (out=True) or into v (out=False), in edge_list order.  Part 0 keeps the
    index v, part t > 0 gets the index n + t - 1."""
    n = len(e.vertices)
    copies = [v] + list(range(n, n + max(parts)))
    rows = [[0] * (n + len(copies) - 1) for _ in range(n + len(copies) - 1)]
    part = iter(parts)
    for s, r in edge_list(e):
        if out:
            sources = [copies[next(part)]] if s == v else [s]
            targets = copies if r == v else [r]
        else:
            targets = [copies[next(part)]] if r == v else [r]
            sources = copies if s == v else [s]
        for s2 in sources:
            for r2 in targets:
                rows[s2][r2] += 1
    return graph(rows)


def random_splits(rng, e, out, count):
    """`count` splittings of e at random vertices, each in two or three parts."""
    edges = edge_list(e)
    for _ in range(count):
        v = rng.randrange(len(e.vertices))
        k = sum(1 for s, r in edges if (s if out else r) == v)
        m = min(k, rng.choice((2, 3)))
        if m < 2:
            continue
        parts = list(range(m)) + [rng.randrange(m) for _ in range(k - m)]
        rng.shuffle(parts)
        yield split(e, v, parts, out)


def test_split_helpers_on_small_graphs():
    # one vertex with two loops (O_2): either splitting in two parts gives
    # the full 2 x 2 shift
    for out in (True, False):
        assert split(cuntz_graph(2), 0, [0, 1], out).adjacency.data == [[1, 1], [1, 1]]
    # v0 -> v1 twice, v1 -> v0 once, a loop at v1.  Out-splitting v1 gives
    # the edge to v0 and the loop to one part each and doubles the edges
    # into v1; in-splitting v1 gives one edge from v0 and the loop to the new
    # part, and doubles the edges out of v1 (the loop as well)
    e = graph([[0, 2], [1, 1]])
    assert split(e, 1, [0, 1], True).adjacency.data == [[0, 2, 2], [1, 0, 0], [0, 1, 1]]
    assert split(e, 1, [1, 0, 1], False).adjacency.data == [[0, 1, 1], [1, 0, 1], [1, 0, 1]]


MOVE_ORACLES = [(True, unit_compare), (False, compare_graph_invariants)]


@pytest.mark.parametrize("out, compare", MOVE_ORACLES, ids=["out_split", "in_split"])
@pytest.mark.parametrize("rows", TORSION_GRAPHS, ids=[str(r) for r in TORSION_GRAPHS])
def test_split_is_never_no_on_torsion_graphs(rows, out, compare):
    # the Hom groups of the search are isomorphic to End(XK0) and End(XK1),
    # finite here and within the budget, so the search is exhaustive
    e = graph(rows)
    rng = random.Random(str(rows) + str(out))
    for h in random_splits(rng, e, out, 3):
        assert admissible(h).admissible
        assert compare(e, h).verdict == "yes"
        assert compare(h, e).verdict == "yes"


@pytest.mark.parametrize("out, compare", MOVE_ORACLES, ids=["out_split", "in_split"])
def test_split_is_never_no_on_random_graphs(out, compare):
    rng = random.Random(11)
    seen = yes = 0
    while seen < 40:
        e = random_graph(rng, rng.randint(1, 4), (2, 3))
        if not admissible(e).admissible:
            continue
        for h in random_splits(rng, e, out, 1):
            assert admissible(h).admissible
            verdict = compare(e, h, budget=2000).verdict
            assert verdict != "no"
            seen += 1
            yes += verdict == "yes"
    assert yes >= 30


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


def set_based_reach(e):
    """{v: the vertices reachable from v, v included}, one set walk per
    vertex: the reference reachability for the bitmask layer."""
    reach = {}
    for v in e.vertices:
        seen, stack = {v}, [v]
        while stack:
            for w in e.targets(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[v] = seen
    return reach


def set_based_admissible(e):
    """(sinks, witness) by set walks: the reference for `admissible`."""
    sinks = [v for v in e.vertices if e.out_degree(v) == 0]
    reach = set_based_reach(e)
    for v in e.vertices:
        if not any(v in reach[w] for w in e.targets(v)):
            continue
        comp = {u for u in reach[v] if v in reach[u]}
        edges = sum(e.adjacency.data[e.index[u]][e.index[w]] for u in comp for w in comp)
        if edges == len(comp):
            cycle = [v]
            while len(cycle) < len(comp):
                (nxt,) = [w for w in e.targets(cycle[-1]) if w in comp]
                cycle.append(nxt)
            return sinks, tuple(cycle)
    return sinks, None


def set_based_irreducibles(e):
    """The join-irreducible hereditary saturated sets in label order, by set
    walks: the reference for `hereditary_saturated`."""

    def saturation(h):
        h = set(h)
        grew = True
        while grew:
            grew = False
            for v in e.vertices:
                if v not in h and e.targets(v) and all(w in h for w in e.targets(v)):
                    h.add(v)
                    grew = True
        return frozenset(h)

    closures = {saturation(r) for r in set_based_reach(e).values()}

    def join_below(h):
        return saturation(frozenset().union(*(k for k in closures if k < h)))

    return sorted((h for h in closures if join_below(h) != h),
                  key=lambda h: (len(h), sorted(e.index[v] for v in h)))


def bitmask_layer_mismatches(seed, count):
    """(mismatches, admissible): the graphs among `count` random ones on one
    to sixteen vertices on which `admissible` or `hereditary_saturated`
    disagrees with the set-based reference, and how many were admissible."""
    rng = random.Random(seed)
    mismatches, seen = [], 0
    for k in range(count):
        e = random_graph(rng, rng.randint(1, 16), (0, 2, 3) if k % 3 else (0, 1, 2))
        report = admissible(e)
        if (report.sinks, report.condition_k_witness) != set_based_admissible(e):
            mismatches.append(e.adjacency.data)
            continue
        if not report.admissible:
            continue
        seen += 1
        ideals = hereditary_saturated(e)
        expected = set_based_irreducibles(e)
        labels = [f"H{i}" for i in range(len(expected))]
        if (ideals.poset.points != labels
                or [ideals.vertex_sets[p] for p in labels] != expected
                or any(ideals.poset.leq(p, q) != (hq <= hp)
                       for p, hp in zip(labels, expected) for q, hq in zip(labels, expected))):
            mismatches.append(e.adjacency.data)
    return mismatches, seen


def test_bitmask_layer_matches_the_set_based_walk():
    # the same sinks, witness cycle, labels, vertex sets and order as the
    # set-based reachability, Condition (K) and saturation walks
    mismatches, seen = bitmask_layer_mismatches(11, 300)
    assert mismatches == [] and seen >= 100


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
    # the colimit of XK0 is K0 of the whole algebra, which is `unit_group`
    k0 = FgAbGroup(n, IntMatrix.identity(n) - e.adjacency.transpose())
    assert inv.unit_group.relations == k0.relations
    assert graphs._colimit_of_rep(inv.xk0).invariant_factors == k0.invariant_factors


# ---------------------------------------------------------------------------
# delta on the sequence's own resolution
# ---------------------------------------------------------------------------


def own_resolution(inv):
    return graphs._graph_resolution(inv.graph, inv.ideals, inv.sequence)


def assert_delta_matches_oracle(inv):
    """delta against the class of the same sequence on resolve_projective's
    resolution: the same Ext^2, both zero or both nonzero, and equal under
    ext2_compatible both ways."""
    delta, oracle = inv.delta, yoneda_class(inv.sequence)
    assert delta.ambient.group.invariant_factors == oracle.ambient.group.invariant_factors
    assert delta.is_zero() == oracle.is_zero()
    f0, f1 = RepMorphism.identity(inv.xk0), RepMorphism.identity(inv.xk1)
    assert ext2_compatible(f0, delta, oracle, f1)
    assert ext2_compatible(f0, oracle, delta, f1)


def test_delta_matches_the_yoneda_route_on_random_graphs():
    rng = random.Random(13)
    seen = own = dropped = nonzero = k = 0
    while seen < 300:
        k += 1
        e = random_graph(rng, rng.randint(1, 8), (2, 3) if k % 2 else (0, 2, 3))
        if not admissible(e).admissible:
            continue
        seen += 1
        inv = XKInvariant(e)
        assert_delta_matches_oracle(inv)
        found = own_resolution(inv)
        if found is not None:
            own += 1
            verify_resolution(found[0])
            covered = set().union(*inv.ideals.vertex_sets.values())
            dropped += len(covered) < len(e.vertices)
        nonzero += not inv.delta.is_zero()
    assert own >= 290 and dropped and nonzero >= 2


def test_delta_falls_back_when_a_support_has_two_tops(monkeypatch):
    # v4 lies in H2 = {v1, v3, v4, v5}, H3 = {v2, v3, v4, v5} and
    # H4 = {v0, v1, v3, v4, v5}; the smallest, H2 and H3, are both tops
    e = graph([[2, 1, 0, 0, 0, 0], [0, 2, 0, 0, 1, 2], [0, 0, 2, 0, 2, 0],
               [0, 0, 0, 2, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 0, 3]])
    inv = XKInvariant(e)
    tops = [x for x in ("H2", "H3") if "v4" in inv.ideals.vertex_sets[x]]
    assert tops == ["H2", "H3"] and not inv.ideals.poset.leq("H2", "H3")
    assert own_resolution(inv) is None
    resolutions = counter(monkeypatch, quiver, "resolve_projective")
    assert_delta_matches_oracle(inv)
    assert len(resolutions) == 2  # delta's, then the oracle's


def test_delta_drops_vertices_in_no_ideal():
    # H0 = {v2} and H1 = {v3}: v0 and v1 lie in no H_x, so Q has no
    # coordinate for them and the resolution has one generator per point
    e = graph([[0, 1, 2, 0], [0, 0, 1, 1], [0, 0, 2, 0], [0, 0, 0, 2]])
    inv = XKInvariant(e)
    assert set(inv.ideals.vertex_sets.values()) == {frozenset({"v2"}), frozenset({"v3"})}
    res, _ = own_resolution(inv)
    assert [p.gen_points for p in res.projectives[:2]] == [["H0", "H1"]] * 2
    verify_resolution(res)
    assert_delta_matches_oracle(inv)


# The smallest random admissible graph with a nonzero obstruction class: two
# ideals, H0 = {v0} inside H1 = all vertices, XK0 = Z/2 at H0 and Z at H1,
# and Ext^2 = Z/2
NONZERO_DELTA = [[3, 0, 0], [0, 2, 1], [1, 1, 2]]


def test_nonzero_delta_on_the_graph_route():
    inv = xk_invariant(graph(NONZERO_DELTA))
    assert own_resolution(inv) is not None
    (y, x), = inv.ideals.poset.hasse_arrows
    assert [inv.xk0.groups[p].invariant_factors for p in (x, y)] == [[0], [2]]
    assert inv.delta.ambient.group.invariant_factors == [2] and not inv.delta.is_zero()
    oracle = sierpinski_ext2(inv.xk0.arrow_map(y, x), inv.xk1.arrow_map(y, x))
    assert oracle.invariant_factors == [2]
    assert_delta_matches_oracle(inv)


def test_delta_falls_back_when_the_cover_of_xk1_has_a_kernel(monkeypatch):
    # no sampled graph has a non-projective XK1, so the cover is given a
    # repeated generator: P2 -> P1 is then not injective, and the sequence
    # is no resolution
    def repeated_cover(v):
        p, phi = quiver.minimal_cover(v)
        twice = ProjectiveRep(p.poset, p.gen_points + p.gen_points[:1])
        return twice, ProjIntoRep(twice, v, phi.vectors + phi.vectors[:1])

    monkeypatch.setattr(graphs, "minimal_cover", repeated_cover)
    inv = XKInvariant(graph(NONZERO_DELTA))
    assert own_resolution(inv) is None
    assert_delta_matches_oracle(inv)
    assert not inv.delta.is_zero()


def witness_classes(e1, e2, out):
    """(f0, delta, delta', f1): the module witness of a `yes`, rebuilt over
    xk_invariant(e1) and the pull of xk_invariant(e2) through the poset
    witness, with the two obstruction classes over those modules."""
    inv1, inv2 = xk_invariant(e1), xk_invariant(e2)
    sigma, poset = out.poset_iso, inv1.ideals.poset
    m0, m1 = _pull_rep(inv2.xk0, sigma, poset), _pull_rep(inv2.xk1, sigma, poset)
    f0, f1 = (RepMorphism(s, t, {p: GroupMorphism(s.groups[p], t.groups[p], w.maps[p].matrix)
                                 for p in poset.points})
              for s, t, w in zip((inv1.xk0, inv1.xk1), (m0, m1), out.module_iso))
    return f0, inv1.delta, _pull_class(inv2.delta, sigma, m0, m1), f1


@pytest.mark.parametrize("move", ["relabel", "out_split"])
def test_witness_carries_the_nonzero_delta(move):
    e = graph(NONZERO_DELTA)
    if move == "relabel":
        perm = (2, 0, 1)
        h = graph([[NONZERO_DELTA[i][j] for j in perm] for i in perm])
    else:
        h = split(e, 2, [0, 1, 0, 0], True)
    out = unit_compare(e, h)
    assert out.verdict == "yes"
    f0, delta, pulled, f1 = witness_classes(e, h, out)
    assert not delta.is_zero() and not pulled.is_zero()
    assert ext2_compatible(f0, delta, pulled, f1)
    zero = Ext2Class(pulled.ambient, pulled.ambient.zero_class())
    assert not ext2_compatible(f0, delta, zero, f1)


def relabelled(rows, perm):
    return graph([[rows[i][j] for j in perm] for i in perm])


def test_delta_prime_is_built_only_when_ext2_can_be_nonzero(monkeypatch):
    builds = counter(monkeypatch, graphs, "_graph_resolution")
    pulls = counter(monkeypatch, graphs, "_pull_class")
    rows = TORSION_GRAPHS[3]
    out = unit_compare(graph(rows), relabelled(rows, (2, 0, 1)))
    assert out.verdict == "yes"
    assert len(builds) == 1 and pulls == []  # delta alone, found trivial

    builds.clear()
    out = unit_compare(graph(NONZERO_DELTA), relabelled(NONZERO_DELTA, (2, 0, 1)))
    assert out.verdict == "yes"
    assert len(builds) == 2 and len(pulls) == 1


def test_a_witness_against_the_zero_class_is_still_rejected(monkeypatch):
    pull = graphs._pull_class

    def pulled_to_zero(delta, sigma, m0, m1):
        pulled = pull(delta, sigma, m0, m1)
        return Ext2Class(pulled.ambient, pulled.ambient.zero_class())

    monkeypatch.setattr(graphs, "_pull_class", pulled_to_zero)
    out = unit_compare(graph(NONZERO_DELTA), relabelled(NONZERO_DELTA, (2, 0, 1)))
    # every candidate is rejected; XK0 = Z at H1 is free, so that is no proof
    assert out.verdict == "unknown"


def test_ext2_compatible_lifts_a_chain_map_only_for_nonzero_ext2(monkeypatch):
    lifts = counter(monkeypatch, quiver, "chain_lift")
    for rows, expected in ((TORSION_GRAPHS[3], 0), (NONZERO_DELTA, 1)):
        inv = xk_invariant(graph(rows))
        assert inv.delta.ambient.group.is_trivial() == (expected == 0)
        lifts.clear()
        f0, f1 = RepMorphism.identity(inv.xk0), RepMorphism.identity(inv.xk1)
        assert ext2_compatible(f0, inv.delta, inv.delta, f1)
        assert len(lifts) == expected


# ---------------------------------------------------------------------------
# exactness of the four-term sequence, proved from its construction
# ---------------------------------------------------------------------------


def admissible_graphs(seed, count):
    """`count` random admissible graphs on one to seven vertices."""
    rng = random.Random(seed)
    k = 0
    while count:
        k += 1
        e = random_graph(rng, rng.randint(1, 7), (2, 3) if k % 2 else (0, 2, 3))
        if admissible(e).admissible:
            count -= 1
            yield e


def with_point(seq, p, m1=None, q=None, b=None, m0=None, pi=None):
    """seq with, at point p, the group of XK1 or of Q, the inclusion matrix
    B, the group of XK0 or the projection matrix replaced."""
    def rep(r, group):
        return r if group is None else QuiverRep(r.poset, {**r.groups, p: group}, r.arrows,
                                                 check=False)

    def mor(f, src, tgt, matrix):
        matrix = f.maps[p].matrix if matrix is None else matrix
        maps = {**f.maps, p: GroupMorphism(src.groups[p], tgt.groups[p], matrix, trusted=True)}
        return RepMorphism(src, tgt, maps, trusted=True)

    m1, q, m0 = rep(seq.m1, m1), rep(seq.q0, q), rep(seq.m0, m0)
    return TwoExtension(m1, q, q, m0, mor(seq.d2, m1, q, b), mor(seq.d1, q, q, None),
                        mor(seq.eps, q, m0, pi))


def exactness_mutants(seq, p):
    """Broken copies of seq at point p, where XK1 and d are nonzero."""
    b, d = seq.d2.maps[p].matrix, seq.d1.maps[p].matrix
    n, k = d.rows, b.cols
    j = next(j for j in range(d.cols) if any(d.column(j)))  # d e_j != 0
    outside = [[x + (i == j and c == 0) for c, x in enumerate(row)] for i, row in enumerate(b.data)]
    e0 = IntMatrix.from_columns([[1] + [0] * (n - 1)])

    def last_column(column):  # B with its last column replaced: rank-deficient
        return IntMatrix.from_columns([*(b.column(c) for c in range(k - 1)), column])

    mutants = {
        "doubled inclusion": with_point(seq, p, b=b.scaled(2)),
        "dropped column": with_point(seq, p, m1=FgAbGroup.free(k - 1),
                                     b=b.submatrix(range(b.rows), range(k - 1))),
        "column outside ker d": with_point(seq, p, b=IntMatrix.from_rows(outside)),
        "relation on XK1": with_point(
            seq, p, m1=FgAbGroup(k, IntMatrix.from_columns([[2] + [0] * (k - 1)]))),
        "relation on Q": with_point(seq, p, q=FgAbGroup(n, e0)),
        "relations of XK0 changed": with_point(seq, p, m0=FgAbGroup(n, d.hstack(e0))),
        "projection not the identity": with_point(seq, p, pi=IntMatrix.identity(n).scaled(2)),
        "zero column": with_point(seq, p, b=last_column([0] * b.rows)),
    }
    if k > 1:
        mutants["repeated column"] = with_point(seq, p, b=last_column(b.column(0)))
    return mutants


def mutable_points(seq):
    return [p for p in seq.m0.poset.points
            if seq.m1.groups[p].ngens and not seq.d1.maps[p].matrix.is_zero()]


def test_exactness_proof_agrees_with_verify_exact_on_random_graphs():
    # TwoExtension.verify_exact, which decides exactness of any sequence, is
    # the oracle: both pass on every sequence the module layer builds, and
    # the proof rejects every mutant at every point where XK1 and d are
    # nonzero
    mutated = 0
    for e in admissible_graphs(17, 220):
        seq = XKInvariant(e).sequence  # built, so proved exact once
        graphs._check_exact(seq)
        assert seq.verify_exact()
        for p in mutable_points(seq):
            for name, broken in exactness_mutants(seq, p).items():
                with pytest.raises(ExactArithmeticError, match="internal exactness failure"):
                    graphs._check_exact(broken)
                mutated += 1
    assert mutated >= 60


# One point with d = -J of rank 1, so XK1 = XK0 = Z^2: every mutant applies
RANK_TWO_KERNEL = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


def test_checks_raise_under_python_O():
    # the exactness proof and the unit-class checks must raise real errors,
    # which python -O keeps
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from obstruct import graphs
        from obstruct.intlinalg import ExactArithmeticError
        from test_graphs import (RANK_TWO_KERNEL, exactness_mutants, graph, mutable_points,
                                 tampered_unit_classes)
        if not sys.flags.optimize:
            raise SystemExit("not running under -O")
        seq = graphs.XKInvariant(graph(RANK_TWO_KERNEL)).sequence
        (p,) = mutable_points(seq)
        out = {}
        for name, check in [*((n, lambda b=b: graphs._check_exact(b))
                              for n, b in exactness_mutants(seq, p).items()),
                            *tampered_unit_classes().items()]:
            try:
                check()
                out[name] = "passed"
            except ExactArithmeticError as exc:
                out[name] = str(exc)
        print(json.dumps(out))
    """)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script, tests], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    raised = json.loads(out.stdout)
    assert len(raised) == 12
    for name, message in raised.items():
        expected = "isomorphically" if name.startswith("unit") else "internal exactness failure"
        assert expected in message, name


def test_fast_path_oracles_under_python_O():
    # the oracles of the bitmask layer and of the closed-form automorphism
    # test compare values, and the exact-identity fast paths fall back to
    # checks that raise real errors, which python -O keeps
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from obstruct.abelian import IllDefinedMorphism
        from obstruct.quiver import rep_cokernel
        from test_abelian import closed_form_case, unequal_walk_case
        from test_graphs import bitmask_layer_mismatches, tampered_nat
        from test_quiver import cokernel_cases
        if not sys.flags.optimize:
            raise SystemExit("not running under -O")
        closed = [closed_form_case(seed) for seed in range(300)]
        unequal = [unequal_walk_case(seed) for seed in range(100)]
        mismatches, seen = bitmask_layer_mismatches(11, 150)
        raised = {}
        for name, check in [("nat", tampered_nat()),
                            ("arrow", lambda: rep_cokernel(cokernel_cases()["tampered"]))]:
            try:
                check()
                raised[name] = False
            except IllDefinedMorphism:
                raised[name] = True
        print(json.dumps({
            "closed form disagrees": sum(a != b for a, b in closed),
            "automorphisms": sum(b for _, b in closed),
            "unequal lists with an isomorphism": sum(u not in (None, (0, False)) for u in unequal),
            "bitmask mismatches": len(mismatches),
            "admissible": seen,
            "raised": raised,
        }))
    """)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script, tests], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert 50 <= got.pop("automorphisms") <= 250 and got.pop("admissible") >= 50
    assert got == {"closed form disagrees": 0, "unequal lists with an isomorphism": 0,
                   "bitmask mismatches": 0, "raised": {"nat": True, "arrow": True}}


# ---------------------------------------------------------------------------
# the unit class in K0 vertex coordinates
# ---------------------------------------------------------------------------


def colimit_unit(inv):
    """(colim, unit): the colimit of XK0 on the sum of its point groups, and
    the unit's canonical coordinates there, solved through the checked
    isomorphism colim -> K0: the reference for the unit class in vertex
    coordinates."""
    e, sets = inv.graph, inv.ideals.vertex_sets
    n = len(e.vertices)
    colim = graphs._colimit_of_rep(inv.xk0)
    k0 = FgAbGroup(n, IntMatrix.identity(n) - e.adjacency.transpose())
    nat = IntMatrix.zeros(n, 0)
    for p in inv.xk0.poset.points:
        nat = nat.hstack(graphs._restriction_matrix(e, sets[p], e.vertices))
    assert GroupMorphism(colim, k0, nat).is_iso()
    xi = factor_through(nat, IntMatrix.from_columns([[1] * n]), k0.relations)
    return colim, colim.canon_coords(xi.column(0))


def colimit_unit_preserved(family, inv1, inv2, sigma, colimits):
    """Does f0 carry unit to unit, read through a checked morphism of
    colimits?  `colimits` caches colimit_unit per invariant."""
    for inv in (inv1, inv2):
        if id(inv) not in colimits:  # keeps inv alive, so its id is not reused
            colimits[id(inv)] = inv, colimit_unit(inv)
    (_, (colim1, unit1)), (_, (colim2, unit2)) = colimits[id(inv1)], colimits[id(inv2)]
    offsets1, _ = graphs._block_offsets(inv1.xk0)
    offsets2, _ = graphs._block_offsets(inv2.xk0)
    m = IntMatrix.zeros(colim2.ngens, colim1.ngens)
    for p in inv1.xk0.poset.points:
        block = family[0].maps[p].matrix
        for j in range(block.cols):
            for i in range(block.rows):
                m.data[offsets2[sigma[p]] + i][offsets1[p] + j] = block.data[i][j]
    induced = GroupMorphism(colim1, colim2, m)
    return colim2.canon_coords(induced.matrix.apply(colim1.from_canon(unit1))) == unit2


def has_least_point(inv):
    poset = inv.ideals.poset
    return any(all(poset.leq(x, y) for y in poset.points) for x in poset.points)


# Two minimal points H0 = {v1} and H1 = {v2}, K0 = Z/2 + Z/3 = Z/6, and
# v0 in no H_x
TWO_MINIMA = [[0, 1, 1], [0, 3, 0], [0, 0, 4]]


def test_unit_class_agrees_with_the_colimit_route(monkeypatch):
    # every candidate family the search offers is accepted or rejected
    # alike by the vertex-coordinate test and by the checked colimit
    # morphism
    real = graphs.unit_image_under
    colimits, seen = {}, []

    def both(family, inv1, inv2, sigma):
        image = real(family, inv1, inv2, sigma)
        preserved = colimit_unit_preserved(family, inv1, inv2, sigma, colimits)
        assert (image == inv2.unit) == preserved
        seen.append((preserved, has_least_point(inv1),
                     set().union(*inv1.ideals.vertex_sets.values()) != set(inv1.graph.vertices)))
        return image

    monkeypatch.setattr(graphs, "unit_image_under", both)
    # XK0 = Z/2 and Z/3 on two minimal points on both sides, but the unit
    # class has order 3 in K0 = Z/6 on the left and order 6 on the right
    out = unit_compare(graph(TWO_MINIMA), graph([[3, 0], [0, 4]]))
    assert (out.verdict, out.layer) == ("no", "class")
    rng = random.Random(31)
    fixed = [NONZERO_DELTA, TWO_MINIMA, [[0, 1, 2, 0], [0, 0, 1, 1], [0, 0, 2, 0], [0, 0, 0, 2]]]
    for e in [graph(rows) for rows in fixed] + list(admissible_graphs(31, 60)):
        n = len(e.vertices)
        partners = [relabelled(e.adjacency.data, rng.sample(range(n), n))]
        partners += random_splits(rng, e, True, 1)
        partners += random_splits(rng, e, False, 1)
        for h in partners:
            if admissible(h).admissible:
                unit_compare(e, h, budget=200)
    # both answers occur: overall, on the general route (no least point),
    # and with a vertex in no H_x
    assert {s[0] for s in seen} == {True, False}
    assert {s[0] for s in seen if not s[1]} == {True, False}
    assert {s[0] for s in seen if s[2]} == {True, False}


def tampered_unit_classes():
    """Unit classes built from a wrong XK0 or a wrong least point; each must
    raise.  Names start with "unit"."""
    o4 = XKInvariant(cuntz_graph(4))
    (point,) = o4.ideals.poset.points
    two = XKInvariant(graph(TWO_MINIMA))
    # XK0 = Z/2 at H0 replaced by Z: the colimit Z + Z/3 maps onto Z/6,
    # but not isomorphically
    free_h0 = QuiverRep(two.xk0.poset, {**two.xk0.groups, "H0": FgAbGroup.free(1)},
                        two.xk0.arrows, check=False)
    # the vertex set of the least point H1 (all vertices) missing v2
    nonzero = XKInvariant(graph(NONZERO_DELTA))
    short = IdealPoset(nonzero.graph, nonzero.ideals.poset,
                       {**nonzero.ideals.vertex_sets, "H1": frozenset({"v0", "v1"})})
    return {
        "unit, least point, XK0 torsion dropped":
            lambda: graphs._unit_class(o4.graph, o4.ideals, QuiverRep(
                o4.xk0.poset, {point: FgAbGroup.free(1)}, {}, check=False)),
        "unit, least point, a vertex missing":
            lambda: graphs._unit_class(nonzero.graph, short, nonzero.xk0),
        "unit, two minimal points, XK0 torsion dropped":
            lambda: graphs._unit_class(two.graph, two.ideals, free_h0),
    }


@pytest.mark.parametrize("name", ["unit, least point, a vertex missing",
                                  "unit, two minimal points, XK0 torsion dropped"])
def test_tampered_unit_class_raises(name):
    # the first tamper is test_unit_class_needs_an_isomorphic_colimit's
    with pytest.raises(ExactArithmeticError, match="isomorphically"):
        tampered_unit_classes()[name]()


def tampered_nat():
    """The unit class of TWO_MINIMA with XK0 at H0 presented as Z/1: its
    relation e_v1 is neither 0 nor a column of I - A^t, and e_v1 is not 0 in
    K0 = Z/6, so the natural map is not well defined and must raise."""
    two = XKInvariant(graph(TWO_MINIMA))
    one = FgAbGroup(1, IntMatrix.from_rows([[1]]))
    xk0 = QuiverRep(two.xk0.poset, {**two.xk0.groups, "H0": one}, two.xk0.arrows, check=False)
    return lambda: graphs._unit_class(two.graph, two.ideals, xk0)


def test_natural_map_is_well_defined_by_its_exact_identity(monkeypatch):
    # every relation of the colimit goes to 0 or to a column of I - A^t, so
    # no lattice test runs; a tampered XK0 falls back to it and raises
    inv = XKInvariant(graph(TWO_MINIMA))
    inv.xk0
    lattice_tests = counter(monkeypatch, GroupMorphism, "_find_violation")
    inv.unit
    assert lattice_tests == []
    tampered = tampered_nat()
    lattice_tests.clear()
    with pytest.raises(IllDefinedMorphism):
        tampered()
    assert len(lattice_tests) == 1


def test_unit_class_at_a_least_point_eliminates_no_k0_of_its_own(monkeypatch):
    # K0 is XK0 at the least point, whose presentation I - A^t the
    # comparison has eliminated before it reads the unit class
    for rows in (NONZERO_DELTA, [[4]], [[2, 1], [0, 3]]):
        inv = XKInvariant(graph(rows))
        assert has_least_point(inv)
        for group in inv.xk0.groups.values():
            group.invariant_factors
        n = len(inv.graph.vertices)
        d = IntMatrix.identity(n) - inv.graph.adjacency.transpose()
        eliminated = []
        real = intlinalg._eliminate
        monkeypatch.setattr(intlinalg, "_eliminate", lambda a: eliminated.append(a) or real(a))
        inv.unit
        monkeypatch.setattr(intlinalg, "_eliminate", real)
        assert d not in eliminated
        assert inv.unit == FgAbGroup(n, d).canon_coords([1] * n)


def test_module_layer_caches_every_point_group_smith_form(monkeypatch):
    # the module layer reads each point group's Smith form inside its
    # shared-elimination scope, so the isomorphism search, which reads the
    # invariant factors later and outside that scope, eliminates nothing
    invariants = [XKInvariant(graph(rows)) for rows in (NONZERO_DELTA, TWO_MINIMA, [[2, 1], [0, 3]])]
    for inv in invariants:
        inv.xk0
    eliminated = counter(monkeypatch, intlinalg, "_eliminate")
    for inv in invariants:
        for rep in (inv.xk0, inv.xk1):
            for group in rep.groups.values():
                group.invariant_factors
    assert eliminated == []


def test_unit_class_on_two_minimal_points():
    # no least point, so the lift is solved through the checked colimit;
    # it spreads over both points and misses v0, which lies in no H_x
    inv = xk_invariant(graph(TWO_MINIMA))
    assert not has_least_point(inv)
    assert inv.unit_group.invariant_factors == [6]
    k0, unit, lift = graphs._unit_class(inv.graph, inv.ideals, inv.xk0)
    assert sorted(lift) == ["H0", "H1"]
    image = [0, 0, 0]
    for p, xi in lift.items():
        (v,) = inv.ideals.vertex_sets[p]
        image[inv.graph.index[v]] += xi[0]
    assert k0.contains_relation([x - 1 for x in image]) and inv.unit == k0.canon_coords([1, 1, 1])
