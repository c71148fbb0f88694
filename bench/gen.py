"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain library inputs
(graphs, integer matrices, poset representations, graded modules).  The same
seed gives the same inputs; nothing here reads the clock or the environment.
"""

from __future__ import annotations

import math

from obstruct.abelian import FgAbGroup, GroupMorphism
from obstruct.graphs import DirectedGraph, admissible
from obstruct.intlinalg import IntMatrix, charpoly
from obstruct.laurent import GradedRModule, RModuleFg, ck_module
from obstruct.posets import FinitePoset
from obstruct.quiver import QuiverRep


# ---------------------------------------------------------------------------
# Graphs: strongly connected Condition (K) blocks joined by a random DAG
# ---------------------------------------------------------------------------


def _block(rng, size, torsion):
    """Adjacency of one strongly connected block that is not a bare cycle.

    A Hamiltonian cycle makes the block strongly connected, and a chord, a
    second loop or a multiplicity-2 edge gives every vertex a second return
    path, which is Condition (K) inside the block.  A `torsion` block has odd
    loops on the diagonal and even entries elsewhere, so I - B^t is zero mod
    2 and K0 of the block is a sum of `size` even cyclic groups, such as
    Z/2 + Z/2 + Z/96.
    """
    if size == 1:
        return [[rng.choice([3, 5] if torsion else [2, 3])]]
    a = [[0] * size for _ in range(size)]
    order = list(range(size))
    rng.shuffle(order)
    step = 2 if torsion else 1
    for k in range(size):
        a[order[k]][order[(k + 1) % size]] = step
    for _ in range(rng.randint(1, max(1, size // 2))):
        i, j = rng.randrange(size), rng.randrange(size)
        a[i][j] += 2 if torsion and i != j else 1
    if torsion:
        for i in range(size):
            if a[i][i] % 2 == 0:
                a[i][i] += rng.choice([1, 3])
    return a


def block_graph(rng, block_sizes, torsion_blocks=(), edge_prob=0.5):
    """Admissible graph from the given blocks, joined by random DAG edges.

    Blocks are listed in a topological order; a DAG edge runs from a vertex
    of an earlier block to a vertex of a later block, so the primitive ideal
    space is any poset on the blocks, not only a chain.
    """
    n = sum(block_sizes)
    a = [[0] * n for _ in range(n)]
    offsets = []
    off = 0
    for b, size in enumerate(block_sizes):
        offsets.append(off)
        blk = _block(rng, size, b in torsion_blocks)
        for i in range(size):
            for j in range(size):
                a[off + i][off + j] = blk[i][j]
        off += size
    nb = len(block_sizes)
    for s in range(nb):
        for t in range(s + 1, nb):
            if rng.random() < edge_prob:
                u = offsets[s] + rng.randrange(block_sizes[s])
                w = offsets[t] + rng.randrange(block_sizes[t])
                a[u][w] += rng.choice([1, 1, 2])
    g = DirectedGraph.from_adjacency(IntMatrix.from_rows(a))
    admissible(g).ensure()
    return g


def _edge_list(g):
    """Edges of g with multiplicity expanded, as (source, target) labels."""
    out = []
    for i, u in enumerate(g.vertices):
        for j, w in enumerate(g.vertices):
            out.extend([(u, w)] * g.adjacency.data[i][j])
    return out


def _split_edges(rng, edges):
    """A random partition of `edges` (>= 2 of them) into two nonempty parts."""
    idx = list(range(len(edges)))
    rng.shuffle(idx)
    cut = rng.randint(1, len(edges) - 1)
    first = set(idx[:cut])
    return ([e for k, e in enumerate(edges) if k in first],
            [e for k, e in enumerate(edges) if k not in first])


def relabel(rng, g):
    """The same graph with its vertices renamed and listed in a new order."""
    perm = list(range(len(g.vertices)))
    rng.shuffle(perm)
    names = {v: f"r{perm[i]}" for i, v in enumerate(g.vertices)}
    verts = sorted(names.values(), key=lambda s: int(s[1:]))
    return DirectedGraph(verts, [(names[u], names[w]) for u, w in _edge_list(g)])


def out_split(rng, g):
    """Out-split a vertex with at least two outgoing edges.

    The out-edges of v are partitioned between v1 and v2, and every edge into
    v is doubled into edges to v1 and to v2.  The graph algebra is unchanged
    up to isomorphism (Bates-Pask 2004), unit included.
    """
    edges = _edge_list(g)
    cands = [v for v in g.vertices if g.out_degree(v) >= 2]
    v = rng.choice(cands)
    e1, e2 = _split_edges(rng, [e for e in edges if e[0] == v])
    v1, v2 = f"{v}_1", f"{v}_2"
    new = []
    for u, w in edges:
        if u == v:
            continue
        if w == v:
            new += [(u, v1), (u, v2)]
        else:
            new.append((u, w))
    for part, src in ((e1, v1), (e2, v2)):
        for _, w in part:
            new += [(src, v1), (src, v2)] if w == v else [(src, w)]
    verts = [x for x in g.vertices if x != v] + [v1, v2]
    return DirectedGraph(verts, new)


def in_split(rng, g):
    """In-split a vertex with at least two incoming edges.

    The in-edges of v are partitioned between v1 and v2, and every edge out
    of v is doubled into edges from v1 and from v2.  The graph algebra is
    unchanged up to stable isomorphism only (Eilers-Restorff-Ruiz-Sorensen,
    arXiv 1611.07120), so the unit class is not preserved.
    """
    edges = _edge_list(g)
    cands = [v for v in g.vertices if sum(1 for e in edges if e[1] == v) >= 2]
    v = rng.choice(cands)
    e1, e2 = _split_edges(rng, [e for e in edges if e[1] == v])
    v1, v2 = f"{v}_1", f"{v}_2"
    new = []
    for u, w in edges:
        if w == v:
            continue
        if u == v:
            new += [(v1, w), (v2, w)]
        else:
            new.append((u, w))
    for part, tgt in ((e1, v1), (e2, v2)):
        for u, _ in part:
            new += [(v1, tgt), (v2, tgt)] if u == v else [(u, tgt)]
    verts = [x for x in g.vertices if x != v] + [v1, v2]
    return DirectedGraph(verts, new)


# ---------------------------------------------------------------------------
# Matrices for shift equivalence
# ---------------------------------------------------------------------------


def ck_matrix(rng, n, max_entry):
    """Non-negative n x n matrix with no zero row or column."""
    while True:
        a = IntMatrix.from_rows([[rng.choice([0, 0] + list(range(1, max_entry + 1)))
                                  for _ in range(n)] for _ in range(n)])
        if _valid_ck(a):
            return a


def _elementary(n, i, j, c):
    e = IntMatrix.identity(n)
    e.data[i][j] = c
    return e


def conjugate_pair(rng, n, max_entry, steps):
    """(A, P A P^-1) with P a product of elementary and permutation matrices.

    Steps that would make an entry negative or a row or column vanish are
    rejected, so B stays a valid non-negative matrix; B differs from A.
    """
    while True:
        a = ck_matrix(rng, n, max_entry)
        b = a
        for _ in range(steps):
            if rng.random() < 0.3:
                perm = list(range(n))
                rng.shuffle(perm)
                p = IntMatrix.from_rows([[1 if perm[i] == j else 0 for j in range(n)]
                                         for i in range(n)])
                b = p @ b @ p.transpose()
                continue
            i, j = rng.sample(range(n), 2)
            c = rng.choice([1, -1])
            cand = _elementary(n, i, j, c) @ b @ _elementary(n, i, j, -c)
            if _valid_ck(cand):
                b = cand
        if b != a:
            return a, b


def _valid_ck(m):
    """Non-negative with no zero row or column, as shift_equivalent requires."""
    n = m.rows
    rows = m.data
    return (all(e >= 0 for r in rows for e in r)
            and all(any(r) for r in rows)
            and all(any(rows[i][j] for i in range(n)) for j in range(n)))


def same_charpoly_pair(rng, n, max_entry, draws):
    """A pair A != B with equal characteristic polynomials, found by grouping
    `draws` random matrices by their polynomial, or None if none collide."""
    groups = {}
    for _ in range(draws):
        a = ck_matrix(rng, n, max_entry)
        groups.setdefault(tuple(charpoly(a)), []).append(a)
    pairs = [(ms[0], m) for key, ms in sorted(groups.items()) for m in ms[1:2] if m != ms[0]]
    return rng.choice(pairs) if pairs else None


def different_charpoly_pair(rng, n, max_entry):
    while True:
        a, b = ck_matrix(rng, n, max_entry), ck_matrix(rng, n, max_entry)
        if charpoly(a) != charpoly(b):
            return a, b


# ---------------------------------------------------------------------------
# Posets, representations and graded Z[x, 1/x]-modules
# ---------------------------------------------------------------------------


def random_poset(rng, npoints, edge_prob=0.4):
    """Transitive closure of a random DAG on 0 < 1 < ... < npoints-1."""
    pts = [f"p{i}" for i in range(npoints)]
    pairs = [(pts[i], pts[j]) for i in range(npoints) for j in range(i + 1, npoints)
             if rng.random() < edge_prob]
    return FinitePoset(pts, pairs)


def random_group(rng, max_gens, max_factor, free=True):
    """Direct sum of up to `max_gens` cyclic groups Z/d (d = 0 gives Z, which
    is drawn only when `free`)."""
    k = rng.randint(0, max_gens)
    orders = ([0] if free else []) + list(range(2, max_factor + 1))
    return FgAbGroup.from_invariant_factors([rng.choice(orders) for _ in range(k)])


def _convex_set(rng, poset):
    """A random down-set, up-set or interval [y, z] of the poset."""
    pts = poset.points
    kind = rng.randrange(3)
    if kind == 0:
        z = rng.choice(pts)
        return [p for p in pts if poset.leq(p, z)]
    if kind == 1:
        y = rng.choice(pts)
        return [p for p in pts if poset.leq(y, p)]
    y, z = rng.choice([(a, b) for a in pts for b in pts if poset.leq(a, b)])
    return [p for p in pts if poset.leq(y, p) and poset.leq(p, z)]


def random_rep(rng, poset, max_summands, max_factor):
    """Direct sum of Z/d (d = 0 gives Z) placed on random convex sets.

    On a convex set C every chain between two points of C stays in C, so the
    identity-or-zero arrows compose to a map that does not depend on the
    chain: the module law holds also on posets that are not unique path
    spaces.  Up-sets and intervals are not projective, so Ext^1 and Ext^2
    are not forced to vanish.
    """
    summands = {p: [] for p in poset.points}
    for k in range(rng.randint(1, max_summands)):
        d = rng.choice([0] + list(range(2, max_factor + 1)))
        for p in _convex_set(rng, poset):
            summands[p].append((k, d))
    groups = {p: FgAbGroup.from_invariant_factors([d for _, d in summands[p]])
              for p in poset.points}
    arrows = {}
    for y, x in poset.hasse_arrows:
        src, tgt = summands[y], summands[x]
        m = IntMatrix.zeros(len(tgt), len(src))
        for j, s in enumerate(src):
            if s in tgt:
                m.data[tgt.index(s)][j] = 1
        arrows[(y, x)] = GroupMorphism(groups[y], groups[x], m)
    return QuiverRep(poset, groups, arrows)


def random_fg_module(rng, max_gens, max_factor, free=True):
    """An fg-over-Z module: a group G with an automorphism x.

    x is drawn in the canonical coordinates of G (a unit on each cyclic
    factor plus small off-diagonal terms) and kept once it is invertible.
    """
    g = random_group(rng, max_gens, max_factor, free)
    facs = g.invariant_factors
    n = len(facs)
    for _ in range(40):
        mat = IntMatrix.zeros(n, n)
        for i in range(n):
            for j in range(n):
                if i == j:
                    units = [u for u in range(1, max(facs[i], 2)) if math.gcd(u, facs[i]) == 1]
                    mat.data[i][j] = rng.choice([1, -1] if facs[i] == 0 else units)
                elif rng.random() < 0.3:
                    mat.data[i][j] = rng.randint(-1, 1)
        e = IntMatrix.zeros(g.ngens, g.ngens)
        for jj, pj in enumerate(g.canon_positions):
            for ii, pi in enumerate(g.canon_positions):
                e.data[pi][pj] = mat.data[ii][jj]
        try:
            return RModuleFg(g, GroupMorphism(g, g, g.snf.Uinv @ e @ g.snf.U))
        except ValueError:
            continue
    return RModuleFg(g, GroupMorphism.identity(g))


def random_graded_module(rng, max_gens, max_factor, ck_even=False, free=True):
    """Graded module with fg parts, or with a ck_module even part."""
    odd = random_fg_module(rng, max_gens, max_factor, free)
    if ck_even:
        even = ck_module(ck_matrix(rng, rng.randint(1, 2), 4)).even
    else:
        even = random_fg_module(rng, max_gens, max_factor, free)
    return GradedRModule(even=even, odd=odd)
