"""Graph algebra combinatorics and the complete invariant.

Scope: finite directed graphs with no sinks satisfying Condition (K) (every
vertex on a cycle lies on at least two distinct return paths).  These
conditions make every ideal gauge-invariant, so the ideal lattice is the
lattice of hereditary saturated vertex sets and the primitive ideal space is
a finite T0-space read off from its join-irreducible elements (Bates, Hong,
Raeburn and Szymanski, "The ideal structure of the C*-algebras of infinite
graphs", 2002).  Neither is found by enumeration:

  - Condition (K) fails exactly at a vertex on a cycle whose strongly
    connected component is one bare cycle, i.e. has as many edges (counted
    with multiplicity) as vertices;
  - with cl(v) the saturation of the set of vertices reachable from v, every
    hereditary saturated set is the saturation of a union of some cl(v), and
    the join-irreducible ones are exactly the cl(v) that differ from the
    saturation of the union of all cl(u) strictly inside cl(v).

The invariant of a graph consists of: the primitive ideal poset X; the
graded representation with even part coker(I - A^t) and odd part
ker(I - A^t) restricted to each minimal open set's vertex set; the
obstruction class of the four-term sequence

    0 -> XK1 -> Q --(I - A^t)--> Q -> XK0 -> 0,   Q(U_x) = Z^(H_x),

as a degree-two class against a projective resolution of XK0; and the class
of the unit (the all-ones vertex vector) in the colimit recovering K0 of the
whole algebra.

`compare_graph_invariants` and `unit_compare` decide whether two invariants
are isomorphic (`unit_compare` also asks that the unit class be preserved).
Both run one bounded search per isomorphism sigma of the ideal posets
(`quiver.rep_iso_bounded_multi`): it computes Hom(XK0, XK0') and
Hom(XK1, XK1') over the poset, read through sigma, as finitely generated
abelian groups and enumerates their elements, at most `budget` per group,
starting from the identity family whenever it is a module map (on a
one-point poset, always); the elements that are isomorphisms at every point
are the candidates, and each is tested for the unit class before the
obstruction class.  The verdict is tri-state:

  yes      a poset isomorphism and a graded module isomorphism (f0, f1) over
           it with f1_* delta = f0^* delta' (and f0 carrying the unit class to
           the unit class, for unit_compare), checked by exact arithmetic;
  no       layer 'poset': the primitive ideal posets are not isomorphic;
           layer 'module': for every sigma the groups differ at some point,
           or both Hom groups are finite, were enumerated whole and hold no
           pair of isomorphisms;
           layer 'class': as for 'module', except that for some sigma the
           Hom groups hold pairs of isomorphisms, none of which matches the
           obstruction classes (and the units);
  unknown  for some sigma a Hom group has a free part (its free coordinates
           are enumerated in [-bound, bound] only) or more than `budget`
           elements.

A module or class `no` thus always means that finite Hom groups were
enumerated whole; the start of the walk does not matter there, since a
translate of a finite group is the same set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbGroup, GroupMorphism
from .intlinalg import ExactArithmeticError, IntMatrix, factor_through
from .posets import FinitePoset
from .quiver import (
    Ext2Class,
    ExactnessError,
    ExtPosetGroup,
    ProjectiveRep,
    ProjIntoRep,
    ProjResolution,
    QuiverRep,
    RepMorphism,
    TwoExtension,
    ext2_compatible,
    rep_cokernel,
    rep_iso_bounded_multi,
    rep_kernel,
    yoneda_class,
)


class AdmissibilityError(ValueError):
    """The graph violates a precondition; names the failed condition."""

    def __init__(self, condition, detail=""):
        self.condition = condition
        super().__init__(f"{condition}" + (f": {detail}" if detail else ""))


class DirectedGraph:
    """Finite directed multigraph with labelled vertices."""

    def __init__(self, vertices, edges):
        """edges: iterable of (source, target) or (source, target, multiplicity)."""
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        adj = [[0] * n for _ in range(n)]
        for e in edges:
            if len(e) == 2:
                u, w, m = e[0], e[1], 1
            else:
                u, w, m = e
            if m < 0:
                raise ValueError("negative edge multiplicity")
            adj[self.index[u]][self.index[w]] += m
        self.adjacency = IntMatrix.from_rows(adj) if n else IntMatrix.zeros(0, 0)
        self._targets = {v: [w for j, w in enumerate(self.vertices) if adj[i][j] > 0]
                         for i, v in enumerate(self.vertices)}

    @classmethod
    def from_adjacency(cls, a: IntMatrix, labels=None):
        labels = labels if labels is not None else [f"v{i}" for i in range(a.rows)]
        edges = []
        for i in range(a.rows):
            for j in range(a.cols):
                if a.data[i][j]:
                    edges.append((labels[i], labels[j], a.data[i][j]))
        return cls(labels, edges)

    def out_degree(self, v):
        return sum(self.adjacency.data[self.index[v]])

    def targets(self, v):
        return self._targets[v]

    def reachable_from(self, v):
        seen = {v}
        stack = [v]
        while stack:
            cur = stack.pop()
            for w in self.targets(cur):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def __repr__(self):
        return f"DirectedGraph({self.vertices}, edges={sum(sum(r) for r in self.adjacency.data)})"


@dataclass
class AdmissibilityReport:
    sinks: list
    condition_k_witness: object  # None, or the unique return cycle at a vertex

    @property
    def has_sinks(self):
        return bool(self.sinks)

    @property
    def condition_k(self):
        return self.condition_k_witness is None

    @property
    def admissible(self):
        return not self.has_sinks and self.condition_k

    def ensure(self):
        if self.has_sinks:
            raise AdmissibilityError("graph has sinks", f"vertices {self.sinks}")
        if not self.condition_k:
            raise AdmissibilityError(
                "Condition (K) fails",
                f"unique return path through {self.condition_k_witness}",
            )


def admissible(e: DirectedGraph) -> AdmissibilityReport:
    """Check the scope conditions: no sinks and Condition (K).

    A vertex v on a cycle has exactly one return path iff its strongly
    connected component is one bare cycle, i.e. has as many edges (with
    multiplicity) as vertices.  The witness is that cycle, walked from the
    first such vertex in vertex order.
    """
    sinks = [v for v in e.vertices if e.out_degree(v) == 0]
    reach = {v: e.reachable_from(v) for v in e.vertices}
    for v in e.vertices:
        if not any(v in reach[w] for w in e.targets(v)):
            continue  # v lies on no cycle
        comp = {u for u in reach[v] if v in reach[u]}
        edges = sum(e.adjacency.data[e.index[u]][e.index[w]] for u in comp for w in comp)
        if edges == len(comp):
            cycle = [v]
            while len(cycle) < len(comp):
                (nxt,) = [w for w in e.targets(cycle[-1]) if w in comp]
                cycle.append(nxt)
            return AdmissibilityReport(sinks=sinks, condition_k_witness=tuple(cycle))
    return AdmissibilityReport(sinks=sinks, condition_k_witness=None)


# ---------------------------------------------------------------------------
# Hereditary saturated sets and the primitive ideal poset
# ---------------------------------------------------------------------------


def _saturation(e: DirectedGraph, h):
    """The smallest saturated superset of h: adds every vertex that emits
    edges and all of whose edges end in the set, until none is left."""
    h = set(h)
    grew = True
    while grew:
        grew = False
        for v in e.vertices:
            if v not in h and e.targets(v) and all(w in h for w in e.targets(v)):
                h.add(v)
                grew = True
    return frozenset(h)


@dataclass
class IdealPoset:
    """The primitive ideal space: join-irreducible hereditary saturated sets."""

    graph: DirectedGraph
    poset: FinitePoset  # points are labels "H0", "H1", ... for join-irreducibles
    vertex_sets: dict  # point label -> frozenset of vertices


def hereditary_saturated(e: DirectedGraph) -> IdealPoset:
    """The join-irreducible hereditary saturated sets, ordered by reverse
    inclusion of vertex sets (x <= y iff H_y is contained in H_x).

    With cl(v) the saturation of the vertices reachable from v, every
    hereditary saturated set is the saturation of a union of some cl(v), so
    the join-irreducibles are the cl(v) that differ from the saturation of
    the union of all cl(u) strictly inside cl(v).  Labels H0, H1, ... follow
    the order (size, sorted vertex indices).
    """
    admissible(e).ensure()
    closures = {_saturation(e, e.reachable_from(v)) for v in e.vertices}

    def join_below(h):
        return _saturation(e, frozenset().union(*(k for k in closures if k < h)))

    irreducibles = sorted((h for h in closures if join_below(h) != h),
                          key=lambda h: (len(h), sorted(e.index[v] for v in h)))
    labels = {h: f"H{i}" for i, h in enumerate(irreducibles)}
    leq_pairs = [(labels[h1], labels[h2]) for h1 in irreducibles for h2 in irreducibles
                 if h2 <= h1]  # vertex-set containment: point of h1 <= point of h2
    poset = FinitePoset([labels[h] for h in irreducibles], leq_pairs)
    return IdealPoset(e, poset, {labels[h]: h for h in irreducibles})


# ---------------------------------------------------------------------------
# The invariant
# ---------------------------------------------------------------------------


@dataclass
class XKInvariant:
    graph: DirectedGraph
    ideals: IdealPoset
    xk0: QuiverRep
    xk1: QuiverRep
    sequence: TwoExtension  # 0 -> XK1 -> Q -> Q -> XK0 -> 0
    delta: Ext2Class
    unit_group: FgAbGroup  # colimit recovering K0 of the whole algebra
    unit: tuple  # canonical coordinates of the unit class


def _restriction_matrix(e: DirectedGraph, h_sub, h_sup):
    """Inclusion Z^(h_sub) -> Z^(h_sup) in the global vertex order."""
    sub = sorted(h_sub, key=lambda v: e.index[v])
    sup = sorted(h_sup, key=lambda v: e.index[v])
    pos = {v: i for i, v in enumerate(sup)}
    m = IntMatrix.zeros(len(sup), len(sub))
    for j, v in enumerate(sub):
        m.data[pos[v]][j] = 1
    return m


def _pv_differential_block(e: DirectedGraph, h):
    """(I - A^t) restricted to the coordinates of a hereditary set."""
    verts = sorted(h, key=lambda v: e.index[v])
    idx = [e.index[v] for v in verts]
    at = e.adjacency.transpose()
    block = at.submatrix(idx, idx)
    # hereditarity: A^t maps Z^H into Z^H, i.e. no edge escapes the block
    for j, v in enumerate(verts):
        col_total = sum(abs(at.data[i][e.index[v]]) for i in range(at.rows))
        block_total = sum(abs(block.data[i][j]) for i in range(len(verts)))
        if col_total != block_total:
            raise ExactArithmeticError("hereditary set must be A^t-invariant")
    return IntMatrix.identity(len(verts)) - block


def xk_invariant(e: DirectedGraph) -> XKInvariant:
    """The complete invariant of an admissible graph."""
    ideals = hereditary_saturated(e)
    poset = ideals.poset
    # the ambient representation Q(U_x) = Z^(H_x) with inclusion arrows
    groups = {}
    for p in poset.points:
        groups[p] = FgAbGroup.free(len(ideals.vertex_sets[p]))
    arrows = {}
    for y, x in poset.hasse_arrows:
        arrows[(y, x)] = GroupMorphism(
            groups[y], groups[x],
            _restriction_matrix(e, ideals.vertex_sets[y], ideals.vertex_sets[x]),
            trusted=True,
        )
    q = QuiverRep(poset, groups, arrows, check=False)
    d = RepMorphism(
        q, q,
        {p: GroupMorphism(groups[p], groups[p], _pv_differential_block(e, ideals.vertex_sets[p]),
                          trusted=True)
         for p in poset.points},
    )
    xk1, incl = rep_kernel(d)
    xk0, proj = rep_cokernel(d)
    seq = TwoExtension(xk1, q, q, xk0, incl, d, proj)
    try:
        delta = yoneda_class(seq)  # checks exactness first
    except ExactnessError as exc:  # construction guarantees exactness
        raise ExactArithmeticError(f"internal exactness failure: {exc}") from exc

    unit_group, unit = _unit_class(e, ideals, xk0)
    return XKInvariant(e, ideals, xk0, xk1, seq, delta, unit_group, unit)


def _block_offsets(rep: QuiverRep):
    """(offsets, total): where each point's generators start in the direct
    sum of the point groups, and its number of generators."""
    offsets = {}
    acc = 0
    for p in rep.poset.points:
        offsets[p] = acc
        acc += rep.groups[p].ngens
    return offsets, acc


def _colimit_of_rep(rep: QuiverRep):
    """The colimit over the poset, coker(sum over arrows of (include -
    identity)), presented on the direct sum of the point groups."""
    poset = rep.poset
    offsets, acc = _block_offsets(rep)
    rel_blocks = [IntMatrix.block_diag([rep.groups[p].relations for p in poset.points],
                                       rows=acc, cols=0)]
    cols = []
    for y, x in poset.hasse_arrows:
        m = rep.arrow_map(y, x).matrix
        for j in range(rep.groups[y].ngens):
            col = [0] * acc
            col[offsets[y] + j] -= 1
            for i in range(rep.groups[x].ngens):
                col[offsets[x] + i] += m.data[i][j]
            cols.append(col)
    rel = rel_blocks[0]
    if cols:
        rel = rel.hstack(IntMatrix.from_columns(cols, rows=acc))
    return FgAbGroup(acc, rel)


def _unit_class(e: DirectedGraph, ideals: IdealPoset, xk0: QuiverRep):
    """Class of the all-ones vertex vector in the colimit of XK0.

    K0 of the whole algebra is coker(I - A^t) on all vertices; the colimit
    of XK0 over the ideal poset maps onto it isomorphically (real rank zero
    from Condition (K)), and the unit is pulled back through that map.
    """
    if not xk0.poset.points:
        raise ExactArithmeticError("empty primitive ideal space")
    n = len(e.vertices)
    colim = _colimit_of_rep(xk0)
    # natural map colim -> K0(whole) = coker(I - A^t): on the x-block it is
    # the inclusion Z^(H_x) -> Z^n
    full = IntMatrix.identity(n) - e.adjacency.transpose()
    k0_whole = FgAbGroup(n, full)
    blocks = []
    for p in xk0.poset.points:
        blocks.append(_restriction_matrix(e, ideals.vertex_sets[p], set(e.vertices)))
    nat = blocks[0]
    for b in blocks[1:]:
        nat = nat.hstack(b)
    natural = GroupMorphism(colim, k0_whole, nat)
    # solve natural(xi) = [1...1] in K0(whole)
    xi = factor_through(nat, IntMatrix.from_columns([[1] * n]), k0_whole.relations)
    if xi is None:
        raise ExactArithmeticError("unit must lift through the colimit comparison")
    return colim, colim.canon_coords(xi.column(0))


def unit_image_under(witnesses, inv1: XKInvariant, inv2: XKInvariant, sigma):
    """Image of inv1's unit class under the colimit map induced by a module
    isomorphism (f0 transported along the poset isomorphism sigma)."""
    f0 = witnesses[0]
    colim1, colim2 = inv1.unit_group, inv2.unit_group
    offsets1, _ = _block_offsets(inv1.xk0)
    offsets2, _ = _block_offsets(inv2.xk0)
    m = IntMatrix.zeros(colim2.ngens, colim1.ngens)
    for p in inv1.xk0.poset.points:
        block = f0.maps[p].matrix
        p2 = sigma[p]
        for j in range(block.cols):
            for i in range(block.rows):
                m.data[offsets2[p2] + i][offsets1[p] + j] = block.data[i][j]
    induced = GroupMorphism(colim1, colim2, m)
    rep = colim1.from_canon(inv1.unit)
    return colim2.canon_coords(induced.matrix.apply(rep))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


@dataclass
class CompareOutcome:
    verdict: str  # 'yes' | 'no' | 'unknown'
    layer: str = ""  # for 'no': 'poset' | 'module' | 'class'
    poset_iso: dict = None
    module_iso: object = None  # (f0, f1) RepMorphisms
    reason: str = ""


def _pull_rep(rep: QuiverRep, sigma, poset) -> QuiverRep:
    """rep read over `poset` through the poset isomorphism sigma: poset ->
    rep's poset."""
    groups = {p: rep.groups[sigma[p]] for p in poset.points}
    arrows = {(y, x): rep.arrow_map(sigma[y], sigma[x]) for y, x in poset.hasse_arrows}
    return QuiverRep(poset, groups, arrows, check=False)


def _pull_class(delta: Ext2Class, sigma, m0: QuiverRep, m1: QuiverRep) -> Ext2Class:
    """delta read over m0 and m1, the pulls of its modules through sigma.

    The resolution keeps its diffs and augmentation vectors, with generator
    points relabelled through sigma^-1.  The Hom complex then has the same
    matrices (transports of M1 along different chains agree as matrices: XK1
    has free groups), so the class keeps its coordinates."""
    back = {q: p for p, q in sigma.items()}
    res = delta.ambient.resolution
    projectives = [ProjectiveRep(m0.poset, [back[x] for x in p.gen_points])
                   for p in res.projectives]
    aug = ProjIntoRep(projectives[0], m0, res.aug.vectors)
    pulled = ProjResolution(m0, projectives, aug, res.diffs, res.complete)
    return Ext2Class(ExtPosetGroup(m0, m1, 2, resolution=pulled), delta.coords,
                     provenance=pulled.fingerprint())


def compare_graph_invariants(e1: DirectedGraph, e2: DirectedGraph,
                             bound=8, budget=20000,
                             inv1: XKInvariant = None, inv2: XKInvariant = None) -> CompareOutcome:
    """Decide isomorphism of the two invariants, cheapest layer first:
    poset, then arrow-commuting graded isomorphism, then obstruction-class
    compatibility (verdict rules in the module docstring)."""
    inv1 = inv1 if inv1 is not None else xk_invariant(e1)
    inv2 = inv2 if inv2 is not None else xk_invariant(e2)
    return _compare(inv1, inv2, bound, budget, unit=False)


def unit_compare(e1: DirectedGraph, e2: DirectedGraph, bound=8, budget=20000) -> CompareOutcome:
    """compare_graph_invariants, with witnesses that also preserve the unit class."""
    return _compare(xk_invariant(e1), xk_invariant(e2), bound, budget, unit=True)


def _compare(inv1: XKInvariant, inv2: XKInvariant, bound, budget, unit) -> CompareOutcome:
    poset = inv1.ideals.poset
    isos = poset.isomorphisms(inv2.ideals.poset)
    if not isos:
        return CompareOutcome("no", layer="poset",
                              reason="primitive ideal posets are not isomorphic")
    class_layer = unknown = False
    for sigma in isos:
        xk0, xk1 = _pull_rep(inv2.xk0, sigma, poset), _pull_rep(inv2.xk1, sigma, poset)
        delta2 = None

        def accept(family):
            nonlocal class_layer, delta2
            class_layer = True
            if delta2 is None:
                delta2 = _pull_class(inv2.delta, sigma, xk0, xk1)
            if unit and unit_image_under(family, inv1, inv2, sigma) != inv2.unit:
                return False
            f0, f1 = family
            return ext2_compatible(f0, inv1.delta, delta2, f1)

        out = rep_iso_bounded_multi([inv1.xk0, inv1.xk1], [xk0, xk1], bound, budget, accept)
        if out.verdict == "yes":
            return CompareOutcome("yes", poset_iso=dict(sigma), module_iso=tuple(out.witness))
        unknown = unknown or out.verdict == "unknown"
    if unknown:
        return CompareOutcome("unknown", reason="search bounds exhausted")
    if class_layer:
        what = "the obstruction and unit classes" if unit else "the obstruction classes"
        return CompareOutcome("no", layer="class", reason=f"no module isomorphism matches {what}")
    return CompareOutcome("no", layer="module",
                          reason="graded modules are not isomorphic over any poset isomorphism")
