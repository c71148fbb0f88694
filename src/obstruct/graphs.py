"""Graph algebra combinatorics and the complete invariant.

Scope: finite directed graphs with no sinks satisfying Condition (K) (every
vertex on a cycle lies on at least two distinct return paths).  These
conditions make every ideal gauge-invariant, so the ideal lattice is the
lattice of hereditary saturated vertex sets and the primitive ideal space is
a finite T0-space read off from its join-irreducible elements.

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
abelian groups and enumerates their elements, at most `budget` per group;
the elements that are isomorphisms at every point are the candidates.  The
verdict is tri-state:

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
enumerated whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbGroup, GroupMorphism
from .intlinalg import ExactArithmeticError, IntMatrix, factor_through
from .posets import FinitePoset
from .quiver import (
    Ext2Class,
    ExactnessError,
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

    def simple_cycles_through(self, v, cap=None):
        """Vertex-simple cycles through v, as vertex tuples starting at v."""
        out = []

        def walk(cur, path):
            if cap is not None and len(out) >= cap:
                return
            for w in self.targets(cur):
                if w == v:
                    out.append(tuple(path))
                elif w not in path:
                    walk(w, path + [w])

        walk(v, [v])
        return out

    def __repr__(self):
        return f"DirectedGraph({self.vertices}, edges={sum(sum(r) for r in self.adjacency.data)})"


@dataclass
class AdmissibilityReport:
    sinks: list
    condition_k_witness: object  # None, or the unique return cycle at a vertex
    unital: bool = True  # finite graphs always

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

    Condition (K) asks that no vertex has exactly one return path.  A unique
    return path is automatically a vertex-simple cycle; when a vertex lies on
    exactly one simple cycle, a second return path exists iff some cycle
    vertex has an exit edge from which the base is reachable.
    """
    sinks = [v for v in e.vertices if e.out_degree(v) == 0]
    witness = None
    for v in e.vertices:
        cycles = e.simple_cycles_through(v, cap=2)
        if len(cycles) != 1:
            continue
        cycle = cycles[0]
        # multiplicity >= 2 along the cycle gives parallel return paths
        multi = False
        for a, b in zip(cycle, cycle[1:] + (cycle[0],)):
            if e.adjacency.data[e.index[a]][e.index[b]] >= 2:
                multi = True
                break
        if multi:
            continue
        # an exit from the cycle that can come back to v gives a second path
        second = False
        cycle_set = set(cycle)
        for k, a in enumerate(cycle):
            nxt = cycle[(k + 1) % len(cycle)]
            for w in e.targets(a):
                if w == nxt:
                    continue
                if v == w or v in e.reachable_from(w):
                    second = True
                    break
            if second:
                break
        if not second:
            witness = cycle
            break
    return AdmissibilityReport(sinks=sinks, condition_k_witness=witness)


# ---------------------------------------------------------------------------
# Hereditary saturated sets and the primitive ideal poset
# ---------------------------------------------------------------------------


def _is_hereditary(e: DirectedGraph, subset):
    return all(w in subset for v in subset for w in e.targets(v))

def _is_saturated(e: DirectedGraph, subset):
    for v in e.vertices:
        if v in subset or e.out_degree(v) == 0:
            continue
        if all(w in subset for w in e.targets(v)):
            return False
    return True


@dataclass
class IdealPoset:
    """The primitive ideal space: join-irreducible hereditary saturated sets."""

    graph: DirectedGraph
    poset: FinitePoset  # points are labels "H0", "H1", ... for join-irreducibles
    vertex_sets: dict  # point label -> frozenset of vertices


def hereditary_saturated(e: DirectedGraph) -> IdealPoset:
    """All hereditary saturated subsets; the primitive ideal space is read
    off as the join-irreducible elements, ordered by reverse inclusion of
    vertex sets (x <= y iff H_y is contained in H_x)."""
    report = admissible(e)
    report.ensure()
    n = len(e.vertices)
    if n > 20:
        raise ValueError("ideal lattice enumeration limited to 20 vertices")
    import itertools

    sets = []
    for bits in itertools.product([0, 1], repeat=n):
        subset = frozenset(v for v, b in zip(e.vertices, bits) if b)
        if _is_hereditary(e, subset) and _is_saturated(e, subset):
            sets.append(subset)
    sets.sort(key=lambda s: (len(s), sorted(e.index[v] for v in s)))

    # join-irreducible = covers exactly one element of the lattice
    def covers(h):
        below = [k for k in sets if k < h]
        return [k for k in below if not any(k < m < h for m in below)]

    irreducibles = [h for h in sets if h and len(covers(h)) == 1]
    labels = {}
    for i, h in enumerate(irreducibles):
        labels[h] = f"H{i}"
    leq_pairs = []
    for h1 in irreducibles:
        for h2 in irreducibles:
            if h2 <= h1:  # vertex-set containment: point of h1 <= point of h2
                leq_pairs.append((labels[h1], labels[h2]))
    poset = FinitePoset([labels[h] for h in irreducibles], leq_pairs)
    vertex_sets = {labels[h]: h for h in irreducibles}
    return IdealPoset(e, poset, vertex_sets)


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


def _colimit_of_rep(rep: QuiverRep):
    """(C, structure) with C = coker(sum over arrows of (include - identity))
    and structure maps M_x -> C; computes the colimit over the poset."""
    poset = rep.poset
    offsets = {}
    acc = 0
    for p in poset.points:
        offsets[p] = acc
        acc += rep.groups[p].ngens
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
    c = FgAbGroup(acc, rel)
    structure = {}
    for p in poset.points:
        m = IntMatrix.zeros(acc, rep.groups[p].ngens)
        for j in range(rep.groups[p].ngens):
            m.data[offsets[p] + j][j] = 1
        structure[p] = GroupMorphism(rep.groups[p], c, m, trusted=True)
    return c, structure, offsets


def _unit_class(e: DirectedGraph, ideals: IdealPoset, xk0: QuiverRep):
    """Class of the all-ones vertex vector in the colimit of XK0.

    K0 of the whole algebra is coker(I - A^t) on all vertices; the colimit
    of XK0 over the ideal poset maps onto it isomorphically (real rank zero
    from Condition (K)), and the unit is pulled back through that map.
    """
    if not xk0.poset.points:
        raise ExactArithmeticError("empty primitive ideal space")
    n = len(e.vertices)
    colim, structure, offsets = _colimit_of_rep(xk0)
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
    colim1, _, offsets1 = _colimit_of_rep(inv1.xk0)
    colim2, structure2, offsets2 = _colimit_of_rep(inv2.xk0)
    acc1 = colim1.ngens
    acc2 = colim2.ngens
    m = IntMatrix.zeros(acc2, acc1)
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


def _transport_invariant(inv: XKInvariant, sigma, poset) -> TwoExtension:
    """The sequence 0 -> XK1 -> Q -> Q -> XK0 -> 0 of inv read over `poset`
    through the poset isomorphism sigma: poset -> inv's ideal poset."""

    def pull(rep):
        groups = {p: rep.groups[sigma[p]] for p in poset.points}
        arrows = {(y, x): rep.arrow_map(sigma[y], sigma[x]) for y, x in poset.hasse_arrows}
        return QuiverRep(poset, groups, arrows, check=False)

    def pull_mor(mor, src, tgt):
        return RepMorphism(src, tgt, {p: mor.maps[sigma[p]] for p in poset.points}, trusted=True)

    seq = inv.sequence
    m1, q1, q0, m0 = (pull(r) for r in (seq.m1, seq.q1, seq.q0, seq.m0))
    return TwoExtension(m1, q1, q0, m0, pull_mor(seq.d2, m1, q1), pull_mor(seq.d1, q1, q0),
                        pull_mor(seq.eps, q0, m0))


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
        seq2 = _transport_invariant(inv2, sigma, poset)
        delta2 = None

        def accept(family):
            nonlocal class_layer, delta2
            class_layer = True
            if delta2 is None:
                delta2 = yoneda_class(seq2)
            f0, f1 = family
            return ext2_compatible(f0, inv1.delta, delta2, f1) and (
                not unit or unit_image_under(family, inv1, inv2, sigma) == inv2.unit)

        out = rep_iso_bounded_multi([inv1.xk0, inv1.xk1], [seq2.m0, seq2.m1], bound, budget,
                                    accept)
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
