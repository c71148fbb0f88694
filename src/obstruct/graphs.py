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

Both read one reachability pass, on vertex sets held as bitmasks over the
vertex indices (`_reach_masks`).

The invariant of a graph consists of: the primitive ideal poset X; the
graded representation with even part coker(I - A^t) and odd part
ker(I - A^t) restricted to each minimal open set's vertex set; the
obstruction class of the four-term sequence

    0 -> XK1 -> Q --(I - A^t)--> Q -> XK0 -> 0,   Q(U_x) = Z^(H_x),

as a degree-two class against a projective resolution of XK0; and the class
of the unit (the all-ones vertex vector) in K0 = coker(I - A^t) of the whole
algebra, which the colimit of XK0 recovers.

The sequence is itself a projective resolution of XK0 of length two when Q
is a sum of downset projectives in vertex coordinates and XK1 is projective
(`_graph_resolution`): then P0 = P1 = Q, P2 covers XK1, and delta is the
class of that cover, with no lift and no `resolve_projective`.  Otherwise
delta is the Yoneda class of the sequence against `resolve_projective`'s
resolution, the route of `quiver.yoneda_class`.

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
           when XK1 = 0 both classes lie in Ext^2(XK0, 0) = 0, so the class
           condition holds and delta is not read;
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

The comparisons build each layer of an `XKInvariant` only when the verdict
first reads it, cheapest layer first:

  poset    the ideal posets, built (and checked admissible and nonempty)
           for every comparison; a poset `no` builds nothing else;
  module   XK0 and XK1 as the kernel and cokernel of d = I - A^t on Q, and
           their four-term sequence, proved exact once when built from the
           shape of that construction (`_check_exact`); a module `no` builds
           nothing beyond this layer;
  class    the unit class (unit_compare only) and delta, built at the first
           candidate isomorphism that reaches them; the unit class is tested
           first, so delta is built only once a candidate preserves the unit,
           and only when XK1 != 0 (Ext^2 into the zero module is zero).
           The unit is kept as a lift through colim XK0 -> K0, one vector per
           point, made once per invariant (`_unit_class`); a candidate pushes
           it through f0 into the vertex coordinates of K0' and compares
           canonical coordinates there, with no map between colimits.
           The second invariant's delta' is built, and pulled through sigma,
           only when Ext^2(XK0, XK1) is nonzero: a candidate is an
           isomorphism at every point, so when that group is zero so is
           Ext^2(XK0, XK1'), where the classes are compared, and every
           candidate matches them.

`compare_graph_invariants` never builds the unit class.  `xk_invariant`
builds every layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abelian import DirectSum, FgAbGroup, GroupMorphism
from .intlinalg import ExactArithmeticError, IntMatrix
from .posets import FinitePoset
from .quiver import (
    Ext2Class,
    ExtPosetGroup,
    ProjectiveRep,
    ProjIntoRep,
    ProjResolution,
    QuiverRep,
    RepMorphism,
    TwoExtension,
    _coeffs_of_vectors,
    _yoneda_cocycle,
    ext2_compatible,
    minimal_cover,
    rep_cokernel,
    rep_iso_bounded_multi,
    rep_kernel,
)

__all__ = [
    "DirectedGraph", "AdmissibilityError", "admissible", "hereditary_saturated",
    "xk_invariant", "unit_image_under", "CompareOutcome", "compare_graph_invariants",
    "unit_compare",
]


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
            try:
                adj[self.index[u]][self.index[w]] += m
            except KeyError as exc:
                raise ValueError(f"edge {e!r} names an unknown vertex {exc.args[0]!r}") from None
        self.adjacency = IntMatrix.from_rows(adj) if n else IntMatrix.zeros(0, 0)

    @classmethod
    def from_adjacency(cls, a: IntMatrix, labels=None):
        """a[i][j] edges from vertex i to j; a square, one label per row."""
        if a.rows != a.cols:
            raise ValueError(f"adjacency matrix must be square, got {a.rows}x{a.cols}")
        labels = labels if labels is not None else [f"v{i}" for i in range(a.rows)]
        if len(labels) != a.rows:
            raise ValueError(f"{len(labels)} labels given for a {a.rows}x{a.cols} matrix")
        edges = []
        for i in range(a.rows):
            for j in range(a.cols):
                if a.data[i][j]:
                    edges.append((labels[i], labels[j], a.data[i][j]))
        return cls(labels, edges)

    def out_degree(self, v):
        return sum(self.adjacency.data[self.index[v]])

    def targets(self, v):
        return [w for w, m in zip(self.vertices, self.adjacency.data[self.index[v]]) if m > 0]

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


def _bits(mask):
    """The vertex indices in a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reach_masks(e: DirectedGraph):
    """(succ, reach), one bitmask per vertex index i, bit j standing for
    e.vertices[j]: succ[i] holds the targets of the edges out of i, and
    reach[i] every vertex reachable from i by a path of length zero or more.
    The closure is Warshall's algorithm on the masks: after step k, reach[i]
    holds the ends of the paths from i whose inner vertices are below k."""
    succ = [sum(1 << j for j, m in enumerate(row) if m) for row in e.adjacency.data]
    reach = [s | 1 << i for i, s in enumerate(succ)]
    for k in range(len(reach)):
        bit, through = 1 << k, reach[k]
        for i, r in enumerate(reach):
            if r & bit:
                reach[i] = r | through
    return succ, reach


def admissible(e: DirectedGraph) -> AdmissibilityReport:
    """Check the scope conditions: no sinks and Condition (K).

    A vertex v on a cycle has exactly one return path iff its strongly
    connected component is one bare cycle, i.e. has as many edges (with
    multiplicity) as vertices.  The witness is that cycle, walked from the
    first such vertex in vertex order.
    """
    return _admissible(e, *_reach_masks(e))


def _admissible(e: DirectedGraph, succ, reach) -> AdmissibilityReport:
    """`admissible` on the masks of `_reach_masks`, one Condition (K) test
    per strongly connected component.  A component without a cycle is one
    vertex and no edge, so the edge count tells it apart too."""
    a = e.adjacency.data
    sinks = [v for v, s in zip(e.vertices, succ) if not s]
    tested = 0
    for i, r in enumerate(reach):
        if tested >> i & 1:
            continue
        comp = sum(1 << u for u in _bits(r) if reach[u] >> i & 1)
        tested |= comp
        members = _bits(comp)
        if sum(a[u][w] for u in members for w in members) == len(members):
            # i is the component's first vertex; each member has one edge inside
            cycle = [i]
            while len(cycle) < len(members):
                cycle.append((succ[cycle[-1]] & comp).bit_length() - 1)
            witness = tuple(e.vertices[u] for u in cycle)
            return AdmissibilityReport(sinks=sinks, condition_k_witness=witness)
    return AdmissibilityReport(sinks=sinks, condition_k_witness=None)


# ---------------------------------------------------------------------------
# Hereditary saturated sets and the primitive ideal poset
# ---------------------------------------------------------------------------


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

    Vertex sets are bitmasks over vertex indices, read off the one
    reachability pass that the admissibility check also reads
    (`_reach_masks`); they become frozensets of vertices only for the
    result.
    """
    succ, reach = _reach_masks(e)
    _admissible(e, succ, reach).ensure()

    def saturation(h):
        """The smallest saturated superset of h: adds every vertex that
        emits edges and all of whose edges end in the set, until none is
        left."""
        grew = True
        while grew:
            grew = False
            for i, s in enumerate(succ):
                if s and not s & ~h and not h >> i & 1:
                    h |= 1 << i
                    grew = True
        return h

    closures = {saturation(r) for r in reach}

    def join_below(h):
        below = 0
        for k in closures:
            if k != h and not k & ~h:
                below |= k
        return saturation(below)

    irreducibles = sorted((h for h in closures if join_below(h) != h),
                          key=lambda h: (h.bit_count(), _bits(h)))
    labels = [f"H{i}" for i in range(len(irreducibles))]
    leq_pairs = [(l1, l2) for h1, l1 in zip(irreducibles, labels)
                 for h2, l2 in zip(irreducibles, labels)
                 if not h2 & ~h1]  # vertex-set containment: point of h1 <= point of h2
    poset = FinitePoset(labels, leq_pairs)
    sets = {l: frozenset(e.vertices[i] for i in _bits(h)) for h, l in zip(irreducibles, labels)}
    return IdealPoset(e, poset, sets)


# ---------------------------------------------------------------------------
# The invariant
# ---------------------------------------------------------------------------


class XKInvariant:
    """The invariant of an admissible graph, built layer by layer.

    The poset layer (`ideals`) is built here, so an inadmissible graph or an
    empty primitive ideal space raises at construction.  The module layer
    (`xk0`, `xk1` and `sequence`) is built on first read, and the sequence
    is proved exact then, once, from the kernel and cokernel that built it.
    The obstruction class `delta` and the unit class (`unit_group`, `unit`,
    with the unit's lift through the colimit of XK0) are built on first
    read, each from the checked module layer.
    """

    def __init__(self, e: DirectedGraph):
        self.graph = e
        self.ideals = hereditary_saturated(e)
        if not self.ideals.poset.points:
            raise ExactArithmeticError("empty primitive ideal space")

    @cached_property
    def _modules(self):
        """(xk0, xk1, sequence), with the sequence proved exact."""
        e, ideals = self.graph, self.ideals
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
        _check_exact(seq)
        # read every point group's Smith form here, so that later readers
        # such as `iso_search` eliminate nothing: XK0's groups take the
        # decompositions of d, and XK1's have empty relation matrices
        for rep in (xk0, xk1):
            for g in rep.groups.values():
                g.snf
        return xk0, xk1, seq

    @property
    def xk0(self) -> QuiverRep:
        return self._modules[0]

    @property
    def xk1(self) -> QuiverRep:
        return self._modules[1]

    @property
    def sequence(self) -> TwoExtension:
        """0 -> XK1 -> Q -> Q -> XK0 -> 0, with XK1 the kernel and XK0 the
        cokernel of d = I - A^t on Q, proved exact by `_check_exact`."""
        return self._modules[2]

    @cached_property
    def delta(self) -> Ext2Class:
        # the module layer has proved the sequence exact
        seq = self.sequence
        own = _graph_resolution(self.graph, self.ideals, seq)
        if own is None:
            return _yoneda_cocycle(seq)
        res, cocycle = own
        ambient = ExtPosetGroup(seq.m0, seq.m1, 2, resolution=res)
        return Ext2Class(ambient, ambient.class_of_cochain(cocycle))

    @cached_property
    def _unit(self):
        return _unit_class(self.graph, self.ideals, self.xk0)

    @property
    def unit_group(self) -> FgAbGroup:
        """K0 of the whole algebra, coker(I - A^t) on all vertices."""
        return self._unit[0]

    @property
    def unit(self) -> tuple:
        """Canonical coordinates of the unit class (the all-ones vertex
        vector) in `unit_group`."""
        return self._unit[1]


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
    idx = sorted(e.index[v] for v in h)
    a = e.adjacency.data
    # hereditarity: A^t maps Z^H into Z^H, i.e. every edge out of H ends in
    # H (multiplicities are nonnegative, so row sums over H tell)
    for i in idx:
        row = a[i]
        if sum(row) != sum(row[j] for j in idx):
            raise ExactArithmeticError("hereditary set must be A^t-invariant")
    return IntMatrix._wrap(len(idx), len(idx), [[(r == c) - a[c][r] for c in idx] for r in idx])


def _check_exact(seq: TwoExtension):
    """Prove 0 -> XK1 --B--> Q --d--> Q --pi--> XK0 -> 0 exact at every point
    from the shape `XKInvariant._modules` builds it in, or raise.

    At a point p, with Q1(p) = Z^n1 and Q0(p) = Z^n0 free, the sequence is
    exact when:

      - d B = 0, so im B lies in ker d;
      - B has n1 - rank(d) columns and its Smith diagonal is one 1 per
        column (rank B = columns, every invariant factor a unit), so it is
        injective with a saturated image of the rank of ker d, and a
        saturated sublattice of ker d of full rank is ker d;
      - XK1(p) has no relations, so B is injective on XK1(p) itself;
      - XK0(p) is presented by exactly d and pi is the identity, so pi is
        onto and its kernel is im d.

    rank(d) and the Smith diagonal of B are read from the decompositions
    that the maps d and B keep of their matrices beside Q's zero relations
    (`GroupMorphism.image_lattice`).  `rep_kernel` made both to present XK1
    on B, so the proof eliminates nothing new.
    """
    for p in seq.m0.poset.points:
        q1, q0 = seq.q1.groups[p], seq.q0.groups[p]
        b, d, pi = seq.d2.maps[p].matrix, seq.d1.maps[p].matrix, seq.eps.maps[p].matrix
        if not (q1.relations.is_zero() and q0.relations.is_zero()):
            failure = "Q is not free"
        elif not (d @ b).is_zero():
            failure = "XK1 does not map into the kernel of d"
        elif (b.cols != q1.ngens - seq.d1.maps[p].image_lattice.rank
              or seq.d2.maps[p].image_lattice.diag[:b.cols] != [1] * b.cols):
            failure = "XK1 does not map onto a basis of the kernel of d"
        elif not seq.m1.groups[p].relations.is_zero():
            failure = "XK1 has relations"
        elif seq.m0.groups[p].relations != d or pi != IntMatrix.identity(q0.ngens):
            failure = "XK0 is not the cokernel of d"
        else:
            continue
        raise ExactArithmeticError(f"internal exactness failure: {failure} at point {p!r}")


def _graph_resolution(e: DirectedGraph, ideals: IdealPoset, seq: TwoExtension):
    """(res, cocycle): the sequence 0 -> XK1 -> Q -> Q -> XK0 -> 0 read as a
    projective resolution of XK0, and delta's cocycle on it; None when Q is
    not projective in vertex coordinates or XK1 is not projective.

    S_v = {x : v in H_x} is a downset.  When it has a single top x_v, the
    coordinate v of Q is the projective P(x_v), so Q = P0 = P1 is the sum of
    the P(x_v) over the vertices in some H_x, in global vertex order; a
    vertex in no H_x has no coordinate and is dropped.  P1 -> P0 is then
    (I - A^t) on the kept vertices, the augmentation sends v to the class of
    e_v, and P2 is the minimal cover of XK1 followed by the inclusion into
    Q, exact at P2 when that cover is injective at every point.  The lifts of
    the identity of XK0 are identities, so the cocycle is the cover's own
    vectors.  Exactness elsewhere is that of the sequence, which the module
    layer checks.
    """
    poset, sets = ideals.poset, ideals.vertex_sets
    kept, tops, aug = [], [], []
    for i, v in enumerate(e.vertices):
        support = [x for x in poset.points if v in sets[x]]
        if not support:
            continue
        top = min(support, key=lambda x: len(sets[x]))
        if not all(poset.leq(x, top) for x in support):
            return None
        kept.append(i)
        tops.append(top)
        pos = sum(1 for u in sets[top] if e.index[u] < i)
        aug.append([int(k == pos) for k in range(len(sets[top]))])
    p = ProjectiveRep(poset, tops)
    diff = (IntMatrix.identity(len(e.vertices)) - e.adjacency.transpose()).submatrix(kept, kept)
    p2, cover = minimal_cover(seq.m1)
    if not all(cover.point_morphism(z).is_injective() for z in poset.points):
        return None
    into_q = [seq.d2.maps[x].matrix.apply(u) for x, u in zip(p2.gen_points, cover.vectors)]
    res = ProjResolution(seq.m0, [p, p, p2], ProjIntoRep(p, seq.m0, aug),
                         [diff, _coeffs_of_vectors(p, p2.gen_points, into_q)], complete=True)
    return res, cover.vectors


def xk_invariant(e: DirectedGraph) -> XKInvariant:
    """The complete invariant of an admissible graph, every layer built."""
    inv = XKInvariant(e)
    inv.delta, inv.unit  # reading a lazy layer builds it
    return inv


def _colimit_of_rep(rep: QuiverRep):
    """(colim, s): the colimit over the poset, coker(sum over arrows y -> x
    of (in_x a - in_y)), presented on s, the `DirectSum` of the point groups
    in point order."""
    points = rep.poset.points
    s = DirectSum([rep.groups[p] for p in points])
    rel = s.group.relations
    for y, x in rep.poset.hasse_arrows:
        in_y, in_x = (s.injection(rep.poset.index[p]).matrix for p in (y, x))
        rel = rel.hstack(in_x @ rep.arrow_map(y, x).matrix - in_y)
    return FgAbGroup(s.group.ngens, rel), s


def _unit_class(e: DirectedGraph, ideals: IdealPoset, xk0: QuiverRep):
    """(K0, unit, lift): K0 = coker(I - A^t) on all vertices, the canonical
    coordinates of the unit class (the all-ones vertex vector) in it, and a
    lift of the unit through colim XK0 -> K0, one vector per point in the
    generators of XK0 there, whose images in Z^n sum to the all-ones vector
    modulo I - A^t.

    K0 of the whole algebra is the colimit of XK0 over the ideal poset (real
    rank zero from Condition (K)); the natural map sends the x-block
    Z^(H_x) into Z^n by inclusion, and it must be an isomorphism for the
    lift to name one class.  The arrows of XK0 run from smaller vertex sets
    to larger ones, so a least point x0 is terminal in the diagram and
    colim XK0 = XK0(x0); when H_x0 is every vertex and XK0(x0) is presented
    by I - A^t itself, the natural map is the identity, K0 is XK0(x0) (so
    I - A^t is not eliminated again) and the lift is the all-ones vector at
    x0.  Otherwise the colimit is presented on the sum of the point groups,
    the natural map is checked an isomorphism, and the lift is solved for.
    """
    n = len(e.vertices)
    d = IntMatrix.identity(n) - e.adjacency.transpose()
    ones = [1] * n
    poset = ideals.poset
    least = [x for x in poset.points if all(poset.leq(x, y) for y in poset.points)]
    if least:
        (x0,) = least
        k0 = xk0.groups[x0]
        if len(ideals.vertex_sets[x0]) != n or k0.relations != d:
            raise ExactArithmeticError("colimit of XK0 must map isomorphically onto K0: "
                                       "XK0 at the least point is not presented as K0")
        return k0, k0.canon_coords(ones), {x0: ones}
    k0 = FgAbGroup(n, d)
    colim, points_sum = _colimit_of_rep(xk0)
    nat = IntMatrix.zeros(n, 0)
    for p in poset.points:
        nat = nat.hstack(_restriction_matrix(e, ideals.vertex_sets[p], e.vertices))
    # nat is well defined when it sends each relation of the colimit to 0 or
    # to a relation of K0 (a point relation of XK0 is a column of I - A^t on
    # a hereditary set, an arrow relation a difference of two inclusions of
    # one vertex); otherwise the lattice test decides
    relations = set(map(tuple, d.columns()))
    image = nat @ colim.relations
    exact = all(not any(c) or tuple(c) in relations for c in image.columns())
    comparison = GroupMorphism(colim, k0, nat, trusted=exact)
    if not comparison.is_iso():
        raise ExactArithmeticError("colimit of XK0 must map isomorphically onto K0")
    xi = comparison.lift(IntMatrix.from_columns([ones]))
    if xi is None:
        raise ExactArithmeticError("unit must lift through the colimit comparison")
    lift = dict(zip(poset.points, points_sum.split(xi.column(0))))
    return k0, k0.canon_coords(ones), lift


def unit_image_under(witnesses, inv1: XKInvariant, inv2: XKInvariant, sigma):
    """Canonical coordinates, in inv2's K0, of the image of inv1's unit class
    under the map K0 -> K0' that a module isomorphism induces (f0
    transported along the poset isomorphism sigma).

    The lift of the unit is pushed through f0 point by point and into Z^n'
    through the vertex sets H'_(sigma x).  This is the induced map of
    colimits followed by the isomorphism colim XK0' -> K0', well defined
    because f0 commutes with the arrows, so no map between colimits is
    built.
    """
    f0 = witnesses[0]
    e2, sets2 = inv2.graph, inv2.ideals.vertex_sets
    image = [0] * len(e2.vertices)
    for p, xi in inv1._unit[2].items():
        verts = sorted(e2.index[v] for v in sets2[sigma[p]])
        for i, c in zip(verts, f0.maps[p].matrix.apply(xi)):
            image[i] += c
    return inv2.unit_group.canon_coords(image)


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
    return Ext2Class(ExtPosetGroup(m0, m1, 2, resolution=pulled), delta.coords)


def compare_graph_invariants(e1: DirectedGraph, e2: DirectedGraph,
                             bound=8, budget=20000) -> CompareOutcome:
    """Decide isomorphism of the two invariants, cheapest layer first:
    poset, then arrow-commuting graded isomorphism, then obstruction-class
    compatibility (verdict rules in the module docstring).

    Each layer of an invariant is built when the verdict first reads it: a
    poset `no` builds the ideal posets only, a module `no` adds XK0, XK1 and
    the exactness check of their sequence, and delta is read only for a
    candidate isomorphism, and only when XK1 != 0.  The unit class is never
    built here."""
    return _compare(XKInvariant(e1), XKInvariant(e2), bound, budget, unit=False)


def unit_compare(e1: DirectedGraph, e2: DirectedGraph, bound=8, budget=20000) -> CompareOutcome:
    """compare_graph_invariants, with witnesses that also preserve the unit class."""
    return _compare(XKInvariant(e1), XKInvariant(e2), bound, budget, unit=True)


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
            if unit and unit_image_under(family, inv1, inv2, sigma) != inv2.unit:
                return False
            # family is an isomorphism at every point, so f1 carries
            # Ext^2(XK0, XK1) = 0 onto Ext^2(XK0, XK1'), the group in which
            # ext2_compatible compares the classes: it would answer True
            # without reading either one, so delta' is not built.  Ext into
            # the zero module vanishes, so delta is read only when XK1 != 0
            if inv1.xk1.is_zero() or inv1.delta.ambient.group.is_trivial():
                return True
            if delta2 is None:
                delta2 = _pull_class(inv2.delta, sigma, xk0, xk1)
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
