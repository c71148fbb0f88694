"""Representations of finite posets (modules over the incidence algebra).

A representation assigns a finitely generated abelian group to every point
and a map along every Hasse arrow y -> x; composites along longer chains are
derived, and for posets that are not unique path spaces the module law
demands that all chain composites between the same endpoints agree (checked
on construction via `check_coherence`).

Projectives are the downset representations: P(x) carries Z at every z <= x
with identity transports.  Covers pick minimal generators per point modulo
the images of covering arrows, so resolutions terminate exactly at the
projective dimension.  A syzygy stays a lattice basis per point in the
coordinates of its projective, never a representation, and each cover of it
is checked onto it at every point.  Ext^n over the incidence algebra is the
n-th cohomology of the Hom complex of such a resolution; on unique path
spaces an independent route through the bimodule resolution is an oracle.
Hom(P, W) is the direct sum of W(x_g) over the generators g of P
(`abelian.DirectSum`), so a cochain, one vector of W per generator, is a
vector of that sum, and precomposing it with a map of projectives is
applying one matrix, `_hom_differential`, whether W is a representation or
a projective.

One comparison lift, `_lift`, lifts a map out of a projective resolution
along an exact complex, one degree at a time, by that precomposition.  It
has three users.  `yoneda_class` lifts the identity of M0 along a two-step
extension 0 -> M1 -> Q1 -> Q0 -> M0 -> 0; the degree-two lift is a cocycle
in M1, the class in Ext^2(M0, M1).  `transport_class` and `ext2_compatible`
pull a class back along `chain_lift`, the lift of a module map into a
second resolution.  `baer_sum` is the group law on two-step extensions,
one pullback and one pushout: Q0 x_M0 Q0' as a kernel on Q0 + Q0', and
Q1 +_M1 Q1' as a cokernel on Q1 + Q1'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .abelian import (
    DirectSum,
    FgAbGroup,
    GroupMorphism,
    SearchOutcome,
    SubquotientData,
    ext1_z,
    homology_at,
    is_exact_at,
    iso_search,
    resolution_lift,
)
from .intlinalg import (
    ExactArithmeticError,
    IntMatrix,
    kernel_basis,
    lattices_equal,
    smith_normal_form,
)
from .posets import FinitePoset, is_unique_path_space

__all__ = [
    "QuiverRep", "RepMorphism", "ExactnessError", "resolve_projective", "HomComplex",
    "ext_poset", "sierpinski_ext2", "ext_poset_ups_oracle", "TwoExtension", "Ext2Class",
    "yoneda_class", "transport_class", "ext2_compatible", "rep_iso_bounded_multi",
    "baer_sum",
]


class ExactnessError(ValueError):
    """A sequence that must be exact is not; names the failing node."""


def _keyed(given, keys, what, kind) -> dict:
    """dict(given), with one `what` at each key in `keys` and nowhere else;
    a ValueError names the missing or stray key, a stray one as no `kind`."""
    out = dict(given)
    for k in keys:
        if k not in out:
            raise ValueError(f"missing {what} at {k!r}")
    if len(out) > len(keys):  # every key is there, so some entry is stray
        stray = next(iter(out.keys() - set(keys)))
        raise ValueError(f"{what} given at {stray!r}, which is not {kind}")
    return out


def _on_groups(f: GroupMorphism, src: FgAbGroup, tgt: FgAbGroup, what, key) -> GroupMorphism:
    """f when it runs src -> tgt; else its matrix as a map src -> tgt, which
    must have the right shape (ValueError naming the `what` at `key`) and be
    well defined there (IllDefinedMorphism)."""
    if f.source is src and f.target is tgt:
        return f
    if (f.matrix.rows, f.matrix.cols) != (tgt.ngens, src.ngens):
        raise ValueError(f"{what} at {key!r} is {f.matrix.rows}x{f.matrix.cols}, "
                         f"expected {tgt.ngens}x{src.ngens}")
    return GroupMorphism(src, tgt, f.matrix)


class QuiverRep:
    """Groups per point plus maps along Hasse arrows.

    An arrow y -> x maps groups[y] to groups[x]; one built on other groups
    of the same shape is rebuilt on these, where it must be well defined
    (IllDefinedMorphism otherwise).  `check` asks for the coherence of chain
    composites (`check_coherence`)."""

    def __init__(self, poset: FinitePoset, groups, arrows, check=True):
        self.poset = poset
        self.groups = _keyed(groups, poset.points, "group", "a point")
        self.arrows = _keyed(arrows, poset.hasse_arrows, "arrow map", "a Hasse arrow")
        self._transports = {}  # (y, x) -> composite V_y -> V_x
        for y, x in poset.hasse_arrows:
            self.arrows[(y, x)] = _on_groups(self.arrows[(y, x)], self.groups[y], self.groups[x],
                                             "arrow map", (y, x))
        if check:
            witness = self.check_coherence()
            if witness is not None:
                raise ValueError(f"chain composites disagree between {witness}")

    def arrow_map(self, y, x) -> GroupMorphism:
        return self.arrows[(y, x)]

    def transport(self, y, x) -> GroupMorphism:
        """Composite map V_y -> V_x along any Hasse chain (x <= y), built
        once per pair; callers must not mutate it."""
        f = self._transports.get((y, x))
        if f is None:
            chains = [[y]] if x == y else self.poset.downward_chains(y, x, cap=1)
            if not chains:
                raise ValueError(f"{x!r} is not below {y!r}")
            f = self._transports[(y, x)] = self._along(chains[0])
        return f

    def _along(self, chain) -> GroupMorphism:
        """The composite of the arrow maps along a Hasse chain."""
        f = GroupMorphism.identity(self.groups[chain[0]])
        for a, b in zip(chain, chain[1:]):
            f = self.arrows[(a, b)] @ f
        return f

    def check_coherence(self):
        """None if all chain composites agree, else the offending pair."""
        for y, x in self.poset.comparable_pairs():
            chains = self.poset.downward_chains(y, x)
            if len(chains) > 1:
                first, *rest = map(self._along, chains)
                if not all(first.equals(f) for f in rest):
                    return (y, x)
        return None

    def is_zero(self):
        return all(g.is_trivial() for g in self.groups.values())

    def __repr__(self):
        shape = ", ".join(f"{p}:{self.groups[p].describe()}" for p in self.poset.points)
        return f"QuiverRep({shape})"


def _require_one_poset(v: QuiverRep, w: QuiverRep):
    """ValueError naming v and w unless they lie over one poset: the same
    object, or posets with equal points and Hasse arrows."""
    if v.poset is not w.poset and (
            v.groups.keys() != w.groups.keys()
            or set(v.poset.hasse_arrows) != set(w.poset.hasse_arrows)):
        raise ValueError(f"{v!r} and {w!r} lie over different posets")


class RepMorphism:
    """A morphism of representations: one group map per point (one built on
    other groups is rebuilt on the point groups, as in `QuiverRep`),
    commuting with the arrow maps (verified unless trusted)."""

    def __init__(self, source: QuiverRep, target: QuiverRep, maps, trusted=False):
        _require_one_poset(source, target)
        self.source = source
        self.target = target
        self.maps = _keyed(maps, source.poset.points, "map", "a point")
        for p, f in self.maps.items():
            self.maps[p] = _on_groups(f, source.groups[p], target.groups[p], "map", p)
        if not trusted:
            bad = self.find_noncommuting_arrow()
            if bad is not None:
                raise ValueError(f"morphism does not commute with arrow {bad}")

    def find_noncommuting_arrow(self):
        for y, x in self.source.poset.hasse_arrows:
            lhs = self.target.arrow_map(y, x) @ self.maps[y]
            rhs = self.maps[x] @ self.source.arrow_map(y, x)
            if not lhs.equals(rhs):
                return (y, x)
        return None

    @classmethod
    def identity(cls, rep):
        return cls(rep, rep, {p: GroupMorphism.identity(rep.groups[p]) for p in rep.poset.points},
                   trusted=True)

    @classmethod
    def zero(cls, source, target):
        return cls(
            source, target,
            {p: GroupMorphism.zero(source.groups[p], target.groups[p]) for p in source.poset.points},
            trusted=True,
        )

    def __matmul__(self, other):
        return RepMorphism(
            other.source, self.target,
            {p: self.maps[p] @ other.maps[p] for p in self.maps},
            trusted=True,
        )

    def __add__(self, other):
        return RepMorphism(self.source, self.target,
                           {p: self.maps[p] + other.maps[p] for p in self.maps}, trusted=True)

    def __sub__(self, other):
        return RepMorphism(self.source, self.target,
                           {p: self.maps[p] - other.maps[p] for p in self.maps}, trusted=True)

    def equals(self, other):
        return all(self.maps[p].equals(other.maps[p]) for p in self.maps)

    def is_iso(self):
        return all(m.is_iso() for m in self.maps.values())


def rep_kernel(f: RepMorphism):
    """(K, incl) with K the pointwise kernel carrying induced arrows."""
    poset = f.source.poset
    groups, incls = {}, {}
    for p in poset.points:
        k, incl = f.maps[p].kernel()
        groups[p] = k
        incls[p] = incl
    arrows = {}
    for y, x in poset.hasse_arrows:
        mat = incls[x].lift(f.source.arrow_map(y, x).matrix @ incls[y].matrix)
        if mat is None:
            raise ExactArithmeticError("arrow must map kernel into kernel")
        arrows[(y, x)] = GroupMorphism(groups[y], groups[x], mat)
    k = QuiverRep(poset, groups, arrows, check=False)
    incl = RepMorphism(k, f.source, incls, trusted=True)
    return k, incl


def rep_cokernel(f: RepMorphism):
    """(C, proj) with C the pointwise cokernel carrying the target's arrows.

    C(y) is presented on [f_y | S_y], S_y the relations of the target at y,
    and the arrow b: C(y) -> C(x) is well defined when b carries that
    lattice into the one of C(x).  When b f_y = f_x a holds exactly (a the
    source's arrow) and S_y has no nonzero column, b f_y lies in im f_x and
    b S_y = 0, so that holds with no lattice test; otherwise the arrow is
    checked as any morphism is.
    """
    poset = f.source.poset
    groups, projs = {}, {}
    for p in poset.points:
        c, proj = f.maps[p].cokernel()
        groups[p] = c
        projs[p] = proj
    arrows = {}
    for y, x in poset.hasse_arrows:
        b = f.target.arrow_map(y, x).matrix
        exact = (f.target.groups[y].relations.is_zero()
                 and b @ f.maps[y].matrix == f.maps[x].matrix @ f.source.arrow_map(y, x).matrix)
        arrows[(y, x)] = GroupMorphism(groups[y], groups[x], b, trusted=exact)
    c = QuiverRep(poset, groups, arrows, check=False)
    proj = RepMorphism(f.target, c, projs, trusted=True)
    return c, proj


def rep_direct_sum(reps):
    """(V, injections, projections) for V the direct sum of `reps`: at each
    point the `DirectSum` of their groups, along each arrow the block
    diagonal of their arrow maps."""
    poset = reps[0].poset
    sums = {p: DirectSum([r.groups[p] for r in reps]) for p in poset.points}
    arrows = {}
    for y, x in poset.hasse_arrows:
        src, tgt = sums[y].group, sums[x].group
        mat = IntMatrix.block_diag([r.arrow_map(y, x).matrix for r in reps])
        arrows[(y, x)] = GroupMorphism(src, tgt, mat, trusted=True)
    total = QuiverRep(poset, {p: s.group for p, s in sums.items()}, arrows, check=False)
    injs = [RepMorphism(r, total, {p: s.injection(i) for p, s in sums.items()}, trusted=True)
            for i, r in enumerate(reps)]
    projs = [RepMorphism(total, r, {p: s.projection(i) for p, s in sums.items()}, trusted=True)
             for i, r in enumerate(reps)]
    return total, injs, projs


# ---------------------------------------------------------------------------
# Projective representations and resolutions
# ---------------------------------------------------------------------------


class ProjectiveRep:
    """A finite direct sum of downset projectives, one generator per entry
    of `gen_points`; generator i sits at point gen_points[i]."""

    def __init__(self, poset: FinitePoset, gen_points):
        self.poset = poset
        self.gen_points = list(gen_points)
        self._indices = {}  # z -> generators above z

    def indices_at(self, z):
        """Indices of the generators at points >= z, built once per point;
        callers must not mutate the list."""
        idx = self._indices.get(z)
        if idx is None:
            idx = self._indices[z] = [i for i, p in enumerate(self.gen_points)
                                      if self.poset.leq(z, p)]
        return idx

    @property
    def num_gens(self):
        return len(self.gen_points)

    def transport_matrix(self, y, x) -> IntMatrix:
        """The map P(y) -> P(x) along x <= y: an inclusion of generator indices."""
        rows = self.indices_at(x)
        cols = self.indices_at(y)
        m = IntMatrix.zeros(len(rows), len(cols))
        pos = {g: i for i, g in enumerate(rows)}
        for j, g in enumerate(cols):
            m.data[pos[g]][j] = 1
        return m

    def point_matrix_of_coeffs(self, coeffs: IntMatrix, target: "ProjectiveRep", z):
        """Per-point matrix at z of the morphism self -> target given by a
        coefficient matrix (target.num_gens x self.num_gens)."""
        rows = target.indices_at(z)
        cols = self.indices_at(z)
        return coeffs.submatrix(rows, cols)

    def __repr__(self):
        return f"ProjectiveRep({self.gen_points})"


@dataclass
class ProjIntoRep:
    """A morphism from a projective into a representation: one target
    element per generator, at that generator's point."""

    source: ProjectiveRep
    target: QuiverRep
    vectors: list  # vectors[i] lives in Z^(target group at gen_points[i])
    # z -> point_morphism(z), built once, so the cover check and the
    # resolution read one morphism and its one decomposition
    _point_morphisms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def point_morphism(self, z) -> GroupMorphism:
        """The map at z, from the free group on the generators above z."""
        f = self._point_morphisms.get(z)
        if f is None:
            cols = []
            for i in self.source.indices_at(z):
                t = self.target.transport(self.source.gen_points[i], z)
                cols.append(t.matrix.apply(self.vectors[i]))
            target = self.target.groups[z]
            f = self._point_morphisms[z] = GroupMorphism(
                FgAbGroup.free(len(cols)), target,
                IntMatrix.from_columns(cols, rows=target.ngens), trusted=True)
        return f

    def is_surjective(self):
        return all(self.point_morphism(p).is_surjective() for p in self.source.poset.points)


def _cover_generators(poset: FinitePoset, relations, arrow):
    """(point, vector) per cover generator of the module with Z^n/relations(x)
    at x and arrows arrow(y, x): canonical lifts of generators modulo the
    covering arrows' images, point by point in the poset's order.  An
    incoming arrow that is an identity covers the whole point, which then
    has no generators and is not eliminated."""
    incoming = {x: [] for x in poset.points}
    for y, x in poset.hasse_arrows:
        incoming[x].append(y)
    gens = []
    for x in poset.points:
        stacked = relations(x)
        for y in incoming[x]:
            a = arrow(y, x)
            if a.is_identity():
                break
            stacked = stacked.hstack(a)
        else:
            quotient = FgAbGroup(stacked.rows, stacked)
            for pos in quotient.canon_positions:
                gens.append((x, quotient.snf.Uinv.column(pos)))
    return gens


def minimal_cover(v: QuiverRep):
    """(P, phi) with P projective and phi: P -> V surjective.

    Generators are those of `_cover_generators`, so covers of projectives
    are isomorphisms, and the cover of a module is one fixed choice: the
    Ext groups read from it do not depend on that choice, and a class only
    in its coordinates (`transport_class`).
    """
    gens = _cover_generators(v.poset, lambda x: v.groups[x].relations,
                             lambda y, x: v.arrow_map(y, x).matrix)
    p = ProjectiveRep(v.poset, [x for x, _ in gens])
    phi = ProjIntoRep(p, v, [u for _, u in gens])
    if not phi.is_surjective():
        raise ExactArithmeticError("cover must be surjective")
    return p, phi


@dataclass
class ProjResolution:
    """... -> P_2 -> P_1 -> P_0 -> V -> 0 with explicit projectives.

    diffs[i] is the coefficient matrix of P_{i+1} -> P_i
    (rows: generators of P_i, columns: generators of P_{i+1}).
    `complete` records that the final syzygy vanished, i.e. the resolution
    ends at its true length.
    """

    module: QuiverRep
    projectives: list
    aug: ProjIntoRep
    diffs: list
    complete: bool

    @property
    def length(self):
        return len(self.projectives) - 1

    def projective_at(self, i) -> ProjectiveRep:
        if i < len(self.projectives):
            return self.projectives[i]
        return ProjectiveRep(self.module.poset, [])

    def diff_coeffs(self, i) -> IntMatrix:
        """Coefficient matrix of P_i -> P_{i-1} (zero past the end)."""
        if 1 <= i <= len(self.diffs):
            return self.diffs[i - 1]
        return IntMatrix.zeros(self.projective_at(i - 1).num_gens, self.projective_at(i).num_gens)

    def fingerprint(self):
        """Stable hash of the resolution's combinatorial data."""
        # imported here: hashlib loads OpenSSL, about 3 MB of resident memory
        # that processes which never fingerprint a resolution should not pay
        import hashlib

        h = hashlib.sha256()
        for p in self.projectives:
            h.update(repr([str(x) for x in p.gen_points]).encode())
        for d in self.diffs:
            h.update(d.to_text().encode())
        return h.hexdigest()[:16]


def _coeffs_of_vectors(target: ProjectiveRep, points, vectors) -> IntMatrix:
    """Coefficient matrix of the map into `target` that sends generator i,
    at points[i], to vectors[i], a vector of target at that point."""
    coeffs = IntMatrix.zeros(target.num_gens, len(points))
    for i, (x, u) in enumerate(zip(points, vectors)):
        for pos, g in enumerate(target.indices_at(x)):
            coeffs.data[g][i] = u[pos]
    return coeffs


def _syzygy_cover(prev: ProjectiveRep, bases, lattice):
    """(P, vectors): the `minimal_cover` of the syzygy spanned by the basis
    bases[z] in the coordinates of prev(z), whose arrows are prev's
    transports solved in lattice(z), the decomposition of bases[z], built
    from no representation; generator i maps to vectors[i], a vector of
    prev at P.gen_points[i].  Into a point x whose basis is the identity
    the solve is the transported basis itself, and lattice(x) is not read."""
    def arrow(y, x):
        moved = prev.transport_matrix(y, x) @ bases[y]
        if bases[x].is_identity():
            return moved
        mat = lattice(x).factor(moved)
        if mat is None:
            raise ExactArithmeticError("transport must preserve the syzygy lattice")
        return mat

    gens = _cover_generators(prev.poset, lambda x: IntMatrix.zeros(bases[x].cols, 0), arrow)
    return (ProjectiveRep(prev.poset, [x for x, _ in gens]),
            [bases[x].apply(u) for x, u in gens])


def resolve_projective(v: QuiverRep, length: int) -> ProjResolution:
    """Iterated syzygies to the requested length (stops early at completion).

    A syzygy is a basis B_z per point, in the coordinates of the previous
    projective at z.  Its decomposition, which its cover and the check
    below read, is built on first read (about half are never read).  The
    point matrix D_z of the cover is checked to span the lattice of B_z at
    every point, and ker D_z is the next syzygy.  A D_z equal to B_z (a
    projective syzygy is covered by the identity) spans it, and its kernel
    is zero since B_z is a basis: nothing is eliminated.  A B_z that is the
    identity spans all of Z^m, which D_z spans iff its Smith diagonal is
    all ones, so the lattice of B_z is not eliminated for the check.
    """
    p0, aug = minimal_cover(v)
    projectives = [p0]
    diffs = []
    # first syzygy: preimage lattice of the augmentation, pointwise
    bases = {z: aug.point_morphism(z).preimage_lattice_basis() for z in v.poset.points}
    while len(projectives) <= length and any(b.cols for b in bases.values()):
        prev = projectives[-1]
        lattice = cache(lambda z: smith_normal_form(bases[z]))
        p_next, vectors = _syzygy_cover(prev, bases, lattice)
        d = _coeffs_of_vectors(prev, p_next.gen_points, vectors)
        diffs.append(d)
        projectives.append(p_next)
        kernels = {}
        for z in v.poset.points:
            dz = p_next.point_matrix_of_coeffs(d, prev, z)
            if dz == bases[z]:
                kernels[z] = IntMatrix.zeros(dz.cols, 0)
                continue
            image = smith_normal_form(dz)
            if bases[z].is_identity():
                spans = image.diagonal_padded(dz.rows) == [1] * dz.rows
            else:
                spans = lattice(z).equals(image)
            if not spans:
                raise ExactArithmeticError("cover must be surjective")
            kernels[z] = image.kernel_basis()
        bases = kernels
    complete = not any(b.cols for b in bases.values())
    return ProjResolution(v, projectives, aug, diffs, complete)


def verify_resolution(res: ProjResolution):
    """Exactness of the resolution at V and at every P_i, pointwise.

    At the last recorded projective there is nothing to check unless the
    resolution is complete, in which case the final kernel must vanish.
    """
    v = res.module
    poset = v.poset
    if not res.aug.is_surjective():
        raise ExactnessError("augmentation is not surjective")
    last = len(res.projectives) - 1
    for i in range(last + 1):
        pi = res.projective_at(i)
        for z in poset.points:
            # generators of the kernel lattice at z, a basis only for i >= 1
            if i == 0:
                ker = res.aug.point_morphism(z).preimage_gens()
            else:
                pm = pi.point_matrix_of_coeffs(res.diff_coeffs(i), res.projective_at(i - 1), z)
                ker = kernel_basis(pm)
            if i == last:
                if res.complete and not ker.is_zero():
                    raise ExactnessError(f"nonzero final syzygy at P_{i}, point {z!r}")
                continue
            img = res.projective_at(i + 1).point_matrix_of_coeffs(res.diff_coeffs(i + 1), pi, z)
            if not lattices_equal(img, ker):
                raise ExactnessError(f"resolution not exact at P_{i}, point {z!r}")
    return True


# ---------------------------------------------------------------------------
# Hom complexes and Ext over the incidence algebra
# ---------------------------------------------------------------------------


def _hom_sum(p: ProjectiveRep, w: QuiverRep) -> DirectSum:
    """Hom(P, W) as the direct sum of W(x_g) over the generators g of P, in
    generator order: a cochain, one vector of W per generator at its point,
    is a vector of this sum."""
    return DirectSum([w.groups[x] for x in p.gen_points])


def _matrices(w: QuiverRep):
    """The transports of w as matrices, (y, x) -> W_y -> W_x."""
    return lambda y, x: w.transport(y, x).matrix


def _hom_differential(p_hi: ProjectiveRep, hi: DirectSum, p_lo: ProjectiveRep, lo: DirectSum,
                      coeffs: IntMatrix, transport) -> IntMatrix:
    """Matrix of Hom(P_lo, C) -> Hom(P_hi, C), psi |-> psi∘(coeffs map),
    between their sums lo and hi (`_hom_sum`), transport(y, x) being the
    matrix of C along x <= y: the one precomposition of a cochain, with
    values in a representation or in a projective."""
    out = IntMatrix.zeros(hi.group.ngens, lo.group.ngens)
    for g_hi, x_hi in enumerate(p_hi.gen_points):
        for g_lo, x_lo in enumerate(p_lo.gen_points):
            c = coeffs.data[g_lo][g_hi]
            if c == 0:
                continue
            t = transport(x_lo, x_hi)
            base = lo.offsets[g_lo]
            for i in range(t.rows):
                row = out.data[hi.offsets[g_hi] + i]
                trow = t.data[i]
                for j in range(t.cols):
                    if trow[j]:
                        row[base + j] += c * trow[j]
    return out


@dataclass
class HomComplex:
    """The cochain complex Hom(P_*, W) of a resolution, in a window of
    consecutive degrees from `low` up."""

    resolution: ProjResolution
    w: QuiverRep
    sums: list  # sums[i]: Hom(P_{low+i}, W), a `_hom_sum`
    diffs: list  # diffs[i]: sums[i].group -> sums[i+1].group
    low: int = 0

    @classmethod
    def build(cls, res: ProjResolution, w: QuiverRep, degrees: int, low: int = 0):
        """Hom(P_k, W) for k = low..degrees with the differentials between
        them.  Nothing is checked here: `cohomology_at` checks that the two
        differentials it reads compose to zero (`homology_at`)."""
        sums = [_hom_sum(res.projective_at(k), w) for k in range(low, degrees + 1)]
        diffs, transport = [], _matrices(w)
        for i, k in enumerate(range(low, degrees)):
            lo, hi = sums[i], sums[i + 1]
            mat = _hom_differential(res.projective_at(k + 1), hi, res.projective_at(k), lo,
                                    res.diff_coeffs(k + 1), transport)
            diffs.append(GroupMorphism(lo.group, hi.group, mat, trusted=True))
        return cls(res, w, sums, diffs, low)

    def cohomology_at(self, n) -> SubquotientData:
        """H^n, read from degrees n - 1, n and n + 1 of the window; at its
        top only when Hom(P_{n+1}, W) = 0, the resolution complete with no
        P_{n+1}."""
        i = n - self.low
        if i < 0 or (i == 0 and self.low > 0):
            raise ValueError(f"H^{n} reads degrees below the window, which starts at {self.low}")
        top = len(self.diffs)
        res = self.resolution
        if i > top or (i == top and not (res.complete and n >= res.length)):
            raise ValueError(f"H^{n} reads degrees above the window, which ends at {self.low + top}")
        f = self.diffs[i - 1] if i else None
        g = self.diffs[i] if i < top else GroupMorphism.zero(self.sums[i].group, FgAbGroup.trivial())
        return homology_at(f, g)


class ExtPosetGroup:
    """Ext^n over the incidence algebra, with cochain-level coordinates.

    Cochains in degree n are one vector per generator of P_n, living in the
    group of W at that generator's point; joined, they are a vector of
    `sum`, the complex's Hom(P_n, W).  The Hom complex is built in the
    degrees n - 1, n and n + 1 only, which is all that H^n reads, against
    the given resolution or, without one, `resolve_projective` to length
    n + 1.
    """

    def __init__(self, v: QuiverRep, w: QuiverRep, n: int, resolution=None):
        _require_one_poset(v, w)
        self.v = v
        self.w = w
        self.n = n
        if resolution is None:
            resolution = resolve_projective(v, n + 1)
        self.resolution = resolution
        self.complex = HomComplex.build(resolution, w, n + 1, low=max(n - 1, 0))
        self.sum = self.complex.sums[n - self.complex.low]
        self.data = self.complex.cohomology_at(n)
        self.group = self.data.group

    def class_of_cochain(self, cochain):
        """Canonical coordinates of the class of a cocycle; an entry that
        does not live in the group at its generator's point is named with
        that point."""
        points = self.resolution.projective_at(self.n).gen_points
        for vec, x in zip(cochain, points):
            if len(vec) != self.w.groups[x].ngens:
                raise ValueError(f"cochain entry {vec} does not live in the group at {x!r}")
        return self.data.coords(self.sum.join(cochain))

    def cochain_of_class(self, coords):
        return self.sum.split(self.data.rep_of(coords))

    def zero_class(self):
        return tuple(0 for _ in self.group.invariant_factors)


def ext_poset(v: QuiverRep, w: QuiverRep, n: int) -> ExtPosetGroup:
    """Ext^n_{Z[X]}(V, W) via a projective resolution of V."""
    if n not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    return ExtPosetGroup(v, w, n)


def sierpinski_ext2(phi: GroupMorphism, psi: GroupMorphism) -> FgAbGroup:
    """Independent oracle for Ext^2 over the two-point space: for
    representations with arrow maps phi (source) and psi (target), the group
    is Ext^1_Z(ker(phi), coker(psi))."""
    k, _ = phi.kernel()
    return ext1_z(k, homology_at(psi, None).group).group


# ---------------------------------------------------------------------------
# UPS oracle: total complex of the bimodule resolution
# ---------------------------------------------------------------------------


def ext_poset_ups_oracle(v: QuiverRep, w: QuiverRep):
    """Ext^0/1/2 through the double complex built from the length-one
    bimodule resolution (unique path spaces only)."""
    poset = v.poset
    ups, witness = is_unique_path_space(poset)
    if not ups:
        raise ValueError(f"not a unique path space: {witness}")

    # the free Z-resolutions the entry groups own
    rank0 = {x: v.groups[x].ngens for x in poset.points}
    basis = {x: v.groups[x].snf.image_basis() for x in poset.points}
    arrows = poset.hasse_arrows

    # lifts of the arrow maps to the free resolutions
    lift0 = {(y, x): v.arrow_map(y, x).matrix for y, x in arrows}
    lift1 = {(y, x): resolution_lift(v.arrow_map(y, x)) for y, x in arrows}

    # total complex generator bookkeeping: T0 = sum_x P(x) x F0_x,
    # T1 = sum_x P(x) x F1_x  +  sum_{y->x} P(x) x F0_y,
    # T2 = sum_{y->x} P(x) x F1_y; a slot (kind, x or (y, x), k) sits at x
    t0_slots = [("pt", x, k) for x in poset.points for k in range(rank0[x])]
    t1_slots = ([("vert", x, k) for x in poset.points for k in range(basis[x].cols)]
                + [("horiz", (y, x), k) for y, x in arrows for k in range(rank0[y])])
    t2_slots = [("arrow", (y, x), k) for y, x in arrows for k in range(basis[y].cols)]
    t0, t1, t2 = (ProjectiveRep(poset, [key if kind in ("pt", "vert") else key[1]
                                        for kind, key, _ in slots])
                  for slots in (t0_slots, t1_slots, t2_slots))
    idx0 = {s: i for i, s in enumerate(t0_slots)}
    idx1 = {s: i for i, s in enumerate(t1_slots)}

    d1 = IntMatrix.zeros(t0.num_gens, t1.num_gens)
    for j, slot in enumerate(t1_slots):
        kind = slot[0]
        if kind == "vert":
            _, x, k = slot
            for i in range(rank0[x]):
                d1.data[idx0[("pt", x, i)]][j] = basis[x].data[i][k]
        else:
            _, (y, x), k = slot
            for i in range(rank0[x]):
                d1.data[idx0[("pt", x, i)]][j] = lift0[(y, x)].data[i][k]
            d1.data[idx0[("pt", y, k)]][j] += -1

    d2 = IntMatrix.zeros(t1.num_gens, t2.num_gens)
    for j, slot in enumerate(t2_slots):
        _, (y, x), k = slot
        for i in range(rank0[y]):
            d2.data[idx1[("horiz", (y, x), i)]][j] = basis[y].data[i][k]
        for i in range(basis[x].cols):
            d2.data[idx1[("vert", x, i)]][j] = -lift1[(y, x)].data[i][k]
        for i in range(basis[y].cols):
            d2.data[idx1[("vert", y, i)]][j] += 1 if i == k else 0

    if not (d1 @ d2).is_zero():
        raise ExactArithmeticError("total complex must be a complex")

    # augmentation for sanity: generators of T0 map to the entry generators
    aug = ProjIntoRep(
        t0, v,
        [[1 if i == k else 0 for i in range(rank0[x])] for (_kind, x, k) in t0_slots],
    )
    res = ProjResolution(v, [t0, t1, t2], aug, [d1, d2], complete=True)
    verify_resolution(res)
    cx = HomComplex.build(res, w, 3)
    return [cx.cohomology_at(n).group for n in range(3)]


# ---------------------------------------------------------------------------
# Two-step extensions and Yoneda classes
# ---------------------------------------------------------------------------


@dataclass
class TwoExtension:
    """0 -> M1 --d2--> Q1 --d1--> Q0 --eps--> M0 -> 0 of representations."""

    m1: QuiverRep
    q1: QuiverRep
    q0: QuiverRep
    m0: QuiverRep
    d2: RepMorphism
    d1: RepMorphism
    eps: RepMorphism

    def verify_exact(self):
        """Raises ExactnessError naming the failing node."""
        for p in self.m0.poset.points:
            if not self.d2.maps[p].is_injective():
                raise ExactnessError(f"first map not injective at point {p!r}")
            if not self.eps.maps[p].is_surjective():
                raise ExactnessError(f"last map not surjective at point {p!r}")
            if not is_exact_at(self.d2.maps[p], self.d1.maps[p]):
                raise ExactnessError(f"not exact at the inner node Q1, point {p!r}")
            if not is_exact_at(self.d1.maps[p], self.eps.maps[p]):
                raise ExactnessError(f"not exact at the inner node Q0, point {p!r}")
        return True


@dataclass
class Ext2Class:
    """An element of a computed Ext^2 group: ambient group with coordinates."""

    ambient: ExtPosetGroup
    coords: tuple

    @property
    def provenance(self):
        """Fingerprint of the resolution the coordinates refer to."""
        return self.ambient.resolution.fingerprint()

    def is_zero(self):
        return all(c == 0 for c in self.coords)


def _factor_at_points(points, targets, at, what):
    """One u_i per generator with at(x) u_i == targets[i] in the target
    group of at(x), x = points[i]; generators at the same point share one
    solve.  Raises ExactArithmeticError(what) if one has none."""
    by_point = {}
    for i, x in enumerate(points):
        by_point.setdefault(x, []).append(i)
    out = [None] * len(points)
    for x, idx in by_point.items():
        f = at(x)
        b = IntMatrix.from_columns([targets[i] for i in idx], rows=f.target.ngens)
        u = f.lift(b)
        if u is None:
            raise ExactArithmeticError(what)
        for k, i in enumerate(idx):
            out[i] = u.column(k)
    return out


def _lift(res: ProjResolution, targets, stages):
    """The comparison theorem: phi_k: P_k -> C_k, one vector of C_k per
    generator of P_k, lifting the map P_0 -> C_{-1} with values `targets`
    along an exact complex ... -> C_1 -> C_0 -> C_{-1}, one degree at a time.

    stages[k] = (at, transport): at(x) is C_k -> C_{k-1} at x, transport(y,
    x) the matrix of C_k along x <= y.  at(x) phi_k = phi_{k-1}∘(P_k ->
    P_{k-1}), the right side precomposed through `_hom_differential`.  Each
    lift is the one `_factor_at_points` returns; any other choice differs by
    a chain homotopy, which changes no class read from the lift."""
    lifts = []
    for k, (at, _) in enumerate(stages):
        p = res.projective_at(k)
        if k:
            p_lo, (at_lo, transport_lo) = res.projective_at(k - 1), stages[k - 1]
            lo, hi = (DirectSum([at_lo(x).source for x in q.gen_points]) for q in (p_lo, p))
            pre = _hom_differential(p, hi, p_lo, lo, res.diff_coeffs(k), transport_lo)
            targets = hi.split(pre.apply(lo.join(lifts[-1])))
        lifts.append(_factor_at_points(p.gen_points, targets, at,
                                       f"lift in degree {k} must exist by exactness"))
    return lifts


def _require_over(name, group: ExtPosetGroup, m0: QuiverRep, m1: QuiverRep):
    """ValueError naming the module of `group`, Ext(V, W), that is not m0
    or m1 in the same coordinates, where the identity matrices are an
    isomorphism of representations."""
    for which, a, b in (("M0", group.v, m0), ("M1", group.w, m1)):
        try:
            same = a is b or RepMorphism(a, b, {p: GroupMorphism.identity(g)
                                                for p, g in a.groups.items()}).is_iso()
        except ValueError:  # another poset or shape, ill defined, or not commuting
            same = False
        if not same:
            raise ValueError(f"the {which} of {name}, {a!r}, does not match {b!r}")


def yoneda_class(ext: TwoExtension, ambient: ExtPosetGroup = None) -> Ext2Class:
    """Class of a two-step extension in Ext^2(M0, M1).

    Lifts the identity of M0 through the extension against the resolution
    of `ambient`, or of `ExtPosetGroup(M0, M1, 2)` when none is given; the
    middle terms need not be projective.  The lifts are one fixed choice;
    the class does not depend on it, and against another resolution it is
    the same class in other coordinates (`transport_class`).  An `ambient`
    over other modules than M0 and M1 is a ValueError.
    """
    ext.verify_exact()
    if ambient is not None:
        _require_over("the ambient group", ambient, ext.m0, ext.m1)
    return _yoneda_cocycle(ext, ambient)


def _yoneda_cocycle(ext: TwoExtension, ambient: ExtPosetGroup = None) -> Ext2Class:
    """yoneda_class for an extension already checked by `verify_exact`: the
    `_lift` of the augmentation along eps, d1 and d2, whose degree-two
    lift is a cocycle in M1.

    A resolution with no P2 has no degree-two cochains, so the class is zero
    and no lift is made."""
    if ambient is None:
        ambient = ExtPosetGroup(ext.m0, ext.m1, 2)
    res = ambient.resolution
    if not res.projective_at(2).num_gens:
        return Ext2Class(ambient, ambient.zero_class())
    stages = [(m.maps.__getitem__, _matrices(m.source)) for m in (ext.eps, ext.d1, ext.d2)]
    phi = _lift(res, res.aug.vectors, stages)
    return Ext2Class(ambient, ambient.class_of_cochain(phi[2]))


def chain_lift(f: RepMorphism, res_src: ProjResolution, res_tgt: ProjResolution):
    """Coefficient matrices, in degrees 0, 1 and 2, of a chain map
    res_src -> res_tgt lifting f: the `_lift` of f∘aug along res_tgt.  Each
    stage builds its map at a point once, so the lift and its sizes read
    one morphism and one decomposition."""
    def stage(k):
        p, prev = res_tgt.projective_at(k), res_tgt.projective_at(k - 1)

        @cache
        def at(x):
            d = p.point_matrix_of_coeffs(res_tgt.diff_coeffs(k), prev, x)
            return GroupMorphism(FgAbGroup.free(d.cols), FgAbGroup.free(d.rows), d, trusted=True)

        return at, p.transport_matrix

    p0 = res_src.projective_at(0)
    targets = [f.maps[x].matrix.apply(v) for x, v in zip(p0.gen_points, res_src.aug.vectors)]
    stages = [(res_tgt.aug.point_morphism, res_tgt.projective_at(0).transport_matrix),
              stage(1), stage(2)]
    return [_coeffs_of_vectors(res_tgt.projective_at(k), res_src.projective_at(k).gen_points, phi)
            for k, phi in enumerate(_lift(res_src, targets, stages))]


def _pullback(cls: Ext2Class, f: RepMorphism, ambient: ExtPosetGroup) -> tuple:
    """Coordinates in `ambient`, a group over the source of f, of f^* cls:
    the cocycle of cls precomposed with the degree-two `chain_lift` of f."""
    src = cls.ambient
    lift = chain_lift(f, ambient.resolution, src.resolution)[2]
    pre = _hom_differential(ambient.resolution.projective_at(2), ambient.sum,
                            src.resolution.projective_at(2), src.sum, lift, _matrices(ambient.w))
    return ambient.data.coords(pre.apply(src.data.rep_of(cls.coords)))


def transport_class(cls: Ext2Class, ambient_tgt: ExtPosetGroup) -> tuple:
    """Coordinates of the same class against another resolution of M0: the
    pullback along the identity."""
    return _pullback(cls, RepMorphism.identity(cls.ambient.v), ambient_tgt)


def ext2_compatible(f: RepMorphism, c: Ext2Class, cprime: Ext2Class, g: RepMorphism) -> bool:
    """Does g_* c equal f^* c' in Ext^2(M0, M1')?

    f: M0 -> M0', g: M1 -> M1', with c over (M0, M1) and c' over (M0', M1');
    a class over other modules is a ValueError.  Every pair of classes is
    compatible when that group is trivial, and then no chain map is lifted.
    """
    _require_over("c", c.ambient, f.source, g.source)
    _require_over("c'", cprime.ambient, f.target, g.target)
    ambient = ExtPosetGroup(f.source, g.target, 2, resolution=c.ambient.resolution)
    if ambient.group.is_trivial():
        return True
    # push c forward along g at the cochain level, pull c' back along f
    points = c.ambient.resolution.projective_at(2).gen_points
    pushed = [g.maps[x].matrix.apply(vec)
              for vec, x in zip(c.ambient.cochain_of_class(c.coords), points)]
    return ambient.class_of_cochain(pushed) == _pullback(cprime, f, ambient)


# ---------------------------------------------------------------------------
# Baer sum of two-step extensions
# ---------------------------------------------------------------------------


def rep_corestrict(f: RepMorphism, incl: RepMorphism) -> RepMorphism:
    """g with incl∘g = f, for incl injective and im(f) inside its image."""
    maps = {}
    for p in f.source.poset.points:
        m = incl.maps[p]
        mat = m.lift(f.maps[p].matrix)
        if mat is None:
            raise ExactArithmeticError("corestriction must exist")
        maps[p] = GroupMorphism(f.source.groups[p], incl.source.groups[p], mat)
    return RepMorphism(f.source, incl.source, maps, trusted=True)


def rep_descend(f: RepMorphism, proj: RepMorphism) -> RepMorphism:
    """g with g∘proj = f, for proj a cokernel projection killing ker(proj).

    Cokernel groups share their generators with proj's source, so f's maps
    are g's, rebuilt on the cokernel groups, where `RepMorphism` checks that
    they are well defined.
    """
    return RepMorphism(proj.target, f.target, f.maps, trusted=True)


def baer_sum(e1: TwoExtension, e2: TwoExtension) -> TwoExtension:
    """Baer sum of two 2-extensions of M0 by M1: the pullback
    Q0 x_M0 Q0' = ker(eps pr1 - eps' pr2) and the pushout
    Q1 +_M1 Q1' = coker(in1 d2 - in2 d2'), joined by (d1, d1')."""
    _, q0_injs, q0_projs = rep_direct_sum([e1.q0, e2.q0])
    _, q1_injs, q1_projs = rep_direct_sum([e1.q1, e2.q1])
    q0, incl = rep_kernel(e1.eps @ q0_projs[0] - e2.eps @ q0_projs[1])
    q1, proj = rep_cokernel(q1_injs[0] @ e1.d2 - q1_injs[1] @ e2.d2)
    middle = q0_injs[0] @ e1.d1 @ q1_projs[0] + q0_injs[1] @ e2.d1 @ q1_projs[1]
    d1 = rep_descend(rep_corestrict(middle, incl), proj)
    return TwoExtension(e1.m1, q1, q0, e1.m0, proj @ q1_injs[0] @ e1.d2, d1,
                        e1.eps @ q0_projs[0] @ incl)


# ---------------------------------------------------------------------------
# Bounded isomorphism search for representations
# ---------------------------------------------------------------------------


def rep_iso_bounded_multi(sources, targets, bound=8, budget=20000, accept=None) -> SearchOutcome:
    """Simultaneous isomorphism search for parallel representations over one
    poset (the graded pieces of a graded representation); sound,
    bounded-complete.

    A thin wrapper over `abelian.iso_search` with one diagram per piece over
    the Hasse arrows, so every family is arrow-compatible by construction.
    `budget` counts the elements of Hom(source, target) enumerated per
    piece.  Each family of pointwise isomorphisms (one RepMorphism per
    source) is passed to `accept`; the search answers yes with the first
    family it approves (any family when accept is None).  It answers no only
    when the groups at some point differ, or when every piece's Hom group is
    finite and was enumerated whole, so no family passes the predicate.
    """
    poset = sources[0].poset
    pieces = [({p: (v.groups[p], w.groups[p]) for p in poset.points},
               [(y, x, v.arrow_map(y, x), w.arrow_map(y, x)) for y, x in poset.hasse_arrows])
              for v, w in zip(sources, targets)]

    def family(maps):
        return [RepMorphism(v, w, m, trusted=True) for v, w, m in zip(sources, targets, maps)]

    out = iso_search(pieces, bound, budget, accept and (lambda maps: accept(family(maps))))
    if out.verdict == "yes":
        out.witness = family(out.witness)
    return out
