"""Finitely generated abelian groups as presentations, with Hom and Ext^1.

A group is Z^n modulo the column lattice of a relation matrix.  Groups are
never silently canonicalized: the presentation and its generator basis are
kept so that morphism matrices stay meaningful; the canonical decomposition
into cyclic factors is a derived view (via the cached Smith normal form of
the relations).

Hom and Ext^1 carry explicit representing bases (morphisms, respectively
cocycles against the free resolution the source group owns), so a map
between them, such as
the one `ext1_induced` builds from a pair of morphisms, is computed on the
nose in canonical coordinates (`canonical_morphism`) rather than up to
isomorphism.

A direct sum of presented groups has one layout, `DirectSum`: generators
concatenated in summand order, relations block-diagonal.  Hom_Z(V, W) and
the Ext^1_Z cocycles live on powers W^n of it, with vec(f) (column-major)
as the vector of W^n holding the columns of f in order.

Injective, surjective, bijective and exact are decided by one Hopfian test
on invariant factors, never by building a kernel or cokernel group.  With
f: Z^n/R -> Z^m/S, its image lattice I = im f + S and its preimage lattice
P = {x : f x in S} (which contains R):
  * f is surjective iff every cokernel factor of I is 1;
  * f is injective iff P = R, iff Z^n/P and Z^n/R have the same invariant
    factors (Z^n/R -> Z^n/P is onto, and the groups are Hopfian);
  * f then g is exact iff g f = 0 (so I lies in P) and Z^m/I, Z^m/P have
    the same invariant factors.

Every subquotient ker(g)/im(f), a kernel included, is built by `homology_at`:
on a basis of the preimage lattice of g, or, with no g or g into the zero
group, as the cokernel of f, which reads f's image lattice and solves nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .intlinalg import (
    ExactArithmeticError,
    IntMatrix,
    SmithDecomposition,
    _factor,
    cokernel_factors,
    determinant,
    lattice_basis,
    smith_normal_form,
    solve,
    unvec,
    vec,
)

__all__ = [
    "FgAbGroup", "GroupMorphism", "DirectSum", "IllDefinedMorphism", "hom_z", "ext1_z",
    "homology_at", "eventual_image", "torsion_subgroup",
]


class IllDefinedMorphism(ValueError):
    """A candidate matrix does not map source relations into target relations.

    Carries a violating relation as witness.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"matrix does not respect relations; violating relation {witness}")


class FgAbGroup:
    """Z^ngens modulo the column span of `relations` (ngens x k)."""

    __slots__ = ("ngens", "relations", "_snf", "_canon_positions", "_invariant_factors")

    def __init__(self, ngens, relations=None):
        if relations is None:
            relations = IntMatrix.zeros(ngens, 0)
        if relations.rows != ngens:
            raise ValueError(f"relation matrix has {relations.rows} rows, expected {ngens}")
        self.ngens = ngens
        self.relations = relations
        self._snf = None
        self._canon_positions = None
        self._invariant_factors = None

    @classmethod
    def free(cls, n):
        return cls(n)

    @classmethod
    def cyclic(cls, d):
        return cls(1, IntMatrix.from_rows([[d]]))

    @classmethod
    def from_invariant_factors(cls, factors):
        """Direct sum of Z/d over the given list; d = 0 means a Z summand."""
        n = len(factors)
        cols = [
            [factors[i] if j == i else 0 for j in range(n)]
            for i in range(n)
            if factors[i] != 0
        ]
        return cls(n, IntMatrix.from_columns(cols, rows=n))

    @classmethod
    def trivial(cls):
        return cls(0)

    @property
    def snf(self):
        if self._snf is None:
            self._snf = smith_normal_form(self.relations)
        return self._snf

    def _diag_padded(self):
        return self.snf.diagonal_padded(self.ngens)

    @property
    def canon_positions(self):
        """Generator slots of the canonical form whose factor is not 1."""
        if self._canon_positions is None:
            diag = self._diag_padded()
            self._canon_positions = [i for i, d in enumerate(diag) if d != 1]
        return self._canon_positions

    @property
    def invariant_factors(self):
        """Nonunit invariant factors, divisibility chain first, 0 = free factor."""
        if self._invariant_factors is None:
            diag = self._diag_padded()
            self._invariant_factors = [diag[i] for i in self.canon_positions]
        return self._invariant_factors

    def order(self):
        """Group order, or None if infinite."""
        total = 1
        for d in self.invariant_factors:
            if d == 0:
                return None
            total *= d
        return total

    @property
    def rank(self):
        return sum(1 for d in self.invariant_factors if d == 0)

    def is_trivial(self):
        return not self.invariant_factors

    def is_free(self):
        return all(d == 0 for d in self.invariant_factors)

    def contains_relation(self, vec) -> bool:
        """Is the vector zero in the group (i.e. in the relation lattice)?"""
        return not any(vec) or _factor(self.snf, [vec]) is not None

    def canon_coords(self, vec):
        """Coordinates of the class of vec in the canonical cyclic decomposition."""
        y = self.snf.U.apply(vec)
        diag = self._diag_padded()
        out = []
        for i in self.canon_positions:
            out.append(y[i] % diag[i] if diag[i] != 0 else y[i])
        return tuple(out)

    def from_canon(self, coords):
        """A generator-basis representative of canonical coordinates, one per factor."""
        if len(coords) != len(self.canon_positions):
            raise ValueError(f"{len(coords)} coordinates given for {self.describe()}, "
                             f"which has {len(self.canon_positions)} invariant factors")
        y = [0] * self.ngens
        for c, i in zip(coords, self.canon_positions):
            y[i] = c
        return self.snf.Uinv.apply(y)

    def elements(self):
        """Iterate canonical coordinates of all elements (finite groups only)."""
        facs = self.invariant_factors
        if any(d == 0 for d in facs):
            raise ValueError("cannot enumerate an infinite group")
        return itertools.product(*[range(d) for d in facs])

    def describe(self):
        """Human-readable shape, e.g. 'Z/2 + Z/6 + Z^2'."""
        facs = self.invariant_factors
        if not facs:
            return "0"
        tors = [d for d in facs if d != 0]
        parts = [f"Z/{d}" for d in tors]
        r = len(facs) - len(tors)
        if r == 1:
            parts.append("Z")
        elif r > 1:
            parts.append(f"Z^{r}")
        return " + ".join(parts)

    def __repr__(self):
        return f"FgAbGroup({self.describe()}, ngens={self.ngens})"


class GroupMorphism:
    """A homomorphism given by an integer matrix on chosen generators.

    Column j is the image of generator j of the source.  Well-definedness
    (source relations land in the target relation lattice) is checked on
    construction unless `trusted=True`.
    """

    __slots__ = ("source", "target", "matrix", "_image")

    def __init__(self, source, target, matrix, trusted=False):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ValueError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected {target.ngens}x{source.ngens}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        self._image = None
        if not trusted:
            witness = self._find_violation()
            if witness is not None:
                raise IllDefinedMorphism(witness)

    def _find_violation(self):
        for j in range(self.source.relations.cols):
            r = self.source.relations.column(j)
            if not self.target.contains_relation(self.matrix.apply(r)):
                return r
        return None

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.ngens), trusted=True)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, IntMatrix.zeros(target.ngens, source.ngens), trusted=True)

    def __matmul__(self, other):
        """self after other."""
        if other.target.ngens != self.source.ngens:
            raise ValueError("composition mismatch")
        return GroupMorphism(other.source, self.target, self.matrix @ other.matrix, trusted=True)

    def __add__(self, other):
        return GroupMorphism(self.source, self.target, self.matrix + other.matrix, trusted=True)

    def __sub__(self, other):
        return GroupMorphism(self.source, self.target, self.matrix - other.matrix, trusted=True)

    def scaled(self, c):
        return GroupMorphism(self.source, self.target, self.matrix.scaled(c), trusted=True)

    def equals(self, other):
        """Equality as homomorphisms (matrices may differ by target relations)."""
        d = self.matrix - other.matrix
        return all(self.target.contains_relation(d.column(j)) for j in range(d.cols))

    def is_zero(self):
        return all(
            self.target.contains_relation(self.matrix.column(j)) for j in range(self.matrix.cols)
        )

    @property
    def image_lattice(self) -> SmithDecomposition:
        """The image lattice I = im f + S: the decomposition of [matrix |
        target relations], built on first read.  It serves `is_surjective`,
        `preimage_gens`, `lift` and `cokernel`."""
        if self._image is None:
            self._image = smith_normal_form(self.matrix.hstack(self.target.relations))
        return self._image

    def lift(self, b: IntMatrix):
        """X with f X = b in the target (matrix @ X == b modulo the target
        relations), or None when some column of b is not in the image."""
        return self.image_lattice.factor(b, self.source.ngens)

    def preimage_gens(self) -> IntMatrix:
        """Generators (not a basis) of {x in Z^n_src : f(x) = 0 in target},
        the kernel as a lattice: the kernel of [matrix | target relations],
        projected to the source coordinates.

        Contains the source relation lattice whenever f is well defined.
        """
        full = self.image_lattice.kernel_basis()
        return full.submatrix(range(self.source.ngens), range(full.cols))

    def preimage_lattice_basis(self) -> IntMatrix:
        """A basis of the lattice `preimage_gens` spans: `preimage_gens` itself
        when the target's relation columns R are independent, since the
        projection of ker[M | R] to the source coordinates is then injective
        ((0, r) in it forces R r = 0, so r = 0) and keeps a basis a basis."""
        gens = self.preimage_gens()
        if self.target.snf.rank == self.target.relations.cols:
            return gens
        return lattice_basis(gens)

    def kernel(self):
        """(K, incl) for K = `homology_at(None, self)`: the source itself into
        the zero group, else presented on a basis of the preimage lattice,
        which, without source relations, is incl's image lattice."""
        h = homology_at(None, self)
        if h.basis is None:
            return self.source, GroupMorphism.identity(self.source)
        incl = GroupMorphism(h.group, self.source, h.basis.matrix, trusted=True)
        if not self.source.relations.cols:
            incl._image = h.basis
        return h.group, incl

    def cokernel(self):
        """(C, proj) for C = `homology_at(self, None)`; proj is the identity matrix."""
        c = homology_at(self, None).group
        return c, GroupMorphism(self.target, c, IntMatrix.identity(self.target.ngens), trusted=True)

    def is_surjective(self):
        """Every cokernel factor of the image lattice is 1."""
        return all(d == 1 for d in self.image_lattice.diagonal_padded(self.target.ngens))

    def is_injective(self):
        """The preimage lattice has the source's invariant factors (Hopfian
        test; assumes f well defined)."""
        factors = [d for d in cokernel_factors(self.preimage_gens()) if d != 1]
        return factors == self.source.invariant_factors

    def is_iso(self):
        """Bijective?  A surjection onto a group with the same invariant
        factors is injective (Hopfian test)."""
        return self.source.invariant_factors == self.target.invariant_factors and self.is_surjective()

    def __repr__(self):
        return f"GroupMorphism({self.source.describe()} -> {self.target.describe()})"


def is_exact_at(f: GroupMorphism, g: GroupMorphism) -> bool:
    """Is im(f) = ker(g) inside the middle group (as subgroups)?  Hopfian
    test: g f = 0, and the image and preimage lattices have the same
    cokernel factors."""
    if f.target is not g.source and f.target.ngens != g.source.ngens:
        raise ValueError("maps are not composable around a middle group")
    return ((g @ f).is_zero()
            and cokernel_factors(f.matrix.hstack(g.source.relations))
            == cokernel_factors(g.preimage_gens()))


# ---------------------------------------------------------------------------
# Subquotients with representative bases
# ---------------------------------------------------------------------------


@dataclass
class SubquotientData:
    """ker(g)/im(f) at the middle of A --f--> B --g--> C, with coordinates.

    `group` is presented on B's own generators when `basis` is None, else
    on a basis of the kernel-of-g lattice: the columns of `basis.matrix`,
    vectors of B, whose decomposition solves for coordinates.  `coords`
    sends a vector of B representing a class (it must be killed by g) to
    canonical coordinates of that class.
    """

    group: FgAbGroup
    basis: SmithDecomposition | None = None

    def coords(self, ambient_vec):
        b = self.basis
        c = ambient_vec if b is None else solve(b.matrix, ambient_vec, snf=b)
        if c is None:
            raise ValueError("vector does not represent a class (not killed by the outgoing map)")
        return self.group.canon_coords(c)

    def rep_of(self, coords):
        x = self.group.from_canon(coords)
        return x if self.basis is None else self.basis.matrix.apply(x)

    @property
    def basis_reps(self):
        """One ambient representative per canonical generator of the group."""
        n = len(self.group.invariant_factors)
        out = []
        for l in range(n):
            coords = tuple(1 if i == l else 0 for i in range(n))
            out.append(self.rep_of(coords))
        return out


def homology_at(f: GroupMorphism | None, g: GroupMorphism | None) -> SubquotientData:
    """Homology ker(g)/im(f) of a two-step complex of presented groups.

    Either map may be None (treated as zero), not both.  With g None or into
    the zero group, it is coker f on [f | R], which owns f's image lattice
    (the middle group when f is None too); else it is presented on a basis
    of g's preimage lattice.  Requires g f = 0, else ExactArithmeticError.
    """
    if f is None and g is None:
        raise ValueError("need at least one map to know the middle group")
    if g is None or not g.target.ngens:
        if f is None:
            return SubquotientData(g.source)
        c = FgAbGroup(f.target.ngens, f.image_lattice.matrix)
        c._snf = f.image_lattice
        return SubquotientData(c)
    if f is not None and not (g @ f).is_zero():
        raise ExactArithmeticError("not a complex: g∘f != 0")
    basis = smith_normal_form(g.preimage_lattice_basis())
    k = basis.matrix.cols
    image = basis.factor(f.matrix) if f is not None else IntMatrix.zeros(k, 0)
    if image is None:
        raise ExactArithmeticError("image of f must lie in the kernel lattice of g")
    rel = basis.factor(g.source.relations)
    if rel is None:
        raise ExactArithmeticError("middle relations must lie in the kernel lattice of g")
    return SubquotientData(FgAbGroup(k, image.hstack(rel)), basis)


# ---------------------------------------------------------------------------
# Hom and Ext^1 with bases
# ---------------------------------------------------------------------------


class DirectSum:
    """The direct sum of presented groups, in the one layout every sum uses:
    the summands' generators concatenated in summand order, their relations
    block-diagonal.  W^n is DirectSum([W] * n), whose relations are
    kron(I_n, R_W).  A vector of the sum is the concatenation of one vector
    per summand; `offsets[i]` is where summand i starts."""

    __slots__ = ("summands", "offsets", "group")

    def __init__(self, summands):
        self.summands = list(summands)
        self.offsets = []
        n = 0
        for g in self.summands:
            self.offsets.append(n)
            n += g.ngens
        rel = IntMatrix.block_diag([g.relations for g in self.summands])
        self.group = FgAbGroup(n, rel)

    def split(self, vec):
        """The parts of a vector of the sum, one per summand."""
        return [vec[o:o + g.ngens] for o, g in zip(self.offsets, self.summands)]

    def join(self, parts):
        """The vector of the sum with the given parts, one per summand."""
        if len(parts) != len(self.summands):
            raise ValueError(f"{len(parts)} parts given, expected {len(self.summands)}, "
                             "one per summand")
        out = []
        for i, (part, g) in enumerate(zip(parts, self.summands)):
            if len(part) != g.ngens:
                raise ValueError(f"part {i}, {part}, does not live in the group of summand {i}, "
                                 f"on {g.ngens} generators")
            out.extend(part)
        return out

    def injection(self, i) -> GroupMorphism:
        """Summand i -> the sum."""
        g, o = self.summands[i], self.offsets[i]
        m = IntMatrix.zeros(self.group.ngens, g.ngens)
        for k in range(g.ngens):
            m.data[o + k][k] = 1
        return GroupMorphism(g, self.group, m, trusted=True)

    def projection(self, i) -> GroupMorphism:
        """The sum -> summand i."""
        return GroupMorphism(self.group, self.summands[i], self.injection(i).matrix.transpose(),
                             trusted=True)


class HomGroup:
    """Hom_Z(V, W) with a representing morphism per canonical generator."""

    def __init__(self, source: FgAbGroup, target: FgAbGroup):
        self.source = source
        self.target = target
        # N |-> N @ R_V lands in W^(#relations); vec form is kron(R^T, I)
        gmat = source.relations.transpose().kron(IntMatrix.identity(target.ngens))
        g = GroupMorphism(DirectSum([target] * source.ngens).group,
                          DirectSum([target] * source.relations.cols).group, gmat, trusted=True)
        self.data = homology_at(None, g)
        self.group = self.data.group

    @property
    def basis(self):
        return [
            GroupMorphism(self.source, self.target, unvec(v, self.target.ngens, self.source.ngens), trusted=True)
            for v in self.data.basis_reps
        ]

    def coords(self, f: GroupMorphism):
        return self.data.coords(vec(f.matrix))

    def from_coords(self, coords) -> GroupMorphism:
        v = self.data.rep_of(coords)
        return GroupMorphism(
            self.source, self.target, unvec(v, self.target.ngens, self.source.ngens), trusted=True
        )


class Ext1Group:
    """Ext^1_Z(V, W) as cocycles against V's own free resolution
    0 -> Z^r --B--> Z^n -> V -> 0, B = `V.snf.image_basis()`.

    A cocycle is a map Z^r -> W, stored as a (target.ngens x r) matrix;
    coboundaries are precompositions N @ B of maps Z^n -> W.  A resolution
    lift into this resolution solves through `V.snf` (`resolution_lift`).
    """

    def __init__(self, source: FgAbGroup, target: FgAbGroup):
        self.source = source
        self.target = target
        self.res = source.snf.image_basis()  # n x r, injective
        fmat = self.res.transpose().kron(IntMatrix.identity(target.ngens))
        f = GroupMorphism(DirectSum([target] * source.ngens).group,
                          DirectSum([target] * self.res.cols).group, fmat, trusted=True)
        self.data = homology_at(f, None)
        self.group = self.data.group

    @property
    def basis(self):
        return [unvec(v, self.target.ngens, self.res.cols) for v in self.data.basis_reps]

    def coords(self, cocycle: IntMatrix):
        return self.data.coords(vec(cocycle))

    def from_coords(self, coords) -> IntMatrix:
        return unvec(self.data.rep_of(coords), self.target.ngens, self.res.cols)


def hom_z(v: FgAbGroup, w: FgAbGroup) -> HomGroup:
    return HomGroup(v, w)


def ext1_z(v: FgAbGroup, w: FgAbGroup) -> Ext1Group:
    return Ext1Group(v, w)


def resolution_lift(f: GroupMorphism) -> IntMatrix:
    """Chain lift F^1(src) -> F^1(tgt) of f over the generator-level lift,
    between the free resolutions the two groups own (B = `snf.image_basis()`).

    Solves B_tgt @ f1 = f.matrix @ B_src through the target's own Smith
    form (`image_coords`), so neither B is eliminated; unique since B_tgt is
    injective, hence strictly functorial.
    """
    lift = f.target.snf.image_coords(f.matrix @ f.source.snf.image_basis())
    if lift is None:
        raise ExactArithmeticError("resolution lift must exist for a well-defined morphism")
    return lift


def _canonical_group(factors):
    return FgAbGroup.from_invariant_factors(list(factors))


def canonical_morphism(source: FgAbGroup, target: FgAbGroup, images) -> GroupMorphism:
    """The map between the canonical decompositions of source and target
    that sends canonical generator j of source to the canonical coordinates
    images[j] in target; an endomorphism keeps one group for both ends."""
    src = _canonical_group(source.invariant_factors)
    tgt = src if target is source else _canonical_group(target.invariant_factors)
    return GroupMorphism(
        src, tgt,
        IntMatrix.from_columns([list(c) for c in images], rows=tgt.ngens),
        trusted=True,
    )


def ext1_induced(pre: GroupMorphism | None, post: GroupMorphism | None,
                 esrc: Ext1Group, etgt: Ext1Group) -> GroupMorphism:
    """Map Ext^1(V,W) -> Ext^1(V',W'): cocycle c to post∘c∘(lift of pre).

    pre must be a morphism V' -> V (contravariant slot), post W -> W'.
    """
    lift = None
    if pre is not None:
        lift = resolution_lift(pre)
    images = []
    for c in esrc.basis:
        m = c
        if lift is not None:
            m = m @ lift
        if post is not None:
            m = post.matrix @ m
        images.append(etgt.coords(m))
    return canonical_morphism(esrc.group, etgt.group, images)


# ---------------------------------------------------------------------------
# Helpers used across modules and tests
# ---------------------------------------------------------------------------


def image_subgroup(f: GroupMorphism):
    """(H, embed) with H presented on the generator images of f."""
    n = f.source.ngens
    rel = GroupMorphism(
        FgAbGroup.free(n), f.target, f.matrix, trusted=True
    ).preimage_lattice_basis()
    h = FgAbGroup(n, rel)
    embed = GroupMorphism(h, f.target, f.matrix, trusted=True)
    return h, embed


def eventual_image(phi: GroupMorphism):
    """(H, embed, tau) for the stable image of an endomorphism of a finite group.

    H = im(phi^k) for stabilized k, with tau the induced automorphism.
    """
    g = phi.source
    if g.order() is None:
        raise ValueError("eventual image requires a finite group")
    power = phi
    h, embed = image_subgroup(power)
    prev = h.order()
    while True:
        power = phi @ power
        h2, embed2 = image_subgroup(power)
        if h2.order() == prev:
            h, embed = h2, embed2
            break
        h, embed, prev = h2, embed2, h2.order()
    # induced map on H: solve embed∘tau = phi∘embed
    mat = embed.lift(phi.matrix @ embed.matrix)
    if mat is None:
        raise ExactArithmeticError("endomorphism must preserve its eventual image")
    tau = GroupMorphism(h, h, mat)
    return h, embed, tau


def torsion_subgroup(g: FgAbGroup):
    """(T, embed) for the torsion subgroup of g, off g's Smith form U R V = D:
    the saturation of the relation lattice, spanned by the first `rank`
    columns of U^-1, with relations the first `rank` rows of U R."""
    s = g.snf
    sat = s.Uinv.submatrix(range(g.ngens), range(s.rank))
    rel = (s.U @ g.relations).submatrix(range(s.rank), range(g.relations.cols))
    t = FgAbGroup(s.rank, rel)
    embed = GroupMorphism(t, g, sat, trusted=True)
    return t, embed


# ---------------------------------------------------------------------------
# Hom groups of diagrams and the bounded isomorphism search
# ---------------------------------------------------------------------------


@dataclass
class SearchOutcome:
    """Verdict of a bounded isomorphism search: 'yes' carries a witness, 'no'
    rests on a proven invariant or an exhaustive search, else 'unknown'."""

    verdict: str  # 'yes' | 'no' | 'unknown'
    witness: object = None
    reason: str = ""


def _hom_slots(v: FgAbGroup, w: FgAbGroup):
    """(row, col, step, order) per entry of a map V -> W in canonical
    coordinates that can be nonzero.  Hom(Z/d, Z/h) is cyclic of order
    gcd(d, h), spanned by the entry h / gcd(d, h); order 0 stands for
    Hom(Z, Z) = Z, and Hom(Z/d, Z) = 0 for d != 0."""
    out = []
    for i, d in enumerate(v.invariant_factors):
        for j, h in enumerate(w.invariant_factors):
            g = math.gcd(d, h) if h else (0 if d == 0 else 1)
            if g != 1:
                out.append((j, i, h // g if h else 1, g))
    return out


def _canonical_matrix(f: GroupMorphism) -> IntMatrix:
    """The matrix of f between the canonical cyclic decompositions."""
    s, t = f.source, f.target
    return (t.snf.U @ f.matrix @ s.snf.Uinv).submatrix(t.canon_positions, s.canon_positions)


def _prime_divisors(n):
    """The primes dividing n > 0, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _automorphism_blocks(factors):
    """(free, blocks) for a canonical factor list (`invariant_factors`): the
    positions of the free factors, and one (p, positions of the torsion
    factors divisible by p) per prime p of a torsion factor."""
    free = [i for i, d in enumerate(factors) if d == 0]
    primes = sorted({p for d in set(factors) if d for p in _prime_divisors(d)})
    return free, [(p, [i for i, d in enumerate(factors) if d and d % p == 0]) for p in primes]


def _is_automorphism(f: IntMatrix, free, blocks) -> bool:
    """Is f an automorphism of G, f a matrix between the canonical
    decompositions of G (as `_hom_slots` shapes them) and (free, blocks)
    `_automorphism_blocks` of G's factor list?  True iff |det| = 1 on the
    free block and, for each prime p of a torsion factor, det is not 0 mod p
    on the block of torsion factors divisible by p.

    Proof.  G is finitely generated, so f is bijective iff it is onto
    (Hopfian) iff C = coker f is 0 iff C/pC = 0 for every prime p (a finitely
    generated group with C/pC = 0 for all p has no free and no p-primary
    factor), iff f is onto mod p for every p.  G/pG is free over Z/p on the
    canonical generators whose factor p divides, free ones included, and f
    acts on it by those rows and columns of f reduced mod p (an entry into
    Z/d is defined mod d, so mod p when p divides d).  Hom(Z/d, Z) = 0, so
    with torsion generators before free ones that matrix is block upper
    triangular, [[f_p, *], [0, f_free]], and onto mod p iff
    det f_p * det f_free is not 0 mod p.  For a prime of no torsion factor
    f_p is empty, so every prime asks det f_free to be nonzero mod p, i.e.
    |det f_free| = 1, and the primes of the torsion factors ask in addition
    that det f_p be nonzero mod p (Hillar and Rhea, "Automorphisms of finite
    abelian groups", Amer. Math. Monthly 2007, describe the same blocks).
    """
    if abs(determinant(f.submatrix(free, free))) != 1:
        return False
    return all(determinant(f.submatrix(idx, idx)) % p for p, idx in blocks)


class DiagramHom:
    """Hom(V, W) of two diagrams of groups of one shape, as one FgAbGroup.

    `points` maps each point k to (V_k, W_k); `arrows` lists (k, l, a, b)
    with a: V_k -> V_l and b: W_k -> W_l.  A morphism is a family of maps
    f_k: V_k -> W_k with b f_k = f_l a on every arrow, so the group is the
    kernel of  sum_k Hom(V_k, W_k) -> sum over arrows of Hom(V_k, W_l),
    f |-> b f_k - f_l a, taken entry by entry in canonical coordinates
    (`_hom_slots`), so one kernel computation gives the whole group.
    """

    def __init__(self, points, arrows):
        self.points = dict(points)
        self.slots = {k: _hom_slots(v, w) for k, (v, w) in self.points.items()}
        source = [(k, slot) for k, slots in self.slots.items() for slot in slots]
        rows, orders = [], []
        for k, l, a, b in arrows:
            amat, bmat = _canonical_matrix(a).data, _canonical_matrix(b).data
            for j, i, step, g in _hom_slots(self.points[k][0], self.points[l][1]):
                row = []
                for p, (jj, ii, st, _) in source:
                    e = (st * bmat[j][jj] if p == k and ii == i else 0) - (
                        st * amat[ii][i] if p == l and jj == j else 0)
                    if e % step:
                        raise ExactArithmeticError("arrow maps must be well defined")
                    row.append(e // step)
                rows.append(row)
                orders.append(g)
        s = FgAbGroup.from_invariant_factors([slot[3] for _, slot in source])
        t = FgAbGroup.from_invariant_factors(orders)
        constraints = IntMatrix(len(rows), len(source), rows)
        self.group, incl = GroupMorphism(s, t, constraints, trusted=True).kernel()
        k = self.group
        self._embed = (incl.matrix @ k.snf.Uinv).submatrix(range(s.ngens), k.canon_positions)
        # the walk starts at the canonical identity family when it is a morphism
        ident = [int(j == i and step == 1) for _, (j, i, step, _) in source]
        self._start = ident if t.contains_relation(constraints.apply(ident)) else [0] * len(source)

    def _canonical_maps(self, coords):
        """{k: f_k} for the element with canonical coordinates `coords` plus
        the start element, each f_k a matrix between the canonical
        decompositions of V_k and W_k."""
        x = [a + b for a, b in zip(self._embed.apply(coords), self._start)]
        out = {}
        pos = 0
        for k, (v, w) in self.points.items():
            f = IntMatrix.zeros(len(w.invariant_factors), len(v.invariant_factors))
            for j, i, step, g in self.slots[k]:
                f.data[j][i] = step * (x[pos] % g if g else x[pos])
                pos += 1
            out[k] = f
        return out

    def isomorphisms(self, bound, budget):
        """The families {k: f_k} of isomorphisms among the first `budget`
        elements in coordinate order, free coordinates in [-bound, bound].

        The walk starts at the canonical identity family when it is a
        morphism of diagrams (always, when there are no arrows), else at
        zero: coordinates c stand for start + c.  Translation by an element
        of the group is a bijection, so a finite group enumerated whole is
        visited exactly as from zero; only the window of the first `budget`
        elements moves, to sit around an isomorphism.

        A map is an isomorphism only between groups of one factor list, and
        then `_is_automorphism` decides it in closed form, with the primes
        of the factors found once here."""
        blocks = {}
        for k, (v, w) in self.points.items():
            if v.invariant_factors != w.invariant_factors:
                return
            blocks[k] = _automorphism_blocks(v.invariant_factors)
        ranges = [range(d) if d else range(-bound, bound + 1) for d in self.group.invariant_factors]
        for coords in itertools.islice(itertools.product(*ranges), budget):
            maps = self._canonical_maps(coords)
            if all(_is_automorphism(f, *blocks[k]) for k, f in maps.items()):
                yield {k: self._morphism(k, f) for k, f in maps.items()}

    def _morphism(self, k, f: IntMatrix) -> GroupMorphism:
        v, w = self.points[k]
        left = w.snf.Uinv.submatrix(range(w.ngens), w.canon_positions)
        right = v.snf.U.submatrix(v.canon_positions, range(v.ngens))
        return GroupMorphism(v, w, left @ f @ right, trusted=True)

    def enumerable(self, budget) -> bool:
        """Finite with at most `budget` elements, so enumerated whole."""
        order = self.group.order()
        return order is not None and order <= budget


class _ZeroHom:
    """Hom(V, W) of a piece whose groups are zero at every point, on both
    sides: one element, the family of zero maps, which are isomorphisms.
    It needs no constraint system, no kernel and no canonical matrices."""

    def __init__(self, points):
        self.points = points

    def isomorphisms(self, bound, budget):
        if budget >= 1:
            yield {k: GroupMorphism.zero(v, w) for k, (v, w) in self.points.items()}

    def enumerable(self, budget) -> bool:
        return budget >= 1


def iso_search(pieces, bound, budget, accept=None) -> SearchOutcome:
    """Bounded search for an isomorphism of diagrams of groups.

    `pieces` lists (points, arrows) diagrams as in DiagramHom, the graded
    pieces of one object.  Each piece's Hom group is enumerated by its
    canonical coordinates, free ones in [-bound, bound], at most `budget`
    elements per piece, starting from the identity family when it is a
    morphism (see DiagramHom.isomorphisms).  A family with one element per
    piece, each an isomorphism at every point, is passed to `accept` as a
    tuple of {k: GroupMorphism}; the first one it approves (any, when accept
    is None) is the witness of 'yes'.  'no' when the groups at some point have
    different invariant factors, or when no family was approved and every
    piece's Hom group is finite with at most `budget` elements, so it was
    enumerated whole (from any start, the same set); otherwise 'unknown'.

    A piece whose groups are zero at every point, on both sides, has one
    family, the zero maps (`_ZeroHom`): it is enumerated whole when `budget`
    is at least 1, and builds no `DiagramHom`.
    """
    for points, _ in pieces:
        for k, (v, w) in points.items():
            if v.invariant_factors != w.invariant_factors:
                return SearchOutcome("no", reason=f"groups differ at point {k!r}")
    # W has V's factors at every point, so V alone tells a zero piece
    homs = [DiagramHom(points, arrows) if any(v.invariant_factors for v, _ in points.values())
            else _ZeroHom(points) for points, arrows in pieces]
    first, *rest = [h.isomorphisms(bound, budget) for h in homs]
    rest = [list(isos) for isos in rest]
    if all(rest):
        for f in first:
            for others in itertools.product(*rest):
                if accept is None or accept((f, *others)):
                    return SearchOutcome("yes", witness=(f, *others))
    if all(h.enumerable(budget) for h in homs):
        return SearchOutcome("no", reason="no accepted family of isomorphisms")
    return SearchOutcome("unknown", reason="search bounds exhausted")
