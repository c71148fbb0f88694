"""Finitely generated abelian groups as presentations, with Hom and Ext^1.

A group is Z^n modulo the column lattice of a relation matrix.  Groups are
never silently canonicalized: the presentation and its generator basis are
kept so that morphism matrices stay meaningful; the canonical decomposition
into cyclic factors is a derived view (via the cached Smith normal form of
the relations).

Hom and Ext^1 carry explicit representing bases (morphisms, respectively
cocycles against a fixed free resolution), so induced maps and connecting
maps can be computed on the nose rather than up to isomorphism.

Injective, surjective, bijective and exact are decided by one Hopfian test
on invariant factors, never by building a kernel or cokernel group.  With
f: Z^n/R -> Z^m/S, its image lattice I = im f + S and its preimage lattice
P = {x : f x in S} (which contains R):
  * f is surjective iff every cokernel factor of I is 1;
  * f is injective iff P = R, iff Z^n/P and Z^n/R have the same invariant
    factors (Z^n/R -> Z^n/P is onto, and the groups are Hopfian);
  * f then g is exact iff g f = 0 (so I lies in P) and Z^m/I, Z^m/P have
    the same invariant factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .intlinalg import (
    ColumnLattice,
    ExactArithmeticError,
    IntMatrix,
    cokernel_factors,
    determinant,
    factor_through,
    kernel_basis,
    lattice_basis,
    smith_normal_form,
    unvec,
    vec,
)


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
        if not any(vec):
            return True
        s = self.snf
        y = s.U.apply(vec)
        diag = self._diag_padded()
        for i in range(self.ngens):
            if diag[i] == 0:
                if y[i] != 0:
                    return False
            elif y[i] % diag[i] != 0:
                return False
        return True

    def canon_coords(self, vec):
        """Coordinates of the class of vec in the canonical cyclic decomposition."""
        y = self.snf.U.apply(vec)
        diag = self._diag_padded()
        out = []
        for i in self.canon_positions:
            out.append(y[i] % diag[i] if diag[i] != 0 else y[i])
        return tuple(out)

    def from_canon(self, coords):
        """A generator-basis representative of the given canonical coordinates."""
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

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, trusted=False):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ValueError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected {target.ngens}x{source.ngens}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
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

    def __neg__(self):
        return GroupMorphism(self.source, self.target, -self.matrix, trusted=True)

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

    def preimage_gens(self) -> IntMatrix:
        """Generators (not a basis) of {x in Z^n_src : f(x) = 0 in target},
        the kernel as a lattice: the kernel of [matrix | target relations],
        projected to the source coordinates.

        Contains the source relation lattice whenever f is well defined.
        """
        full = kernel_basis(self.matrix.hstack(self.target.relations))
        return full.submatrix(range(self.source.ngens), range(full.cols))

    def preimage_lattice_basis(self) -> IntMatrix:
        """A basis of the lattice `preimage_gens` spans."""
        return lattice_basis(self.preimage_gens())

    def kernel(self):
        """(K, incl) with K presented on a basis of the preimage lattice."""
        b = self.preimage_lattice_basis()
        rel = factor_through(b, self.source.relations)
        if rel is None:
            raise ExactArithmeticError("source relations must lie in the kernel lattice")
        k = FgAbGroup(b.cols, rel)
        incl = GroupMorphism(k, self.source, b, trusted=True)
        return k, incl

    def cokernel(self):
        """(C, proj) with C presented on the target generators."""
        c = FgAbGroup(self.target.ngens, self.matrix.hstack(self.target.relations))
        proj = GroupMorphism(self.target, c, IntMatrix.identity(self.target.ngens), trusted=True)
        return c, proj

    def is_surjective(self):
        """Every cokernel factor of the image lattice is 1."""
        return all(d == 1 for d in cokernel_factors(self.matrix.hstack(self.target.relations)))

    def is_injective(self):
        """The preimage lattice has the source's invariant factors (Hopfian
        test; assumes f well defined)."""
        factors = [d for d in cokernel_factors(self.preimage_gens()) if d != 1]
        return factors == self.source.invariant_factors

    def is_iso(self):
        """Bijective?  A surjection onto a group with the same invariant
        factors is injective (Hopfian test)."""
        return self.source.invariant_factors == self.target.invariant_factors and self.is_surjective()

    def inverse(self):
        """Two-sided inverse morphism; raises if not an isomorphism."""
        mat = factor_through(self.matrix, IntMatrix.identity(self.target.ngens),
                             self.target.relations)
        if mat is None:
            raise ValueError("morphism is not surjective")
        inv = GroupMorphism(self.target, self.source, mat)
        if not (inv @ self).equals(GroupMorphism.identity(self.source)):
            raise ValueError("morphism is not injective")
        return inv

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


def iso_groups(v: FgAbGroup, w: FgAbGroup):
    """(True, witness isomorphism) iff invariant factors agree, else (False, None)."""
    if v.invariant_factors != w.invariant_factors:
        return False, None
    e = IntMatrix.zeros(w.ngens, v.ngens)
    for pv, pw in zip(v.canon_positions, w.canon_positions):
        e.data[pw][pv] = 1
    mat = w.snf.Uinv @ e @ v.snf.U
    f = GroupMorphism(v, w, mat)
    return True, f


# ---------------------------------------------------------------------------
# Subquotients with representative bases
# ---------------------------------------------------------------------------


@dataclass
class SubquotientData:
    """ker(g)/im(f) at the middle of A --f--> B --g--> C, with coordinates.

    `group` is presented on a basis of the kernel-of-g lattice in B's
    generator coordinates; `rep` maps its generators to those ambient
    vectors.  `coords` sends an ambient vector representing a class (it must
    be killed by g) to canonical coordinates of that class.
    """

    group: FgAbGroup
    ambient: FgAbGroup
    rep: IntMatrix
    _rep_lattice: ColumnLattice

    def coords(self, ambient_vec):
        c = self._rep_lattice.solve(ambient_vec)
        if c is None:
            raise ValueError("vector does not represent a class (not killed by the outgoing map)")
        return self.group.canon_coords(c)

    def rep_of(self, coords):
        return self.rep.apply(self.group.from_canon(coords))

    @property
    def basis_reps(self):
        """One ambient representative per canonical generator of the group."""
        n = len(self.group.invariant_factors)
        out = []
        for l in range(n):
            coords = tuple(1 if i == l else 0 for i in range(n))
            out.append(self.rep_of(coords))
        return out


def homology_at(f: GroupMorphism | None, g: GroupMorphism | None, middle=None) -> SubquotientData:
    """Homology ker(g)/im(f) of a two-step complex of presented groups.

    Either map may be None (treated as zero).  Requires g(f(x)) = 0 in C for
    all x, and raises ExactArithmeticError otherwise.
    """
    if middle is not None:
        mid = middle
    elif g is not None:
        mid = g.source
    elif f is not None:
        mid = f.target
    else:
        raise ValueError("need at least one map or an explicit middle group")
    if g is not None:
        if f is not None:
            if not (g @ f).is_zero():
                raise ExactArithmeticError("not a complex: g∘f != 0")
        b = g.preimage_lattice_basis()
    else:
        b = IntMatrix.identity(mid.ngens)
    blat = ColumnLattice(b)
    image = blat.factor(f.matrix) if f is not None else IntMatrix.zeros(b.cols, 0)
    if image is None:
        raise ExactArithmeticError("image of f must lie in the kernel lattice of g")
    rel = blat.factor(mid.relations)
    if rel is None:
        raise ExactArithmeticError("middle relations must lie in the kernel lattice of g")
    group = FgAbGroup(b.cols, image.hstack(rel))
    return SubquotientData(group, mid, b, blat)


# ---------------------------------------------------------------------------
# Hom and Ext^1 with bases
# ---------------------------------------------------------------------------


def _power_group(w: FgAbGroup, copies: int) -> FgAbGroup:
    """W^copies with block-diagonal relations; generators grouped per copy."""
    rel = IntMatrix.identity(copies).kron(w.relations)
    return FgAbGroup(copies * w.ngens, rel)


class HomGroup:
    """Hom_Z(V, W) with a representing morphism per canonical generator."""

    def __init__(self, source: FgAbGroup, target: FgAbGroup):
        self.source = source
        self.target = target
        n, m = source.ngens, target.ngens
        ambient = _power_group(target, n)
        if source.relations.cols:
            # N |-> N @ R_V lands in W^(#relations); vec form is kron(R^T, I)
            gmat = source.relations.transpose().kron(IntMatrix.identity(m))
            g = GroupMorphism(ambient, _power_group(target, source.relations.cols), gmat, trusted=True)
        else:
            g = None
        self.data = homology_at(None, g, middle=ambient)
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
    """Ext^1_Z(V, W) as cocycles against the free resolution
    0 -> Z^r --B--> Z^n -> V -> 0, where B is a basis of V's relation lattice.

    A cocycle is a map Z^r -> W, stored as a (target.ngens x r) matrix;
    coboundaries are precompositions N @ B of maps Z^n -> W.
    """

    def __init__(self, source: FgAbGroup, target: FgAbGroup):
        self.source = source
        self.target = target
        self.res = lattice_basis(source.relations)  # n x r, injective
        n, m = source.ngens, target.ngens
        r = self.res.cols
        ambient = _power_group(target, r)
        if n:
            fmat = self.res.transpose().kron(IntMatrix.identity(m))
            f = GroupMorphism(_power_group(target, n), ambient, fmat, trusted=True)
        else:
            f = None
        self.data = homology_at(f, None, middle=ambient)
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


def resolution_lift(f: GroupMorphism, res_src: IntMatrix, res_tgt: IntMatrix) -> IntMatrix:
    """Chain lift F^1(src) -> F^1(tgt) of f over the generator-level lift.

    Solves res_tgt @ f1 = f.matrix @ res_src column by column; unique since
    res_tgt is injective, hence strictly functorial.
    """
    lift = factor_through(res_tgt, f.matrix @ res_src)
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


def hom_induced(pre: GroupMorphism | None, post: GroupMorphism | None,
                hsrc: HomGroup, htgt: HomGroup) -> GroupMorphism:
    """Map Hom(V,W) -> Hom(V',W') sending b to post∘b∘pre, in canonical coords."""
    images = []
    for b in hsrc.basis:
        g = b
        if pre is not None:
            g = g @ pre
        if post is not None:
            g = post @ g
        images.append(htgt.coords(g))
    return canonical_morphism(hsrc.group, htgt.group, images)


def ext1_induced(pre: GroupMorphism | None, post: GroupMorphism | None,
                 esrc: Ext1Group, etgt: Ext1Group) -> GroupMorphism:
    """Map Ext^1(V,W) -> Ext^1(V',W'): cocycle c to post∘c∘(lift of pre).

    pre must be a morphism V' -> V (contravariant slot), post W -> W'.
    """
    lift = None
    if pre is not None:
        lift = resolution_lift(pre, etgt.res, esrc.res)
    images = []
    for c in esrc.basis:
        m = c
        if lift is not None:
            m = m @ lift
        if post is not None:
            m = post.matrix @ m
        images.append(etgt.coords(m))
    return canonical_morphism(esrc.group, etgt.group, images)


def induced_map(f: GroupMorphism, functor: str, other: FgAbGroup) -> GroupMorphism:
    """Induced map on Hom/Ext^1 in canonical coordinates.

    functor: 'hom-covariant'      Hom(other, src) -> Hom(other, tgt)
             'hom-contravariant'  Hom(tgt, other) -> Hom(src, other)
             'ext1-covariant'     Ext^1(other, src) -> Ext^1(other, tgt)
             'ext1-contravariant' Ext^1(tgt, other) -> Ext^1(src, other)
    """
    if functor == "hom-covariant":
        return hom_induced(None, f, hom_z(other, f.source), hom_z(other, f.target))
    if functor == "hom-contravariant":
        return hom_induced(f, None, hom_z(f.target, other), hom_z(f.source, other))
    if functor == "ext1-covariant":
        return ext1_induced(None, f, ext1_z(other, f.source), ext1_z(other, f.target))
    if functor == "ext1-contravariant":
        return ext1_induced(f, None, ext1_z(f.target, other), ext1_z(f.source, other))
    raise ValueError(f"unknown functor {functor!r}")


# ---------------------------------------------------------------------------
# Helpers used across modules and tests
# ---------------------------------------------------------------------------


def direct_sum(groups):
    """(G, injections, projections) for a finite direct sum."""
    n = sum(g.ngens for g in groups)
    rel = IntMatrix.block_diag([g.relations for g in groups], rows=n, cols=0)
    total = FgAbGroup(n, rel)
    injections, projections = [], []
    offset = 0
    for g in groups:
        inj = IntMatrix.zeros(n, g.ngens)
        proj = IntMatrix.zeros(g.ngens, n)
        for i in range(g.ngens):
            inj.data[offset + i][i] = 1
            proj.data[i][offset + i] = 1
        injections.append(GroupMorphism(g, total, inj, trusted=True))
        projections.append(GroupMorphism(total, g, proj, trusted=True))
        offset += g.ngens
    return total, injections, projections


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
    mat = factor_through(embed.matrix, phi.matrix @ embed.matrix, phi.target.relations)
    if mat is None:
        raise ExactArithmeticError("endomorphism must preserve its eventual image")
    tau = GroupMorphism(h, h, mat)
    return h, embed, tau


def torsion_subgroup(g: FgAbGroup):
    """(T, embed) for the torsion subgroup of g."""
    sat = ColumnLattice(g.relations).saturation_basis()
    rel = factor_through(sat, g.relations)
    if rel is None:
        raise ExactArithmeticError("relations must lie in their saturation")
    t = FgAbGroup(sat.cols, rel)
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
    """
    for points, _ in pieces:
        for k, (v, w) in points.items():
            if v.invariant_factors != w.invariant_factors:
                return SearchOutcome("no", reason=f"groups differ at point {k!r}")
    homs = [DiagramHom(points, arrows) for points, arrows in pieces]
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
