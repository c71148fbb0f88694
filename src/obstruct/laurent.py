"""Z/2-graded modules over the Laurent ring R = Z[x, 1/x].

Two representations are supported, matching how such modules actually turn
up: a finitely-generated-over-Z group with a chosen automorphism (the action
of x), and a presentation coker([x*I - T | C]) over R for a square integer
matrix T and an integer matrix C of constant relations.  With C empty this
covers the gauge modules coker(x*I - A^t) of non-negative integer matrices,
whose underlying groups (like Z[1/n]) need not be finitely generated over Z;
constant relations only arise in the Ext^1 between two such modules.

Ext groups over R are computed two ways:
  * Hom_R and Ext^2_R as kernel/cokernel of f |-> x_W f - f x_V acting on
    Hom_Z(V, W), respectively Ext^1_Z(V, W);
  * Ext^1_R as degree-1 cohomology of the explicit two-term total complex
    obtained from a free Z-presentation of V, which avoids the extension
    ambiguity of reading it off an exact sequence.
For presentations coker(x*I - T) a length-one free R-resolution applies, so
Ext^2_R vanishes and Hom/Ext^1 are kernel and cokernel of a single operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import (
    DirectSum,
    FgAbGroup,
    GroupMorphism,
    Ext1Group,
    HomGroup,
    SearchOutcome,
    SubquotientData,
    _automorphism_blocks,
    _canonical_matrix,
    _is_automorphism,
    canonical_morphism,
    eventual_image,
    ext1_induced,
    ext1_z,
    hom_z,
    homology_at,
    iso_search,
    resolution_lift,
)
from .intlinalg import (
    ExactArithmeticError,
    IntMatrix,
    is_unimodular,
    kernel_basis,
    matrix_power,
    smith_normal_form,
)

__all__ = [
    "RModuleFg", "RModulePres", "GradedRModule", "PairDelta", "UnsupportedShape",
    "ck_module", "ext_r_fg", "ext_r_resolution", "ext_r_pres", "ext2_block",
    "count_liftings", "pair_iso",
]


class UnsupportedShape(ValueError):
    """Module shape outside the computable regime of an operation."""


# ---------------------------------------------------------------------------
# Module representations
# ---------------------------------------------------------------------------


class RModuleFg:
    """A Z-finitely-generated R-module: group plus automorphism x, checked
    in closed form on its canonical matrix (`abelian._is_automorphism`)."""

    __slots__ = ("group", "x")

    def __init__(self, group: FgAbGroup, x: GroupMorphism):
        if x.source is not group or x.target is not group:
            if x.source.ngens != group.ngens or x.target.ngens != group.ngens:
                raise ValueError("x must be an endomorphism of the group")
            # an action defined on another presentation: rebuilt on `group`,
            # where it must be well defined (IllDefinedMorphism otherwise)
            x = GroupMorphism(group, group, x.matrix)
        blocks = _automorphism_blocks(group.invariant_factors)
        if not _is_automorphism(_canonical_matrix(x), *blocks):
            raise UnsupportedShape("x-action is not invertible")
        self.group = group
        self.x = x

    @classmethod
    def zero(cls):
        g = FgAbGroup.trivial()
        return cls(g, GroupMorphism.identity(g))

    def is_zero(self):
        return self.group.is_trivial()

    def __repr__(self):
        return f"RModuleFg({self.group.describe()})"


class RModulePres:
    """R-module coker([x*I - T | C]) on R^n, presented by a square integer
    matrix T (n x n) and an integer matrix C (n x k) of constant relations.

    With no constant relations (the canonical shape, the default) the module
    is the colimit of Z^n under T and admits a length-one free R-resolution,
    so Ext^2 out of it vanishes; it is zero iff T is nilpotent, since x is
    invertible.  Constant relations occur only in the Ext^1 that
    `ext_r_pres` returns for a presented target; operations other than
    `describe` reject them.
    """

    __slots__ = ("t", "relations")

    def __init__(self, t: IntMatrix, relations: IntMatrix = None):
        if t.cols != t.rows:
            raise ValueError("x*I - T needs square T")
        if relations is None:
            relations = IntMatrix.zeros(t.rows, 0)
        if relations.rows != t.rows:
            raise ValueError("constant relations must have one row per generator")
        self.t = t
        self.relations = relations

    def require_canonical(self):
        if self.relations.cols:
            raise UnsupportedShape("presentation is not of the canonical shape x*I - T")
        return self.t

    def to_fg(self):
        """Convert to (Z^n, x = T) when T is invertible over Z."""
        t = self.require_canonical()
        if not is_unimodular(t):
            raise UnsupportedShape("shift matrix is not invertible over Z")
        g = FgAbGroup.free(t.rows)
        return RModuleFg(g, GroupMorphism(g, g, t, trusted=True))

    def is_zero(self):
        if self.t.rows == 0:
            return True
        return matrix_power(self.require_canonical(), self.t.rows).is_zero()

    def describe(self):
        n, k = self.t.rows, self.relations.cols
        if k == 0 and self.is_zero():
            return "0"
        if k == 0 and n == 1:
            return f"R/(x - {self.t.data[0][0]})"
        return f"coker({n}x{n + k} Laurent matrix)"

    def __repr__(self):
        return f"RModulePres({self.describe()})"


@dataclass
class GradedRModule:
    """Z/2-graded module: an even and an odd part."""

    even: object  # RModuleFg | RModulePres
    odd: object


# ---------------------------------------------------------------------------
# Ext over R for fg-over-Z modules
# ---------------------------------------------------------------------------


def _phi_on_hom(v: RModuleFg, w: RModuleFg, h: HomGroup) -> GroupMorphism:
    """f |-> x_W f - f x_V on Hom_Z(V, W), in canonical coordinates."""
    images = [h.coords((w.x @ b) - (b @ v.x)) for b in h.basis]
    return canonical_morphism(h.group, h.group, images)


def _phi_on_ext(v: RModuleFg, w: RModuleFg, e: Ext1Group) -> GroupMorphism:
    """c |-> x_W c - c x1 on Ext^1_Z(V, W) cocycles, x1 the resolution lift."""
    x1 = resolution_lift(v.x)
    images = [e.coords(w.x.matrix @ c - c @ x1) for c in e.basis]
    return canonical_morphism(e.group, e.group, images)


@dataclass
class TotalComplex:
    """Hom_R(P_*, W) for the length-two free R-resolution of a fg module V.

    Degrees, the groups d0 and d1 carry: C0 = Hom(F0, W),
    C1 = Hom(F0, W) + Hom(F1, W), C2 = Hom(F1, W);
    F1 --B--> F0 is the free Z-resolution V's group owns.
    """

    v: RModuleFg
    w: RModuleFg
    res: IntMatrix
    d0: GroupMorphism
    d1: GroupMorphism

    @classmethod
    def build(cls, v: RModuleFg, w: RModuleFg):
        n, m = v.group.ngens, w.group.ngens
        b = v.group.snf.image_basis()
        r = b.cols
        x0 = v.x.matrix
        x1 = resolution_lift(v.x)
        mxw = w.x.matrix
        c0 = DirectSum([w.group] * n).group
        c1 = DirectSum([w.group] * (n + r)).group
        c2 = DirectSum([w.group] * r).group
        eye_n = IntMatrix.identity(n)
        eye_r = IntMatrix.identity(r)
        eye_m = IntMatrix.identity(m)
        top = eye_n.kron(mxw) - x0.transpose().kron(eye_m)
        bot = b.transpose().kron(eye_m)
        d0 = GroupMorphism(c0, c1, top.vstack(bot), trusted=True)
        left = b.transpose().kron(eye_m)
        right = x1.transpose().kron(eye_m) - eye_r.kron(mxw)
        d1 = GroupMorphism(c1, c2, left.hstack(right), trusted=True)
        if not (d1 @ d0).matrix.is_zero():
            raise ExactArithmeticError("total complex differentials must compose to zero")
        return cls(v, w, b, d0, d1)


class Ext2Block:
    """Ext^2_R(P, Q) for one parity block, with class arithmetic when available.

    kind 'zero': vanishes structurally (canonical presentation source, or a
    source that is free over Z).  kind 'fg': cokernel of the twisted-action
    operator on Ext^1_Z, carrying cocycle-level coordinates.  kind
    'colimit': fg torsion source against a canonical presentation target,
    computed on the eventual image of Ext^1_Z(V, Z^s) under the shift.
    """

    def __init__(self, kind, group, ext_e=None, coker=None, phi=None):
        self.kind = kind
        self.group = group
        self.ext_e = ext_e
        self.coker = coker
        self.phi = phi

    @classmethod
    def zero(cls):
        return cls("zero", FgAbGroup.trivial())

    @classmethod
    def from_fg(cls, v: RModuleFg, w: RModuleFg):
        e = ext1_z(v.group, w.group)
        phi = _phi_on_ext(v, w, e)
        coker = homology_at(phi, None)
        return cls("fg", coker.group, ext_e=e, coker=coker, phi=phi)

    def class_of_cocycle(self, cocycle: IntMatrix):
        """Class of an Ext^1_Z cocycle in Ext^2_R, as canonical coordinates."""
        if self.kind != "fg":
            raise UnsupportedShape("cocycle classes only available for fg-fg blocks")
        return self.coker.coords(list(self.ext_e.coords(cocycle)))

    def cocycle_of_class(self, coords):
        if self.kind != "fg":
            raise UnsupportedShape("cocycle classes only available for fg-fg blocks")
        return self.ext_e.from_coords(tuple(self.coker.rep_of(coords)))

    def zero_class(self):
        return tuple(0 for _ in self.group.invariant_factors)

    def class_is_zero(self, coords):
        return all(c == 0 for c in coords) if coords else True


@dataclass
class ExtRTriple:
    """Hom_R, Ext^1_R, Ext^2_R of a pair of fg-over-Z modules, with the data
    of the six-term sequence 0 -> Hom_R -> Hom_Z -> Hom_Z -> Ext^1_R ->
    Ext^1_Z -> Ext^1_Z -> Ext^2_R -> 0 they sit in."""

    v: RModuleFg
    w: RModuleFg
    hom_h: HomGroup
    phi_h: GroupMorphism
    hom_r: FgAbGroup
    hom_r_incl: GroupMorphism
    total: TotalComplex
    ext1_r_data: SubquotientData
    ext2: Ext2Block

    @property
    def ext1_r(self):
        return self.ext1_r_data.group

    @property
    def ext2_r(self):
        return self.ext2.group


def ext_r_fg(v: RModuleFg, w: RModuleFg) -> ExtRTriple:
    """Hom_R, Ext^1_R, Ext^2_R for fg-over-Z modules with automorphisms."""
    h = hom_z(v.group, w.group)
    phi_h = _phi_on_hom(v, w, h)
    hom_r, hom_r_incl = phi_h.kernel()
    total = TotalComplex.build(v, w)
    h1 = homology_at(total.d0, total.d1)
    return ExtRTriple(v, w, h, phi_h, hom_r, hom_r_incl, total, h1, Ext2Block.from_fg(v, w))


def ext_r_resolution(v: RModuleFg, w: RModuleFg):
    """Oracle route: H^0, H^1, H^2 of the explicit length-two resolution."""
    t = TotalComplex.build(v, w)
    return tuple(homology_at(f, g).group for f, g in [(None, t.d0), (t.d0, t.d1), (t.d1, None)])


# ---------------------------------------------------------------------------
# Ext for canonical presentations
# ---------------------------------------------------------------------------


def _pres_operator_on_fg(t: IntMatrix, w: RModuleFg):
    """The map rho(f)_j = x_W f_j - sum_i T_ij f_i on W^n, flattened."""
    n, m = t.rows, w.group.ngens
    op = IntMatrix.identity(n).kron(w.x.matrix) - t.transpose().kron(IntMatrix.identity(m))
    wn = DirectSum([w.group] * n).group
    return GroupMorphism(wn, wn, op, trusted=True)


def ext_r_pres(m: RModulePres, w):
    """(Hom_R, Ext^1_R, Ext^2_R) for a canonical presentation source.

    Ext^2_R is structurally zero (length-one free resolution).  For an fg
    target the other two are returned as FgAbGroups; for a
    canonical-presentation target they are returned as R-module
    presentations computed through the level-wise colimit: Hom as
    coker(x*I - T), Ext^1 with one constant relation per torsion factor.
    """
    t = m.require_canonical()
    n = t.rows
    if isinstance(w, RModuleFg):
        rho = _pres_operator_on_fg(t, w)
        return PresExtResult(hom=rho.kernel()[0], ext1=homology_at(rho, None).group,
                             ext2=Ext2Block.zero())
    if isinstance(w, RModulePres):
        s = w.require_canonical()
        ssize = s.rows
        a1 = IntMatrix.identity(n).kron(s)
        b1 = t.transpose().kron(IntMatrix.identity(ssize))
        theta = a1 - b1
        dim = n * ssize
        # Hom: colimit of the stable kernel of theta under the level shift a1
        stable = matrix_power(a1, dim) @ theta
        kb = kernel_basis(stable)
        shift = smith_normal_form(kb).factor(a1 @ kb)
        if shift is None:
            raise ExactArithmeticError("level shift must preserve the stable kernel")
        hom = RModulePres(shift)
        # Ext^1: colimit of coker(theta) under the induced shift, with one
        # constant relation d_p * e_p per torsion position
        cgroup = FgAbGroup(dim, theta)
        pos = cgroup.canon_positions
        abar = (cgroup.snf.U @ a1 @ cgroup.snf.Uinv).submatrix(pos, pos)
        diag = cgroup.snf.diagonal_padded(dim)
        consts = [[diag[p] if i == idx else 0 for i in range(len(pos))]
                  for idx, p in enumerate(pos) if diag[p] != 0]
        ext1 = RModulePres(abar, IntMatrix.from_columns(consts, rows=len(pos)))
        return PresExtResult(hom=hom, ext1=ext1, ext2=Ext2Block.zero())
    raise UnsupportedShape(f"unsupported target {w!r}")


@dataclass
class PresExtResult:
    hom: object
    ext1: object
    ext2: Ext2Block


# ---------------------------------------------------------------------------
# Parity-block Ext^2 dispatch, and lifting counts
# ---------------------------------------------------------------------------


def ext2_block(p, q) -> Ext2Block:
    """Ext^2_R(P, Q) for one parity block of graded modules."""
    if isinstance(p, RModulePres):
        p.require_canonical()
        return Ext2Block.zero()
    if not isinstance(p, RModuleFg):
        raise UnsupportedShape(f"unsupported source {p!r}")
    if p.group.is_free():
        return Ext2Block.zero()
    if isinstance(q, RModuleFg):
        return Ext2Block.from_fg(p, q)
    if isinstance(q, RModulePres):
        s = q.require_canonical()
        # Ext^1_Z(P, colim(Z^s, S)) is the eventual image of the shift on
        # Ext^1_Z(P, Z^s); Ext^2_R is the cokernel of tau - x_P^* there.
        # The level shift is only an endomorphism, never inverted.
        level = FgAbGroup.free(s.rows)
        shift = GroupMorphism(level, level, s, trusted=True)
        e = ext1_z(p.group, level)
        shift_endo = ext1_induced(None, shift, e, e)
        h, embed, tau = eventual_image(shift_endo)
        pull = ext1_induced(p.x, None, e, e)
        # restrict the x_P pullback to the eventual image
        mat = embed.lift(pull.matrix @ embed.matrix)
        if mat is None:
            raise ExactArithmeticError("x-pullback must preserve the eventual image")
        pull_h = GroupMorphism(h, h, mat)
        phi = tau - pull_h
        return Ext2Block("colimit", homology_at(phi, None).group)
    raise UnsupportedShape(f"unsupported target {q!r}")


def count_liftings(m: GradedRModule):
    """|Ext^2_R(M, M)^-|, the number of equivalence classes of liftings.

    Returns an int, or None for an infinite count.
    """
    total = 1
    for p, q in [(m.even, m.odd), (m.odd, m.even)]:
        order = ext2_block(p, q).group.order()
        if order is None:
            return None
        total *= order
    return total


def validate_ck_matrix(a: IntMatrix, name="matrix"):
    """Square, non-negative, with no zero row and no zero column."""
    n = a.rows
    if a.cols != n:
        raise ValueError(f"{name} must be square")
    for i in range(n):
        for j in range(n):
            if a.data[i][j] < 0:
                raise ValueError(f"{name} has a negative entry at ({i}, {j})")
    for i in range(n):
        if all(e == 0 for e in a.data[i]):
            raise ValueError(f"{name}: row {i} vanishes identically")
    for j in range(n):
        if all(a.data[i][j] == 0 for i in range(n)):
            raise ValueError(f"{name}: column {j} vanishes identically")


def ck_module(a: IntMatrix) -> GradedRModule:
    """Gauge-action module of a non-negative integer square matrix.

    Even part coker(x*I - A^t), converted to the fg form (Z^n, x = A^t) when
    A is invertible over Z; odd part zero.
    """
    validate_ck_matrix(a, "adjacency matrix")
    pres = RModulePres(a.transpose())
    even = pres.to_fg() if is_unimodular(a) else pres
    return GradedRModule(even=even, odd=RModuleFg.zero())


# ---------------------------------------------------------------------------
# The pair category (module, obstruction class)
# ---------------------------------------------------------------------------


@dataclass
class PairDelta:
    """A graded module with an odd-degree obstruction class.

    The class is stored by its coordinates in the two parity blocks
    Ext^2_R(even, odd) and Ext^2_R(odd, even), in [0, d) for a factor Z/d
    (so a class is zero iff its coordinates are) and any integer for Z.
    """

    module: GradedRModule
    delta_eo: tuple
    delta_oe: tuple
    blocks: tuple = field(default=None)

    def __post_init__(self):
        if self.blocks is None:
            self.blocks = (
                ext2_block(self.module.even, self.module.odd),
                ext2_block(self.module.odd, self.module.even),
            )
        for name, coords, block in (("even->odd", self.delta_eo, self.blocks[0]),
                                    ("odd->even", self.delta_oe, self.blocks[1])):
            factors = block.group.invariant_factors
            if len(coords) != len(factors):
                raise ValueError(f"{name} class has wrong coordinate length")
            for i, (c, d) in enumerate(zip(coords, factors)):
                if d and not 0 <= c < d:
                    raise ValueError(f"{name} class coordinate {c} of factor {i} (Z/{d}) "
                                     f"is outside [0, {d})")


def _induced_class_coords(post: GroupMorphism | None, pre_map: GroupMorphism | None,
                          src_block: Ext2Block, tgt_block: Ext2Block, coords):
    """Transport a class along cocycle-level induced maps into tgt_block."""
    if src_block.kind == "zero" or tgt_block.kind == "zero":
        return tgt_block.zero_class()
    m = src_block.cocycle_of_class(coords)
    if pre_map is not None:
        lift = resolution_lift(pre_map)
        m = m @ lift
    if post is not None:
        m = post.matrix @ m
    return tgt_block.class_of_cocycle(m)


def pair_iso(p1: PairDelta, p2: PairDelta, bound=8, budget=20000) -> SearchOutcome:
    """Isomorphism search in the pair category.

    yes(f) returns grading components (f_even, f_odd); no is only returned
    in a complete regime (a class obstruction independent of the choice of
    f, or finite Hom_R groups enumerated whole); otherwise unknown.  The
    graded module isomorphisms come from `abelian.iso_search`, with one
    point per parity and the action of x as its loop, so Hom_R(even) and
    Hom_R(odd) are its two graded pieces; `budget` counts the Hom_R elements
    enumerated per piece.
    """
    m1, m2 = p1.module, p2.module
    for part in (m1.even, m1.odd, m2.even, m2.odd):
        if not isinstance(part, RModuleFg):
            raise UnsupportedShape("pair isomorphism search needs fg-over-Z parts")
    if m1.even.group.invariant_factors != m2.even.group.invariant_factors or \
            m1.odd.group.invariant_factors != m2.odd.group.invariant_factors:
        return SearchOutcome("no", reason="underlying graded groups are not isomorphic")
    b1eo, b1oe = p1.blocks
    b2eo, b2oe = p2.blocks
    # class obstruction independent of f: induced maps of isos preserve vanishing
    if b1eo.class_is_zero(p1.delta_eo) != b2eo.class_is_zero(p2.delta_eo):
        return SearchOutcome("no", reason="class vanishing mismatch in even->odd block")
    if b1oe.class_is_zero(p1.delta_oe) != b2oe.class_is_zero(p2.delta_oe):
        return SearchOutcome("no", reason="class vanishing mismatch in odd->even block")

    # with the module parts the same objects, the cross blocks are the
    # parity blocks already built
    same = m1.even is m2.even and m1.odd is m2.odd
    cross_eo = b1eo if same else ext2_block(m1.even, m2.odd)
    cross_oe = b1oe if same else ext2_block(m1.odd, m2.even)

    def accept(family):
        fe, fo = family[0]["even"], family[1]["odd"]
        return (_induced_class_coords(fo, None, b1eo, cross_eo, p1.delta_eo)
                == _induced_class_coords(None, fe, b2eo, cross_eo, p2.delta_eo)
                and _induced_class_coords(fe, None, b1oe, cross_oe, p1.delta_oe)
                == _induced_class_coords(None, fo, b2oe, cross_oe, p2.delta_oe))

    # one point per parity, with the action of x as its loop
    pieces = [({part: (a.group, b.group)}, [(part, part, a.x, b.x)])
              for part, a, b in (("even", m1.even, m2.even), ("odd", m1.odd, m2.odd))]
    out = iso_search(pieces, bound, budget, accept)
    if out.verdict == "yes":
        out.witness = (out.witness[0]["even"], out.witness[1]["odd"])
    return out
