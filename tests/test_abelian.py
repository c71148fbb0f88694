import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from obstruct import intlinalg
from obstruct.abelian import (
    DiagramHom,
    DirectSum,
    FgAbGroup,
    GroupMorphism,
    IllDefinedMorphism,
    eventual_image,
    ext1_z,
    hom_z,
    homology_at,
    image_subgroup,
    is_exact_at,
    iso_search,
    resolution_lift,
    _automorphism_blocks,
    _hom_slots,
    _is_automorphism,
    torsion_subgroup,
)
from obstruct.intlinalg import (
    IntMatrix,
    lattice_basis,
    lattices_equal,
    matrix_rank,
    smith_normal_form,
    solve,
)

from support import induced_map

from test_intlinalg import counter, spans_equal


# --- independent oracles -----------------------------------------------------
#
# Hom and Ext^1 of finite cyclic groups by direct counting, nothing shared
# with the SNF/cocycle machinery under test.

def count_homs_cyclic(a, b):
    """|Hom(Z/a, Z/b)| by enumerating 1x1 matrices mod well-definedness.

    A map 1 -> m mod b is well defined iff b | m*a (a = 0 means Z: always).
    b = 0 means target Z: only finitely many candidates matter (m*a = 0).
    """
    if b == 0:
        return None if a == 0 else 1  # Hom(Z,Z)=Z infinite; Hom(Z/a,Z)=0
    count = 0
    for m in range(b):
        if (m * a) % b == 0:
            count += 1
    return count


def count_ext1_cyclic(a, b):
    """|Ext^1(Z/a, Z/b)| = |(Z/b) / a(Z/b)| by direct subgroup enumeration."""
    if a == 0:
        return 1  # free source
    if b == 0:
        return abs(a)  # Ext^1(Z/a, Z) = Z/a
    image = {(m * a) % b for m in range(b)}
    return b // len(image)


def group_order_oracle(factors):
    total = 1
    for d in factors:
        if d == 0:
            return None
        total *= d
    return total


# --- groups ------------------------------------------------------------------


def test_group_from_presentation_examples():
    g = FgAbGroup(1, IntMatrix.from_rows([[2]]))
    assert g.invariant_factors == [2]
    g = FgAbGroup(2, IntMatrix.from_rows([[1, 1], [1, -1]]))
    assert g.invariant_factors == [2]
    g = FgAbGroup.free(3)
    assert g.invariant_factors == [0, 0, 0]
    assert g.rank == 3


def test_group_canon_roundtrip():
    g = FgAbGroup(2, IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert g.invariant_factors == [6]
    for coords in g.elements():
        v = g.from_canon(coords)
        assert g.canon_coords(v) == coords
    assert g.order() == 6


def test_group_element_equality():
    g = FgAbGroup(1, IntMatrix.from_rows([[4]]))
    assert g.contains_relation([1 - 5])
    assert not g.contains_relation([1 - 2])


def test_describe():
    assert FgAbGroup.from_invariant_factors([2, 6, 0]).describe() == "Z/2 + Z/6 + Z"
    assert FgAbGroup.trivial().describe() == "0"


# --- morphisms, kernels, cokernels -------------------------------------------


def test_well_definedness_check():
    z2 = FgAbGroup.cyclic(2)
    z3 = FgAbGroup.cyclic(3)
    with pytest.raises(IllDefinedMorphism) as exc:
        GroupMorphism(z2, z3, IntMatrix.from_rows([[1]]))
    assert exc.value.witness == [2]
    GroupMorphism(z2, z3, IntMatrix.from_rows([[0]]))  # fine


def test_kernel_cokernel_identity():
    g = FgAbGroup.cyclic(6)
    f = GroupMorphism.identity(g)
    k, _ = f.kernel()
    c, _ = f.cokernel()
    assert k.is_trivial() and c.is_trivial()


def test_kernel_cokernel_times_two_on_Z():
    z = FgAbGroup.free(1)
    f = GroupMorphism(z, z, IntMatrix.from_rows([[2]]))
    k, _ = f.kernel()
    c, _ = f.cokernel()
    assert k.is_trivial()
    assert c.invariant_factors == [2]


def test_kernel_cokernel_zero_map():
    a = FgAbGroup.cyclic(6)
    b = FgAbGroup.cyclic(4)
    f = GroupMorphism.zero(a, b)
    k, incl = f.kernel()
    c, proj = f.cokernel()
    assert k.invariant_factors == [6]
    assert c.invariant_factors == [4]
    # exactness of 0 -> ker -> src -> tgt -> coker -> 0 at both middle nodes
    assert is_exact_at(incl, f)
    assert is_exact_at(f, proj)


def test_kernel_cokernel_exact_sequence_random():
    rng = random.Random(11)
    for _ in range(25):
        v = random_group(rng)
        w = random_group(rng)
        f = random_morphism(rng, v, w)
        k, incl = f.kernel()
        c, proj = f.cokernel()
        assert is_exact_at(incl, f)
        assert is_exact_at(f, proj)
        assert (f @ incl).is_zero()
        assert (proj @ f).is_zero()


def canonical_iso(v, w):
    """The isomorphism v -> w sending canonical generator i of v to canonical
    generator i of w; v and w must have the same invariant factors."""
    if v.invariant_factors != w.invariant_factors:
        raise ValueError("groups with different invariant factors are not isomorphic")
    e = IntMatrix.zeros(w.ngens, v.ngens)
    for pv, pw in zip(v.canon_positions, w.canon_positions):
        e.data[pw][pv] = 1
    return GroupMorphism(v, w, w.snf.Uinv @ e @ v.snf.U)


def test_iso_groups():
    a = FgAbGroup(2, IntMatrix.from_rows([[2, 0], [0, 3]]))
    b = FgAbGroup.cyclic(6)
    assert a.invariant_factors == b.invariant_factors
    assert canonical_iso(a, b).is_iso()
    assert FgAbGroup.free(1).invariant_factors != FgAbGroup.cyclic(2).invariant_factors
    with pytest.raises(ValueError):
        canonical_iso(FgAbGroup.free(1), FgAbGroup.cyclic(2))
    f = canonical_iso(FgAbGroup.free(2), FgAbGroup.free(2))
    assert f.matrix == IntMatrix.identity(2)


def test_inverse():
    # an isomorphism's inverse is its lift of the identity, solved through
    # the morphism's own decomposition; a non-surjection lifts nothing
    g = FgAbGroup.cyclic(5)
    f = GroupMorphism(g, g, IntMatrix.from_rows([[2]]))
    assert f.is_iso()
    inv = GroupMorphism(g, g, f.lift(IntMatrix.identity(1)))
    assert (inv @ f).equals(GroupMorphism.identity(g))
    assert (f @ inv).equals(GroupMorphism.identity(g))
    z = FgAbGroup.free(1)
    assert GroupMorphism(z, z, IntMatrix.from_rows([[2]])).lift(IntMatrix.identity(1)) is None


# --- hom and ext -------------------------------------------------------------


def test_hom_frozen_examples():
    # values fixed by the counting oracle
    assert count_homs_cyclic(2, 3) == 1
    assert hom_z(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)).group.is_trivial()

    assert count_homs_cyclic(4, 2) == 2
    assert hom_z(FgAbGroup.cyclic(4), FgAbGroup.cyclic(2)).group.invariant_factors == [2]

    # Hom(Z, W) = W by evaluation at the generator
    w = FgAbGroup(2, IntMatrix.from_rows([[4, 0], [0, 0]]))
    h = hom_z(FgAbGroup.free(1), w)
    assert h.group.invariant_factors == w.invariant_factors


def test_ext1_frozen_examples():
    assert count_ext1_cyclic(2, 2) == 2
    assert ext1_z(FgAbGroup.cyclic(2), FgAbGroup.cyclic(2)).group.invariant_factors == [2]

    assert ext1_z(FgAbGroup.free(3), FgAbGroup.cyclic(12)).group.is_trivial()

    assert count_ext1_cyclic(2, 3) == 1
    assert ext1_z(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)).group.is_trivial()

    # Ext^1(Z/2, Z) = Z/2
    assert ext1_z(FgAbGroup.cyclic(2), FgAbGroup.free(1)).group.invariant_factors == [2]


def test_hom_ext_orders_match_oracle_cyclic():
    for a in [0, 2, 3, 4, 6, 8]:
        for b in [0, 2, 3, 4, 6, 9]:
            va, wb = FgAbGroup.cyclic(a) if a else FgAbGroup.free(1), (
                FgAbGroup.cyclic(b) if b else FgAbGroup.free(1)
            )
            assert hom_z(va, wb).group.order() == count_homs_cyclic(a, b)
            assert ext1_z(va, wb).group.order() == count_ext1_cyclic(a, b)


def test_hom_basis_represents_morphisms():
    v = FgAbGroup.cyclic(4)
    w = FgAbGroup(2, IntMatrix.from_rows([[2, 0], [0, 8]]))
    h = hom_z(v, w)
    for b in h.basis:
        assert b._find_violation() is None
    # coords/from_coords round trip on every element
    for coords in h.group.elements():
        f = h.from_coords(coords)
        assert h.coords(f) == coords


def test_ext1_coords_roundtrip():
    v = FgAbGroup(2, IntMatrix.from_rows([[2, 0], [0, 4]]))
    w = FgAbGroup.cyclic(8)
    e = ext1_z(v, w)
    for coords in e.group.elements():
        c = e.from_coords(coords)
        assert e.coords(c) == coords


def random_group(rng, max_gens=3, max_entry=6):
    n = rng.randint(0, max_gens)
    k = rng.randint(0, max_gens)
    rel = IntMatrix(n, k, [[rng.randint(-max_entry, max_entry) for _ in range(k)] for _ in range(n)])
    return FgAbGroup(n, rel)


def random_morphism(rng, v, w):
    """A random well-defined morphism, built in canonical coordinates."""
    dv = v.invariant_factors
    dw = w.invariant_factors
    e = IntMatrix.zeros(w.ngens, v.ngens)
    cols = []
    for i, d in enumerate(dv):
        coords = []
        for h in dw:
            if d == 0:
                coords.append(rng.randint(-4, 4) if h == 0 else rng.randint(0, h - 1))
            else:
                if h == 0:
                    coords.append(0)  # must be annihilated by d
                else:
                    step = h // math.gcd(h, d)
                    coords.append(step * rng.randint(0, math.gcd(h, d) - 1))
        cols.append(coords)
    mat_canon = IntMatrix.zeros(len(dw), len(dv))
    for j, col in enumerate(cols):
        for i, val in enumerate(col):
            mat_canon.data[i][j] = val
    # transport canonical-coordinate matrix back to the generator bases
    ew = IntMatrix.zeros(w.ngens, v.ngens)
    for j, pv in enumerate(v.canon_positions):
        for i, pw in enumerate(w.canon_positions):
            ew.data[pw][pv] = mat_canon.data[i][j]
    mat = w.snf.Uinv @ ew @ v.snf.U
    return GroupMorphism(v, w, mat)


def test_direct_sum_layout_and_maps():
    rng = random.Random(23)
    for _ in range(40):
        w = random_group(rng)
        n = rng.randint(0, 3)
        # W^n: relations kron(I_n, R), the layout Hom and Ext^1 cochains read
        assert DirectSum([w] * n).group.relations == IntMatrix.identity(n).kron(w.relations)
        s = DirectSum([random_group(rng) for _ in range(rng.randint(0, 4))])
        parts = [[rng.randint(-5, 5) for _ in range(g.ngens)] for g in s.summands]
        flat = s.join(parts)
        assert len(flat) == s.group.ngens and s.split(flat) == parts
        total = GroupMorphism.zero(s.group, s.group)
        for i, g in enumerate(s.summands):
            for j, h in enumerate(s.summands):
                composite = (s.projection(i) @ s.injection(j)).matrix
                want = IntMatrix.identity(g.ngens) if i == j else IntMatrix.zeros(g.ngens, h.ngens)
                assert composite == want, (i, j)
            total = total + s.injection(i) @ s.projection(i)
        assert total.matrix == IntMatrix.identity(s.group.ngens)


def test_direct_sum_join_names_a_wrong_count_or_part():
    s = DirectSum([FgAbGroup.cyclic(2), FgAbGroup.free(2)])
    assert s.join([[1], [2, 3]]) == [1, 2, 3]
    for parts in ([[1]], [[1], [2, 3], [4]]):
        with pytest.raises(ValueError, match="expected 2, one per summand"):
            s.join(parts)
    with pytest.raises(ValueError, match="part 1, .2., does not live in the group of summand 1"):
        s.join([[1], [2]])


def test_hom_ext_additive_in_direct_sums():
    rng = random.Random(5)
    for _ in range(12):
        v1, v2, w = random_group(rng), random_group(rng), random_group(rng)
        vsum = DirectSum([v1, v2]).group
        assert sorted(hom_z(vsum, w).group.invariant_factors) == sorted(
            hom_z(v1, w).group.invariant_factors + hom_z(v2, w).group.invariant_factors
        )
        assert sorted(ext1_z(vsum, w).group.invariant_factors) == sorted(
            ext1_z(v1, w).group.invariant_factors + ext1_z(v2, w).group.invariant_factors
        )
        wsum = DirectSum([v1, v2]).group
        assert sorted(hom_z(w, wsum).group.invariant_factors) == sorted(
            hom_z(w, v1).group.invariant_factors + hom_z(w, v2).group.invariant_factors
        )
        assert sorted(ext1_z(w, wsum).group.invariant_factors) == sorted(
            ext1_z(w, v1).group.invariant_factors + ext1_z(w, v2).group.invariant_factors
        )


def test_ext1_presentation_independent():
    rng = random.Random(3)
    w = FgAbGroup.cyclic(8)
    for _ in range(10):
        v = random_group(rng)
        v2 = randomized_equivalent_presentation(rng, v)[0]
        assert ext1_z(v, w).group.invariant_factors == ext1_z(v2, w).group.invariant_factors


def randomized_equivalent_presentation(rng, g):
    """(g', fwd, bwd) with g' an equivalent presentation plus one redundant
    generator, and mutually inverse morphisms."""
    n = g.ngens
    # random unimodular p via a few shears over a permutation
    p = IntMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n) if n else 0, rng.randrange(n) if n else 0
        if n < 2 or i == j:
            continue
        q = rng.randint(-2, 2)
        shear = IntMatrix.identity(n)
        shear.data[i][j] = q
        p = shear @ p
    c = [rng.randint(-2, 2) for _ in range(n)]
    pr = p @ g.relations
    pc = p.apply(c)
    rel_cols = [col + [0] for col in pr.columns()]
    rel_cols.append(pc + [-1])
    g2 = FgAbGroup(n + 1, IntMatrix.from_columns(rel_cols, rows=n + 1))
    fwd_mat = IntMatrix.from_rows(p.data + [[0] * n]) if n else IntMatrix.zeros(1, 0)
    fwd = GroupMorphism(g, g2, fwd_mat)
    pinv_cols = [solve_unimodular(p, j) for j in range(n)]
    bwd_mat = IntMatrix.from_columns([pc_ for pc_ in pinv_cols], rows=n) if n else IntMatrix.zeros(0, 1)
    bwd_mat = bwd_mat.hstack(IntMatrix.from_columns([c], rows=n)) if n else IntMatrix.from_columns([[]], rows=0)
    bwd = GroupMorphism(g2, g, bwd_mat)
    assert (bwd @ fwd).equals(GroupMorphism.identity(g))
    assert (fwd @ bwd).equals(GroupMorphism.identity(g2))
    return g2, fwd, bwd


def solve_unimodular(p, j):
    e = [1 if i == j else 0 for i in range(p.rows)]
    x = solve(p, e)
    assert x is not None
    return x


# --- induced maps ------------------------------------------------------------


def test_induced_identity_and_zero():
    v = FgAbGroup.cyclic(4)
    w = FgAbGroup.cyclic(8)
    idv = GroupMorphism.identity(v)
    for functor in ["hom-covariant", "hom-contravariant", "ext1-covariant", "ext1-contravariant"]:
        m = induced_map(idv, functor, w)
        assert m.equals(GroupMorphism.identity(m.source))
        z = induced_map(GroupMorphism.zero(v, v), functor, w)
        assert z.is_zero()


def test_induced_times_two_example():
    # f = x2 on Z/4, ext1-covariant against Z/2: multiplication by 2 on
    # Ext^1(Z/2, Z/4) = Z/2, i.e. zero
    z4 = FgAbGroup.cyclic(4)
    z2 = FgAbGroup.cyclic(2)
    f = GroupMorphism(z4, z4, IntMatrix.from_rows([[2]]))
    m = induced_map(f, "ext1-covariant", z2)
    assert m.source.invariant_factors == [2]
    assert m.is_zero()


def test_induced_functoriality_random():
    rng = random.Random(17)
    for _ in range(10):
        a, b, c, other = (random_group(rng) for _ in range(4))
        f = random_morphism(rng, a, b)
        g = random_morphism(rng, b, c)
        for functor in ["hom-covariant", "ext1-covariant"]:
            lhs = induced_map(g @ f, functor, other)
            rhs = induced_map(g, functor, other) @ induced_map(f, functor, other)
            assert lhs.equals(rhs)
        for functor in ["hom-contravariant", "ext1-contravariant"]:
            lhs = induced_map(g @ f, functor, other)
            rhs = induced_map(f, functor, other) @ induced_map(g, functor, other)
            assert lhs.equals(rhs)


def test_ill_defined_rejection_in_induced():
    z2 = FgAbGroup.cyclic(2)
    z3 = FgAbGroup.cyclic(3)
    with pytest.raises(IllDefinedMorphism):
        induced_map(GroupMorphism(z2, z3, IntMatrix.from_rows([[1]])), "hom-covariant", z2)


# --- helpers -----------------------------------------------------------------


def test_homology_at_simple():
    # Z --2--> Z --0--> Z has homology Z/2 in the middle
    z = FgAbGroup.free(1)
    f = GroupMorphism(z, z, IntMatrix.from_rows([[2]]))
    g = GroupMorphism.zero(z, z)
    h = homology_at(f, g)
    assert h.group.invariant_factors == [2]
    assert h.coords([1]) == (1,)
    assert h.coords([2]) == (0,)


def lattice_route(f, g, middle):
    """ker(g)/im(f) as `homology_at` presented it with an explicit middle
    group: solved in a lattice on a basis B of g's preimage lattice, or on
    the identity without g; (group, coords, rep_of)."""
    b = g.preimage_lattice_basis() if g is not None else IntMatrix.identity(middle.ngens)
    s = smith_normal_form(b)
    image = s.factor(f.matrix) if f is not None else IntMatrix.zeros(b.cols, 0)
    group = FgAbGroup(b.cols, image.hstack(s.factor(middle.relations)))
    return group, lambda v: group.canon_coords(solve(b, v)), lambda c: b.apply(group.from_canon(c))


def random_complex(rng):
    """(f, g, middle) of a random complex A --f--> B --g--> C: relations of
    B and C with dependent and zero columns (`random_relations`), g a
    random map or one into the zero group, f a map into ker g whose
    source relations lie in its preimage lattice; g or f None at times."""
    n = rng.randint(0, 3)
    b = FgAbGroup(n, random_relations(rng, n))
    kind = rng.randrange(4)
    if kind == 0:
        g = None
    elif kind == 1:
        g = GroupMorphism.zero(b, FgAbGroup.trivial())
    else:
        m = rng.randint(1, 3)
        g = random_morphism(rng, b, FgAbGroup(m, random_relations(rng, m)))
    if g is not None and rng.random() < 0.3:
        return None, g, b
    kb = g.preimage_lattice_basis() if g is not None else IntMatrix.identity(n)
    k = rng.randint(0, 3)
    mat = kb @ IntMatrix(kb.cols, k, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(kb.cols)])
    pre = GroupMorphism(FgAbGroup.free(k), b, mat, trusted=True).preimage_gens()
    return GroupMorphism(FgAbGroup(k, pre @ random_relations(rng, pre.cols)), b, mat), g, b


def test_homology_at_matches_the_lattice_route():
    # a missing outgoing map, or one into the zero group, gives the cokernel
    # of f with no lattice built; otherwise the group is solved on g's
    # preimage basis as before: relations, coordinates and representatives
    # are those of the lattice route
    rng = random.Random(29)
    seen = {"g None": 0, "g into 0": 0, "f None": 0, "both": 0}
    for _ in range(400):
        f, g, middle = random_complex(rng)
        h = homology_at(f, g)
        group, coords, rep_of = lattice_route(f, g, middle)
        assert (h.group.ngens, h.group.relations) == (group.ngens, group.relations)
        k = len(group.invariant_factors)
        assert h.basis_reps == [rep_of(tuple(int(i == l) for i in range(k))) for l in range(k)]
        for _ in range(3):
            c = tuple(rng.randint(0, d - 1) if d else rng.randint(-3, 3)
                      for d in group.invariant_factors)
            assert h.rep_of(c) == rep_of(c)
            if g is None or not g.target.ngens:  # every vector of B is a cycle
                v = [x + rng.randint(-2, 2) for x in h.rep_of(c)]
            else:  # the representative moved by boundaries and relations
                gens = middle.relations if f is None else f.matrix.hstack(middle.relations)
                moved = gens.apply([rng.randint(-2, 2) for _ in range(gens.cols)])
                v = [x + y for x, y in zip(h.rep_of(c), moved)]
                assert h.coords(v) == c
            assert h.coords(v) == coords(v)
        if g is None or not g.target.ngens:
            assert h.basis is None
        seen["g None" if g is None else "f None" if f is None
             else "g into 0" if not g.target.ngens else "both"] += 1
    assert min(seen.values()) >= 50, seen
    with pytest.raises(ValueError, match="at least one map"):
        homology_at(None, None)


def test_kernel_matches_the_lattice_route():
    # the kernel is the subquotient homology_at(None, f): presented on a
    # basis of f's preimage lattice, or, into the zero group, the source
    # itself with its identity
    rng = random.Random(30)
    into_zero = 0
    for _ in range(200):
        v = FgAbGroup(n := rng.randint(0, 3), random_relations(rng, n))
        if rng.random() < 0.25:
            f = GroupMorphism.zero(v, FgAbGroup.trivial())
        else:
            m = rng.randint(1, 3)
            f = random_morphism(rng, v, FgAbGroup(m, random_relations(rng, m)))
        k, incl = f.kernel()
        group, _, _ = lattice_route(None, f, v)
        b = f.preimage_lattice_basis()
        assert (k.ngens, k.relations, incl.matrix) == (group.ngens, group.relations, b)
        assert incl.source is k and incl.target is v
        if not f.target.ngens:
            assert k is v and incl.matrix == IntMatrix.identity(n)
            into_zero += 1
        elif not v.relations.cols:
            assert incl._image.matrix is incl.matrix
    assert into_zero >= 30


def test_image_subgroup_and_eventual_image():
    g = FgAbGroup.cyclic(8)
    f = GroupMorphism(g, g, IntMatrix.from_rows([[2]]))
    h, _ = image_subgroup(f)
    assert h.invariant_factors == [4]
    ev, _, tau = eventual_image(f)
    assert ev.is_trivial()
    # multiplication by 3 is invertible: eventual image is everything
    f3 = GroupMorphism(g, g, IntMatrix.from_rows([[3]]))
    ev3, _, tau3 = eventual_image(f3)
    assert ev3.invariant_factors == [8]
    assert tau3.is_iso()


def test_torsion_subgroup():
    g = FgAbGroup(2, IntMatrix.from_rows([[4, 0], [0, 0]]))
    t, embed = torsion_subgroup(g)
    assert t.invariant_factors == [4]
    assert embed._find_violation() is None


def test_torsion_subgroup_of_random_groups():
    # T embeds, with the torsion factors of g, and its image is all of the
    # torsion: the cokernel g / T is free of g's rank
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(0, 3)
        g = FgAbGroup(n, random_relations(rng, n))
        t, embed = torsion_subgroup(g)
        assert embed._find_violation() is None
        assert embed.is_injective()
        assert t.invariant_factors == [d for d in g.invariant_factors if d]
        assert embed.cokernel()[0].invariant_factors == [0] * g.rank


def random_relations(rng, n):
    """An n-row relation matrix: none, or a few random columns, often with
    a column dependent on the others and a zero column among them."""
    cols = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    if cols and rng.random() < 0.4:
        a, b = rng.choice(cols), rng.choice(cols)
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
        cols.append([p * x + q * y for x, y in zip(a, b)])
    if cols and rng.random() < 0.3:
        cols.insert(rng.randrange(len(cols) + 1), [0] * n)
    return IntMatrix.from_columns(cols, rows=n)


def test_resolution_lift_matches_the_lattice_route():
    # random f: V -> W, V's relations drawn inside the preimage lattice of a
    # random matrix, so f is well defined; the lift solves
    # B(W) X = f B(V) exactly and equals the solve through a lattice built
    # on the two resolution bases
    rng = random.Random(43)
    seen = {"no relations": 0, "zero column": 0, "dependent columns": 0}
    for _ in range(300):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        w = FgAbGroup(m, random_relations(rng, m))
        mat = IntMatrix(m, n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        pre = GroupMorphism(FgAbGroup.free(n), w, mat, trusted=True).preimage_gens()
        rel = pre @ random_relations(rng, pre.cols) if rng.random() < 0.8 else IntMatrix.zeros(n, 0)
        if rel.cols and rng.random() < 0.3:
            rel = rel.hstack(IntMatrix.zeros(n, 1))
        v = FgAbGroup(n, rel)
        f = GroupMorphism(v, w, mat)
        lift = resolution_lift(f)
        assert w.snf.image_basis() @ lift == mat @ v.snf.image_basis()
        route = smith_normal_form(lattice_basis(w.relations)).factor(mat @ lattice_basis(rel))
        assert lift == route
        for g in (v, w):
            seen["no relations"] += not g.relations.cols
            seen["zero column"] += any(not any(c) for c in g.relations.columns())
            seen["dependent columns"] += g.snf.rank < g.relations.cols
    assert min(seen.values()) >= 30, seen


def is_iso_by_definition(f):
    """Bijective: a trivial kernel and a trivial cokernel."""
    k, _ = f.kernel()
    c, _ = f.cokernel()
    return k.is_trivial() and c.is_trivial()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["equal", "unequal"]))
def test_is_iso_matches_definition(seed, factors):
    # equal invariant factors: a random map into an equivalent presentation
    # of the source, or (every other draw) a composite with the witness
    # isomorphism, so both isomorphisms and non-isomorphisms come up;
    # unequal: a random map into an unrelated random group
    rng = random.Random(seed)
    v = random_group(rng)
    if factors == "equal":
        w = randomized_equivalent_presentation(rng, v)[0]
        f = random_morphism(rng, v, w)
        if rng.random() < 0.5:
            f = canonical_iso(v, w) @ random_morphism(rng, v, v)
    else:
        w = random_group(rng)
        f = random_morphism(rng, v, w)
    assert f.is_iso() == is_iso_by_definition(f)


def is_exact_by_definition(f, g):
    """im(f) + relations and the preimage lattice of g contain each other."""
    return spans_equal(f.matrix.hstack(g.source.relations), g.preimage_lattice_basis())


def random_map_case(rng):
    """A random well-defined map: into an equivalent presentation of the
    source (an isomorphism every other time), into a random group, or a
    kernel inclusion or cokernel projection of a random map."""
    v = random_group(rng)
    kind = rng.randrange(4)
    if kind == 0:
        w = randomized_equivalent_presentation(rng, v)[0]
        f = canonical_iso(v, w)
        return f @ random_morphism(rng, v, v) if rng.random() < 0.5 else f
    w = random_group(rng)
    f = random_morphism(rng, v, w)
    if kind == 2:
        return f.kernel()[1]
    if kind == 3:
        return f.cokernel()[1]
    return f


def test_injective_surjective_match_kernel_and_cokernel():
    rng = random.Random(31)
    seen = {"injective": {True: 0, False: 0}, "surjective": {True: 0, False: 0}}
    for _ in range(800):
        f = random_map_case(rng)
        injective = f.is_injective()
        surjective = f.is_surjective()
        assert injective == f.kernel()[0].is_trivial()
        assert surjective == f.cokernel()[0].is_trivial()
        assert f.is_iso() == (injective and surjective)
        seen["injective"][injective] += 1
        seen["surjective"][surjective] += 1
    assert all(min(counts.values()) >= 100 for counts in seen.values()), seen


def test_is_exact_at_matches_mutual_containment():
    # g random; f its kernel inclusion (exact), that inclusion scaled or
    # precomposed with a random endomorphism (exact or not), a random map
    # into g's source (rarely even a complex), or g itself followed by its
    # cokernel projection (exact)
    rng = random.Random(37)
    seen = {True: 0, False: 0}
    for _ in range(500):
        v, w = random_group(rng), random_group(rng)
        g = random_morphism(rng, v, w)
        k, incl = g.kernel()
        kind = rng.randrange(5)
        if kind == 0:
            f = incl
        elif kind == 1:
            f = incl.scaled(rng.randint(2, 3))
        elif kind == 2:
            f = incl @ random_morphism(rng, k, k)
        elif kind == 3:
            f = random_morphism(rng, random_group(rng), v)
        else:
            f, g = g, g.cokernel()[1]
        got = is_exact_at(f, g)
        assert got == is_exact_by_definition(f, g)
        seen[got] += 1
    assert min(seen.values()) >= 100, seen


def test_preimage_basis_without_second_elimination():
    # with independent target relations the projected kernel basis is kept
    # as it is; it must still be a basis of the preimage lattice
    rng = random.Random(43)
    checked = 0
    while checked < 200:
        v, w = random_group(rng), random_group(rng)
        if w.snf.rank != w.relations.cols:
            continue
        f = random_morphism(rng, v, w)
        b = f.preimage_lattice_basis()
        assert matrix_rank(b) == b.cols
        assert lattices_equal(b, lattice_basis(f.preimage_gens()))
        checked += 1


def test_preimage_basis_with_dependent_relations():
    # Z/2 presented by [[2, 4]]: the projected kernel of [1 | 2 4] has two
    # columns in Z^1, so only the fallback elimination gives a basis
    target = FgAbGroup(1, IntMatrix.from_rows([[2, 4]]))
    f = GroupMorphism(FgAbGroup.free(1), target, IntMatrix.from_rows([[1]]))
    assert f.preimage_gens().cols == 2
    b = f.preimage_lattice_basis()
    assert b.cols == matrix_rank(b) == 1
    assert lattices_equal(b, IntMatrix.from_rows([[2]]))


def test_a_morphism_eliminates_its_image_lattice_once(monkeypatch):
    # (Z/2)^2 -> Z/4 + Z/6: surjectivity, the preimage lattice and the
    # cokernel group all read the one decomposition of [M | R], which the
    # cokernel group keeps as the Smith form of its own relations
    source = FgAbGroup(2, IntMatrix.from_rows([[2, 0], [0, 2]]))
    target = FgAbGroup(2, IntMatrix.from_rows([[4, 0], [0, 6]]))
    f = GroupMorphism(source, target, IntMatrix.from_rows([[2, 0], [3, 3]]))
    eliminated = counter(monkeypatch, intlinalg, "_eliminate")
    surjective, kernel = f.is_surjective(), f.preimage_gens()
    c, _ = f.cokernel()
    assert c.invariant_factors == [6] and len(eliminated) == 1
    assert c.snf.matrix is c.relations
    assert not surjective and spans_equal(kernel, IntMatrix.from_rows([[2, 0], [0, 2]]))


# --- the bounded isomorphism search --------------------------------------------


def test_iso_search_starts_at_the_identity():
    # End(Z/2^3 + Z/4) has 131,072 elements, 21,504 of them automorphisms
    # (Hillar and Rhea); the walk starts at the identity, so one element
    # suffices
    g = FgAbGroup.from_invariant_factors([2, 2, 2, 4])
    out = iso_search([({0: (g, g)}, [])], bound=1, budget=1)
    assert out.verdict == "yes"
    (family,) = out.witness
    assert family[0].equals(GroupMorphism.identity(g))


def test_zero_piece_is_the_one_family_of_zero_maps(monkeypatch):
    # a piece whose groups are zero at every point, on generators with unit
    # relations, beside a piece with Z/4 at one point: the search answers
    # as DiagramHom does on the same pieces, and the zero piece alone
    # eliminates nothing
    z1, z2, z0 = FgAbGroup.cyclic(1), FgAbGroup(2, IntMatrix.identity(2)), FgAbGroup.trivial()
    b = GroupMorphism(z2, z1, IntMatrix.from_rows([[1, 1]]))
    zero = ({0: (z1, z2), 1: (z0, z1)}, [(0, 1, GroupMorphism.zero(z1, z0), b)])
    g = FgAbGroup.cyclic(4)
    nonzero = ({0: (g, g)}, [])
    for group in (z1, z2, z0, g):
        group.invariant_factors
    eliminated = counter(monkeypatch, intlinalg, "_eliminate")
    assert iso_search([zero], bound=1, budget=1).verdict == "yes"
    assert eliminated == []
    for pieces in ([nonzero, zero], [zero, nonzero]):
        homs = [DiagramHom(*piece) for piece in pieces]
        out = iso_search(pieces, bound=1, budget=10)
        assert out.verdict == "yes"
        for got, want in zip(out.witness, (next(h.isomorphisms(1, 10)) for h in homs)):
            assert {k: f.matrix for k, f in got.items()} == {k: f.matrix for k, f in want.items()}
        assert iso_search(pieces, 1, 10, accept=lambda family: False).verdict == "no"
        assert all(h.enumerable(10) for h in homs)
        assert iso_search(pieces, bound=1, budget=0).verdict == "unknown"
        assert not any(h.enumerable(0) for h in homs)


def _is_bijective(m, factors):
    """Is the reduced canonical matrix m a bijection of Z/d_1 + ... ?"""
    elements = list(itertools.product(*(range(d) for d in factors)))
    images = {tuple(sum(map(operator.mul, row, x)) % h for row, h in zip(m, factors))
              for x in elements}
    return len(images) == len(elements)


def _hom_matrices(v, w):
    """Every map Z/v_1 + ... -> Z/w_1 + ... as a reduced canonical matrix:
    entry (j, i) runs over the multiples of w_j / gcd(v_i, w_j) below w_j."""
    cells = [range(0, h, h // math.gcd(d, h)) for h in w for d in v]
    for entries in itertools.product(*cells):
        yield tuple(entries[j * len(v):(j + 1) * len(v)] for j in range(len(w)))


def _compose_mod(b, a, cols, factors):
    """The reduced canonical matrix of b a, with `cols` columns and target
    invariant factors `factors`."""
    return tuple(tuple(sum(b[j][k] * a[k][i] for k in range(len(a))) % h for i in range(cols))
                 for j, h in enumerate(factors))


def test_shifted_walk_visits_exactly_the_isomorphisms():
    # diagrams of finite groups, each group equal on both sides, with one
    # point, or two points and an arrow 0 -> 1 (a on V, b on W).  With a = b
    # the identity family is a morphism and the walk starts there; with
    # a != b it is not and the walk starts at zero.  Hom is enumerated
    # whole, so rejecting every family gives 'no' after accept has seen
    # exactly the pointwise isomorphisms that commute with the arrow, each
    # once; the brute force runs over all families of canonical matrices
    rng = random.Random(53)
    shapes = [[], [2], [3], [4], [6], [2, 2], [2, 4]]
    starts = {"identity": 0, "zero": 0}
    for _ in range(60):
        factors = [rng.choice(shapes) for _ in range(rng.choice([1, 2]))]
        groups = [FgAbGroup.from_invariant_factors(f) for f in factors]
        isos = [{m for m in _hom_matrices(f, f) if _is_bijective(m, f)} for f in factors]
        if len(groups) == 1:
            arrows, expected = [], {(m,) for m in isos[0]}
            starts["identity"] += 1
        else:
            (d0, d1), homs = factors, list(_hom_matrices(*factors))
            a = rng.choice(homs)
            b = a if rng.random() < 0.5 else rng.choice(homs)
            arrows = [(0, 1, *(GroupMorphism(*groups, IntMatrix(len(d1), len(d0), [list(r) for r in m]))
                               for m in (a, b)))]
            expected = {(f0, f1) for f0 in isos[0] for f1 in isos[1]
                        if _compose_mod(b, f0, len(d0), d1) == _compose_mod(f1, a, len(d0), d1)}
            starts["identity" if a == b else "zero"] += 1
        seen = []
        out = iso_search([({k: (g, g) for k, g in enumerate(groups)}, arrows)], bound=1,
                         budget=10**4, accept=lambda family: seen.append(family[0]) or False)
        assert out.verdict == "no"
        got = [tuple(tuple(tuple(e % h for e in row) for row, h in zip(fam[k].matrix.data, f))
                     for k, f in enumerate(factors)) for fam in seen]
        assert len(got) == len(set(got))
        assert set(got) == expected
    assert min(starts.values()) >= 10, starts


# --- the closed-form automorphism test ----------------------------------------


def random_factor_list(rng):
    """A canonical factor list: up to three torsion factors in a divisibility
    chain (repeats, prime powers and composites such as 12 come up) and up
    to two free factors."""
    torsion = []
    for _ in range(rng.randint(0, 3)):
        step = rng.choice([1, 2, 3, 4, 6, 12] if torsion else [2, 3, 4, 5, 6, 12])
        torsion.append((torsion[-1] if torsion else 1) * step)
    return torsion + [0] * rng.randint(0, 2)


def random_canonical_map(rng, v, w):
    """A map V -> W between canonical groups, its entries drawn slot by slot
    as `_hom_slots` shapes them; half of the time the identity's slots are
    kept on the diagonal, so that automorphisms come up often."""
    f = IntMatrix.zeros(len(w.invariant_factors), len(v.invariant_factors))
    keep = rng.random() < 0.5
    for j, i, step, g in _hom_slots(v, w):
        if keep and i == j and step == 1:
            f.data[j][i] = rng.choice((1, -1))
        else:
            f.data[j][i] = step * (rng.randrange(g) if g else rng.randint(-2, 2))
    return f


def closed_form_case(seed):
    """(closed form, is_iso) for a random endomorphism of a random canonical
    group, drawn from `seed`."""
    rng = random.Random(seed)
    factors = random_factor_list(rng)
    g = FgAbGroup.from_invariant_factors(factors)
    if g.invariant_factors != factors:
        raise ValueError(f"{factors} is not a canonical factor list")
    f = random_canonical_map(rng, g, g)
    return _is_automorphism(f, *_automorphism_blocks(factors)), GroupMorphism(g, g, f).is_iso()


def unequal_walk_case(seed):
    """(isomorphisms the walk yields, is_iso of a random map) for groups of
    two different random factor lists, or None when the lists agree."""
    rng = random.Random(seed)
    v, w = (FgAbGroup.from_invariant_factors(random_factor_list(rng)) for _ in range(2))
    if v.invariant_factors == w.invariant_factors:
        return None
    isos = list(DiagramHom({0: (v, w)}, []).isomorphisms(bound=1, budget=50))
    return len(isos), GroupMorphism(v, w, random_canonical_map(rng, v, w)).is_iso()


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6))
def test_closed_form_automorphism_test_matches_is_iso(seed):
    closed, oracle = closed_form_case(seed)
    assert closed == oracle


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_unequal_factor_lists_are_never_automorphisms(seed):
    out = unequal_walk_case(seed)
    assert out is None or out == (0, False)


def test_closed_form_cases_cover_both_answers():
    # the generator of the two tests above reaches automorphisms and
    # non-automorphisms, with free factors and with repeated primes
    answers = {closed_form_case(seed)[0] for seed in range(200)}
    assert answers == {True, False}
    factor_lists = [random_factor_list(random.Random(seed)) for seed in range(200)]
    assert any(0 in f and any(f) for f in factor_lists)
    assert any(len([d for d in f if d and d % 2 == 0]) >= 2 for f in factor_lists)
    assert any(12 in f for f in factor_lists)
