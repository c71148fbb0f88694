import hashlib
import random
import re
from dataclasses import replace
from math import gcd

import pytest

from obstruct import intlinalg, quiver
from obstruct.abelian import (
    DiagramHom,
    FgAbGroup,
    GroupMorphism,
    IllDefinedMorphism,
    iso_search,
)
from obstruct.intlinalg import ExactArithmeticError, IntMatrix
from obstruct.posets import (
    FinitePoset,
    antichain_poset,
    chain_poset,
    diamond_poset,
    is_unique_path_space,
    point_poset,
    sierpinski_poset,
)
from obstruct.quiver import (
    ExactnessError,
    Ext2Class,
    ExtPosetGroup,
    ProjectiveRep,
    ProjIntoRep,
    QuiverRep,
    RepMorphism,
    TwoExtension,
    baer_sum,
    chain_lift,
    ext2_compatible,
    ext_poset,
    ext_poset_ups_oracle,
    minimal_cover,
    rep_cokernel,
    rep_iso_bounded_multi,
    rep_kernel,
    resolve_projective,
    sierpinski_ext2,
    transport_class,
    verify_resolution,
    yoneda_class,
)

from support import perturbed_resolution
from test_abelian import random_group, random_morphism
from test_intlinalg import counter


def sierpinski_rep(vb, va, arrow_matrix):
    """Representation over a < b with map V_b -> V_a."""
    poset = sierpinski_poset()
    groups = {"a": va, "b": vb}
    arrows = {("b", "a"): GroupMorphism(vb, va, arrow_matrix)}
    return QuiverRep(poset, groups, arrows)


def projective_rep(p):
    """A ProjectiveRep as a QuiverRep: Z^(rank at x) at x, transports as arrows."""
    groups = {x: FgAbGroup.free(len(p.indices_at(x))) for x in p.poset.points}
    arrows = {(y, x): GroupMorphism(groups[y], groups[x], p.transport_matrix(y, x))
              for y, x in p.poset.hasse_arrows}
    return QuiverRep(p.poset, groups, arrows)


def zmod(d):
    return FgAbGroup.cyclic(d)


def zero_group():
    return FgAbGroup.trivial()


# --- representations -----------------------------------------------------------


def test_quiver_rep_validation():
    poset = sierpinski_poset()
    with pytest.raises(ValueError):
        QuiverRep(poset, {"a": zmod(2)}, {})


def test_quiver_rep_rebuilds_an_arrow_on_other_groups():
    poset = sierpinski_poset()
    z2, z3, z6 = zmod(2), zmod(3), zmod(6)
    # Z/2 at b, Z/3 at a: [[1]] is a map Z/3 -> Z/3, but not Z/2 -> Z/3
    with pytest.raises(IllDefinedMorphism):
        QuiverRep(poset, {"b": z2, "a": z3},
                  {("b", "a"): GroupMorphism(z3, z3, IntMatrix.from_rows([[1]]))})
    # [[3]] is well defined on Z/2 -> Z/6 too, and is rebuilt there
    arrow = GroupMorphism(z6, z6, IntMatrix.from_rows([[3]]))
    v = QuiverRep(poset, {"b": z2, "a": z6}, {("b", "a"): arrow})
    f = v.arrow_map("b", "a")
    assert f.source is z2 and f.target is z6 and f.matrix == arrow.matrix
    with pytest.raises(ValueError, match="is 1x2, expected 1x1"):
        QuiverRep(poset, {"b": z2, "a": z3},
                  {("b", "a"): GroupMorphism.zero(FgAbGroup.free(2), z3)})
    # an arrow on the point groups themselves is kept as it is
    kept = GroupMorphism(z2, z6, IntMatrix.from_rows([[3]]))
    assert QuiverRep(poset, {"b": z2, "a": z6}, {("b", "a"): kept}).arrow_map("b", "a") is kept


def test_quiver_rep_rejects_stray_keys():
    poset = sierpinski_poset()
    z2 = zmod(2)
    arrows = {("b", "a"): GroupMorphism.identity(z2)}
    with pytest.raises(ValueError, match="'c', which is not a point"):
        QuiverRep(poset, {"a": z2, "b": z2, "c": z2}, arrows)
    with pytest.raises(ValueError, match=r"\('a', 'b'\), which is not a Hasse arrow"):
        QuiverRep(poset, {"a": z2, "b": z2}, {**arrows, ("a", "b"): GroupMorphism.identity(z2)})


def test_rep_morphism_checks_its_groups():
    poset = point_poset()
    z2, z3, z4 = zmod(2), zmod(3), zmod(4)
    v, w, w4 = (QuiverRep(poset, {"*": g}, {}) for g in (z2, z3, z4))
    # [[1]] is a map Z/3 -> Z/3, but not Z/2 -> Z/3, trusted or not
    for trusted in (False, True):
        with pytest.raises(IllDefinedMorphism):
            RepMorphism(v, w, {"*": GroupMorphism(z3, z3, IntMatrix.from_rows([[1]]))}, trusted)
    # one map per point, and none elsewhere, between modules over one poset
    with pytest.raises(ValueError, match=r"missing map at '\*'"):
        RepMorphism(v, w, {})
    two = sierpinski_rep(z2, z2, IntMatrix.identity(1))
    with pytest.raises(ValueError, match="lie over different posets"):
        RepMorphism(v, two, {"*": GroupMorphism.identity(z2)})
    zero = GroupMorphism.zero(z2, z3)
    with pytest.raises(ValueError, match="'x', which is not a point"):
        RepMorphism(v, w, {"*": zero, "x": zero})
    with pytest.raises(ValueError, match=r"map at '\*' is 1x2, expected 1x1"):
        RepMorphism(v, w, {"*": GroupMorphism.zero(FgAbGroup.free(2), z3)})
    # [[2]] is well defined on Z/2 -> Z/4 too, and is rebuilt there
    f = RepMorphism(v, w4, {"*": GroupMorphism(z4, z4, IntMatrix.from_rows([[2]]))}).maps["*"]
    assert f.source is z2 and f.target is z4 and f.matrix == IntMatrix.from_rows([[2]])
    assert RepMorphism(v, w, {"*": zero}).maps["*"] is zero


def test_coherence_check_on_diamond():
    poset = diamond_poset()
    z = FgAbGroup.free(1)
    groups = {p: z for p in poset.points}
    one = IntMatrix.from_rows([[1]])
    two = IntMatrix.from_rows([[2]])
    arrows = {
        ("top", "l"): GroupMorphism(z, z, one),
        ("top", "r"): GroupMorphism(z, z, one),
        ("l", "bot"): GroupMorphism(z, z, one),
        ("r", "bot"): GroupMorphism(z, z, two),
    }
    with pytest.raises(ValueError, match="disagree"):
        QuiverRep(poset, groups, arrows)
    arrows[("r", "bot")] = GroupMorphism(z, z, one)
    QuiverRep(poset, groups, arrows)  # now coherent


def test_rep_kernel_cokernel():
    v = sierpinski_rep(zmod(4), zmod(4), IntMatrix.from_rows([[2]]))
    f = RepMorphism.identity(v)
    k, _ = rep_kernel(f)
    assert k.is_zero()
    c, _ = rep_cokernel(f)
    assert c.is_zero()


def cokernel_cases():
    """{name: RepMorphism} over a < b; "tampered" does not commute with the
    arrows, so its cokernel arrow is not well defined."""
    z = FgAbGroup.free(1)
    one = IntMatrix.from_rows([[1]])
    free = sierpinski_rep(z, z, one)

    def f(source, target, fb, fa, trusted=False):
        return RepMorphism(source, target, {
            "b": GroupMorphism(source.groups["b"], target.groups["b"], IntMatrix.from_rows([[fb]])),
            "a": GroupMorphism(source.groups["a"], target.groups["a"], IntMatrix.from_rows([[fa]]))},
            trusted=trusted)

    return {
        # b f_b = f_a a exactly and the target free at b
        "exact": f(free, free, 2, 2),
        # b f_b = f_a a exactly, but the target is Z/4 at b
        "torsion target": f(free, sierpinski_rep(zmod(4), zmod(2), one), 2, 2),
        # b f_b = 1 and f_a a = 4 agree only in Z/3
        "modulo relations": f(free, sierpinski_rep(z, zmod(3), one), 1, 4),
        # coker is 0 at b and Z/2 at a, and 1 is not 0 in Z/2
        "tampered": f(free, free, 1, 2, trusted=True),
    }


@pytest.mark.parametrize("name, lattice_tests, factors", [
    ("exact", 0, ([2], [2])),
    ("torsion target", 1, ([2], [2])),
    ("modulo relations", 1, ([], [])),
])
def test_rep_cokernel_arrow_skips_the_lattice_test_only_on_an_exact_identity(
        monkeypatch, name, lattice_tests, factors):
    f = cokernel_cases()[name]
    calls = []
    real = GroupMorphism._find_violation
    monkeypatch.setattr(GroupMorphism, "_find_violation", lambda m: calls.append(m) or real(m))
    c, _ = rep_cokernel(f)
    assert len(calls) == lattice_tests
    assert (c.groups["b"].invariant_factors, c.groups["a"].invariant_factors) == factors


def test_rep_cokernel_of_a_tampered_morphism_raises():
    with pytest.raises(IllDefinedMorphism):
        rep_cokernel(cokernel_cases()["tampered"])


# --- projective covers and resolutions ------------------------------------------


def test_minimal_cover_of_projective_is_iso():
    poset = sierpinski_poset()
    p = ProjectiveRep(poset, ["b"])
    rep = projective_rep(p)
    cover, phi = minimal_cover(rep)
    assert cover.gen_points == ["b"]
    res = resolve_projective(rep, 3)
    assert res.complete
    assert res.length == 0


def test_cover_and_resolution_build_one_point_morphism_per_point(monkeypatch):
    # the surjectivity check of minimal_cover and the first syzygy of
    # resolve_projective read the same cached map at each point
    v = random_rep(random.Random(4), chain_poset(3))
    built = []

    class Counting(GroupMorphism):
        __slots__ = ()

        def __init__(self, source, target, matrix, trusted=False):
            if source is not target:
                built.append(target)
            super().__init__(source, target, matrix, trusted)

    monkeypatch.setattr(quiver, "GroupMorphism", Counting)
    res = resolve_projective(v, 3)
    assert sorted(map(id, built)) == sorted(id(v.groups[z]) for z in v.poset.points)
    assert all(res.aug.point_morphism(z) is res.aug.point_morphism(z) for z in v.poset.points)


def test_resolution_sierpinski_torsion():
    v = sierpinski_rep(zmod(2), zero_group(), IntMatrix.zeros(0, 1))
    res = resolve_projective(v, 3)
    assert res.complete
    assert res.length == 2
    verify_resolution(res)


def test_resolution_free_entries_on_ups_length_1():
    # free entries on a unique path space: projective dimension <= 1
    rng = random.Random(4)
    poset = chain_poset(3)
    for _ in range(5):
        groups = {p: FgAbGroup.free(rng.randint(0, 2)) for p in poset.points}
        arrows = {}
        for y, x in poset.hasse_arrows:
            m = IntMatrix(
                groups[x].ngens, groups[y].ngens,
                [[rng.randint(-2, 2) for _ in range(groups[y].ngens)]
                 for _ in range(groups[x].ngens)],
            )
            arrows[(y, x)] = GroupMorphism(groups[y], groups[x], m)
        v = QuiverRep(poset, groups, arrows)
        res = resolve_projective(v, 3)
        assert res.complete
        assert res.length <= 1
        verify_resolution(res)


def random_rep(rng, poset, max_gens=2, max_entry=4):
    groups = {p: random_group(rng, max_gens, max_entry) for p in poset.points}
    # build arrow maps point by point; retry until coherent (cheap for trees)
    for _ in range(60):
        arrows = {}
        for y, x in poset.hasse_arrows:
            arrows[(y, x)] = random_morphism(rng, groups[y], groups[x])
        try:
            return QuiverRep(poset, groups, arrows)
        except ValueError:
            continue
    raise AssertionError("could not build a coherent random representation")


def test_resolution_length_at_most_2_on_ups():
    rng = random.Random(8)
    for poset in [point_poset(), sierpinski_poset(), chain_poset(3), antichain_poset(2)]:
        for _ in range(4):
            v = random_rep(rng, poset)
            res = resolve_projective(v, 5)
            assert res.complete
            assert res.length <= 2
            verify_resolution(res)


def test_randomized_resolutions_also_exact():
    # non-minimal resolutions, with redundant generators and shuffled
    # orders, are exact
    v = sierpinski_rep(zmod(4), zmod(2), IntMatrix.from_rows([[1]]))
    base = resolve_projective(v, 3)
    for seed in range(5):
        res = perturbed_resolution(base, random.Random(seed))
        assert res.fingerprint() != base.fingerprint()
        verify_resolution(res)


def all_degree_groups(v, w):
    """Ext^0..3 from one Hom complex over all degrees of a resolution to
    length 3."""
    cx = quiver.HomComplex.build(resolve_projective(v, 3), w, 3)
    return [cx.cohomology_at(n).group for n in range(4)]


def random_poset(rng, npoints, edge_prob=0.4):
    """Transitive closure of a random DAG on p0 < p1 < ... ."""
    pts = [f"p{i}" for i in range(npoints)]
    return FinitePoset(pts, [(pts[i], pts[j]) for i in range(npoints)
                             for j in range(i + 1, npoints) if rng.random() < edge_prob])


def presented_rep(rng, poset, max_gens=3, max_rels=5, max_entry=3):
    """coker(P1 -> P0) for random projectives and a random map between them:
    a module on any poset, chain composites agreeing by construction."""
    p0 = ProjectiveRep(poset, [rng.choice(poset.points) for _ in range(rng.randint(1, max_gens))])
    p1 = ProjectiveRep(poset, [rng.choice(poset.points) for _ in range(rng.randint(1, max_rels))])
    coeffs = IntMatrix.zeros(p0.num_gens, p1.num_gens)
    for i, x in enumerate(p1.gen_points):
        for g in p0.indices_at(x):
            coeffs.data[g][i] = rng.randint(-max_entry, max_entry)
    r0, r1 = projective_rep(p0), projective_rep(p1)
    maps = {z: GroupMorphism(r1.groups[z], r0.groups[z],
                             p1.point_matrix_of_coeffs(coeffs, p0, z), trusted=True)
            for z in poset.points}
    return rep_cokernel(RepMorphism(r1, r0, maps))[0]


def sweep_posets(rng, count):
    """The diamond and random posets on 4 to 6 points, in turn."""
    return [diamond_poset() if k % 4 == 0 else random_poset(rng, 4 + k % 3) for k in range(count)]


def general_sweep():
    """(module, resolution to length 4) for the 160 presented modules of
    the general-poset sweep."""
    rng = random.Random(41)
    modules = [presented_rep(rng, poset) for poset in sweep_posets(rng, 160)]
    return [(v, resolve_projective(v, 4)) for v in modules]


def test_resolutions_exact_on_general_posets():
    # non-UPS posets, relations that need not be independent, and
    # perturbed resolutions with redundant generators and shuffles
    non_ups = deep = 0
    for seed, (v, res) in enumerate(general_sweep()):
        non_ups += not is_unique_path_space(v.poset)[0]
        verify_resolution(res)
        deep += res.length >= 2
        verify_resolution(perturbed_resolution(res, random.Random(seed)))
    # enough traffic through covers of syzygies that are themselves kernels
    assert non_ups >= 40 and deep >= 15, (non_ups, deep)


def resolution_extension(res):
    """0 -> K -> P_1 -> P_0 -> V -> 0 read off a resolution of V, with K
    the kernel of P_1 -> P_0."""
    p0, p1 = projective_rep(res.projective_at(0)), projective_rep(res.projective_at(1))
    d1 = RepMorphism(p1, p0, {z: GroupMorphism(p1.groups[z], p0.groups[z], _diff_at(res, 1, z))
                              for z in res.module.poset.points})
    eps = RepMorphism(p0, res.module, {z: res.aug.point_morphism(z) for z in res.module.poset.points})
    k, d2 = rep_kernel(d1)
    return TwoExtension(k, p1, p0, res.module, d2, d1, eps)


def test_ext_and_classes_independent_of_the_resolution_on_general_posets():
    # Ext^0..2(V, V) against a perturbed resolution has the invariant
    # factors of `ext_poset`, and the class of 0 -> K -> P_1 -> P_0 -> V -> 0
    # computed against it transports to the class against the minimal one
    nonzero = 0
    for seed, (v, res) in enumerate(general_sweep()):
        other = perturbed_resolution(res, random.Random(seed))
        for n in range(3):
            assert (ExtPosetGroup(v, v, n, resolution=other).group.invariant_factors
                    == ext_poset(v, v, n).group.invariant_factors), (seed, n)
        ext = resolution_extension(res)
        base = yoneda_class(ext)
        cls = yoneda_class(ext, ambient=ExtPosetGroup(ext.m0, ext.m1, 2, resolution=other))
        assert transport_class(cls, base.ambient) == base.coords, seed
        assert transport_class(base, cls.ambient) == cls.coords, seed
        nonzero += not base.is_zero()
    assert nonzero >= 15, nonzero


def test_resolutions_of_the_sweep_are_pinned():
    # every cover order and differential of the sweep, as one hash
    h = hashlib.sha256()
    for _, res in general_sweep():
        h.update(res.fingerprint().encode())
    assert h.hexdigest() == "888cf6f11b44ef9989dd4bd0a2b650424b25b1508095ba5651c4fa239c96c955"


def test_ext_matches_ups_oracle_on_random_posets():
    rng = random.Random(42)
    checked = 0
    for poset in sweep_posets(rng, 60):
        if not is_unique_path_space(poset)[0]:
            continue
        v, w = presented_rep(rng, poset), presented_rep(rng, poset)
        oracle = ext_poset_ups_oracle(v, w)
        for n in range(3):
            assert ext_poset(v, w, n).group.invariant_factors == oracle[n].invariant_factors
        checked += 1
    assert checked >= 20, checked


def test_syzygy_cover_must_be_surjective(monkeypatch):
    # dropping one generator of a minimal syzygy cover leaves its image
    # short of the syzygy at that generator's point
    v = sierpinski_rep(zmod(2), zero_group(), IntMatrix.zeros(0, 1))
    assert resolve_projective(v, 3).length == 2
    cover = quiver._syzygy_cover

    def dropping_one(prev, bases, lattice):
        p, vectors = cover(prev, bases, lattice)
        return ProjectiveRep(p.poset, p.gen_points[1:]), vectors[1:]

    monkeypatch.setattr(quiver, "_syzygy_cover", dropping_one)
    with pytest.raises(ExactArithmeticError, match="cover must be surjective"):
        resolve_projective(v, 3)


def test_resolution_builds_no_syzygy_representation(monkeypatch):
    v = sierpinski_rep(zmod(2), zero_group(), IntMatrix.zeros(0, 1))
    built = []
    init = QuiverRep.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuiverRep, "__init__", spy)
    res = resolve_projective(v, 3)
    assert (res.length, res.complete) == (2, True)
    assert built == []
    verify_resolution(res)


def test_ext_window_matches_all_degrees():
    # Ext^n builds the Hom complex in degrees n - 1, n and n + 1 only; the
    # group must be presented exactly as in the complex of all degrees
    rng = random.Random(5)
    for poset in (sierpinski_poset(), chain_poset(3), diamond_poset()):
        for _ in range(4):
            v, w = random_rep(rng, poset), random_rep(rng, poset)
            for a, b in ((v, w), (v, v)):
                groups = all_degree_groups(a, b)
                for n in range(3):
                    got = ext_poset(a, b, n)
                    assert got.complex.low == max(n - 1, 0)
                    assert (got.group.ngens, got.group.relations.data) == \
                        (groups[n].ngens, groups[n].relations.data)
    # Ext^2's window starts at degree 1, so it holds no H^1
    with pytest.raises(ValueError, match="below the window"):
        ext_poset(v, w, 2).complex.cohomology_at(1)


def rep_on(poset, group, points):
    """`group` at the given points, a convex set, with identity arrows
    inside it and zero elsewhere."""
    zero = FgAbGroup.trivial()
    groups = {p: group if p in points else zero for p in poset.points}
    arrows = {(y, x): GroupMorphism(groups[y], groups[x],
                                    IntMatrix.identity(group.ngens) if y in points and x in points
                                    else IntMatrix.zeros(groups[x].ngens, groups[y].ngens))
              for y, x in poset.hasse_arrows}
    return QuiverRep(poset, groups, arrows)


def test_cohomology_at_the_top_of_a_window_needs_the_next_projective():
    # p0 < p1 < p2, p3 < p4: v = Z/2 at p4 has a resolution of length 3, so
    # H^2 of Ext^1's window (degrees 0..2) would ignore the d^2 it never
    # built, and read Z/3 where Ext^2 = 0
    poset = FinitePoset([f"p{i}" for i in range(5)],
                        [("p0", "p1"), ("p1", "p2"), ("p1", "p3"), ("p2", "p4"), ("p3", "p4")])
    v = rep_on(poset, FgAbGroup.cyclic(2), ["p4"])
    w = rep_on(poset, FgAbGroup.cyclic(3), ["p0", "p1", "p2"])
    ext2 = ext_poset(v, w, 2)
    assert ext2.group.is_trivial() and ext2.resolution.length == 3
    with pytest.raises(ValueError, match="above the window, which ends at 2"):
        ext_poset(v, w, 1).complex.cohomology_at(2)
    with pytest.raises(ValueError, match="above the window, which ends at 3"):
        ext2.complex.cohomology_at(4)
    # past a complete resolution Hom(P_{n+1}, W) is zero, and the top reads
    rng = random.Random(16)
    for _ in range(6):
        a, b = random_rep(rng, chain_poset(3)), random_rep(rng, chain_poset(3))
        res = resolve_projective(a, 2)
        assert res.complete and res.length <= 2
        top = quiver.HomComplex.build(res, b, 2).cohomology_at(2).group
        assert top.invariant_factors == ext_poset(a, b, 2).group.invariant_factors


def test_ext_between_modules_over_different_posets_is_rejected():
    # a < b against b < a: the same labels, opposite Hasse arrows; and
    # other labels altogether
    z2 = FgAbGroup.cyclic(2)
    v = rep_on(sierpinski_poset(), z2, ["a", "b"])
    w = rep_on(FinitePoset(["a", "b"], [("b", "a")]), z2, ["a", "b"])
    u = rep_on(chain_poset(2), z2, ["c0", "c1"])
    for n in range(3):
        for a, b in ((v, w), (w, v), (v, u)):
            with pytest.raises(ValueError, match="lie over different posets") as exc:
                ext_poset(a, b, n)
            assert repr(a) in str(exc.value) and repr(b) in str(exc.value)
    # one poset given twice, as two equal objects, is one poset
    twin = rep_on(sierpinski_poset(), z2, ["a", "b"])
    assert ext_poset(v, twin, 0).group.invariant_factors == [2]


# --- chain lifts -------------------------------------------------------------------


def _diff_at(res, k, x):
    """P_k -> P_{k-1} of a resolution at x."""
    return res.projective_at(k).point_matrix_of_coeffs(res.diff_coeffs(k), res.projective_at(k - 1), x)


def _lift_failures(res, top, maps, lifts):
    """(degree, point) of every square of a comparison lift out of res that
    fails to commute: at each point x, maps[k](x) L_k(x) = L_{k-1}(x) D_k(x)
    modulo the relations of the target of the group map maps[k](x), where
    L_k(x) = lifts[k](x), L_{-1}(x) = top(x) and D_k is P_k -> P_{k-1} of res
    (D_0 the identity)."""
    failures = []
    for x in res.module.poset.points:
        prev = top(x)
        for k, (at, lift) in enumerate(zip(maps, lifts)):
            cur = lift(x)
            gap = at(x).matrix @ cur - (prev if k == 0 else prev @ _diff_at(res, k, x))
            if not all(at(x).target.contains_relation(c) for c in gap.columns()):
                failures.append((k, x))
            prev = cur
    return failures


def _chain_lift_failures(f, res_s, res_t, lifts):
    """`_lift_failures` of a chain lift of f: aug' L_0 = f aug modulo the
    relations of f's target in degree 0, and d'_k L_k = L_{k-1} d_k in
    degree k."""

    def d_t(k):
        def at(x):
            d = _diff_at(res_t, k, x)
            return GroupMorphism(FgAbGroup.free(d.cols), FgAbGroup.free(d.rows), d)

        return at

    def lift(k):
        return lambda x: res_s.projective_at(k).point_matrix_of_coeffs(lifts[k], res_t.projective_at(k), x)

    return _lift_failures(
        res_s, lambda x: f.maps[x].matrix @ res_s.aug.point_morphism(x).matrix,
        [res_t.aug.point_morphism] + [d_t(k) for k in range(1, len(lifts))],
        [lift(k) for k in range(len(lifts))])


def test_chain_lift_commutes_between_two_resolutions():
    z2, z4, z8 = zmod(2), zmod(4), zmod(8)
    one = IntMatrix.from_rows([[1]])
    reps = [
        sierpinski_rep(z4, z2, one),
        QuiverRep(chain_poset(3), {"c0": z2, "c1": z4, "c2": z8},
                  {("c1", "c0"): GroupMorphism(z4, z2, one),
                   ("c2", "c1"): GroupMorphism(z8, z4, one)}),
        QuiverRep(diamond_poset(), {"bot": z2, "l": z4, "r": z2, "top": z8},
                  {("top", "l"): GroupMorphism(z8, z4, one),
                   ("top", "r"): GroupMorphism(z8, z2, one),
                   ("l", "bot"): GroupMorphism(z4, z2, one),
                   ("r", "bot"): GroupMorphism(z2, z2, one)}),
    ]
    # f = 3 * id, a module map that is not the identity, and the pointwise
    # reduction (Z/4 -> Z/2) -> (Z/2 -> Z/2), a map between two modules
    maps = [RepMorphism(v, v, {x: GroupMorphism(g, g, IntMatrix.identity(g.ngens).scaled(3))
                               for x, g in v.groups.items()})
            for v in reps]
    w = sierpinski_rep(z2, z2, one)
    maps.append(RepMorphism(reps[0], w, {x: GroupMorphism(g, w.groups[x], one)
                                         for x, g in reps[0].groups.items()}))
    for seed, f in enumerate(maps):
        res_s = resolve_projective(f.source, 3)
        res_t = perturbed_resolution(resolve_projective(f.target, 3), random.Random(seed))
        assert res_s.diffs and res_t.diffs and res_s.fingerprint() != res_t.fingerprint()
        lifts = chain_lift(f, res_s, res_t)
        assert _chain_lift_failures(f, res_s, res_t, lifts) == []
        tampered = [lifts[0], lifts[1].scaled(2)] + lifts[2:]
        assert _chain_lift_failures(f, res_s, res_t, tampered)


# --- ext over the incidence algebra ----------------------------------------------


def test_ext_point_space_is_plain_homological_algebra():
    poset = point_poset()
    v = QuiverRep(poset, {"*": zmod(4)}, {})
    w = QuiverRep(poset, {"*": zmod(2)}, {})
    assert ext_poset(v, w, 0).group.invariant_factors == [2]  # Hom(Z/4, Z/2)
    assert ext_poset(v, w, 1).group.invariant_factors == [2]  # Ext^1(Z/4, Z/2)
    assert ext_poset(v, w, 2).group.is_trivial()  # one-point space: dimension 1


def test_ext_discrete_poset_ext2_vanishes():
    poset = antichain_poset(2)
    rng = random.Random(3)
    for _ in range(4):
        v = random_rep(rng, poset)
        w = random_rep(rng, poset)
        assert ext_poset(v, w, 2).group.is_trivial()


def test_sierpinski_ext2_example():
    # V = (Z/2 -> 0), W = (0 -> Z/2): Ext^2 = Ext^1(Z/2, Z/2) = Z/2
    v = sierpinski_rep(zmod(2), zero_group(), IntMatrix.zeros(0, 1))
    w = sierpinski_rep(zero_group(), zmod(2), IntMatrix.zeros(1, 0))
    e2 = ext_poset(v, w, 2)
    assert e2.group.invariant_factors == [2]
    oracle = sierpinski_ext2(v.arrow_map("b", "a"), w.arrow_map("b", "a"))
    assert oracle.invariant_factors == [2]


def test_sierpinski_oracle_trivial_cases():
    # phi injective -> 0; psi surjective -> 0
    z = FgAbGroup.free(1)
    inj = GroupMorphism(z, z, IntMatrix.from_rows([[2]]))
    surj = GroupMorphism.identity(zmod(4))
    assert sierpinski_ext2(inj, GroupMorphism.zero(zmod(2), zmod(2))).is_trivial()
    assert sierpinski_ext2(GroupMorphism.zero(zmod(2), zmod(2)), surj).is_trivial()


def test_sierpinski_agreement_random():
    rng = random.Random(10)
    for _ in range(25):
        v = random_rep(rng, sierpinski_poset())
        w = random_rep(rng, sierpinski_poset())
        e2 = ext_poset(v, w, 2).group
        oracle = sierpinski_ext2(v.arrow_map("b", "a"), w.arrow_map("b", "a"))
        assert e2.invariant_factors == oracle.invariant_factors, (e2.describe(), oracle.describe())


def test_ups_oracle_agreement():
    rng = random.Random(12)
    for poset in [sierpinski_poset(), chain_poset(3)]:
        for _ in range(4):
            v = random_rep(rng, poset)
            w = random_rep(rng, poset)
            syz = [ext_poset(v, w, n).group for n in range(3)]
            orc = ext_poset_ups_oracle(v, w)
            for g1, g2 in zip(syz, orc):
                assert g1.invariant_factors == g2.invariant_factors


def test_ext3_vanishes_on_ups():
    rng = random.Random(13)
    for poset in [sierpinski_poset(), chain_poset(3)]:
        v = random_rep(rng, poset)
        w = random_rep(rng, poset)
        degrees = all_degree_groups(v, w)
        assert degrees[3].is_trivial()


def test_ext2_vanishes_for_free_entries():
    rng = random.Random(14)
    poset = sierpinski_poset()
    for _ in range(4):
        groups = {p: FgAbGroup.free(rng.randint(1, 2)) for p in poset.points}
        arrows = {}
        for y, x in poset.hasse_arrows:
            m = IntMatrix(
                groups[x].ngens, groups[y].ngens,
                [[rng.randint(-2, 2) for _ in range(groups[y].ngens)]
                 for _ in range(groups[x].ngens)],
            )
            arrows[(y, x)] = GroupMorphism(groups[y], groups[x], m)
        v = QuiverRep(poset, groups, arrows)
        w = random_rep(rng, poset)
        assert ext_poset(v, w, 2).group.is_trivial()


# --- yoneda classes ----------------------------------------------------------------


def split_two_extension(m1: QuiverRep, m0: QuiverRep):
    """0 -> M1 --(id,0)--> M1+M0 --(0,id)--> M0+0... a split 2-extension
    0 -> M1 -> M1 -> 0 -> 0 ... simplest: Q1 = M1, Q0 = M0, d1 = 0."""
    d2 = RepMorphism.identity(m1)
    d1 = RepMorphism.zero(m1, m0)
    eps = RepMorphism.identity(m0)
    return TwoExtension(m1, m1, m0, m0, d2, d1, eps)


def test_yoneda_split_extension_is_zero():
    v = sierpinski_rep(zmod(2), zero_group(), IntMatrix.zeros(0, 1))
    w = sierpinski_rep(zero_group(), zmod(2), IntMatrix.zeros(1, 0))
    ext = split_two_extension(w, v)
    cls = yoneda_class(ext)
    assert cls.is_zero()


def test_yoneda_projective_m0_lands_in_zero_group():
    poset = sierpinski_poset()
    m0 = projective_rep(ProjectiveRep(poset, ["b"]))
    m1 = sierpinski_rep(zero_group(), zmod(2), IntMatrix.zeros(1, 0))
    ext = split_two_extension(m1, m0)
    cls = yoneda_class(ext)
    assert cls.ambient.group.is_trivial()
    assert cls.is_zero()


def cyclic_extension(n, t):
    """A 2-extension of M0 = (Z/n -> 0) by M1 = (0 -> Z/n) over a < b.

    Q1 = (Z at b -> Z/n² at a) with arrow n·t, Q0 = (Z at b -> Z/n at a)
    with zero arrow.  Ext^2 = Ext^1_Z(Z/n, Z/n) = Z/n, and t = 1 hits a
    generator while t = 0 is the split class.
    """
    poset = sierpinski_poset()
    z = FgAbGroup.free(1)
    zn = zmod(n)
    zn2 = zmod(n * n)
    zero = zero_group()
    m0 = QuiverRep(poset, {"b": zn, "a": zero},
                   {("b", "a"): GroupMorphism(zn, zero, IntMatrix.zeros(0, 1))})
    m1 = QuiverRep(poset, {"b": zero, "a": zn},
                   {("b", "a"): GroupMorphism(zero, zn, IntMatrix.zeros(1, 0))})
    q1 = QuiverRep(poset, {"b": z, "a": zn2},
                   {("b", "a"): GroupMorphism(z, zn2, IntMatrix.from_rows([[n * t]]))})
    q0 = QuiverRep(poset, {"b": z, "a": zn},
                   {("b", "a"): GroupMorphism(z, zn, IntMatrix.from_rows([[0]]))})
    d2 = RepMorphism(m1, q1, {
        "b": GroupMorphism.zero(zero, z),
        "a": GroupMorphism(zn, zn2, IntMatrix.from_rows([[n]])),
    })
    d1 = RepMorphism(q1, q0, {
        "b": GroupMorphism(z, z, IntMatrix.from_rows([[n]])),
        "a": GroupMorphism(zn2, zn, IntMatrix.from_rows([[1]])),
    })
    eps = RepMorphism(q0, m0, {
        "b": GroupMorphism(z, zn, IntMatrix.from_rows([[1]])),
        "a": GroupMorphism.zero(z, zero),
    })
    ext = TwoExtension(m1, q1, q0, m0, d2, d1, eps)
    ext.verify_exact()
    return ext


def test_generator_extension_class():
    ext = cyclic_extension(2, 1)
    cls = yoneda_class(ext)
    assert cls.ambient.group.invariant_factors == [2]
    assert not cls.is_zero()
    split = cyclic_extension(2, 0)
    cls0 = yoneda_class(split, ambient=cls.ambient)
    assert cls0.is_zero()


def test_yoneda_lifts_commute(monkeypatch):
    # the lifts phi_0, phi_1, phi_2 of id_M0 along eps, d1 and d2, read
    # from the one comparison lift
    ext = cyclic_extension(2, 1)
    real, seen = quiver._lift, []

    def recorded(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(quiver, "_lift", recorded)
    cls = yoneda_class(ext)
    (phis,) = seen
    res = cls.ambient.resolution
    assert all(res.projective_at(k).num_gens for k in range(3))

    def failures(phis):
        def lift(k, c):
            return lambda x: ProjIntoRep(res.projective_at(k), c, phis[k]).point_morphism(x).matrix

        return _lift_failures(res, lambda x: res.aug.point_morphism(x).matrix,
                              [m.maps.__getitem__ for m in (ext.eps, ext.d1, ext.d2)],
                              [lift(k, c) for k, c in enumerate((ext.q0, ext.q1, ext.m1))])

    assert failures(phis) == []
    assert failures([phis[0], [[2 * a for a in u] for u in phis[1]], phis[2]])


def test_yoneda_class_independent_of_choices(monkeypatch):
    ext = cyclic_extension(2, 1)
    base = yoneda_class(ext)
    # randomized resolutions: transport the class and compare
    for seed in range(4):
        rng = random.Random(100 + seed)
        res2 = perturbed_resolution(base.ambient.resolution, rng)
        cls2 = yoneda_class(ext, ambient=ExtPosetGroup(ext.m0, ext.m1, 2, resolution=res2))
        assert cls2.provenance != base.provenance
        assert transport_class(cls2, base.ambient) == base.coords
    # one resolution, randomized lift choices: each lift moved by a random
    # kernel element of at(x); count the solves whose lifts move
    real, moved, rng = quiver._factor_at_points, [0], random.Random(6)

    def shifted(points, targets, at, what):
        lifts = real(points, targets, at, what)
        bases = [at(x).preimage_lattice_basis() for x in points]
        out = [[a + c for a, c in zip(u, b.apply([rng.randint(-2, 2) for _ in range(b.cols)]))]
               for u, b in zip(lifts, bases)]
        moved[0] += out != lifts
        return out

    monkeypatch.setattr(quiver, "_factor_at_points", shifted)
    for _ in range(6):
        moved[0] = 0
        other = yoneda_class(ext, ambient=base.ambient)
        assert moved[0] > 0
        assert other.provenance == base.provenance
        assert other.coords == base.coords


def test_yoneda_baer_sum_additivity(monkeypatch):
    ext = cyclic_extension(2, 1)
    # the pullback is one kernel and the pushout one cokernel
    calls = []
    for name in ("rep_kernel", "rep_cokernel"):
        real = getattr(quiver, name)
        monkeypatch.setattr(quiver, name,
                            lambda f, name=name, real=real: calls.append(name) or real(f))
    total = baer_sum(ext, ext)
    assert sorted(calls) == ["rep_cokernel", "rep_kernel"]
    total.verify_exact()
    cls = yoneda_class(total, ambient=yoneda_class(ext).ambient)
    # generator + generator = 0 in Z/2
    assert cls.is_zero()


@pytest.mark.parametrize("n", range(2, 7))
def test_yoneda_baer_sum_adds_cyclic_classes(n):
    # the n classes are distinct, so a sum that returned a summand or a
    # split extension would fail here
    exts = [cyclic_extension(n, t) for t in range(n)]
    ambient = yoneda_class(exts[1]).ambient
    classes = [yoneda_class(e, ambient=ambient).coords for e in exts]
    assert len(set(classes)) == n
    for t in range(n):
        for s in range(n):
            total = yoneda_class(baer_sum(exts[t], exts[s]), ambient=ambient)
            assert total.coords == classes[(t + s) % n], (t, s)


def test_exactness_error_naming_node():
    poset = sierpinski_poset()
    z2 = zmod(2)
    zero = zero_group()
    m = QuiverRep(poset, {"b": z2, "a": zero},
                  {("b", "a"): GroupMorphism(z2, zero, IntMatrix.zeros(0, 1))})
    bad = TwoExtension(m, m, m, m,
                       RepMorphism.identity(m), RepMorphism.identity(m),
                       RepMorphism.identity(m))
    with pytest.raises(ExactnessError):
        bad.verify_exact()


def point_extension(groups, maps):
    """0 -> M1 -> Q1 -> Q0 -> M0 -> 0 over the one-point poset, from its four
    groups and the matrices of its three maps."""
    poset = point_poset()
    reps = [QuiverRep(poset, {"*": g}, {}) for g in groups]
    mors = [RepMorphism(a, b, {"*": GroupMorphism(a.groups["*"], b.groups["*"],
                                                  IntMatrix.from_rows(m))})
            for a, b, m in zip(reps, reps[1:], maps)]
    return TwoExtension(*reps, *mors)


@pytest.mark.parametrize("groups, maps, message", [
    # d2 = 0 on Z is not injective
    ([FgAbGroup.free(1)] * 4, [[[0]], [[0]], [[1]]], "first map not injective"),
    # eps = 2 on Z is not surjective
    ([FgAbGroup.free(1)] * 4, [[[1]], [[0]], [[2]]], "last map not surjective"),
    # im(d2) = 2Z inside ker(d1) = Z
    ([FgAbGroup.free(1)] * 4, [[[2]], [[0]], [[1]]], "inner node Q1"),
    # 0 -> 0 -> Z --4--> Z -> Z/2: im(d1) = 4Z inside ker(eps) = 2Z
    ([zero_group(), FgAbGroup.free(1), FgAbGroup.free(1), zmod(2)],
     [[[]], [[4]], [[1]]], "inner node Q0"),
])
def test_verify_exact_names_each_node(groups, maps, message):
    with pytest.raises(ExactnessError, match=message):
        point_extension(groups, maps).verify_exact()


@pytest.mark.parametrize("tamper, message", [
    (lambda res: replace(res, aug=replace(res.aug, vectors=[[0] * len(v) for v in res.aug.vectors])),
     "augmentation is not surjective"),
    (lambda res: replace(res, diffs=[res.diffs[0].scaled(2), res.diffs[1]]), "not exact at P_0"),
    (lambda res: replace(res, diffs=[res.diffs[0], res.diffs[1].scaled(2)]), "not exact at P_1"),
    (lambda res: replace(res, projectives=res.projectives[:1], diffs=[]), "nonzero final syzygy at P_0"),
])
def test_verify_resolution_rejects_tampered_resolutions(tamper, message):
    v = sierpinski_rep(zmod(2), zero_group(), IntMatrix.zeros(0, 1))
    res = resolve_projective(v, 3)
    assert res.length == 2
    verify_resolution(res)
    with pytest.raises(ExactnessError, match=message):
        verify_resolution(tamper(res))


# --- compatibility and iso search ---------------------------------------------------


def test_ext2_compatible_identity():
    ext = cyclic_extension(2, 1)
    cls = yoneda_class(ext)
    f = RepMorphism.identity(ext.m0)
    g = RepMorphism.identity(ext.m1)
    assert ext2_compatible(f, cls, cls, g)


def test_ext2_compatible_zero_vs_nonzero():
    ext = cyclic_extension(2, 1)
    cls = yoneda_class(ext)
    zero_cls = Ext2Class(cls.ambient, cls.ambient.zero_class())
    f = RepMorphism.identity(ext.m0)
    g = RepMorphism.identity(ext.m1)
    assert not ext2_compatible(f, zero_cls, cls, g)
    assert ext2_compatible(f, zero_cls, zero_cls, g)


def test_mismatched_classes_are_value_errors():
    # over one poset a < b: V = (Z/2 -> 0), V4 = (Z/4 -> 0), W = (Z --2--> Z)
    # and W4 = (Z --4--> Z); Ext^2(V, W) = Ext^2(V4, W) = Ext^2(V, W4) = Z/2
    poset, z, zero = sierpinski_poset(), FgAbGroup.free(1), zero_group()

    def rep(vb, va, arrow):
        return QuiverRep(poset, {"b": vb, "a": va}, {("b", "a"): GroupMorphism(vb, va, arrow)})

    v, v4 = (rep(zmod(n), zero, IntMatrix.zeros(0, 1)) for n in (2, 4))
    w, w4 = (rep(z, z, IntMatrix.from_rows([[n]])) for n in (2, 4))
    c = {}
    for m0, m1 in ((v, w), (v4, w), (v, w4)):
        ambient = ext_poset(m0, m1, 2)
        assert ambient.group.invariant_factors == [2]
        c[m0, m1] = Ext2Class(ambient, (1,))
    ident = {m: RepMorphism.identity(m) for m in (v, v4, w, w4)}
    g = RepMorphism(w, w4, {"b": GroupMorphism(z, z, IntMatrix.from_rows([[1]])),
                            "a": GroupMorphism(z, z, IntMatrix.from_rows([[2]]))})
    for args, which, got, want in [
        ((ident[v4], c[v, w], c[v4, w], ident[w]), "M0 of c", v, v4),
        ((ident[v], c[v, w], c[v, w4], ident[w4]), "M1 of c", w, w4),
        ((ident[v], c[v, w], c[v4, w], ident[w]), "M0 of c'", v4, v),
        ((ident[v], c[v, w], c[v, w], g), "M1 of c'", w, w4),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"the {which}, {got!r}, does not match {want!r}")):
            ext2_compatible(*args)
    # a module built again, even over another poset object, in the same
    # coordinates is the same module
    again = sierpinski_rep(zmod(2), zero, IntMatrix.zeros(0, 1))
    assert ext2_compatible(RepMorphism.identity(again), c[v, w], c[v, w], ident[w])
    assert not ext2_compatible(ident[v], c[v, w], Ext2Class(c[v, w].ambient, (0,)), ident[w])

    # yoneda_class against a group over other modules
    ext = cyclic_extension(2, 1)
    m1_4 = sierpinski_rep(zero, zmod(4), IntMatrix.zeros(1, 0))
    for ambient, which, got, want in [
        (ext_poset(v4, ext.m1, 2), "M0", v4, ext.m0),
        (ext_poset(ext.m0, m1_4, 2), "M1", m1_4, ext.m1),
    ]:
        with pytest.raises(ValueError, match=re.escape(
                f"the {which} of the ambient group, {got!r}, does not match {want!r}")):
            yoneda_class(ext, ambient=ambient)
    assert yoneda_class(ext, ambient=ext_poset(v, ext.m1, 2)).coords == yoneda_class(ext).coords


def test_rep_iso_bounded_identity_and_mismatch():
    v = sierpinski_rep(zmod(4), zmod(2), IntMatrix.from_rows([[1]]))
    out = rep_iso_bounded_multi([v], [v])
    assert out.verdict == "yes"
    assert out.witness[0].is_iso()
    w = sierpinski_rep(zmod(4), zmod(4), IntMatrix.from_rows([[1]]))
    out = rep_iso_bounded_multi([v], [w])
    assert out.verdict == "no"


def test_rep_iso_bounded_sign_absorption():
    z = FgAbGroup.free(1)
    v = sierpinski_rep(z, z, IntMatrix.from_rows([[1]]))
    w = sierpinski_rep(z, z, IntMatrix.from_rows([[-1]]))
    out = rep_iso_bounded_multi([v], [w], bound=2)
    assert out.verdict == "yes"
    assert out.witness[0].is_iso()


def test_rep_iso_bounded_genuinely_different():
    z = FgAbGroup.free(1)
    v = sierpinski_rep(z, z, IntMatrix.from_rows([[1]]))
    w = sierpinski_rep(z, z, IntMatrix.from_rows([[2]]))
    out = rep_iso_bounded_multi([v], [w], bound=3, budget=5000)
    # x2 cannot be absorbed by units: provably no within the free regime is
    # impossible for the bounded search, so 'unknown' is also acceptable,
    # but it must never say yes
    assert out.verdict in ("no", "unknown")


def test_rep_iso_accept_predicate():
    # Z/5 -> Z/5 by the identity: the arrow-compatible families are the four
    # units u acting at both points
    v = sierpinski_rep(zmod(5), zmod(5), IntMatrix.from_rows([[1]]))
    seen = []

    def reject_first(family):
        seen.append(family)
        return len(seen) > 1

    out = rep_iso_bounded_multi([v], [v], accept=reject_first)
    assert out.verdict == "yes" and len(seen) == 2
    (f,) = out.witness
    assert f.is_iso() and f.equals(seen[1][0]) and not f.equals(seen[0][0])

    seen.clear()
    out = rep_iso_bounded_multi([v], [v], accept=lambda family: seen.append(family) or False)
    assert out.verdict == "no" and len(seen) == 4


def test_rep_iso_rejecting_accept_is_unknown_with_free_part():
    # automorphisms of Z are covered, but the bounded entries of a free
    # coordinate are no exhaustive search, so rejecting them all is no proof
    z = FgAbGroup.free(1)
    v = sierpinski_rep(z, z, IntMatrix.from_rows([[1]]))
    assert rep_iso_bounded_multi([v], [v], bound=2).verdict == "yes"
    assert rep_iso_bounded_multi([v], [v], bound=2, accept=lambda family: False).verdict == "unknown"


def test_iso_search_eliminates_nothing_per_candidate(monkeypatch):
    # the walk decides each candidate in closed form, so on
    # End((Z/2)^2 + (Z/4)^2), which has 2^20 elements, it eliminates as many
    # matrices at budget 20 as at budget 200
    eliminated = counter(monkeypatch, intlinalg, "_eliminate")
    counts = []
    for budget in (20, 200):
        g = _presented([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]])
        v = QuiverRep(point_poset(), {"*": g}, {})
        eliminated.clear()
        out = rep_iso_bounded_multi([v], [v], budget=budget, accept=lambda family: False)
        assert out.verdict == "unknown"
        counts.append(len(eliminated))
    assert counts[0] == counts[1] > 0


def _presented(relation_rows):
    rel = IntMatrix.from_rows(relation_rows)
    return FgAbGroup(rel.rows, rel)


# (group, |Aut|): Z/n has phi(n) automorphisms, (Z/2)^2 has |GL_2(F_2)| = 6
# and Z/2 + Z/4 has 8.  The presented groups are the same groups on other
# generators: Z^2 modulo (2, 0), (0, 3) is Z/6, and P diag(2, 4) Q with
# P = [[1, 1], [0, 1]], Q = [[1, 0], [1, 1]] presents Z/2 + Z/4.
AUT_COUNTS = (
    [(zmod(n), sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)) for n in range(1, 13)]
    + [
        (FgAbGroup.from_invariant_factors([2, 2]), 6),
        (FgAbGroup.from_invariant_factors([2, 4]), 8),
        (_presented([[2, 0], [0, 3]]), 2),
        (_presented([[6, 4], [4, 4]]), 8),
    ]
)


@pytest.mark.parametrize("group,count", AUT_COUNTS, ids=[g.describe() for g, _ in AUT_COUNTS])
def test_group_iso_candidates_count_automorphisms(group, count):
    # on a one-point diagram without arrows the engine's Hom group is
    # Hom(src, tgt); rejecting every family makes it enumerate the group
    # whole, so the verdict is no and accept saw each isomorphism once
    canonical = FgAbGroup.from_invariant_factors(group.invariant_factors)
    for src, tgt in [(group, group), (canonical, group), (group, canonical)]:
        isos = []
        out = iso_search([({0: (src, tgt)}, [])], bound=2, budget=10**4,
                         accept=lambda family: isos.append(family[0][0]) or False)
        assert out.verdict == "no"
        assert len(isos) == count
        assert all(GroupMorphism(src, tgt, f.matrix).is_iso() for f in isos)
        assert not any(f.equals(g) for i, f in enumerate(isos) for g in isos[:i])


def rep_diagram(v, w):
    """The diagram of groups whose Hom group is Hom(V, W): the point pairs
    (V_p, W_p) and the arrow maps of V and W along the Hasse arrows."""
    points = {p: (v.groups[p], w.groups[p]) for p in v.poset.points}
    arrows = [(y, x, v.arrow_map(y, x), w.arrow_map(y, x)) for y, x in v.poset.hasse_arrows]
    return points, arrows


def test_diagram_hom_matches_resolution_route():
    # Hom over the incidence algebra is Ext^0 of a projective resolution
    rng = random.Random(21)
    posets = [point_poset(), sierpinski_poset(), antichain_poset(2), chain_poset(3),
              chain_poset(4), diamond_poset()]
    free_parts = 0
    for poset in posets:
        for _ in range(5):
            v, w = random_rep(rng, poset), random_rep(rng, poset)
            free_parts += any(g.rank for g in list(v.groups.values()) + list(w.groups.values()))
            for a, b in ((v, w), (v, v)):
                hom = DiagramHom(*rep_diagram(a, b))
                assert hom.group.invariant_factors == ext_poset(a, b, 0).group.invariant_factors
                # the isomorphisms found are checked morphisms of representations
                for maps in hom.isomorphisms(bound=1, budget=50):
                    f = RepMorphism(a, b, {p: GroupMorphism(a.groups[p], b.groups[p], m.matrix)
                                           for p, m in maps.items()})
                    assert f.is_iso()
    assert free_parts


def test_cochain_of_wrong_shape_is_a_value_error():
    v = sierpinski_rep(zmod(4), zmod(2), IntMatrix.from_rows([[1]]))
    ext = ExtPosetGroup(v, v, 0)
    cochain = ext.cochain_of_class(ext.zero_class())
    with pytest.raises(ValueError, match="does not live in the group"):
        ext.class_of_cochain([vec + [0] for vec in cochain])
    # one entry per generator of P_n, no more and no fewer
    with pytest.raises(ValueError, match=f"expected {len(cochain)}, one per summand"):
        ext.class_of_cochain(cochain + [[5]])
    ext2 = ExtPosetGroup(v, v, 2)
    with pytest.raises(ValueError, match="0 parts given, expected 1"):
        ext2.class_of_cochain([])


def test_rep_direct_sum_maps():
    rng = random.Random(29)
    for poset in (sierpinski_poset(), chain_poset(3), diamond_poset()):
        for n in (1, 2, 3):
            reps = [random_rep(rng, poset) for _ in range(n)]
            total, injs, projs = quiver.rep_direct_sum(reps)
            ident = RepMorphism.identity(total)
            acc = RepMorphism.zero(total, total)
            for i, (r, inj, proj) in enumerate(zip(reps, injs, projs)):
                # checked morphisms of representations: they commute with the arrows
                assert inj.find_noncommuting_arrow() is None
                assert proj.find_noncommuting_arrow() is None
                for j, other in enumerate(injs):
                    want = RepMorphism.identity(r) if i == j else RepMorphism.zero(reps[j], r)
                    got = proj @ other
                    assert all(got.maps[p].matrix == want.maps[p].matrix for p in poset.points)
                acc = acc + inj @ proj
            assert all(acc.maps[p].matrix == ident.maps[p].matrix for p in poset.points)
