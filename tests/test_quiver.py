import random
from dataclasses import replace
from math import gcd

import pytest

from obstruct import quiver
from obstruct.abelian import (
    DiagramHom,
    FgAbGroup,
    GroupMorphism,
    IllDefinedMorphism,
    iso_groups,
    iso_search,
)
from obstruct.intlinalg import IntMatrix
from obstruct.posets import (
    antichain_poset,
    chain_poset,
    diamond_poset,
    point_poset,
    sierpinski_poset,
)
from obstruct.quiver import (
    ExactnessError,
    Ext2Class,
    ExtPosetGroup,
    ProjectiveRep,
    QuiverRep,
    RepMorphism,
    TwoExtension,
    baer_sum,
    chain_lift,
    ext2_compatible,
    ext_poset,
    ext_poset_all_degrees,
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

from test_abelian import random_group, random_morphism
from test_intlinalg import counted_eliminations


def sierpinski_rep(vb, va, arrow_matrix):
    """Representation over a < b with map V_b -> V_a."""
    poset = sierpinski_poset()
    groups = {"a": va, "b": vb}
    arrows = {("b", "a"): GroupMorphism(vb, va, arrow_matrix)}
    return QuiverRep(poset, groups, arrows)


def zmod(d):
    return FgAbGroup.cyclic(d)


def zero_group():
    return FgAbGroup.trivial()


# --- representations -----------------------------------------------------------


def test_quiver_rep_validation():
    poset = sierpinski_poset()
    with pytest.raises(ValueError):
        QuiverRep(poset, {"a": zmod(2)}, {})


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
    rep = p.as_rep()
    cover, phi = minimal_cover(rep)
    assert cover.gen_points == ["b"]
    res = resolve_projective(rep, 3)
    assert res.complete
    assert res.length == 0


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
    rng = random.Random(11)
    v = sierpinski_rep(zmod(4), zmod(2), IntMatrix.from_rows([[1]]))
    for seed in range(5):
        res = resolve_projective(v, 3, rng=random.Random(seed))
        verify_resolution(res)


def test_ext_window_matches_all_degrees():
    # Ext^n builds the Hom complex in degrees n - 1, n and n + 1 only; the
    # group must be presented exactly as in the complex of all degrees
    rng = random.Random(5)
    for poset in (sierpinski_poset(), chain_poset(3), diamond_poset()):
        for _ in range(4):
            v, w = random_rep(rng, poset), random_rep(rng, poset)
            for a, b in ((v, w), (v, v)):
                groups = ext_poset_all_degrees(a, b)
                for n in range(3):
                    got = ext_poset(a, b, n)
                    assert got.complex.low == max(n - 1, 0)
                    assert (got.group.ngens, got.group.relations.data) == \
                        (groups[n].ngens, groups[n].relations.data)
    # Ext^2's window starts at degree 1, so it holds no H^1
    with pytest.raises(ValueError, match="below the window"):
        ext_poset(v, w, 2).complex.cohomology_at(1)


# --- chain lifts -------------------------------------------------------------------


def _chain_lift_failures(f, res_s, res_t, lifts):
    """(degree, point) of every square where the lift fails to commute:
    aug' L_0 = f aug modulo the relations of f's target in degree 0, and
    d'_k L_k = L_{k-1} d_k in degree k."""

    def at(coeffs, src, i, tgt, j, x):
        return src.projective_at(i).point_matrix_of_coeffs(coeffs, tgt.projective_at(j), x)

    failures = []
    for x in f.source.poset.points:
        l0 = at(lifts[0], res_s, 0, res_t, 0, x)
        gap = res_t.aug.point_matrix(x) @ l0 - f.maps[x].matrix @ res_s.aug.point_matrix(x)
        if not all(f.target.groups[x].contains_relation(c) for c in gap.columns()):
            failures.append((0, x))
        for k in range(1, len(lifts)):
            d_s = at(res_s.diff_coeffs(k), res_s, k, res_s, k - 1, x)
            d_t = at(res_t.diff_coeffs(k), res_t, k, res_t, k - 1, x)
            l_k = at(lifts[k], res_s, k, res_t, k, x)
            l_prev = at(lifts[k - 1], res_s, k - 1, res_t, k - 1, x)
            if d_t @ l_k != l_prev @ d_s:
                failures.append((k, x))
    return failures


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
    for seed, v in enumerate(reps):
        # f = 3 * id, a module map that is not the identity
        f = RepMorphism(v, v, {x: GroupMorphism(g, g, IntMatrix.identity(g.ngens).scaled(3))
                               for x, g in v.groups.items()})
        res_s = resolve_projective(v, 3)
        res_t = resolve_projective(v, 3, rng=random.Random(seed))
        assert res_s.diffs and res_s.fingerprint() != res_t.fingerprint()
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
        ok, _ = iso_groups(e2, oracle)
        assert ok, (e2.describe(), oracle.describe())


def test_ups_oracle_agreement():
    rng = random.Random(12)
    for poset in [sierpinski_poset(), chain_poset(3)]:
        for _ in range(4):
            v = random_rep(rng, poset)
            w = random_rep(rng, poset)
            syz = [ext_poset(v, w, n).group for n in range(3)]
            orc = ext_poset_ups_oracle(v, w)
            for g1, g2 in zip(syz, orc):
                assert iso_groups(g1, g2)[0]


def test_ext3_vanishes_on_ups():
    rng = random.Random(13)
    for poset in [sierpinski_poset(), chain_poset(3)]:
        v = random_rep(rng, poset)
        w = random_rep(rng, poset)
        degrees = ext_poset_all_degrees(v, w)
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
    m0 = ProjectiveRep(poset, ["b"]).as_rep()
    m1 = sierpinski_rep(zero_group(), zmod(2), IntMatrix.zeros(1, 0))
    ext = split_two_extension(m1, m0)
    cls = yoneda_class(ext)
    assert cls.ambient.group.is_trivial()
    assert cls.is_zero()


def generator_extension(twist=True):
    """A 2-extension of M0 = (Z/2 -> 0) by M1 = (0 -> Z/2) over a < b.

    Q1 = (Z at b -> Z/4 at a), Q0 = (Z at b -> Z/2 at a) with zero Q0-arrow;
    the Q1 arrow is multiplication by 2 when twist=True (hitting the
    generator of Ext^2 = Z/2) and zero when twist=False (split class).
    """
    poset = sierpinski_poset()
    z = FgAbGroup.free(1)
    z2 = zmod(2)
    z4 = zmod(4)
    zero = zero_group()
    m0 = QuiverRep(poset, {"b": z2, "a": zero},
                   {("b", "a"): GroupMorphism(z2, zero, IntMatrix.zeros(0, 1))})
    m1 = QuiverRep(poset, {"b": zero, "a": z2},
                   {("b", "a"): GroupMorphism(zero, z2, IntMatrix.zeros(1, 0))})
    q1_arrow = IntMatrix.from_rows([[2 if twist else 0]])
    q1 = QuiverRep(poset, {"b": z, "a": z4},
                   {("b", "a"): GroupMorphism(z, z4, q1_arrow)})
    q0 = QuiverRep(poset, {"b": z, "a": z2},
                   {("b", "a"): GroupMorphism(z, z2, IntMatrix.from_rows([[0]]))})
    d2 = RepMorphism(m1, q1, {
        "b": GroupMorphism.zero(zero, z),
        "a": GroupMorphism(z2, z4, IntMatrix.from_rows([[2]])),
    })
    d1 = RepMorphism(q1, q0, {
        "b": GroupMorphism(z, z, IntMatrix.from_rows([[2]])),
        "a": GroupMorphism(z4, z2, IntMatrix.from_rows([[1]])),
    })
    eps = RepMorphism(q0, m0, {
        "b": GroupMorphism(z, z2, IntMatrix.from_rows([[1]])),
        "a": GroupMorphism.zero(z, zero),
    })
    ext = TwoExtension(m1, q1, q0, m0, d2, d1, eps)
    ext.verify_exact()
    return ext


def test_generator_extension_class():
    ext = generator_extension(twist=True)
    cls = yoneda_class(ext)
    assert cls.ambient.group.invariant_factors == [2]
    assert not cls.is_zero()
    split = generator_extension(twist=False)
    cls0 = yoneda_class(split, ambient=cls.ambient)
    assert cls0.is_zero()


def test_yoneda_class_independent_of_choices(monkeypatch):
    ext = generator_extension(twist=True)
    base = yoneda_class(ext)
    # one resolution, randomized lift choices: count the lifts that move
    real, moved = quiver._shifted, [0]

    def shifted(lifts, *args):
        out = real(lifts, *args)
        moved[0] += out != lifts
        return out

    monkeypatch.setattr(quiver, "_shifted", shifted)
    for seed in range(6):
        moved[0] = 0
        other = yoneda_class(ext, ambient=base.ambient, rng=random.Random(seed))
        assert moved[0] > 0
        assert other.provenance == base.provenance
        assert other.coords == base.coords
    # randomized resolutions: transport the class and compare
    for seed in range(4):
        rng = random.Random(100 + seed)
        ambient2 = ExtPosetGroup(ext.m0, ext.m1, 2, rng=rng)
        cls2 = yoneda_class(ext, ambient=ambient2)
        transported = transport_class(cls2, base.ambient)
        assert transported == base.coords


def test_yoneda_baer_sum_additivity():
    ext = generator_extension(twist=True)
    total = baer_sum(ext, ext)
    total.verify_exact()
    cls = yoneda_class(total, ambient=yoneda_class(ext).ambient)
    # generator + generator = 0 in Z/2
    assert cls.is_zero()


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
    ext = generator_extension(twist=True)
    cls = yoneda_class(ext)
    f = RepMorphism.identity(ext.m0)
    g = RepMorphism.identity(ext.m1)
    assert ext2_compatible(f, cls, cls, g)


def test_ext2_compatible_zero_vs_nonzero():
    ext = generator_extension(twist=True)
    cls = yoneda_class(ext)
    zero_cls = Ext2Class(cls.ambient, cls.ambient.zero_class())
    f = RepMorphism.identity(ext.m0)
    g = RepMorphism.identity(ext.m1)
    assert not ext2_compatible(f, zero_cls, cls, g)
    assert ext2_compatible(f, zero_cls, zero_cls, g)


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


def test_iso_search_runs_outside_every_shared_elimination_scope(monkeypatch):
    # every candidate of the walk is a new matrix, so a memo of eliminations
    # would only grow there: End((Z/2)^2 + (Z/4)^2) has 2^20 elements
    g = _presented([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]])
    v = QuiverRep(point_poset(), {"*": g}, {})
    scoped = counted_eliminations(monkeypatch)
    out = rep_iso_bounded_multi([v], [v], budget=200, accept=lambda family: False)
    assert out.verdict == "unknown"
    assert scoped and not any(scoped)


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
