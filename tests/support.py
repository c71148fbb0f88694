"""Constructions that only the tests use, kept out of the package.

* `induced_map`: the map a morphism induces on Hom or Ext^1, by functor;
* `six_term_maps`: the maps of the six-term sequence behind `ext_r_fg`;
* `verify_bimodule_resolution`: the marked-path resolution of the
  incidence algebra of a unique path space, checked exact by integer
  linear algebra (an oracle for the UPS route);
* `perturbed_resolution`: a non-minimal resolution built from a given
  one, so that Ext groups and Yoneda classes can be checked independent
  of the resolution;
* `outcome_record` and `outcome_digest`: everything a benchmark
  operation's outcome carries, so that two versions of the code can be
  compared output for output.  Run as a script,

      python tests/support.py --workload ext-algebra --seed 1

  prints the digest of a workload's whole seed pool, every operation
  checked by bench/check.py.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORKLOADS = ("ext-algebra", "graph-pairs", "shift-eq")

if __name__ == "__main__":  # the package and bench/ of this checkout
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from obstruct.abelian import FgAbGroup, GroupMorphism, canonical_morphism, ext1_induced, ext1_z, hom_z
from obstruct.intlinalg import IntMatrix, kernel_basis, lattices_equal, matrix_rank, unvec, vec
from obstruct.posets import FinitePoset, is_unique_path_space
from obstruct.quiver import ExtPosetGroup, ProjectiveRep, ProjIntoRep, ProjResolution, RepMorphism


def _hom_induced(pre, post, hsrc, htgt):
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


def induced_map(f: GroupMorphism, functor: str, other: FgAbGroup) -> GroupMorphism:
    """Induced map on Hom/Ext^1 in canonical coordinates.

    functor: 'hom-covariant'      Hom(other, src) -> Hom(other, tgt)
             'hom-contravariant'  Hom(tgt, other) -> Hom(src, other)
             'ext1-covariant'     Ext^1(other, src) -> Ext^1(other, tgt)
             'ext1-contravariant' Ext^1(tgt, other) -> Ext^1(src, other)
    """
    if functor == "hom-covariant":
        return _hom_induced(None, f, hom_z(other, f.source), hom_z(other, f.target))
    if functor == "hom-contravariant":
        return _hom_induced(f, None, hom_z(f.target, other), hom_z(f.source, other))
    if functor == "ext1-covariant":
        return ext1_induced(None, f, ext1_z(other, f.source), ext1_z(other, f.target))
    if functor == "ext1-contravariant":
        return ext1_induced(f, None, ext1_z(f.target, other), ext1_z(f.source, other))
    raise ValueError(f"unknown functor {functor!r}")


def six_term_maps(t):
    """The maps of 0 -> Hom_R -> Hom_Z -> Hom_Z -> Ext^1_R -> Ext^1_Z ->
    Ext^1_Z -> Ext^2_R -> 0 between canonical groups, for an `ExtRTriple`."""
    n, m = t.v.group.ngens, t.w.group.ngens
    r = t.total.res.cols

    # connecting Hom_Z -> Ext^1_R: phi |-> class of (phi, 0) in H^1
    images = [t.ext1_r_data.coords(vec(b.matrix) + [0] * (r * m)) for b in t.hom_h.basis]
    conn = canonical_morphism(t.hom_h.group, t.ext1_r, images)

    # restriction Ext^1_R -> Ext^1_Z: class of (psi, chi) |-> class of chi
    ext_e = t.ext2.ext_e
    images = [ext_e.coords(unvec(amb[n * m:], m, r)) for amb in t.ext1_r_data.basis_reps]
    res = canonical_morphism(t.ext1_r, ext_e.group, images)

    # projection Ext^1_Z -> Ext^2_R
    ke = len(ext_e.group.invariant_factors)
    images = [t.ext2.coker.coords([1 if i == j else 0 for i in range(ke)]) for j in range(ke)]
    proj = canonical_morphism(ext_e.group, t.ext2.group, images)

    return {
        "hom_incl": t.hom_r_incl,
        "phi_h": t.phi_h,
        "connecting": conn,
        "restriction": res,
        "phi_e": t.ext2.phi,
        "projection": proj,
    }


def hasse_paths(x: FinitePoset):
    """All downward Hasse paths (as point tuples), including length zero."""
    paths = [(p,) for p in x.points]
    frontier = list(paths)
    while frontier:
        new = []
        for path in frontier:
            for child in x.hasse_children(path[-1]):
                new.append(path + (child,))
        paths.extend(new)
        frontier = new
    return paths


@dataclass
class BimoduleResolutionReport:
    poset_points: list
    algebra_rank: int
    middle_module_rank: int
    left_module_rank: int
    middle_map_rank: int
    left_map_rank: int
    exact: bool


def verify_bimodule_resolution(x: FinitePoset) -> BimoduleResolutionReport:
    """Materialize 0 -> (sum over arrows) -> (sum over points) -> Z[X] -> 0
    on marked-path bases and verify exactness by integer linear algebra.

    Basis of Z[X]: downward Hasse paths (for a unique path space these are
    the comparable pairs).  Middle: paths with one marked vertex.  Left:
    paths with two consecutive marked vertices.  The right map forgets the
    mark; the left map sends a doubly marked path to the difference of its
    two single markings.
    """
    ups, witness = is_unique_path_space(x)
    if not ups:
        raise ValueError(f"not a unique path space; two chains: {witness}")

    paths = hasse_paths(x)
    path_index = {p: i for i, p in enumerate(paths)}
    middle = [(p, l) for p in paths for l in range(len(p))]
    middle_index = {m: i for i, m in enumerate(middle)}
    left = [(p, l) for p in paths for l in range(len(p) - 1)]

    # right map: forget the marked position
    mu = IntMatrix.zeros(len(paths), len(middle))
    for j, (p, _l) in enumerate(middle):
        mu.data[path_index[p]][j] += 1

    # left map: doubly marked (l, l+1) |-> marked l minus marked l+1
    lam = IntMatrix.zeros(len(middle), len(left))
    for j, (p, l) in enumerate(left):
        lam.data[middle_index[(p, l)]][j] += 1
        lam.data[middle_index[(p, l + 1)]][j] -= 1

    # exactness: mu surjective onto Z^paths, ker(mu) = im(lam), lam injective
    surjective = lattices_equal(mu, IntMatrix.identity(len(paths)))
    middle_exact = lattices_equal(kernel_basis(mu), lam)
    injective = kernel_basis(lam).cols == 0
    return BimoduleResolutionReport(
        poset_points=list(x.points),
        algebra_rank=len(paths),
        middle_module_rank=len(middle),
        left_module_rank=len(left),
        middle_map_rank=matrix_rank(mu),
        left_map_rank=matrix_rank(lam),
        exact=surjective and middle_exact and injective,
    )


def perturbed_resolution(res: ProjResolution, rng) -> ProjResolution:
    """Another resolution of res.module, built from `res`.

    Twice, a contractible summand P(x) --id--> P(x) is added in
    degrees k + 1 and k (k past the last projective only when `res` is
    complete), and P_k is then changed by the automorphism sending the new
    generator e to e + sum c_g g over the generators g at points above x,
    the c_g random: d(P_{k+1}) is composed with it and d(P_k) with its
    inverse, so in degree 0 e maps to a random element of V(x).  Last, the
    generators of every degree are permuted at random.  The differentials
    and the augmentation vectors follow each step, so the result is exact
    again, and longer by one when a summand lands past the end.
    """
    v = res.module
    poset = v.poset
    points = [list(p.gen_points) for p in res.projectives]
    diffs = list(res.diffs)  # diffs[k]: coefficient matrix of P_{k+1} -> P_k
    aug = [list(u) for u in res.aug.vectors]
    for _ in range(2):
        k = rng.randrange(len(points) - (not res.complete))
        x = rng.choice(poset.points)
        if k + 1 == len(points):
            points.append([])
            diffs.append(IntMatrix.zeros(len(points[k]), 0))
        n = len(points[k])
        points[k].append(x)
        points[k + 1].append(x)
        diffs[k] = IntMatrix.block_diag([diffs[k], IntMatrix.identity(1)])
        if k + 1 < len(diffs):
            diffs[k + 1] = diffs[k + 1].vstack(IntMatrix.zeros(1, diffs[k + 1].cols))
        # the automorphism a of P_k, a(e) = e + sum c_g g, and a^-1(e) = e - sum c_g g
        a, a_inv = IntMatrix.identity(n + 1), IntMatrix.identity(n + 1)
        for g, p in enumerate(points[k][:n]):
            if poset.leq(x, p):
                c = rng.randint(-2, 2)
                a.data[g][n], a_inv.data[g][n] = c, -c
        diffs[k] = a @ diffs[k]
        if k:
            diffs[k - 1] = diffs[k - 1].hstack(IntMatrix.zeros(diffs[k - 1].rows, 1)) @ a_inv
        else:
            e = [0] * v.groups[x].ngens
            for g, u in enumerate(aug):
                c = a_inv.data[g][n]
                if c:
                    e = [s + c * t for s, t in zip(e, v.transport(points[0][g], x).matrix.apply(u))]
            aug.append(e)
    perms = [rng.sample(range(len(p)), len(p)) for p in points]
    points = [[p[i] for i in perm] for p, perm in zip(points, perms)]
    diffs = [d.submatrix(perms[k], perms[k + 1]) for k, d in enumerate(diffs)]
    projectives = [ProjectiveRep(poset, p) for p in points]
    return ProjResolution(v, projectives, ProjIntoRep(projectives[0], v, [aug[i] for i in perms[0]]),
                          diffs, res.complete)


# ---------------------------------------------------------------------------
# Outcome records of the benchmark's operations
# ---------------------------------------------------------------------------


def _maps(f):
    """The matrices of a witness: per point for a RepMorphism."""
    if isinstance(f, RepMorphism):
        return [[str(p), m.matrix.data] for p, m in f.maps.items()]
    return f.matrix.data


def outcome_record(out):
    """JSON data of everything an outcome carries:
    * a verdict (graph comparison, shift equivalence, pair_iso) with the
      layer, reason, lag and invariant it names, R and S, the poset
      isomorphism sigma and the witness matrices;
    * an Ext group over a poset with its invariant factors, relation matrix
      and one representative per canonical generator;
    * a lifting count as it is."""
    if isinstance(out, ExtPosetGroup):
        return {"factors": out.group.invariant_factors, "relations": out.group.relations.data,
                "basis": out.data.basis_reps}
    if not hasattr(out, "verdict"):
        return out
    record = {k: getattr(out, k) for k in ("verdict", "layer", "reason", "lag", "invariant")
              if hasattr(out, k)}
    for k in ("r", "s"):
        if getattr(out, k, None) is not None:
            record[k] = getattr(out, k).data
    if getattr(out, "poset_iso", None) is not None:
        record["sigma"] = [[str(p), str(q)] for p, q in out.poset_iso.items()]
    witness = getattr(out, "module_iso", None) or getattr(out, "witness", None)
    if witness is not None:
        record["witness"] = [_maps(f) for f in witness]
    return record


def outcome_digest(outcomes):
    """sha256 of the outcome records, in order."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(json.dumps(outcome_record(out)).encode())
    return h.hexdigest()


def pool_outcomes(workload, seed, limit=None):
    """(op, outcome) for the first `limit` operations (all when None) of a
    workload's seed pool, each checked by bench/check.py, which raises
    `CheckFailed` on a wrong outcome.  Needs bench/ on sys.path."""
    import workloads

    with open(os.path.join(BENCH, "spec.json")) as fh:
        params = json.load(fh)["workloads"][workload]
    for op in workloads.build_pool(workload, seed, params["strata"], params["bounds"])[:limit]:
        out = op.run()
        op.check(out)
        yield op, out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Digest of the outcome records of a workload's whole seed pool.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(outcome_digest(out for _, out in pool_outcomes(args.workload, args.seed)))
