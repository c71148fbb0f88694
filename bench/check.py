"""Exact checks of operation results; a failed check counts as an error.

Every check goes through public functions of `obstruct` and recomputes what
it needs from the operation's inputs, so a witness is never trusted because
the operation that produced it also built its context.
"""

from __future__ import annotations

from obstruct.abelian import GroupMorphism
from obstruct.graphs import unit_image_under, xk_invariant
from obstruct.laurent import RModuleFg, ext_r_resolution
from obstruct.posets import is_unique_path_space
from obstruct.quiver import (
    QuiverRep,
    RepMorphism,
    TwoExtension,
    ext2_compatible,
    ext_poset_ups_oracle,
    sierpinski_ext2,
    yoneda_class,
)
from obstruct.shifteq import verify_shift_equivalence


class CheckFailed(Exception):
    """An operation's output is wrong, or its witness does not verify."""


def _require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def _pull_rep(rep, sigma, poset):
    """The representation rep read over `poset` through sigma: poset -> rep.poset."""
    groups = {p: rep.groups[sigma[p]] for p in poset.points}
    arrows = {(y, x): rep.arrow_map(sigma[y], sigma[x]) for y, x in poset.hasse_arrows}
    return QuiverRep(poset, groups, arrows)


def _pull_sequence(seq, sigma, poset):
    m1, q1, q0, m0 = (_pull_rep(r, sigma, poset) for r in (seq.m1, seq.q1, seq.q0, seq.m0))

    def pull(mor, src, tgt):
        return RepMorphism(src, tgt, {p: mor.maps[sigma[p]] for p in poset.points})

    return TwoExtension(m1, q1, q0, m0, pull(seq.d2, m1, q1), pull(seq.d1, q1, q0),
                        pull(seq.eps, q0, m0))


def _rebuild(witness, source, target):
    """The witness's pointwise matrices as a morphism between fresh objects;
    raises CheckFailed if a map is ill-defined or an arrow does not commute."""
    try:
        maps = {p: GroupMorphism(source.groups[p], target.groups[p], witness.maps[p].matrix)
                for p in source.poset.points}
        return RepMorphism(source, target, maps)
    except ValueError as exc:
        raise CheckFailed(f"witness is not a morphism: {exc}") from exc


def graph_outcome(e1, e2, out, unit, preserved):
    """`preserved`: the pair was built by a move that preserves the invariant
    (with the unit class when `unit`), so `no` is wrong."""
    _require(out.verdict in ("yes", "no", "unknown"), f"verdict {out.verdict!r}")
    if out.verdict == "no":
        _require(not preserved, f"'no' ({out.layer}) on a pair built by an invariant-preserving move")
        return
    if out.verdict != "yes":
        return
    inv1, inv2 = xk_invariant(e1), xk_invariant(e2)
    sigma = out.poset_iso
    poset = inv1.ideals.poset
    _require(sorted(sigma) == sorted(poset.points)
             and poset.is_isomorphic_under(sigma, inv2.ideals.poset), "poset witness is not an isomorphism")
    seq2 = _pull_sequence(inv2.sequence, sigma, poset)
    f0w, f1w = out.module_iso
    f0 = _rebuild(f0w, inv1.xk0, seq2.m0)
    f1 = _rebuild(f1w, inv1.xk1, seq2.m1)
    _require(f0.is_iso() and f1.is_iso(), "module witness is not pointwise invertible")
    _require(ext2_compatible(f0, inv1.delta, yoneda_class(seq2), f1),
             "module witness does not carry delta to delta")
    if unit:
        _require(unit_image_under((f0, f1), inv1, inv2, sigma) == inv2.unit,
                 "module witness does not preserve the unit class")


# ---------------------------------------------------------------------------
# shift equivalence
# ---------------------------------------------------------------------------


def shift_outcome(a, b, out, preserved):
    _require(out.verdict in ("yes", "no", "unknown"), f"verdict {out.verdict!r}")
    if out.verdict == "yes":
        _require(verify_shift_equivalence(a, b, out.r, out.s, out.lag),
                 "witness (R, S, lag) fails verify_shift_equivalence")
    elif out.verdict == "no":
        _require(not preserved, f"'no' on a conjugate pair ({out.invariant})")


# ---------------------------------------------------------------------------
# Ext over posets and over Z[x, 1/x]
# ---------------------------------------------------------------------------


def ext_outcome(v, w, n, out):
    got = out.group.invariant_factors
    poset = v.poset
    if is_unique_path_space(poset)[0]:
        want = ext_poset_ups_oracle(v, w)[n].invariant_factors
        _require(got == want, f"Ext^{n} = {got}, UPS oracle gives {want}")
    if n == 2 and len(poset.points) == 2 and poset.hasse_arrows:
        (y, x), = poset.hasse_arrows
        want = sierpinski_ext2(v.arrow_map(y, x), w.arrow_map(y, x)).invariant_factors
        _require(got == want, f"Ext^2 = {got}, Sierpinski oracle gives {want}")


def liftings_outcome(m, out):
    """Cross-check against the explicit length-two resolution when both
    parts are fg over Z (no oracle exists for a presented even part)."""
    if not (isinstance(m.even, RModuleFg) and isinstance(m.odd, RModuleFg)):
        _require(out is None or out >= 1, f"count {out!r}")
        return
    want = 1
    for p, q in ((m.even, m.odd), (m.odd, m.even)):
        order = ext_r_resolution(p, q)[2].order()
        if order is None:
            want = None
            break
        want *= order
    _require(out == want, f"count_liftings = {out}, resolution route gives {want}")


def _r_iso(f, src, tgt):
    return f.is_iso() and (f @ src.x).equals(tgt.x @ f)


def pair_outcome(p1, p2, out, preserved):
    _require(out.verdict in ("yes", "no", "unknown"), f"verdict {out.verdict!r}")
    if out.verdict == "yes":
        fe, fo = out.witness
        m1, m2 = p1.module, p2.module
        _require(_r_iso(fe, m1.even, m2.even) and _r_iso(fo, m1.odd, m2.odd),
                 "pair witness components are not R-linear isomorphisms")
    elif out.verdict == "no":
        _require(not preserved, "'no' on a pair compared with itself")
