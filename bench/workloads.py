"""The three workloads: seeded pools of closed-loop operations.

A pool is a fixed list of operations built from the seed and the workload's
parameters in spec.json.  Each operation calls one public entry point of
`obstruct` through its module attribute (so the tracer's wrappers apply),
with the search bounds passed explicitly, and names the checker that
validates its result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from obstruct import graphs, laurent, quiver, shifteq
from obstruct.abelian import FgAbGroup
from obstruct.intlinalg import IntMatrix

import check
import gen


@dataclass
class Op:
    stratum: str
    run: Callable[[], object]
    check: Callable[[object], None]
    decision: bool  # a tri-state verdict counted by decided_rate


def build_pool(workload, seed, strata, bounds):
    rng = random.Random(f"{workload}:{seed}")
    make_op = MAKE_OP[workload]
    ops = []
    for stratum in strata:
        for k in range(stratum["count"]):
            ops.append(make_op(rng, stratum, bounds, k))
    rng.shuffle(ops)
    return ops


def _cycled(k, lo_hi, stride=1):
    """The k-th value of a balanced sweep over the range [lo, hi]; sizes are
    spread evenly over a stratum, not drawn, so that pools of different
    seeds carry the same mix of sizes."""
    lo, hi = lo_hi
    return lo + (k // stride) % (hi - lo + 1)


# ---------------------------------------------------------------------------
# graph-pairs
# ---------------------------------------------------------------------------


def _composition(rng, n, parts):
    """Random block sizes: `parts` positive integers summing to n."""
    cuts = [0] + sorted(rng.sample(range(1, n), parts - 1)) + [n]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _stratum_graph(rng, s, k):
    """Plain blocks of random sizes plus `torsion_blocks` two-vertex torsion
    blocks (K0 = Z/2a + Z/2b), in a random topological order.  With
    `even_factors`, graphs are drawn until K0 has exactly that many even
    invariant factors: a third even factor (from a plain block) in a block
    joined to the torsion block makes the module search of a pair some 30
    times dearer, so the share of such pairs is fixed by the stratum counts
    (and `edge_prob`), not left to the seed."""
    if s.get("torsion_heavy"):
        return _torsion_heavy_graph(rng, s)
    nt = s.get("torsion_blocks", 0)
    n = _cycled(k, s["vertices"]) - 2 * nt
    nb = max(1, min(_cycled(k, s["blocks"], _sweep_len(s)) - nt, n))
    while True:
        sizes = (_composition(rng, n, nb) if n > 0 else []) + [2] * nt
        rng.shuffle(sizes)
        torsion = tuple(rng.sample([i for i, size in enumerate(sizes) if size == 2], nt))
        g = gen.block_graph(rng, sizes, torsion, s.get("edge_prob", 0.5))
        if "even_factors" not in s or _even_factors(g.adjacency) == s["even_factors"]:
            return g


def _k0_factors(a):
    """Invariant factors of K0 = coker(I - A^t) of an adjacency matrix."""
    return FgAbGroup(a.rows, IntMatrix.identity(a.rows) - a.transpose()).invariant_factors


def _even_factors(a):
    return sum(1 for d in _k0_factors(a) if d % 2 == 0)


def _sweep_len(s):
    lo, hi = s.get("vertices", (0, 0))
    return hi - lo + 1


def _torsion_heavy_graph(rng, s):
    """A torsion block whose K0 has `torsion_heavy` even factors, not all 2,
    ahead of small plain blocks (for example Z/2 + Z/2 + Z/2 + Z/4)."""
    k = s["torsion_heavy"]
    while True:
        sizes = [k] + [rng.randint(1, 2) for _ in range(rng.randint(*s["blocks"]) - 1)]
        g = gen.block_graph(rng, sizes, (0,))
        facs = _k0_factors(g.adjacency.submatrix(range(k), range(k)))
        if len(facs) == k and any(d != 2 for d in facs):
            return g


MOVES = {"relabel": gen.relabel, "out_split": gen.out_split, "in_split": gen.in_split}


def _graph_op(rng, s, bounds, k):
    move = s["move"]
    # every second independent partner has one block more or less, so its
    # ideal poset differs and the comparison stops at the poset layer
    k2 = k + _sweep_len(s) * (k % 2)
    while True:
        g = _stratum_graph(rng, s, k)
        h = _stratum_graph(rng, s, k2) if move == "independent" else MOVES[move](rng, g)
        if graphs.admissible(h).admissible:
            break
    bound, budget = bounds["bound"], bounds["budget"]
    if move == "in_split":
        # in-splitting preserves the invariant without the unit class
        run = lambda: graphs.compare_graph_invariants(g, h, bound=bound, budget=budget)
        unit = False
    else:
        run = lambda: graphs.unit_compare(g, h, bound=bound, budget=budget)
        unit = True
    preserved = move != "independent"
    return Op(s["name"], run, lambda out: check.graph_outcome(g, h, out, unit, preserved), True)


# ---------------------------------------------------------------------------
# shift-eq
# ---------------------------------------------------------------------------


def _shift_op(rng, s, bounds, k):
    kind, n, me = s["kind"], s["n"], s["max_entry"]
    if kind == "conjugate":
        a, b = gen.conjugate_pair(rng, n, me, s["steps"])
    elif kind == "same_charpoly":
        pair = None
        while pair is None:
            pair = gen.same_charpoly_pair(rng, n, me, s["draws"])
        a, b = pair
    else:
        a, b = gen.different_charpoly_pair(rng, n, me)
    run = lambda: shifteq.shift_equivalent(
        a, b, max_lag=bounds["max_lag"], max_entry=bounds["max_entry"], budget=bounds["budget"])
    return Op(s["name"], run, lambda out: check.shift_outcome(a, b, out, kind == "conjugate"), True)


# ---------------------------------------------------------------------------
# ext-algebra
# ---------------------------------------------------------------------------


def _ext_op(rng, s, bounds, k):
    kind = s["kind"]
    if kind == "ext_poset":
        poset = gen.random_poset(rng, _cycled(k, s["points"]), s["edge_prob"])
        v = gen.random_rep(rng, poset, s["summands"], s["max_factor"])
        w = gen.random_rep(rng, poset, s["summands"], s["max_factor"])
        n = s["degree"]
        return Op(s["name"], lambda: quiver.ext_poset(v, w, n),
                  lambda out: check.ext_outcome(v, w, n, out), False)
    if kind == "count_liftings":
        m = gen.random_graded_module(rng, s["gens"], s["max_factor"], ck_even=s["ck_even"])
        return Op(s["name"], lambda: laurent.count_liftings(m),
                  lambda out: check.liftings_outcome(m, out), False)
    # pair_iso: the same pair twice, the same module with a fresh class, or
    # two independent modules.  Finite groups keep the Hom_R enumeration
    # exhaustive; a free part makes it run to the budget and answer unknown.
    m1 = gen.random_graded_module(rng, s["gens"], s["max_factor"], free=False)
    p1 = _pair(rng, m1)
    if s["partner"] == "self":
        p2 = laurent.PairDelta(m1, p1.delta_eo, p1.delta_oe, blocks=p1.blocks)
    elif s["partner"] == "reclass":
        p2 = _pair(rng, m1, p1.blocks)
    else:
        p2 = _pair(rng, gen.random_graded_module(rng, s["gens"], s["max_factor"], free=False))
    bound, budget = bounds["bound"], bounds["budget"]
    return Op(s["name"], lambda: laurent.pair_iso(p1, p2, bound=bound, budget=budget),
              lambda out: check.pair_outcome(p1, p2, out, s["partner"] == "self"), True)


def _pair(rng, m, blocks=None):
    if blocks is None:
        blocks = (laurent.ext2_block(m.even, m.odd), laurent.ext2_block(m.odd, m.even))
    coords = [tuple(rng.randrange(d) if d else rng.randint(-2, 2)
                    for d in b.group.invariant_factors) for b in blocks]
    return laurent.PairDelta(m, coords[0], coords[1], blocks=blocks)


MAKE_OP = {"graph-pairs": _graph_op, "shift-eq": _shift_op, "ext-algebra": _ext_op}
