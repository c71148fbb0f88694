"""Finite posets (finite T0-spaces) and their integral incidence algebras.

Order convention: x <= y (written leq) iff y lies in the minimal open set of
x.  Hasse arrows point downward, y -> x when y covers x, and a chain from y
down to x witnesses y >= x.  A unique path space is a poset in which that
chain is unique for every comparable pair.

The incidence algebra Z[X] is free on the comparable pairs; for unique path
spaces it is the integral path algebra of the Hasse quiver, with an
explicit length-one projective bimodule resolution.
"""

from __future__ import annotations

from .intlinalg import ExactArithmeticError

__all__ = [
    "FinitePoset", "is_unique_path_space", "point_poset", "sierpinski_poset", "chain_poset",
    "antichain_poset", "diamond_poset",
]


class FinitePoset:
    """A finite partial order with precomputed Hasse arrows.

    Built either from the full relation or from cover pairs.  Points keep
    their given labels; iteration order is the given point order.
    """

    def __init__(self, points, leq_pairs):
        self.points = list(points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point labels")
        self.index = {p: i for i, p in enumerate(self.points)}
        n = len(self.points)
        rel = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = True
        for a, b in leq_pairs:
            try:
                rel[self.index[a]][self.index[b]] = True
            except KeyError as exc:
                raise ValueError(f"pair {(a, b)!r} names an unknown point {exc.args[0]!r}") from None
        # transitive closure
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    row_i, row_k = rel[i], rel[k]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(n):
            for j in range(n):
                if i != j and rel[i][j] and rel[j][i]:
                    raise ValueError(
                        f"not antisymmetric: {self.points[i]} and {self.points[j]}"
                    )
        self._leq = rel
        self._hasse = self._compute_hasse()

    def _compute_hasse(self):
        n = len(self.points)
        arrows = []
        for yi in range(n):
            for xi in range(n):
                if yi == xi or not self._leq[xi][yi]:
                    continue
                # y covers x iff no z strictly between
                if not any(
                    zi != xi and zi != yi and self._leq[xi][zi] and self._leq[zi][yi]
                    for zi in range(n)
                ):
                    arrows.append((self.points[yi], self.points[xi]))
        return arrows

    def leq(self, a, b):
        return self._leq[self.index[a]][self.index[b]]

    @property
    def hasse_arrows(self):
        """Arrows (y, x) with y covering x."""
        return list(self._hasse)

    def up_set(self, x):
        """Minimal open set of x: all y with x <= y."""
        return [p for p in self.points if self.leq(x, p)]

    def comparable_pairs(self):
        """All (y, x) with y > x."""
        return [
            (y, x)
            for y in self.points
            for x in self.points
            if y != x and self.leq(x, y)
        ]

    def hasse_children(self, y):
        return [x for (yy, x) in self._hasse if yy == y]

    def downward_chains(self, y, x, cap=None):
        """All Hasse chains y -> ... -> x, as point lists; cap limits count."""
        chains = []

        def walk(cur, path):
            if cap is not None and len(chains) >= cap:
                return
            if cur == x:
                chains.append(list(path))
                return
            for nxt in self.hasse_children(cur):
                if self.leq(x, nxt):
                    walk(nxt, path + [nxt])

        walk(y, [y])
        return chains

    def linear_extension(self):
        """Points ordered so that larger elements come first."""
        return sorted(self.points, key=lambda p: (len(self.up_set(p)), self.index[p]))

    def is_isomorphic_under(self, mapping, other):
        """Does the point bijection `mapping` carry this order onto `other`?"""
        for a in self.points:
            for b in self.points:
                if self.leq(a, b) != other.leq(mapping[a], mapping[b]):
                    return False
        return True

    def isomorphisms(self, other):
        """All order isomorphisms onto `other` (backtracking search)."""
        if len(self.points) != len(other.points):
            return []

        def profile(poset, p):
            ups = len(poset.up_set(p))
            downs = sum(1 for q in poset.points if poset.leq(q, p))
            return (ups, downs)

        mine = self.linear_extension()
        theirs_by_profile = {}
        for q in other.points:
            theirs_by_profile.setdefault(profile(other, q), []).append(q)
        out = []

        def extend(i, mapping, used):
            if i == len(mine):
                if self.is_isomorphic_under(mapping, other):
                    out.append(dict(mapping))
                return
            p = mine[i]
            for q in theirs_by_profile.get(profile(self, p), []):
                if q in used:
                    continue
                mapping[p] = q
                ok = all(
                    self.leq(p, r) == other.leq(q, mapping[r])
                    and self.leq(r, p) == other.leq(mapping[r], q)
                    for r in mine[:i]
                )
                if ok:
                    used.add(q)
                    extend(i + 1, mapping, used)
                    used.discard(q)
                del mapping[p]

        extend(0, {}, set())
        return out

    def __repr__(self):
        return f"FinitePoset({self.points}, arrows={self._hasse})"


def is_unique_path_space(x: FinitePoset):
    """(True, None) or (False, (two distinct chains for some pair))."""
    for y, z in x.comparable_pairs():
        chains = x.downward_chains(y, z, cap=2)
        if len(chains) > 1:
            return False, tuple(chains[:2])
        if len(chains) == 0:
            raise ExactArithmeticError("comparable pair without a Hasse chain")
    return True, None


# ---------------------------------------------------------------------------
# Standard small posets
# ---------------------------------------------------------------------------


def point_poset():
    return FinitePoset(["*"], [])


def sierpinski_poset():
    """Two comparable points a < b (one Hasse arrow b -> a)."""
    return FinitePoset(["a", "b"], [("a", "b")])


def chain_poset(n):
    pts = [f"c{i}" for i in range(n)]
    return FinitePoset(pts, [(pts[i], pts[i + 1]) for i in range(n - 1)])


def antichain_poset(n):
    return FinitePoset([f"a{i}" for i in range(n)], [])


def diamond_poset():
    """min < two incomparable middles < max."""
    return FinitePoset(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )

