"""Shift equivalence of square non-negative integer matrices over Z.

A lag-l shift equivalence (R, S) satisfies R A = B R, S B = A S, R S = B^l
and S R = A^l.  The decision procedure is tri-state:

  yes      a witness (R, S, lag) verified by exact multiplication;
  no       a named invariant of the associated gauge modules differs;
  unknown  the bounded search space is exhausted.

The witness search runs over the intertwiners R A = B R.  Their lattice has
a Z-basis R_1..R_q (an integer kernel, hence saturated), and candidates R
are its integer combinations by increasing L1 norm of the coefficients, up
to a budget.  The S side is parametrized the same way, once per call: every
integer S with S B = A S is an integer combination of a basis S_1..S_p of
that saturated lattice.  So for each candidate R the remaining equations
R S = B^l and S R = A^l are linear in the p coefficients, with one system
matrix [vec(R S_k); vec(S_k R)] for all lags; one Smith normal form of it
decides every lag l by an exact solve.

That elimination runs only for candidates that pass a determinant test.
When A is nonsingular and of the size of B, every witness has
det R != 0 and det R | det(A)^max_lag, since det S * det R = det(A)^l and
l <= max_lag.  A candidate that fails the test cannot verify, so the first
verifying R, its S and its lag are the same as without the test.

In that case the S side needs no Smith normal form.  A surviving R is
nonsingular, so S = R^-1 B^l is the only rational solution of R S = B^l,
and it is a witness: R A = B R gives A = R^-1 B R, hence
S R = R^-1 B^l R = A^l and S B = R^-1 B^(l+1) = A S.  So a lag-l witness
with this R exists iff det R divides every entry of adj(R) B^l, and the
quotient is the S the lattice solve would return.  adj(R) is built once per candidate and the
powers B^l once per call; the basis S_1..S_p and the lattice solve serve
only singular A and unequal sizes.

The search is staged around the invariant battery below.  A pair with a
verified witness is shift equivalent, so no invariant can separate it;
a pair the battery separates has no witness.  So the first _SHORT_SEARCH
candidates are tried before the battery and the rest after it, resuming
the same enumeration where it stopped: every verdict, R, S, lag and
invariant is that of battery first and search second, and the battery
runs only on the pairs that the short search does not settle.  When the
budget ends inside the short search, the battery still runs before the
answer is unknown.

The cut of 32 is measured.  On the shift-eq benchmark pools of seeds 1, 2,
3 and 7, 446 of the 904 yes pairs that search verify at the first
coefficient vector, 872 within 32 and all within 63.  With
`bench/run.py --workload shift-eq --seed 1 --seconds 10`, three runs per
cut on a 2-vCPU VM, ops/s were 946-988 with a cut of 8, 1,006-1,033 with
16, 975-1,060 with 32 and 950-975 with 64, and p90 latency 2.02-2.15,
1.90-1.98, 1.44-1.54 and 1.67-1.72 ms; with the battery first, about 590
ops/s.  A larger cut makes the same-charpoly "no" pairs pay for more
candidates before the battery separates them.

The "no" invariants are genuine invariants of the module coker(x*I - A^t):
the characteristic polynomial away from zero, and for each battery
polynomial p = x - k the colimit of coker(p(A^t)) along the shift, compared
through its eventual torsion and its eventual rational rank.  Comparing raw
invariant factors of p(A^t) would not be sound for p with non-unit constant
term, so the stabilized form is used throughout.  The battery tests every
x - k with k != 0 in the order of battery(), |k| increasing and k before
-k, and names the first entry that separates the pair.

The colimit has a closed form.  On C = coker(A^t - kI) the shift A^t acts
as multiplication by k, so colim(C, A^t) = C tensor Z[1/k], which is 0 when
k = 0.  Hence its torsion is given by the invariant factors d not in {0, 1}
of A - kI, each with every prime factor of k divided out (those that become
1 are dropped), and its rational rank is n - rank(A - kI) for k != 0 and 0
for k = 0.  Both come from the diagonal of one Smith normal form.  The
general route for any p (torsion subgroup, restricted shift, eventual image,
ranks) is kept as the reference the tests compare against.

The characteristic polynomial itself is no battery entry: once the
characteristic polynomials x^a q and x^b q (q(0) != 0) agree away from zero,
x is invertible on each gauge module M and q(x) kills it, so for p either
characteristic polynomial the colimit of coker(p(A^t)) is M itself,
torsion-free of rational rank deg q on both sides; it never separates a pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

from .abelian import FgAbGroup, GroupMorphism, eventual_image, torsion_subgroup
from .intlinalg import (
    ExactArithmeticError,
    IntMatrix,
    adjugate,
    charpoly,
    determinant,
    factor_through,
    kernel_basis,
    matrix_power,
    matrix_rank,
    poly_eval_matrix,
    smith_normal_form,
    solve,
    unvec,
    vec,
)
from .laurent import validate_ck_matrix


@dataclass
class ShiftEqResult:
    verdict: str  # 'yes' | 'no' | 'unknown'
    r: IntMatrix = None
    s: IntMatrix = None
    lag: int = 0
    invariant: str = ""

    def witness_for_swapped(self):
        """yes(R, S, l) for (A, B) certifies (B, A) with the roles swapped."""
        if self.verdict != "yes":
            raise ValueError("no witness to swap")
        return ShiftEqResult("yes", r=self.s, s=self.r, lag=self.lag)


def verify_shift_equivalence(a, b, r, s, lag):
    return (
        r @ a == b @ r
        and s @ b == a @ s
        and r @ s == matrix_power(b, lag)
        and s @ r == matrix_power(a, lag)
    )


def charpoly_away_from_zero(a: IntMatrix):
    """Coefficients of det(xI - A) with all factors of x divided out."""
    coeffs = charpoly(a)
    first = next((i for i, c in enumerate(coeffs) if c != 0), len(coeffs) - 1)
    return coeffs[first:]


def _eventual_invariant(a: IntMatrix, k):
    """(eventual torsion invariant factors, eventual rank) of
    colim(coker p(A^t), A^t) for p = x - k, an isomorphism invariant of the
    gauge module, in closed form (module docstring)."""
    if k == 0:
        return [], 0
    diag = smith_normal_form(a - IntMatrix.identity(a.rows).scaled(k)).diag
    torsion = []
    for d in diag:
        if d > 1:
            d = _prime_to(d, k)
            if d != 1:
                torsion.append(d)
    return torsion, diag.count(0)


def _prime_to(d, k):
    """d with every prime factor of k divided out."""
    g = gcd(d, k)
    while g != 1:
        d //= g
        g = gcd(d, g)
    return d


def _eventual_invariant_general(a: IntMatrix, poly):
    """The invariant of _eventual_invariant for any polynomial p, through
    the torsion subgroup of coker p(A^t), the shift restricted to it and its
    eventual image; the reference route the tests check the closed form
    against."""
    at = a.transpose()
    pa = poly_eval_matrix(poly, at)
    n = a.rows
    c = FgAbGroup(n, pa)
    shift = GroupMorphism(c, c, at)  # A^t commutes with p(A^t)
    tors, embed = torsion_subgroup(c)
    # restrict the shift to the torsion subgroup
    mat = factor_through(embed.matrix, shift.matrix @ embed.matrix, c.relations)
    if mat is None:
        raise ExactArithmeticError("shift must preserve torsion")
    shift_t = GroupMorphism(tors, tors, mat)
    ev, _, _ = eventual_image(shift_t)
    # eventual rational rank: rank of shift^dim on C tensor Q
    dim = n - matrix_rank(pa)
    power = matrix_power(at, max(dim, 1))
    rk = matrix_rank(power.hstack(pa)) - matrix_rank(pa)
    return ev.invariant_factors, rk


def battery(kmax=8):
    """Named battery of polynomials p = x - k for the gauge-module
    invariants, as (name, k) with |k| <= kmax."""
    ks = sorted(range(-kmax, kmax + 1), key=lambda k: (abs(k), k < 0))
    return [(f"x - {k}" if k >= 0 else f"x + {-k}", k) for k in ks]


_CHARPOLY_INVARIANT = "characteristic polynomial away from zero"


def distinguishing_invariant(a: IntMatrix, b: IntMatrix, kmax=8):
    """Name of an invariant separating the two gauge modules, or None."""
    if charpoly_away_from_zero(a) != charpoly_away_from_zero(b):
        return _CHARPOLY_INVARIANT
    return _battery_invariant(a, b, kmax)


def _battery_invariant(a, b, kmax):
    """The first battery entry x - k separating A from B, given their
    characteristic polynomials agree away from zero.  k = 0 is passed over:
    both colimits are 0 there."""
    for name, k in battery(kmax):
        if k and _eventual_invariant(a, k) != _eventual_invariant(b, k):
            return f"colimit of coker(p(A^t)) for p = {name}"
    return None


def _intertwiner_basis(a: IntMatrix, b: IntMatrix):
    """Basis of {R : R A = B R} as matrices (B side is m x m, A side n x n)."""
    n, m = a.rows, b.rows
    op = a.transpose().kron(IntMatrix.identity(m)) - IntMatrix.identity(n).kron(b)
    kb = kernel_basis(op)
    return [unvec(kb.column(j), m, n) for j in range(kb.cols)]


def _solve_for_s(r, s_basis, targets):
    """Yield (lag, S or None) for lag = 1, 2, ...: an integer S with
    S B = A S, R S = B^lag and S R = A^lag, or None if there is none.

    s_basis is a Z-basis S_1..S_p of {S : S B = A S}; targets[lag - 1] is
    vec(B^lag) followed by vec(A^lag).  S = sum c_k S_k, and the c solve one
    system [vec(R S_k); vec(S_k R)] whose Smith normal form serves every lag.
    """
    m, n = r.rows, r.cols
    system = IntMatrix.from_columns(
        [vec(r @ sk) + vec(sk @ r) for sk in s_basis], rows=m * m + n * n)
    snf = smith_normal_form(system)
    for lag, rhs in enumerate(targets, start=1):
        c = solve(system, rhs, snf=snf)
        yield lag, None if c is None else _combination(c, s_basis, n, m)


def _solve_by_adjugate(r, det_r, b_powers):
    """_solve_for_s for a nonsingular square R: S = adj(R) B^lag / det R
    when det R divides every entry, else None (module docstring).
    b_powers[lag - 1] is B^lag."""
    adj = adjugate(r)
    for lag, power in enumerate(b_powers, start=1):
        t = adj @ power
        if any(e % det_r for row in t.data for e in row):
            yield lag, None
        else:
            yield lag, IntMatrix(t.rows, t.cols, [[e // det_r for e in row] for row in t.data])


def _combination(coeffs, basis, rows, cols):
    """sum c_k * basis_k as a rows x cols matrix."""
    out = IntMatrix.zeros(rows, cols)
    for c, mat in zip(coeffs, basis):
        if c:
            out = out + mat.scaled(c)
    return out


def _l1_sphere(count, weight, cap):
    """Vectors in Z^count of L1 norm `weight` with entries bounded by cap."""

    def rec(i, remaining):
        if i == count - 1:
            if remaining > cap:
                return
            if remaining == 0:
                yield [0]
            else:
                yield [remaining]
                yield [-remaining]
            return
        for take in range(min(remaining, cap) + 1):
            for rest in rec(i + 1, remaining - take):
                if take == 0:
                    yield [0] + rest
                else:
                    yield [take] + rest
                    yield [-take] + rest

    yield from rec(0, weight)


def _coefficient_vectors(count, bound, budget):
    """Nonzero integer coefficient vectors by increasing L1 norm, capped."""
    emitted = 0
    for weight in range(1, bound * count + 1):
        for vec in _l1_sphere(count, weight, bound):
            yield vec
            emitted += 1
            if emitted >= budget:
                return


# candidates tried before the battery; the cut's basis is in the module docstring
_SHORT_SEARCH = 32


def shift_equivalent(a: IntMatrix, b: IntMatrix, max_lag=6, max_entry=8, budget=2000) -> ShiftEqResult:
    """Bounded shift-equivalence decision, tri-state."""
    validate_ck_matrix(a, "A")
    validate_ck_matrix(b, "B")

    if a == b:
        r = IntMatrix.identity(a.rows)
        res = ShiftEqResult("yes", r=r, s=a.copy(), lag=1)
        if not verify_shift_equivalence(a, b, res.r, res.s, res.lag):
            raise ExactArithmeticError("(I, A, 1) must be a shift equivalence of A with itself")
        return res

    if charpoly_away_from_zero(a) != charpoly_away_from_zero(b):
        return ShiftEqResult("no", invariant=_CHARPOLY_INVARIANT)

    n, m = a.rows, b.rows
    r_basis = _intertwiner_basis(a, b)  # R A = B R, R is m x n
    # det R | det(A)^max_lag for every witness R (module docstring)
    det_a = determinant(a) if n == m else 0
    det_bound = det_a ** max_lag
    if det_a:
        b_powers = [b]
        for _ in range(max_lag - 1):
            b_powers.append(b_powers[-1] @ b)
    else:
        s_basis = _intertwiner_basis(b, a)  # S B = A S, S is n x m
        targets, pa, pb = [], IntMatrix.identity(n), IntMatrix.identity(m)
        for _ in range(max_lag):
            pa, pb = pa @ a, pb @ b
            targets.append(vec(pb) + vec(pa))

    def first_witness(coefficient_vectors):
        for coeffs in coefficient_vectors:
            r = _combination(coeffs, r_basis, m, n)
            if det_a:
                det_r = determinant(r)
                if det_r == 0 or det_bound % det_r:
                    continue
                solutions = _solve_by_adjugate(r, det_r, b_powers)
            else:
                solutions = _solve_for_s(r, s_basis, targets)
            for lag, s in solutions:
                if s is not None and verify_shift_equivalence(a, b, r, s, lag):
                    return ShiftEqResult("yes", r=r, s=s, lag=lag)
        return None

    candidates = _coefficient_vectors(len(r_basis), max_entry, budget)
    found = first_witness(islice(candidates, _SHORT_SEARCH))
    if found is None:
        inv = _battery_invariant(a, b, max_entry)
        if inv is not None:
            return ShiftEqResult("no", invariant=inv)
        found = first_witness(candidates)  # resumes after the short search
    return found or ShiftEqResult("unknown")
