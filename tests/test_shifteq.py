import json
import os
import random
import subprocess
import sys
import textwrap
from math import gcd

import pytest

from obstruct import shifteq
from obstruct.intlinalg import (
    IntMatrix,
    charpoly,
    determinant,
    matrix_power,
    smith_normal_form,
    solve,
    vec,
)
from obstruct.shifteq import (
    _coefficient_vectors,
    _combination,
    _eventual_invariant,
    _eventual_invariant_general,
    _intertwiner_basis,
    _solve_for_s,
    battery,
    charpoly_away_from_zero,
    distinguishing_invariant,
    shift_equivalent,
    validate_ck_matrix,
    verify_shift_equivalence,
)


def random_ck_matrix(rng, n, max_entry=2):
    while True:
        a = IntMatrix(n, n, [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)])
        ok = all(any(e for e in a.data[i]) for i in range(n)) and all(
            any(a.data[i][j] for i in range(n)) for j in range(n)
        )
        if ok:
            return a


def random_unimodular(rng, n, shears=4):
    p = IntMatrix.identity(n)
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        shear = IntMatrix.identity(n)
        shear.data[i][j] = rng.randint(-1, 1)
        p = shear @ p
    return p


def conjugate_partner(rng, a):
    """P A P^-1 for a random unimodular P, or None if it is not a valid input."""
    n = a.rows
    p = random_unimodular(rng, n)
    pinv_cols = [solve(p, [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    pinv = IntMatrix(n, n, [[pinv_cols[j][i] for j in range(n)] for i in range(n)])
    b = p @ a @ pinv
    try:
        validate_ck_matrix(b)
    except ValueError:
        return None
    return b


def test_validate():
    with pytest.raises(ValueError):
        validate_ck_matrix(IntMatrix.from_rows([[1, 0], [1, 0]]))
    with pytest.raises(ValueError):
        validate_ck_matrix(IntMatrix.from_rows([[0, 0], [1, 1]]))
    with pytest.raises(ValueError):
        validate_ck_matrix(IntMatrix.from_rows([[1, 2, 3]]))
    validate_ck_matrix(IntMatrix.from_rows([[2]]))


def test_bounds_out_of_range_are_value_errors():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    b = IntMatrix.from_rows([[0, 1], [1, 1]])
    for bounds in ({"max_lag": 0}, {"max_lag": -1}, {"max_entry": -1}, {"budget": -5}):
        with pytest.raises(ValueError, match="bounds out of range"):
            shift_equivalent(a, b, **bounds)
        with pytest.raises(ValueError, match="bounds out of range"):
            shift_equivalent(a, a, **bounds)


def test_verify_rejects_a_lag_below_one():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    eye = IntMatrix.identity(2)
    assert verify_shift_equivalence(a, a, eye, a, 1)
    for lag in (0, -1):  # (I, I) would pass every equation at lag 0
        with pytest.raises(ValueError, match="lag out of range"):
            verify_shift_equivalence(a, a, eye, eye, lag)


def test_budget_zero_tries_no_candidate():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    b = IntMatrix.from_rows([[0, 1], [1, 1]])
    assert list(_coefficient_vectors(2, 8, 0)) == []
    assert len(list(_coefficient_vectors(2, 8, 5))) == 5
    assert shift_equivalent(a, b, budget=0).verdict == "unknown"
    assert shift_equivalent(a, b, budget=1).verdict == "yes"


def test_reflexive():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    res = shift_equivalent(a, a)
    assert res.verdict == "yes"
    assert res.lag == 1
    assert verify_shift_equivalence(a, a, res.r, res.s, res.lag)


def test_reflexive_random_matrices():
    rng = random.Random(2)
    for _ in range(50):
        a = random_ck_matrix(rng, rng.randint(1, 4))
        res = shift_equivalent(a, a)
        assert res.verdict == "yes"
        assert verify_shift_equivalence(a, a, res.r, res.s, res.lag)


def test_two_vs_three_is_no_with_named_invariant():
    res = shift_equivalent(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]]))
    assert res.verdict == "no"
    assert res.invariant  # a named invariant is required
    assert "x" in res.invariant or "characteristic" in res.invariant


def test_conjugate_pairs_are_yes():
    rng = random.Random(9)
    found = 0
    for _ in range(20):
        n = rng.randint(2, 3)
        a = random_ck_matrix(rng, n)
        # B = P A P^{-1} must stay nonnegative with no zero row/col for validity
        b = conjugate_partner(rng, a)
        if b is None:
            continue
        found += 1
        res = shift_equivalent(a, b)
        assert res.verdict == "yes", (a, b)
        assert verify_shift_equivalence(a, b, res.r, res.s, res.lag)
    assert found >= 3


def test_witness_symmetry():
    # yes(R, S, l) for (A, B) certifies (B, A) with the roles of R and S swapped
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    b = IntMatrix.from_rows([[0, 1], [1, 1]])
    res = shift_equivalent(a, b)
    assert res.verdict == "yes"
    assert verify_shift_equivalence(b, a, res.s, res.r, res.lag)


def test_charpoly_away_from_zero():
    a = IntMatrix.from_rows([[0, 1], [0, 2]])  # char = x^2 - 2x = x(x - 2)
    assert charpoly_away_from_zero(a) == [-2, 1]


def test_invariants_sound_under_conjugation():
    # module isomorphism (here: conjugation) implies no invariant distinguishes
    rng = random.Random(14)
    checked = 0
    for _ in range(15):
        n = rng.randint(2, 3)
        a = random_ck_matrix(rng, n)
        b = conjugate_partner(rng, a)
        if b is None:
            continue
        checked += 1
        assert distinguishing_invariant(a, b) is None
    assert checked >= 3


def test_charpoly_away_from_zero_separates():
    # x^2 - x - 1 against x^2 - 2x, which is x - 2 away from zero
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    b = IntMatrix.from_rows([[1, 1], [1, 1]])
    assert distinguishing_invariant(a, b) == "characteristic polynomial away from zero"
    res = shift_equivalent(a, b)
    assert (res.verdict, res.invariant) == ("no", "characteristic polynomial away from zero")
    # x - 2 against x^2 - 2x agree away from zero, so the test passes them on
    assert distinguishing_invariant(IntMatrix.from_rows([[2]]), b) is None


def test_full_shift_2_vs_4_distinguished():
    # different entropy: characteristic polynomials away from zero differ
    res = shift_equivalent(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]]))
    assert res.verdict == "no"


def kronecker_s_system(a, b, r, lag):
    """The direct system in the unknowns vec(S), S n x m:
    S B = A S, R S = B^lag and S R = A^lag, stacked, with its right side."""
    n, m = a.rows, b.rows
    eq1 = b.transpose().kron(IntMatrix.identity(n)) - IntMatrix.identity(m).kron(a)
    eq2 = IntMatrix.identity(m).kron(r)  # vec(R S)
    eq3 = r.transpose().kron(IntMatrix.identity(n))  # vec(S R)
    rhs = [0] * (m * n) + vec(matrix_power(b, lag)) + vec(matrix_power(a, lag))
    return eq1.vstack(eq2).vstack(eq3), rhs


def same_charpoly_pairs(rng, n, draws, max_entry=1):
    """Distinct valid matrices with equal characteristic polynomials."""
    seen = {}
    pairs = []
    for _ in range(draws):
        a = random_ck_matrix(rng, n, max_entry=max_entry)
        key = tuple(charpoly(a))
        other = seen.setdefault(key, a)
        if other != a:
            pairs.append((other, a))
    return pairs


def test_s_system_matches_kronecker_oracle():
    # For every candidate R and lag, the system over the basis of
    # {S : S B = A S} is solvable over Z exactly when the direct Kronecker
    # system in vec(S) is, since that basis spans every integer solution.
    rng = random.Random(5)
    pairs = []
    while len(pairs) < 4:
        a = random_ck_matrix(rng, rng.randint(2, 3))
        b = conjugate_partner(rng, a)
        if b is not None and b != a:
            pairs.append((a, b))
    pairs += same_charpoly_pairs(rng, 2, 40)[:3] + same_charpoly_pairs(rng, 3, 60)[:3]
    max_lag = 3
    solvable = checked = 0
    for a, b in pairs:
        n, m = a.rows, b.rows
        r_basis, s_basis = _intertwiner_basis(a, b), _intertwiner_basis(b, a)
        targets = [vec(matrix_power(b, lag)) + vec(matrix_power(a, lag))
                   for lag in range(1, max_lag + 1)]
        for coeffs in _coefficient_vectors(len(r_basis), 2, 12):
            r = _combination(coeffs, r_basis, m, n)
            if r.is_zero():
                continue
            for lag, s in _solve_for_s(r, s_basis, targets):
                lhs, rhs = kronecker_s_system(a, b, r, lag)
                assert (s is not None) == (solve(lhs, rhs) is not None), (a, b, r, lag)
                checked += 1
                if s is not None:
                    solvable += 1
                    assert verify_shift_equivalence(a, b, r, s, lag)
    assert checked >= 100 and solvable >= 4


def test_linear_invariant_closed_form_matches_general_route():
    # For p = x - k the colimit of coker(A^t - kI) is coker tensor Z[1/k]; the
    # closed form must agree with the general route on every integer matrix,
    # including zero rows and singular A - kI.
    rng = random.Random(31)
    singular = reduced = 0
    for trial in range(30):
        n = 1 + trial % 5
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 1:
            rows[rng.randrange(n)] = [0] * n
        elif trial % 3 == 2:
            # triangular, so every diagonal entry is an eigenvalue k
            for i in range(n):
                rows[i][:i] = [0] * i
                rows[i][i] = rng.randint(-8, 8)
        a = IntMatrix(n, n, rows)
        for k in range(-8, 9):
            closed = _eventual_invariant(a, k)
            assert closed == _eventual_invariant_general(a, [-k, 1]), (a, k)
            diag = smith_normal_form(a - IntMatrix.identity(n).scaled(k)).diag
            singular += 0 in diag
            reduced += k != 0 and any(d > 1 and gcd(d, k) > 1 for d in diag)
    assert singular >= 30 and reduced >= 100


def test_same_charpoly_pair_named_invariant():
    # both have charpoly x^2 - 4x - 1; coker(A - I) = Z/4, coker(B - I) = (Z/2)^2
    a = IntMatrix.from_rows([[0, 1], [1, 4]])
    b = IntMatrix.from_rows([[1, 2], [2, 3]])
    assert charpoly(a) == charpoly(b)
    name = "colimit of coker(p(A^t)) for p = x - 1"
    assert distinguishing_invariant(a, b) == name
    assert shift_equivalent(a, b).invariant == name


def test_charpolys_computed_once_per_call(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return charpoly(m)

    monkeypatch.setattr(shifteq, "charpoly", counting)
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    b = IntMatrix.from_rows([[0, 1], [1, 1]])
    assert shift_equivalent(a, b).verdict == "yes"  # settled by the short search
    assert len(calls) == 2
    # the battery computes no characteristic polynomial
    a, b = IntMatrix.from_rows([[0, 1], [1, 4]]), IntMatrix.from_rows([[1, 2], [2, 3]])
    assert shift_equivalent(a, b).verdict == "no"
    assert len(calls) == 4


def test_verdicts_under_python_O():
    # python -O strips assert statements, so every check a verdict rests on
    # must raise a real error.  The yes pair runs the witness search; the no
    # pair runs the short search and the battery, and is separated by
    # p = x - 1, where the general route, the reference for the closed form,
    # must agree.
    script = textwrap.dedent("""
        import json, sys
        from obstruct.intlinalg import IntMatrix
        from obstruct.shifteq import _eventual_invariant_general, shift_equivalent
        if not sys.flags.optimize:
            raise SystemExit("not running under -O")
        yes = shift_equivalent(IntMatrix.from_rows([[1, 1], [1, 0]]), IntMatrix.from_rows([[0, 1], [1, 1]]))
        a, b = IntMatrix.from_rows([[0, 1], [1, 4]]), IntMatrix.from_rows([[1, 2], [2, 3]])
        no = shift_equivalent(a, b)
        general = [_eventual_invariant_general(m, [-1, 1]) for m in (a, b)]
        print(json.dumps([yes.verdict, yes.lag, no.verdict, no.invariant, general]))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    yes, lag, no, invariant, general = json.loads(out.stdout)
    assert (yes, lag) == ("yes", 1)
    assert (no, invariant) == ("no", "colimit of coker(p(A^t)) for p = x - 1")
    assert general == [[[4], 0], [[2, 2], 0]]


def outcome(res):
    return res.verdict, res.r, res.s, res.lag, res.invariant


def run_counting_s_decisions(monkeypatch, pairs):
    """Outcomes of shift_equivalent on the pairs, and the number of
    candidates R whose S it decided, by the adjugate or the lattice route."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("_solve_for_s", "_solve_by_adjugate"):
            real = getattr(shifteq, name)
            m.setattr(shifteq, name, lambda r, *rest, real=real: calls.append(r) or real(r, *rest))
        outcomes = [outcome(shift_equivalent(a, b)) for a, b in pairs]
    return outcomes, len(calls)


def reference_shift_equivalent(a, b, max_lag=6, max_entry=8, budget=2000):
    """(outcome, S decisions) of the search as it was before staging, the
    oracle for the staged one: every battery entry first, then the lattice
    solve `_solve_for_s` for every nonzero candidate R, with no determinant
    prune and no adjugate.  The battery is `distinguishing_invariant`, which
    test_battery_matches_reference checks against the general route."""
    if a == b:
        return outcome(shift_equivalent(a, b)), 0
    inv = distinguishing_invariant(a, b, kmax=max_entry)
    if inv is not None:
        return ("no", None, None, 0, inv), 0
    n, m = a.rows, b.rows
    r_basis, s_basis = _intertwiner_basis(a, b), _intertwiner_basis(b, a)
    targets = [vec(matrix_power(b, lag)) + vec(matrix_power(a, lag))
               for lag in range(1, max_lag + 1)]
    decisions = 0
    for coeffs in _coefficient_vectors(len(r_basis), max_entry, budget):
        r = _combination(coeffs, r_basis, m, n)
        if r.is_zero():
            continue
        decisions += 1
        for lag, s in _solve_for_s(r, s_basis, targets):
            if s is not None and verify_shift_equivalence(a, b, r, s, lag):
                return ("yes", r, s, lag, ""), decisions
    return ("unknown", None, None, 0, ""), decisions


def conjugate_pairs(rng, n, count, max_entry):
    pairs = []
    while len(pairs) < count:
        a = random_ck_matrix(rng, n, max_entry=max_entry)
        b = conjugate_partner(rng, a)
        if b is not None and b != a:
            pairs.append((a, b))
    return pairs


def test_det_prune_drops_no_witness(monkeypatch):
    # A pruned R has det R = 0 or det R not dividing det(A)^max_lag, so it
    # cannot satisfy S R = A^l: the first verifying R, its S and lag stay.
    rng = random.Random(41)
    pairs = conjugate_pairs(rng, 3, 10, 2) + same_charpoly_pairs(rng, 3, 80, max_entry=2)[:10]
    pruned, _ = run_counting_s_decisions(monkeypatch, pairs)
    full = [reference_shift_equivalent(a, b)[0] for a, b in pairs]
    assert pruned == full
    nonsingular_yes = sum(o[0] == "yes" and determinant(a) != 0 for o, (a, _) in zip(pruned, pairs))
    assert nonsingular_yes >= 5


def test_det_prune_runs_fewer_s_eliminations(monkeypatch):
    # S decisions of either route against the reference's lattice solves
    rng = random.Random(43)
    pairs = conjugate_pairs(rng, 3, 6, 4)
    pruned, pruned_calls = run_counting_s_decisions(monkeypatch, pairs)
    reference = [reference_shift_equivalent(a, b) for a, b in pairs]
    full, full_calls = [o for o, _ in reference], sum(d for _, d in reference)
    assert pruned == full
    assert 0 < pruned_calls < full_calls


def test_det_prune_off_for_unequal_sizes():
    # det R is undefined for the 2 x 1 witness R = [1; 1], S = [1 1]
    a = IntMatrix.from_rows([[2]])
    b = IntMatrix.from_rows([[1, 1], [1, 1]])
    res = shift_equivalent(a, b)
    assert res.verdict == "yes"
    assert (res.r.rows, res.r.cols) == (2, 1)
    assert verify_shift_equivalence(a, b, res.r, res.s, res.lag)


def test_det_prune_off_for_singular_a():
    # det A = 0, and the first witness R is singular as well
    a = IntMatrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    b = IntMatrix.from_rows([[1, 1, 1], [1, 1, 1], [0, 0, 1]])
    assert determinant(a) == 0
    res = shift_equivalent(a, b)
    assert res.verdict == "yes"
    assert determinant(res.r) == 0
    assert verify_shift_equivalence(a, b, res.r, res.s, res.lag)


def reference_distinguishing_invariant(a, b, kmax=8):
    """distinguishing_invariant with every battery entry computed by the
    general route (torsion subgroup and eventual image), not the closed
    form."""
    if charpoly_away_from_zero(a) != charpoly_away_from_zero(b):
        return "characteristic polynomial away from zero"
    for name, k in battery(kmax):
        if _eventual_invariant_general(a, [-k, 1]) != _eventual_invariant_general(b, [-k, 1]):
            return f"colimit of coker(p(A^t)) for p = {name}"
    return None


def test_battery_matches_reference():
    # the reference also computes k = 0, where both colimits are 0, so it
    # names the same first separating entry
    rng = random.Random(47)
    pairs = (same_charpoly_pairs(rng, 2, 80, max_entry=3)
             + same_charpoly_pairs(rng, 3, 120, max_entry=2)
             + conjugate_pairs(rng, 3, 8, 2)
             + [(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1, 1], [1, 1]]))])
    separated = 0
    for a, b in pairs:
        expected = reference_distinguishing_invariant(a, b)
        assert distinguishing_invariant(a, b) == expected, (a, b)
        if charpoly_away_from_zero(a) == charpoly_away_from_zero(b):
            separated += expected is not None
    assert separated >= 5


def test_battery_separates_non_squarefree_order():
    # charpoly x^2 - 4x - 1 at k = 1 is -4, and Z/4 against (Z/2)^2
    # separates the pair there
    a = IntMatrix.from_rows([[0, 1], [1, 4]])
    b = IntMatrix.from_rows([[1, 2], [2, 3]])
    assert (_eventual_invariant(a, 1), _eventual_invariant(b, 1)) == (([4], 0), ([2, 2], 0))
    assert distinguishing_invariant(a, b) == "colimit of coker(p(A^t)) for p = x - 1"


def test_battery_separates_at_roots():
    # k = 1 is a root of (x - 1)^2: no torsion on either side, and only the
    # eventual rank, 1 for the Jordan block against 2 for I, separates
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    b = IntMatrix.identity(2)
    assert (_eventual_invariant(a, 1), _eventual_invariant(b, 1)) == (([], 1), ([], 2))
    assert distinguishing_invariant(a, b) == "colimit of coker(p(A^t)) for p = x - 1"


# ---------------------------------------------------------------------------
# S by adjugate, and the staged search against the reference
# ---------------------------------------------------------------------------


def elementary_pairs(rng, n, m, count, max_entry=1):
    """(D E, E D) for random non-negative D (n x m) and E (m x n): an
    elementary strong shift equivalence of lag 1 between sizes n and m."""
    pairs = []
    while len(pairs) < count:
        d = IntMatrix(n, m, [[rng.randint(0, max_entry) for _ in range(m)] for _ in range(n)])
        e = IntMatrix(m, n, [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(m)])
        try:
            validate_ck_matrix(d @ e)
            validate_ck_matrix(e @ d)
        except ValueError:
            continue
        pairs.append((d @ e, e @ d))
    return pairs


def powers(m, max_lag):
    out = [m]
    while len(out) < max_lag:
        out.append(out[-1] @ m)
    return out


def adjugate_sweep(seed=53, max_lag=4):
    """(candidates, solvable, mismatches): every nonsingular nonzero
    candidate R of a seeded sweep (n = 2..5, singular A included), with the
    (lag, S) sequence of the adjugate route compared against `_solve_for_s`."""
    rng = random.Random(seed)
    pairs = [pair for n, count in ((2, 4), (3, 4), (4, 2), (5, 1))
             for pair in conjugate_pairs(rng, n, count, 2)]
    pairs += same_charpoly_pairs(rng, 2, 60, max_entry=3)[:3] + same_charpoly_pairs(rng, 3, 80)[:4]
    candidates = solvable = 0
    mismatches = []
    for a, b in pairs:
        n = a.rows
        r_basis, s_basis = _intertwiner_basis(a, b), _intertwiner_basis(b, a)
        targets = [vec(pb) + vec(pa) for pa, pb in zip(powers(a, max_lag), powers(b, max_lag))]
        for coeffs in _coefficient_vectors(len(r_basis), 2, 30):
            r = _combination(coeffs, r_basis, n, n)
            det_r = determinant(r)
            if det_r == 0:
                continue
            by_adjugate = list(shifteq._solve_by_adjugate(r, det_r, [b], max_lag))
            if by_adjugate != list(_solve_for_s(r, s_basis, targets)):
                mismatches.append((a, b, r))
            candidates += 1
            solvable += sum(s is not None for _, s in by_adjugate)
    return candidates, solvable, mismatches


def test_adjugate_route_matches_the_lattice_solve():
    # for nonsingular R with R A = B R, S = R^-1 B^l is the only rational
    # solution, so both routes decide every lag alike and return the same S
    candidates, solvable, mismatches = adjugate_sweep()
    assert not mismatches
    assert candidates >= 300 and solvable >= 40


def test_combination_matches_the_naive_sum():
    rng = random.Random(67)
    for rows, cols, count in [(2, 2, 3), (3, 2, 4), (2, 3, 1), (3, 3, 5), (0, 2, 2), (2, 0, 2),
                              (2, 2, 0)]:
        basis = [IntMatrix(rows, cols, [[rng.randint(-9, 9) for _ in range(cols)]
                                        for _ in range(rows)]) for _ in range(count)]
        draws = [[0] * count, [1] + [0] * (count - 1)] if count else [[]]
        draws += [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(count)]
                  for _ in range(20)]
        for coeffs in draws:
            naive = IntMatrix.zeros(rows, cols)
            for c, mat in zip(coeffs, basis):
                naive = naive + mat.scaled(c)
            out = _combination(coeffs, basis, rows, cols)
            assert out == naive, (rows, cols, coeffs)
            assert not any(r is s for mat in basis for r in out.data for s in mat.data)


# Pairs whose first verifying candidate lies beyond the short search: at
# coefficient vector 33, the first after it, at 42, and at 63.
BEYOND_THE_CUT = [
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    ([[1, 2, 0], [1, 3, 2], [3, 3, 2]], [[2, 2, 3], [3, 2, 0], [1, 2, 2]]),
    ([[2, 3], [0, 1]], [[2, 0], [2, 1]]),
]

# Pairs that stay unknown at the default bounds: one with a lag-7 witness,
# beyond max_lag 6 (det A = 0), and one with charpoly (x - 1)(x - 3)^2
UNKNOWN_AT_DEFAULTS = [
    ([[3, 2, 3], [0, 0, 1], [0, 0, 2]], [[0, 0, 3], [1, 2, 2], [0, 0, 3]]),
    ([[1, 0, 0], [0, 3, 0], [3, 2, 3]], [[3, 0, 0], [1, 1, 0], [1, 2, 3]]),
]


def staged_sweep():
    """(pair, bounds) cases for the staged search against the reference:
    conjugate and same-charpoly pairs (yes, no and singular A), unequal
    sizes, witnesses beyond the short search, and the unknown pairs; also
    with a budget that runs out inside the short search, after which the
    battery still runs."""
    rng = random.Random(59)
    mats = lambda pairs: [(IntMatrix.from_rows(a), IntMatrix.from_rows(b)) for a, b in pairs]
    same = same_charpoly_pairs(rng, 2, 200, max_entry=3) + same_charpoly_pairs(rng, 3, 200)
    separated = [pair for pair in same if distinguishing_invariant(*pair) is not None]
    pairs = (conjugate_pairs(rng, 2, 6, 3) + conjugate_pairs(rng, 3, 8, 2) + separated[:12]
             + [pair for pair in same if pair not in separated][::8]
             + elementary_pairs(rng, 1, 2, 3, 2) + elementary_pairs(rng, 2, 3, 4)
             + elementary_pairs(rng, 3, 2, 3)
             + [(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1, 1], [1, 1]])),
                (IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1, 1], [1, 2]]))]
             + mats(BEYOND_THE_CUT))
    cases = [(pair, {}) for pair in pairs]
    cases += [(pair, {"budget": 300}) for pair in mats(UNKNOWN_AT_DEFAULTS)]
    cases += [(pair, {"budget": 10})
              for pair in mats(UNKNOWN_AT_DEFAULTS + BEYOND_THE_CUT) + separated[:3]]
    cases += [(pair, {"max_lag": 7, "budget": 300}) for pair in mats(UNKNOWN_AT_DEFAULTS[:1])]
    return cases


def staged_against_reference(cases):
    """Per case: (staged outcome == reference outcome, verdict, det A, sizes)."""
    out = []
    for (a, b), bounds in cases:
        staged = outcome(shift_equivalent(a, b, **bounds))
        reference, _ = reference_shift_equivalent(a, b, **bounds)
        out.append((staged == reference, staged[0], determinant(a) if a.rows == b.rows else None,
                    (a.rows, b.rows)))
    return out


def test_staged_search_matches_the_reference():
    results = staged_against_reference(staged_sweep())
    assert all(same for same, *_ in results), [r for r in results if not r[0]]
    verdicts = [verdict for _, verdict, _, _ in results]
    assert verdicts.count("no") >= 10 and verdicts.count("unknown") >= 5
    assert sum(v == "yes" and det == 0 for _, v, det, _ in results) >= 5
    assert sum(v == "yes" and bool(det) for _, v, det, _ in results) >= 10
    assert sum(v == "yes" and n != m for _, v, _, (n, m) in results) >= 8


def battery_runs(monkeypatch, pairs):
    """Per pair: (verdict, coefficient vectors drawn, battery runs)."""
    out = []
    with monkeypatch.context() as m:
        drawn, runs = [0], [0]
        real_vectors, real_battery = shifteq._coefficient_vectors, shifteq._battery_invariant

        def vectors(*args):
            for v in real_vectors(*args):
                drawn[0] += 1
                yield v

        def battery_invariant(*args):
            runs[0] += 1
            return real_battery(*args)

        m.setattr(shifteq, "_coefficient_vectors", vectors)
        m.setattr(shifteq, "_battery_invariant", battery_invariant)
        for a, b in pairs:
            drawn[0] = runs[0] = 0
            out.append((shift_equivalent(a, b).verdict, drawn[0], runs[0]))
    return out


def test_battery_runs_only_beyond_the_short_search(monkeypatch):
    cut = shifteq._SHORT_SEARCH
    golden = (IntMatrix.from_rows([[1, 1], [1, 0]]), IntMatrix.from_rows([[0, 1], [1, 1]]))
    no_pair = (IntMatrix.from_rows([[0, 1], [1, 4]]), IntMatrix.from_rows([[1, 2], [2, 3]]))
    beyond = [(IntMatrix.from_rows(a), IntMatrix.from_rows(b)) for a, b in BEYOND_THE_CUT]
    assert battery_runs(monkeypatch, [golden, no_pair]) == [("yes", 1, 0), ("no", cut, 1)]
    assert [(v, n) for v, _, n in battery_runs(monkeypatch, beyond)] == [("yes", 1)] * 3
    assert [d for _, d, _ in battery_runs(monkeypatch, beyond)] == [33, 42, 63]
    # on a sweep: a witness within the cut never runs the battery
    rng = random.Random(61)
    sweep = conjugate_pairs(rng, 3, 12, 2) + same_charpoly_pairs(rng, 3, 80)[:10]
    for verdict, drawn, runs in battery_runs(monkeypatch, sweep):
        assert runs == (verdict != "yes" or drawn > cut), (verdict, drawn, runs)


def test_lattice_route_only_for_singular_a_or_unequal_sizes(monkeypatch):
    # nonsingular A: one intertwiner basis (R side) and no lattice S solve
    calls = {"_intertwiner_basis": 0, "_solve_for_s": 0, "_solve_by_adjugate": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(shifteq, name, counting(name, getattr(shifteq, name)))

    def counted(a, b):
        for name in calls:
            calls[name] = 0
        res = shift_equivalent(IntMatrix.from_rows(a), IntMatrix.from_rows(b))
        return res.verdict, dict(calls)

    golden = counted([[1, 1], [1, 0]], [[0, 1], [1, 1]])
    assert golden == ("yes", {"_intertwiner_basis": 1, "_solve_for_s": 0, "_solve_by_adjugate": 1})
    verdict, singular = counted([[1, 1, 0], [1, 1, 1], [0, 0, 1]], [[1, 1, 1], [1, 1, 1], [0, 0, 1]])
    assert verdict == "yes" and singular["_intertwiner_basis"] == 2
    assert singular["_solve_for_s"] >= 1 and singular["_solve_by_adjugate"] == 0
    verdict, unequal = counted([[2]], [[1, 1], [1, 1]])
    assert verdict == "yes" and unequal["_intertwiner_basis"] == 2
    assert unequal["_solve_for_s"] >= 1 and unequal["_solve_by_adjugate"] == 0


def test_oracles_under_python_O():
    # the adjugate oracle and the staged search against the reference,
    # with their checks in the script itself, which python -O keeps
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from test_shifteq import adjugate_sweep, staged_against_reference, staged_sweep
        if not sys.flags.optimize:
            raise SystemExit("not running under -O")
        candidates, solvable, mismatches = adjugate_sweep()
        results = staged_against_reference(staged_sweep())
        print(json.dumps([candidates, solvable, len(mismatches),
                          sum(same for same, *_ in results), len(results)]))
    """)
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script, tests], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    candidates, solvable, mismatches, same, total = json.loads(out.stdout)
    assert candidates >= 300 and solvable >= 40 and mismatches == 0
    assert same == total >= 60
