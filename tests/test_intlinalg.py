import random

import pytest
from hypothesis import given, settings, strategies as st

from obstruct import intlinalg
from obstruct.abelian import FgAbGroup, GroupMorphism, torsion_subgroup
from obstruct.intlinalg import (
    IntMatrix,
    adjugate,
    charpoly,
    cokernel_factors,
    determinant,
    is_unimodular,
    kernel_basis,
    lattice_basis,
    lattices_equal,
    matrix_power,
    matrix_rank,
    poly_eval_matrix,
    smith_normal_form,
    solve,
    unvec,
    vec,
)


def check_snf(a):
    s = smith_normal_form(a)
    assert len(s.diag) == min(a.rows, a.cols)
    assert s.U @ a @ s.V == s.D
    assert is_unimodular(s.U)
    assert is_unimodular(s.V)
    assert s.U @ s.Uinv == IntMatrix.identity(a.rows)
    # diagonal, nonnegative, divisibility chain
    for i in range(s.D.rows):
        for j in range(s.D.cols):
            if i != j:
                assert s.D.data[i][j] == 0
    diag = s.diag
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return s


def test_snf_2_3_example():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    s = check_snf(a)
    assert s.D == IntMatrix.from_rows([[1, 0], [0, 6]])


def test_snf_identity():
    a = IntMatrix.identity(3)
    s = check_snf(a)
    assert s.D == IntMatrix.identity(3)


def test_snf_zero():
    a = IntMatrix.zeros(2, 2)
    s = check_snf(a)
    assert s.D == IntMatrix.zeros(2, 2)


def test_snf_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        a = IntMatrix.zeros(r, c)
        s = check_snf(a)
        assert s.D.rows == r and s.D.cols == c


# Exact outputs (name, rows, cols, A, U, D, V, U^-1) of smith_normal_form,
# pinned so that a rewrite of the elimination keeps every transform
# bit-identical, not only valid.
GOLDEN_SNF = [
    ('empty_0x3', 0, 3, [],
     [],
     [],
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
     []),
    ('empty_2x0', 2, 0, [[], []],
     [[1, 0], [0, 1]],
     [[], []],
     [],
     [[1, 0], [0, 1]]),
    ('row_1x4', 1, 4, [[4, 6, -10, 15]],
     [[1]],
     [[1, 0, 0, 0]],
     [[-2, 3, 4, 3], [-1, -2, -1, 3], [0, 0, 1, 0], [1, 0, 0, -2]],
     [[1]]),
    ('column_3x1', 3, 1, [[6], [-4], [9]],
     [[0, 2, 1], [1, -3, -2], [0, -9, -4]],
     [[1], [0], [0]],
     [[1]],
     [[6, 1, 1], [-4, 0, -1], [9, 0, 2]]),
    ('rank_deficient', 3, 3, [[2, 4, 6], [1, 2, 3], [3, 6, 9]],
     [[0, 1, 0], [1, -2, 0], [0, -3, 1]],
     [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
     [[1, -2, -3], [0, 1, 0], [0, 0, 1]],
     [[2, 1, 0], [1, 0, 0], [3, 0, 1]]),
    ('chain_2_3_4', 3, 3, [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
     [[1, 1, 0], [-3, -2, 1], [-12, -8, 3]],
     [[1, 0, 0], [0, 2, 0], [0, 0, 12]],
     [[-1, 3, -6], [1, -2, 4], [0, 2, -3]],
     [[-2, 3, -1], [3, -3, 1], [0, 4, -1]]),
    ('chain_symmetric', 3, 3, [[6, 4, 2], [4, 8, 0], [2, 0, 10]],
     [[1, 0, 0], [0, 1, 0], [-5, 7, 1]],
     [[2, 0, 0], [0, 4, 0], [0, 0, 36]],
     [[0, 1, -2], [0, 0, 1], [1, -3, 4]],
     [[1, 0, 0], [0, 1, 0], [5, -7, 1]]),
    ('wide_3x4', 3, 4, [[3, -7, 2, 5], [4, 1, -6, 0], [-2, 9, 8, 3]],
     [[0, 1, 0], [0, -9, 1], [-1, -871, 96]],
     [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
     [[0, 1, 79, -430], [1, -4, -4, 22], [0, 0, 52, -283], [0, 13, -74, 402]],
     [[-7, 96, -1], [1, 0, 0], [9, 1, 0]]),
    ('tall_4x2', 4, 2, [[0, 0], [12, 18], [8, 30], [-4, 6]],
     [[0, 0, 0, -1], [0, 1, -1, -2], [0, -7, 6, -9], [1, 0, 0, 0]],
     [[2, 0], [0, 12], [0, 0], [0, 0]],
     [[2, -3], [1, -2]],
     [[0, 0, 0, 1], [21, -6, -1, 0], [23, -7, -1, 0], [-1, 0, 0, 0]]),
]


@pytest.mark.parametrize("case", GOLDEN_SNF, ids=[c[0] for c in GOLDEN_SNF])
def test_snf_golden_transforms(case):
    _, rows, cols, data, u, d, v, uinv = case
    s = check_snf(IntMatrix(rows, cols, data))
    assert s.U == IntMatrix(rows, rows, u)
    assert s.D == IntMatrix(rows, cols, d)
    assert s.V == IntMatrix(cols, cols, v)
    assert s.Uinv == IntMatrix(rows, rows, uinv)


def test_snf_deterministic():
    a = IntMatrix.from_rows([[6, 4, 2], [4, 8, 0], [2, 0, 10]])
    s1 = smith_normal_form(a)
    s2 = smith_normal_form(a)
    assert s1.U == s2.U and s1.V == s2.V and s1.D == s2.D


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 10**6),
)
def test_snf_random(m, n, seed):
    rng = random.Random(seed)
    a = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    check_snf(a)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 10**6),
)
def test_snf_transforms_independent_of_read_order(m, n, seed):
    rng = random.Random(seed)
    data = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.5:
        data[rng.randrange(m)] = [0] * n
    if n and rng.random() < 0.5:
        j = rng.randrange(n)
        for row in data:
            row[j] = 0
    a = IntMatrix(m, n, data)
    v_first = smith_normal_form(a)
    v_first.V
    u_first = smith_normal_form(a)
    u_first.U
    for s in (v_first, u_first):
        assert s.U @ a @ s.V == s.D
        assert s.U @ s.Uinv == IntMatrix.identity(m)
    assert (v_first.U, v_first.Uinv, v_first.V) == (u_first.U, u_first.Uinv, u_first.V)


def test_transforms_are_built_only_when_read(monkeypatch):
    a = IntMatrix.from_rows([[2, 4, 6], [1, 2, 3], [3, 6, 9]])
    group = FgAbGroup(3, a)
    z6 = FgAbGroup.cyclic(6)
    unit = GroupMorphism(z6, z6, IntMatrix.from_rows([[5]]), trusted=True)
    built = counter(monkeypatch, intlinalg, "_identity_rows")
    assert group.invariant_factors == [0, 0]
    assert matrix_rank(a) == 1
    assert cokernel_factors(a) == [1, 0, 0]
    assert unit.is_iso()
    assert built == []
    k = kernel_basis(a)
    assert k.cols == 2 and built == [(3,)]  # V alone
    s = smith_normal_form(a.hstack(a))
    s.Uinv
    assert built == [(3,), (3,)]  # U^-1 alone
    s.U
    assert built == [(3,), (3,), (3,)]  # then U
    s.U, s.Uinv, s.D
    assert built == [(3,), (3,), (3,)]


def test_structural_zeros_replay_nothing(monkeypatch):
    eye = {n: IntMatrix.identity(n) for n in (0, 3)}
    built = counter(monkeypatch, intlinalg, "_identity_rows")
    # full column rank: the kernel is read off the rank, with no V
    k = kernel_basis(IntMatrix.from_rows([[2, 1], [1, 1]]))
    assert (k.rows, k.cols) == (2, 0) and built == []
    # no columns or no rows: nothing to eliminate, identity transforms
    for rows, cols in ((3, 0), (0, 3)):
        s = smith_normal_form(IntMatrix.zeros(rows, cols))
        assert s.diag == [] and s.rank == 0 and built == []
        assert s.Uinv == eye[rows] and len(built) == 1
        assert s.U == eye[rows] and len(built) == 2
        assert s.V == eye[cols] and len(built) == 3
        s.U, s.Uinv, s.V
        assert len(built) == 3
        built.clear()


def counter(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_kernel_basis():
    a = IntMatrix.from_rows([[1, 2, 3]])
    k = kernel_basis(a)
    assert k.cols == 2
    for j in range(k.cols):
        assert a.apply(k.column(j)) == [0]
    # spanning: [2,-1,0] and [3,0,-1] must lie in the kernel lattice
    lat = smith_normal_form(k)
    assert inside(lat, [2, -1, 0])
    assert inside(lat, [3, 0, -1])


def test_solve():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(a, [4, 9]) == [2, 3]
    assert solve(a, [1, 0]) is None
    assert solve(IntMatrix.zeros(2, 2), [0, 0]) == [0, 0]
    assert solve(IntMatrix.zeros(2, 2), [1, 0]) is None


def _random_matrix(rng, rows, cols):
    return IntMatrix(rows, cols, [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 10**6),
)
def test_factor_through_matches_column_solves(m, n, k, c, seed):
    rng = random.Random(seed)
    a = _random_matrix(rng, m, n)
    rel = _random_matrix(rng, m, k)
    # half the right-hand sides lie in the image, the rest are arbitrary
    cols = []
    for _ in range(c):
        if rng.random() < 0.5:
            cols.append(a.hstack(rel).apply([rng.randint(-3, 3) for _ in range(n + k)]))
        else:
            cols.append([rng.randint(-6, 6) for _ in range(m)])
    b = IntMatrix.from_columns(cols, rows=m)
    for relations in (None, rel):
        stacked = a if relations is None else a.hstack(relations)
        sols = [solve(stacked, col) for col in cols]
        x = smith_normal_form(stacked).factor(b, n)
        if any(z is None for z in sols):
            assert x is None
            continue
        assert x == IntMatrix.from_columns([z[:n] for z in sols], rows=n)
        tail = IntMatrix.from_columns([z[n:] for z in sols], rows=stacked.cols - n)
        assert stacked @ x.vstack(tail) == b


def test_factor_through_one_failing_column():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    b = IntMatrix.from_rows([[4, 2, 1], [3, 0, 0]])
    s = smith_normal_form(a)
    assert s.factor(b) is None
    assert s.factor(b.submatrix([0, 1], [0, 1])) == IntMatrix.from_rows([[2, 1], [1, 0]])
    # modulo the relation e_1 the third column factors too
    x = smith_normal_form(a.hstack(IntMatrix.from_rows([[1], [0]]))).factor(b, a.cols)
    assert x is not None and x.rows == 2 and x.cols == 3
    assert (a @ x).data[1] == b.data[1]


def test_factor_through_empty_shapes():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert smith_normal_form(a).factor(IntMatrix.zeros(2, 0)) == IntMatrix.zeros(2, 0)
    with_rel = smith_normal_form(a.hstack(IntMatrix.zeros(2, 1)))
    assert with_rel.factor(IntMatrix.zeros(2, 0), a.cols) == IntMatrix.zeros(2, 0)
    # a with no columns: only zero columns factor
    empty = smith_normal_form(IntMatrix.zeros(2, 0))
    assert empty.factor(IntMatrix.zeros(2, 3)) == IntMatrix.zeros(0, 3)
    assert empty.factor(IntMatrix.from_rows([[0], [1]])) is None
    # ... unless the relations absorb them
    absorbing = smith_normal_form(IntMatrix.zeros(2, 0).hstack(IntMatrix.identity(2)))
    x = absorbing.factor(IntMatrix.from_rows([[0], [1]]), 0)
    assert x == IntMatrix.zeros(0, 1)
    # no rows: everything factors, through zero
    assert smith_normal_form(IntMatrix.zeros(0, 3)).factor(IntMatrix.zeros(0, 2)) == IntMatrix.zeros(3, 2)


def inside(s, v):
    """Is the vector v in the column lattice of the decomposition s?"""
    return s.factor(IntMatrix.from_columns([v], rows=s.matrix.rows)) is not None


def test_lattice_membership_and_basis():
    g = IntMatrix.from_rows([[2, 4], [0, 6]])
    lat = smith_normal_form(g)
    assert inside(lat, [2, 0])
    assert inside(lat, [0, 6])
    assert not inside(lat, [1, 0])
    assert not inside(lat, [0, 3])
    b = lat.image_basis()
    assert lattices_equal(b, g)
    assert b.cols == matrix_rank(g)


def test_lattice_factor_keeps_the_first_rows():
    # [a | r] X == b: `rows` keeps the rows of X on a's columns alone, and
    # they are the first rows of the full solution
    s = smith_normal_form(IntMatrix.from_rows([[2, 0, 1], [0, 3, 1]]))
    b = IntMatrix.from_rows([[5, 2], [4, 0]])
    full = s.factor(b)
    assert s.matrix @ full == b
    assert s.factor(b, 2) == full.submatrix([0, 1], [0, 1])
    assert s.factor(b, 0) == IntMatrix.zeros(0, 2)


def test_lattice_factor_is_none_outside_the_lattice():
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [0, 6]]))
    assert s.factor(IntMatrix.from_rows([[2, 1], [0, 0]])) is None
    assert s.factor(IntMatrix.from_rows([[2, 1], [0, 0]]), 1) is None
    assert s.factor(IntMatrix.from_rows([[2], [6]])) is not None
    # the zero lattice holds zero alone
    zero = smith_normal_form(IntMatrix.zeros(2, 0))
    assert zero.factor(IntMatrix.zeros(2, 1)) == IntMatrix.zeros(0, 1)
    assert zero.factor(IntMatrix.from_rows([[0], [1]])) is None


def test_lattice_equals_needs_one_ambient_dimension():
    a = smith_normal_form(IntMatrix.identity(2))
    b = smith_normal_form(IntMatrix.identity(3))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        a.equals(b)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        b.equals(a)
    assert a.equals(smith_normal_form(IntMatrix.from_rows([[1, 1], [0, 1]])))


def spans_equal(a, b):
    """Reference route for lattice equality: each lattice contains the
    other's generators, one exact solve per generator."""
    sa, sb = smith_normal_form(a), smith_normal_form(b)
    return (all(solve(b, c, snf=sb) is not None for c in a.columns())
            and all(solve(a, c, snf=sa) is not None for c in b.columns()))


def random_matrix(rng, rows, cols, entry=3):
    return IntMatrix(rows, cols, [[rng.randint(-entry, entry) for _ in range(cols)]
                                  for _ in range(rows)])


def random_unimodular(rng, n):
    """A product of random shears and a sign flip."""
    u = IntMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        shear = IntMatrix.identity(n)
        shear.data[i][i] = -1 if i == j else 1
        if i != j:
            shear.data[i][j] = rng.randint(-2, 2)
        u = shear @ u
    return u


def test_lattices_equal_matches_mutual_containment():
    # a's lattice against a unimodular recombination of a (plus redundant
    # columns), a random recombination (often a proper sublattice) or an
    # unrelated matrix, so both answers come up often
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        a = random_matrix(rng, n, k)
        kind = rng.randrange(3)
        if kind == 0:
            b = a @ random_unimodular(rng, k)
            if rng.random() < 0.5:
                b = b.hstack(a @ random_matrix(rng, k, rng.randint(1, 2)))
        elif kind == 1:
            b = a @ random_matrix(rng, k, rng.randint(0, 4))
        else:
            b = random_matrix(rng, n, rng.randint(0, 4))
        got = lattices_equal(a, b)
        assert got == spans_equal(a, b) == lattices_equal(b, a)
        seen[got] += 1
    assert min(seen.values()) >= 100, seen


def test_saturation():
    # the torsion subgroup of Z^2 / <(2, 4)> is the saturation <(1, 2)> of
    # the relation lattice modulo it, read off the group's own Smith form
    g = IntMatrix.from_rows([[2], [4]])
    t, embed = torsion_subgroup(FgAbGroup(2, g))
    assert lattices_equal(embed.matrix, IntMatrix.from_rows([[1], [2]]))
    assert t.invariant_factors == [2]


def test_image_basis_and_coords_of_random_matrices():
    # image_basis spans the column lattice with full column rank, and
    # image_coords solves in it exactly, or answers None for a column
    # outside the lattice (the lattice plus a vector it does not contain)
    rng = random.Random(31)
    outside = 0
    for _ in range(300):
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        a = random_matrix(rng, n, k)
        s = smith_normal_form(a)
        b = s.image_basis()
        assert b.cols == s.rank == matrix_rank(a)
        assert lattices_equal(b, a)
        c = random_matrix(rng, k, rng.randint(0, 3))
        x = s.image_coords(a @ c)
        assert b @ x == a @ c
        v = [rng.randint(-3, 3) for _ in range(n)]
        got = s.image_coords(IntMatrix.from_columns([v], rows=n))
        if solve(a, v) is not None:
            assert b @ got == IntMatrix.from_columns([v], rows=n)
        else:
            assert got is None
            outside += 1
    assert outside >= 100


def test_image_coords_is_none_outside_the_lattice():
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [0, 6]]))
    assert s.image_coords(IntMatrix.from_rows([[1], [0]])) is None
    assert s.image_coords(IntMatrix.from_rows([[2, 0], [0, 3]])) is None
    x = s.image_coords(IntMatrix.from_rows([[2, 4], [0, 6]]))
    assert s.image_basis() @ x == IntMatrix.from_rows([[2, 4], [0, 6]])
    # no columns: the lattice is zero, and only zero lies in it
    empty = smith_normal_form(IntMatrix.zeros(2, 0))
    assert empty.image_basis() == IntMatrix.zeros(2, 0)
    assert empty.image_coords(IntMatrix.zeros(2, 3)) == IntMatrix.zeros(0, 3)
    assert empty.image_coords(IntMatrix.from_rows([[0], [1]])) is None


def test_lattice_basis_of_redundant_generators():
    g = IntMatrix.from_rows([[2, 2, 4], [0, 0, 0]])
    b = lattice_basis(g)
    assert b.cols == 1
    assert lattices_equal(b, IntMatrix.from_rows([[2], [0]]))


def test_charpoly():
    a = IntMatrix.from_rows([[2, 1], [0, 3]])
    # det(xI - A) = (x-2)(x-3) = x^2 - 5x + 6
    assert charpoly(a) == [6, -5, 1]
    assert poly_eval_matrix(charpoly(a), a).is_zero()  # Cayley-Hamilton


def test_charpoly_random_cayley_hamilton():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = IntMatrix(n, n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert poly_eval_matrix(charpoly(a), a).is_zero()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 6),
    st.sampled_from(["random", "zero_leading_pivot", "zero_column", "dependent_row"]),
    st.integers(0, 10**6),
)
def test_determinant_matches_charpoly(n, shape, seed):
    # det(A) = (-1)^n det(0*I - A), the constant coefficient of the
    # characteristic polynomial up to sign
    rng = random.Random(seed)
    data = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    if n and shape == "zero_leading_pivot":
        data[0][0] = 0  # Bareiss must swap rows before it divides
        if n > 1 and rng.random() < 0.5:
            data[1][1] = data[1][0] = 0
    elif n and shape == "zero_column":
        j = rng.randrange(n)
        for row in data:
            row[j] = 0
    elif n > 1 and shape == "dependent_row":
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        data[i] = [c * x for x in data[j]]
    a = IntMatrix(n, n, data)
    assert determinant(a) == (-1) ** n * charpoly(a)[0]
    if n and shape == "zero_column" or n > 1 and shape == "dependent_row":
        assert determinant(a) == 0


def test_determinant_small_cases():
    assert determinant(IntMatrix.zeros(0, 0)) == 1
    assert determinant(IntMatrix.from_rows([[-7]])) == -7
    assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]])) == -6
    with pytest.raises(ValueError):
        determinant(IntMatrix.zeros(2, 3))


def shaped_square(n, shape, seed):
    """An n x n matrix with entries in [-6, 6], of rank n - 1 or less for
    the shapes `zero_column` and `dependent_row`, and of rank n - 2 or less
    for `rank_drop_two`, where adj(A) = 0."""
    rng = random.Random(seed)
    data = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    if n and shape == "zero_column":
        j = rng.randrange(n)
        for row in data:
            row[j] = 0
    elif n > 1 and shape == "dependent_row":
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        data[i] = [c * x for x in data[j]]
    elif n > 2 and shape == "rank_drop_two":
        c = rng.randint(-3, 3)
        data[1] = [0] * n
        data[2] = [c * x for x in data[0]]
    return IntMatrix(n, n, data)


SHAPES = ["random", "zero_column", "dependent_row", "rank_drop_two"]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.sampled_from(SHAPES), st.integers(0, 10**6))
def test_adjugate_times_matrix_is_det_identity(n, shape, seed):
    a = shaped_square(n, shape, seed)
    adj = adjugate(a)
    det_i = IntMatrix.identity(n).scaled(determinant(a))
    assert (adj.rows, adj.cols) == (n, n)
    assert a @ adj == det_i and adj @ a == det_i
    if n > 2 and shape == "rank_drop_two":
        assert adj.is_zero()


def cofactor_adjugate(a):
    """adj(A)[i][j] = (-1)^(i+j) det(A with row j and column i removed)."""
    n = a.rows
    return IntMatrix(n, n, [[(-1) ** (i + j) * determinant(a.submatrix(
        [k for k in range(n) if k != j], [k for k in range(n) if k != i]))
        for j in range(n)] for i in range(n)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.sampled_from(SHAPES), st.integers(0, 10**6))
def test_adjugate_matches_cofactors(n, shape, seed):
    a = shaped_square(n, shape, seed)
    assert adjugate(a) == cofactor_adjugate(a)


def test_adjugate_small_cases():
    assert adjugate(IntMatrix.zeros(0, 0)) == IntMatrix.zeros(0, 0)
    assert adjugate(IntMatrix.from_rows([[-7]])) == IntMatrix.from_rows([[1]])
    assert adjugate(IntMatrix.from_rows([[1, 2], [3, 4]])) == IntMatrix.from_rows([[4, -2], [-3, 1]])
    with pytest.raises(ValueError, match="adjugate needs a square matrix"):
        adjugate(IntMatrix.zeros(2, 3))
    with pytest.raises(ValueError, match="characteristic polynomial needs a square matrix"):
        charpoly(IntMatrix.zeros(3, 2))


def test_matrix_power():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    assert matrix_power(a, 0) == IntMatrix.identity(2)
    assert matrix_power(a, 1) == a
    assert matrix_power(a, 10) == IntMatrix.from_rows([[89, 55], [55, 34]])  # Fibonacci
    b = IntMatrix.from_rows([[2, -1, 0], [1, 3, 1], [0, 0, -2]])
    assert matrix_power(b, 5) == b @ b @ b @ b @ b


def test_matrix_power_rejects_a_negative_exponent_and_a_non_square_matrix():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="k >= 0"):
        matrix_power(a, -1)
    for k in (0, 1, 2):
        with pytest.raises(ValueError, match="square"):
            matrix_power(IntMatrix.from_rows([[1, 2, 3]]), k)


def naive_power(a, k):
    out = IntMatrix.identity(a.rows)
    for _ in range(k):
        out = out @ a
    return out


@pytest.mark.parametrize("n", range(5))
def test_charpoly_adjugate_and_powers_leave_their_input_alone(n):
    # the kernels write into the diagonals of the products they build and
    # start powers from a copy of A: no result may share a row list with A
    a = shaped_square(n, "random", 83 + n)
    before = [row[:] for row in a.data]
    coeffs = charpoly(a)
    results = [adjugate(a)] + [matrix_power(a, k) for k in range(6)]
    assert a.data == before
    assert results[1:] == [naive_power(a, k) for k in range(6)]
    assert not any(r is s for res in results for r in res.data for s in a.data)
    for res in results:
        for row in res.data:
            row[:] = [x + 1 for x in row]
    assert a.data == before and charpoly(a) == coeffs


def test_poly_eval_matrix_rejects_a_non_square_matrix():
    for coeffs in ([], [3], [0, 1], [6, -5, 1]):
        for shape in ((2, 3), (3, 2), (0, 1)):
            with pytest.raises(ValueError, match="needs a square matrix"):
                poly_eval_matrix(coeffs, IntMatrix.zeros(*shape))
    a = IntMatrix.from_rows([[2, 1], [0, 3]])
    assert poly_eval_matrix([], a) == IntMatrix.zeros(2, 2)
    assert poly_eval_matrix([3], a) == IntMatrix.identity(2).scaled(3)
    assert poly_eval_matrix([1, -2, 1], a) == naive_power(a, 2) - a.scaled(2) + IntMatrix.identity(2)


def test_matrix_text_roundtrip():
    a = IntMatrix.from_rows([[1, -2], [30, 4]])
    text = a.to_text()
    assert IntMatrix.from_text(text) == a
    assert IntMatrix.from_text(text).to_text() == text


def test_matrix_text_roundtrip_of_every_shape():
    # an r x 0 matrix, the relations of a free group, writes r blank rows
    for rows, cols in [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3)]:
        a = IntMatrix(rows, cols, [[3 * i - j for j in range(cols)] for i in range(rows)])
        text = a.to_text()
        assert IntMatrix.from_text(text) == a
        assert IntMatrix.from_text(text + "\n").to_text() == text


def test_negative_dimensions_are_rejected():
    # each names the bad dimension instead of building a malformed shape
    for build, match in [(lambda: IntMatrix.zeros(2, -1), "2x-1"),
                         (lambda: IntMatrix.zeros(-3, 0), "-3x0"),
                         (lambda: IntMatrix.identity(-2), "size -2"),
                         (lambda: IntMatrix.from_columns([], rows=-1), "-1x0"),
                         (lambda: IntMatrix(0, -1, []), "0x-1"),
                         (lambda: IntMatrix(-1, 0, []), "-1x0"),
                         (lambda: FgAbGroup.free(-2), "-2x0")]:
        with pytest.raises(ValueError, match=f"negative dimension.*{match}"):
            build()
    assert IntMatrix.zeros(0, 0) == IntMatrix.identity(0) == IntMatrix.from_columns([], rows=0)
    assert FgAbGroup.free(0).is_trivial()


def test_a_matrix_has_no_hash():
    # builders write an IntMatrix's data in place, so a hash could go stale
    with pytest.raises(TypeError):
        hash(IntMatrix.identity(2))


def test_matrix_text_errors():
    for header in ("0 -2", "-1 0", "-2 -2"):
        with pytest.raises(ValueError, match=f"negative dimension in matrix header '{header}'"):
            IntMatrix.from_text(header)
    with pytest.raises(ValueError, match="expected 0 entries"):
        IntMatrix.from_text("2 0\n1")
    with pytest.raises(ValueError):
        IntMatrix.from_text("")
    with pytest.raises(ValueError):
        IntMatrix.from_text("2 2\n1 2\n3")
    with pytest.raises(ValueError):
        IntMatrix.from_text("junk\n1")


def test_from_columns_rejects_ragged_or_mismatched_columns():
    assert IntMatrix.from_columns([[1, 2], [3, 4]], rows=2) == IntMatrix.from_rows([[1, 3], [2, 4]])
    assert IntMatrix.from_columns([[], []]) == IntMatrix.zeros(0, 2)
    with pytest.raises(ValueError):
        IntMatrix.from_columns([[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([[1, 2], [3, 4]], rows=3)
    with pytest.raises(ValueError):
        IntMatrix.from_columns([])


def test_entries_must_be_integers():
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[2.7, 1]])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([["3"]])
    with pytest.raises(TypeError):
        IntMatrix.identity(2).scaled(0.5)


def test_derived_matrices_share_no_rows():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[5, 6]])
    stacked = a.vstack(b)
    stacked.data[0][0] = 9
    stacked.data[2][1] = 9
    assert a == IntMatrix.from_rows([[1, 2], [3, 4]]) and b == IntMatrix.from_rows([[5, 6]])
    block = IntMatrix.block_diag([a, b])
    block.data[0][0] = 9
    assert a.data[0][0] == 1


def test_block_diag_shape_is_the_sum_of_the_blocks():
    assert IntMatrix.block_diag([]) == IntMatrix.zeros(0, 0)
    assert IntMatrix.block_diag([IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 3)]) == IntMatrix.zeros(2, 3)
    a, b = IntMatrix.from_rows([[1, 2]]), IntMatrix.from_rows([[3], [4]])
    assert IntMatrix.block_diag([a, b]) == IntMatrix.from_rows([[1, 2, 0], [0, 0, 3], [0, 0, 4]])


def test_kron():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[3], [4]])
    assert a.kron(b) == IntMatrix.from_rows([[3, 6], [4, 8]])


def test_vec_unvec():
    x = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    a = IntMatrix.from_rows([[1, -1], [0, 2], [3, 1]])
    assert vec(x) == [1, 4, 2, 5, 3, 6]
    assert unvec(vec(x), 2, 3) == x
    # column-major is the order in which vec(X A) = (A^t kron I) vec(X)
    assert vec(x @ a) == a.transpose().kron(IntMatrix.identity(2)).apply(vec(x))
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        assert vec(IntMatrix.zeros(r, c)) == []
        assert unvec([], r, c) == IntMatrix.zeros(r, c)
