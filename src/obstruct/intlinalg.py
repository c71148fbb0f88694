"""Exact integer linear algebra.

Arbitrary-precision matrices over Z, Smith normal form with the unimodular
transforms U, V and the inverse U^-1 (V^-1 is not computed), integer
kernels, exact linear solves, determinants, adjugates, matrix powers and
column lattice arithmetic.
Everything runs on plain Python ints, so no overflow can occur at any
intermediate step.

There is one elimination, `smith_normal_form`.  It runs on the matrix alone
and records its elementary operations; the diagonal and rank are kept at
once, and U, U^-1 and V are each built by replaying the record only when a
caller first reads that one.  So `matrix_rank`, `is_unimodular` and
`cokernel_factors`, which read the invariant factors alone, build no
transform, a solve builds U and V, a lattice basis U^-1 alone, and
`kernel_basis` builds V alone.  Structural zeros cost nothing: a matrix
with no rows or no columns is not eliminated at all (its diagonal is empty
and its transforms are identities), and the kernel of a matrix of full
column rank is read off the rank, with no V.

Every call of `smith_normal_form` eliminates, and no decomposition is
looked up by content.  A decomposition is the one lattice object, the
column lattice of its matrix.  It is kept by the object that built the
matrix, and whoever needs it again reads it there: an `abelian.FgAbGroup`
keeps that of its relations, and with it the group's free resolution
0 -> Z^r --B--> Z^n -> V -> 0 (B is its `image_basis`), which resolution
lifts, Ext^1_Z, the torsion subgroup and the x-action test read there; an
`abelian.GroupMorphism` that of its matrix beside the target relations,
which its surjectivity test, preimage lattice, lifts and cokernel group all
read.  A construction that needs one matrix twice holds on to its owner
instead of building the matrix again.

Every exact solve goes through one loop, `_factor`: with U a V = D it
solves U b = D x' entry by entry on the diagonal, one column b at a time,
and x = V x' solves a x = b.  Callers reach it as
`SmithDecomposition.factor`, which factors a map b through the columns of
the matrix (the idiom of kernels, lifts and corestrictions; on [a | R],
`factor(b, a.cols)` factors b through a modulo the lattice of R); as
`SmithDecomposition.image_coords` against `image_basis`, so a map into a
group's free resolution is solved through the group's own decomposition;
as `abelian.FgAbGroup.contains_relation` for membership in relations; as
`abelian.GroupMorphism.lift` modulo the target relations, against the
morphism's own decomposition; and as `solve` for a single vector.

Lattice equality is a Hopfian test.  Finitely generated abelian groups are
Hopfian: a surjection between isomorphic ones is injective.  So if
L' is inside L, both inside Z^n, and Z^n/L and Z^n/L' have the same
invariant factors (`cokernel_factors`), the surjection Z^n/L' -> Z^n/L is
an isomorphism and L = L'.  `SmithDecomposition.equals` reads both from
the two decompositions, and builds no lattice basis.

Conventions:
  * matrices act on column vectors; the column span of a matrix is called
    its (column) lattice;
  * vectors are plain lists/tuples of ints;
  * `vec` stacks the columns of a matrix into one vector (column-major), the
    order in which vec(X A) = (A^t kron I) vec(X); `unvec` inverts it;
  * when the record is replayed, U^-1 and V are accumulated transposed, so
    each elementary operation rewrites whole rows; the returned matrices
    are in the usual orientation.
"""

from __future__ import annotations

from operator import index, mul

__all__ = [
    "IntMatrix", "ExactArithmeticError", "smith_normal_form", "solve", "kernel_basis",
    "matrix_rank", "is_unimodular", "charpoly",
]


class ExactArithmeticError(ArithmeticError):
    """An exact computation broke an identity that holds by construction,
    such as a division that must be exact or a witness that must verify."""


class IntMatrix:
    """Dense integer matrix, row-major.

    Treated as immutable after construction; all operations return fresh
    matrices.  Zero-row and zero-column shapes are legal everywhere.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimension in a {rows}x{cols} shape")
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        for r in data:
            if len(r) != cols:
                raise ValueError(f"expected {cols} cols, got {len(r)}")
        self.rows = rows
        self.cols = cols
        self.data = [list(map(index, r)) for r in data]

    @classmethod
    def _wrap(cls, rows, cols, data):
        """Adopt freshly built lists of int rows without checking or copying.

        Only for lists that the caller has just built from ints and that no
        one else holds.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def zeros(cls, rows, cols):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimension in a {rows}x{cols} shape")
        return cls._wrap(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        if n < 0:
            raise ValueError(f"negative dimension: identity of size {n}")
        return cls._wrap(n, n, _identity_rows(n))

    @classmethod
    def from_columns(cls, columns, rows=None):
        if not columns:
            if rows is None:
                raise ValueError("rows required for empty column list")
            return cls.zeros(rows, 0)
        n = len(columns[0])
        if rows is not None and rows != n:
            raise ValueError(f"expected columns of length {rows}, got {n}")
        if any(len(c) != n for c in columns):
            raise ValueError("columns of unequal length")
        return cls(n, len(columns), [[c[i] for c in columns] for i in range(n)])

    def copy(self):
        """A fresh matrix with the same entries, sharing no row list."""
        return IntMatrix._wrap(self.rows, self.cols, [r[:] for r in self.data])

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"

    def is_zero(self):
        return all(all(e == 0 for e in r) for r in self.data)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        data = [list(c) for c in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)]
        return IntMatrix._wrap(self.cols, self.rows, data)

    def __add__(self, other):
        self._shape_check(other)
        return IntMatrix._wrap(
            self.rows, self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        self._shape_check(other)
        return IntMatrix._wrap(
            self.rows, self.cols,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __neg__(self):
        return IntMatrix._wrap(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scaled(self, c):
        c = index(c)
        return IntMatrix._wrap(self.rows, self.cols, [[c * a for a in r] for r in self.data])

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = list(zip(*other.data)) if other.rows else [()] * other.cols
        out = [[sum(map(mul, row, col)) for col in bt] for row in self.data]
        return IntMatrix._wrap(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        return [sum(map(mul, row, vec)) for row in self.data]

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix._wrap(
            self.rows, self.cols + other.cols,
            [ra + rb for ra, rb in zip(self.data, other.data)],
        )

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        # copies: the result must not share row lists with its operands
        return IntMatrix._wrap(self.rows + other.rows, self.cols,
                               [r[:] for r in self.data] + [r[:] for r in other.data])

    def kron(self, other):
        """Kronecker product, blocks self[i][j] * other."""
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = [[0] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if a == 0:
                    continue
                for k in range(other.rows):
                    orow = other.data[k]
                    trow = out[i * other.rows + k]
                    base = j * other.cols
                    for l in range(other.cols):
                        if orow[l]:
                            trow[base + l] += a * orow[l]
        return IntMatrix._wrap(rows, cols, out)

    @staticmethod
    def block_diag(blocks):
        """The blocks down the diagonal: sum of their rows by sum of their
        columns, 0x0 for no blocks."""
        total_r = sum(b.rows for b in blocks)
        total_c = sum(b.cols for b in blocks)
        out = [[0] * total_c for _ in range(total_r)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                out[r0 + i][c0:c0 + b.cols] = b.data[i]
            r0 += b.rows
            c0 += b.cols
        return IntMatrix._wrap(total_r, total_c, out)

    def submatrix(self, row_idx, col_idx):
        return IntMatrix._wrap(
            len(row_idx), len(col_idx),
            [[self.data[i][j] for j in col_idx] for i in row_idx],
        )

    def to_text(self):
        """Shared matrix text format: `rows cols` then the entry rows."""
        lines = [f"{self.rows} {self.cols}"]
        for r in self.data:
            lines.append(" ".join(str(e) for e in r))
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text):
        """The matrix `to_text` writes, of any shape."""
        lines = text.strip().splitlines()
        if not lines:
            raise ValueError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError(f"bad matrix header {lines[0]!r}")
        rows, cols = int(head[0]), int(head[1])
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimension in matrix header {lines[0]!r}")
        body = lines[1:]
        if not cols:  # the entry rows are blank, and strip() drops them
            body += [""] * (rows - len(body))
        if len(body) != rows:
            raise ValueError(f"expected {rows} entry rows, got {len(body)}")
        data = []
        for ln in body:
            entries = [int(tok) for tok in ln.split()]
            if len(entries) != cols:
                raise ValueError(f"expected {cols} entries in row {ln!r}")
            data.append(entries)
        return cls(rows, cols, data)


class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular, D diagonal with d_i | d_{i+1} >= 0.

    `smith_normal_form` eliminates on A alone and records its elementary
    operations.  `diag` (padded with zeros to min(rows, cols)) and `rank`
    are kept at once; U, U^-1 and V are each built on its own first read by
    replaying the recorded row or column operations on an identity, and D
    is built from `diag` on each read.  The row record is dropped once both
    U and U^-1 exist, the column record once V does.  A caller that needs
    only the invariant factors builds no transform, and `kernel_basis` of a
    matrix of full column rank builds none either.  V^-1 is never built: no
    caller needs coordinates with respect to the columns of V.
    """

    __slots__ = ("matrix", "diag", "rank", "_row_ops", "_col_ops", "_U", "_Uinv", "_V")

    def __init__(self, matrix, diag, row_ops, col_ops):
        self.matrix = matrix
        self.diag = diag
        self.rank = sum(1 for d in diag if d != 0)
        self._row_ops = row_ops
        self._col_ops = col_ops
        self._U = self._Uinv = self._V = None

    @property
    def U(self):
        if self._U is None:
            m = self.matrix.rows
            U = _identity_rows(m)
            for r, s, q in self._row_ops:
                if s is None:
                    U[r] = [-x for x in U[r]]
                elif q is None:
                    U[r], U[s] = U[s], U[r]
                else:
                    U[r] = [x - q * y for x, y in zip(U[r], U[s])]
            self._U = IntMatrix._wrap(m, m, U)
            if self._Uinv is not None:
                self._row_ops = None
        return self._U

    @property
    def Uinv(self):
        if self._Uinv is None:
            # U^-1 is held transposed, so the inverse of each row operation
            # on U, a column operation on U^-1, also rewrites whole rows
            m = self.matrix.rows
            Uinv_t = _identity_rows(m)  # row i is column i of U^-1
            for r, s, q in self._row_ops:
                if s is None:
                    Uinv_t[r] = [-x for x in Uinv_t[r]]
                elif q is None:
                    Uinv_t[r], Uinv_t[s] = Uinv_t[s], Uinv_t[r]
                else:
                    Uinv_t[s] = [x + q * y for x, y in zip(Uinv_t[s], Uinv_t[r])]
            self._Uinv = IntMatrix._wrap(m, m, [list(c) for c in zip(*Uinv_t)])
            if self._U is not None:
                self._row_ops = None
        return self._Uinv

    @property
    def V(self):
        if self._V is None:
            n = self.matrix.cols
            V_t = _identity_rows(n)  # row j is column j of V
            for c, d, q in self._col_ops:
                if q is None:
                    V_t[c], V_t[d] = V_t[d], V_t[c]
                else:
                    V_t[c] = [x - q * y for x, y in zip(V_t[c], V_t[d])]
            self._col_ops = None
            self._V = IntMatrix._wrap(n, n, [list(c) for c in zip(*V_t)])
        return self._V

    @property
    def D(self):
        D = IntMatrix.zeros(self.matrix.rows, self.matrix.cols)
        for i, d in enumerate(self.diag):
            D.data[i][i] = d
        return D

    def diagonal_padded(self, n):
        """First n diagonal entries, padding with zeros past min(rows, cols)."""
        return [self.diag[i] if i < len(self.diag) else 0 for i in range(n)]

    def kernel_basis(self) -> IntMatrix:
        """Basis of the integer kernel of `matrix`: the columns of V past the
        rank (none, and V is not built, at full column rank)."""
        n = self.matrix.cols
        if self.rank == n:
            return IntMatrix.zeros(n, 0)
        return IntMatrix.from_columns([self.V.column(j) for j in range(self.rank, n)], rows=n)

    def image_basis(self) -> IntMatrix:
        """A basis of the column lattice: d_i * (column i of U^-1) over the
        nonzero diagonal; B of 0 -> Z^rank --B--> Z^rows -> coker -> 0."""
        return IntMatrix.from_columns(
            [[self.diag[i] * e for e in self.Uinv.column(i)] for i in range(self.rank)],
            rows=self.matrix.rows)

    def image_coords(self, b: IntMatrix):
        """The unique X with image_basis() @ X == b, or None if some column
        of b is outside the lattice: the first `rank` rows of D x' == U b."""
        xs = _factor(self, b.transpose().data)
        if xs is None:
            return None
        return IntMatrix._wrap(self.rank, b.cols, [[x[i] for x in xs] for i in range(self.rank)])

    def factor(self, b: IntMatrix, rows=None):
        """X with matrix @ X == b, or None if some column of b is outside;
        only the first `rows` rows of X, when given."""
        xs = _factor(self, b.transpose().data)
        if xs is None:
            return None
        v = self.V.data[:rows]
        return IntMatrix._wrap(len(v), b.cols, [[sum(map(mul, r, x)) for x in xs] for r in v])

    def equals(self, other: "SmithDecomposition") -> bool:
        """Do the column lattices of the two matrices coincide?  Hopfian
        test: the same cokernel factors, and the columns of `other` inside
        this lattice."""
        n = self.matrix.rows
        if other.matrix.rows != n:
            raise ValueError("ambient dimension mismatch")
        return (self.diagonal_padded(n) == other.diagonal_padded(n)
                and _factor(self, other.matrix.transpose().data) is not None)


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _find_pivot(block):
    """(i, j) of the first entry of least nonzero |value|, or None."""
    best = None
    least = 0
    for i, row in enumerate(block):
        for j, e in enumerate(row):
            if e:
                v = e if e > 0 else -e
                if best is None or v < least:
                    if v == 1:
                        return i, j
                    best, least = (i, j), v
    return best


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with minimal-absolute-value pivoting.

    Pivot choice: smallest |entry| among the remaining block, ties broken by
    lowest row then lowest column.  This keeps intermediate entries small and
    makes the output deterministic for a fixed input.  Every call
    eliminates.
    """
    return _eliminate(a)


def _eliminate(a: IntMatrix) -> SmithDecomposition:
    """The elimination of `smith_normal_form`.

    It holds only the active block (rows and columns >= t at step t), since
    everything outside it is already zero, and records each elementary
    operation in absolute indices: (r, s, q) for
    row_r -= q * row_s, (r, s, None) for a swap of rows r and s and
    (r, None, None) for a sign flip of row r; (c, d, q) for
    col_c -= q * col_d and (c, d, None) for a swap of columns.  A matrix
    with no rows or no columns has nothing to eliminate: its diagonal and
    records are empty, and its block is not copied.
    """
    if not (a.rows and a.cols):
        return SmithDecomposition(a, [], (), ())
    block = [row[:] for row in a.data]
    diag = []
    row_ops = []
    col_ops = []
    t = 0

    # Block indices i, j are relative to t; recorded ones are absolute.
    def move_pivot(pi, pj):
        if pi:
            block[0], block[pi] = block[pi], block[0]
            row_ops.append((t, t + pi, None))
        if pj:
            for row in block:
                row[0], row[pj] = row[pj], row[0]
            col_ops.append((t, t + pj, None))
        if block[0][0] < 0:
            block[0] = [-x for x in block[0]]
            row_ops.append((t, None, None))

    while block and block[0]:
        piv = _find_pivot(block)
        if piv is None:
            break
        move_pivot(*piv)
        while True:
            # clear column 0 then row 0; remainders may create smaller pivots
            p = block[0][0]
            top = block[0]
            dirty = False
            for i in range(1, len(block)):
                row = block[i]
                if row[0] != 0:
                    q = row[0] // p
                    block[i] = row = [x - q * y for x, y in zip(row, top)]
                    row_ops.append((t + i, t, q))
                    if row[0] != 0:
                        dirty = True
            for j in range(1, len(top)):
                if top[j] != 0:
                    q = top[j] // p
                    for row in block:
                        row[j] -= q * row[0]
                    col_ops.append((t + j, t, q))
                    if top[j] != 0:
                        dirty = True
            if dirty:
                move_pivot(*_find_pivot(block))
                continue
            # column and row are clean; enforce divisibility of the block,
            # which holds trivially for p == 1
            if p == 1:
                break
            k = next((i for i, row in enumerate(block) if any(x % p for x in row)), None)
            if k is None:
                break
            block[0] = [x + y for x, y in zip(top, block[k])]
            row_ops.append((t, t + k, -1))
        diag.append(block[0][0])
        block = [row[1:] for row in block[1:]]
        t += 1

    diag += [0] * (min(a.rows, a.cols) - len(diag))
    return SmithDecomposition(a, diag, row_ops, col_ops)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {x : a @ x = 0}, as matrix columns.

    The returned lattice is saturated (the kernel of an integer matrix
    always is).
    """
    return smith_normal_form(a).kernel_basis()


def _factor(s: SmithDecomposition, columns):
    """Per right-hand side b, the x' with D x' == U b, so that x = V x'
    solves s.matrix @ x == b; None if some b lies outside the column lattice
    of s.matrix."""
    n = s.matrix.cols
    diag = s.diag
    out = []
    for b in columns:
        xprime = [0] * n
        for i, e in enumerate(s.U.apply(b)):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if e:
                    return None
            elif e % d:
                return None
            else:
                xprime[i] = e // d
        out.append(xprime)
    return out


def solve(a: IntMatrix, b, snf=None):
    """One integer solution x of a @ x = b, or None if none exists."""
    s = snf if snf is not None else smith_normal_form(a)
    x = _factor(s, [b])
    return None if x is None else s.V.apply(x[0])


def lattice_basis(gens: IntMatrix) -> IntMatrix:
    return smith_normal_form(gens).image_basis()


def cokernel_factors(a: IntMatrix) -> list:
    """Invariant factors of Z^rows / (column lattice of a), units included:
    the Smith diagonal of a padded with zeros to a.rows."""
    return smith_normal_form(a).diagonal_padded(a.rows)


def lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Do two generating matrices span the same column lattice?"""
    return smith_normal_form(a).equals(smith_normal_form(b))


def matrix_rank(a: IntMatrix) -> int:
    return smith_normal_form(a).rank


def is_unimodular(a: IntMatrix) -> bool:
    return a.rows == a.cols and all(d == 1 for d in smith_normal_form(a).diag)


def vec(m: IntMatrix) -> list:
    """The columns of m stacked into one vector (column-major)."""
    return [e for col in zip(*m.data) for e in col]


def unvec(v, rows, cols) -> IntMatrix:
    """The rows x cols matrix whose vec is the first rows * cols entries of v."""
    return IntMatrix(rows, cols, [v[i:rows * cols:rows] for i in range(rows)])


def charpoly(a: IntMatrix):
    """Coefficients [c_0, ..., c_n] of det(x*I - A) = sum c_k x^k, c_n = 1.

    Faddeev-LeVerrier; every division is exact over Z, and an inexact one
    raises ExactArithmeticError.
    """
    return _faddeev_leverrier(a, "characteristic polynomial")[0]


def adjugate(a: IntMatrix) -> IntMatrix:
    """adj(A), with A adj(A) = adj(A) A = det(A) I, for any square A.

    Fraction-free: the last Faddeev-LeVerrier iterate M_n has
    A M_n + c_0 I = 0 by Cayley-Hamilton and c_0 = (-1)^n det A, so
    adj(A) = (-1)^(n+1) M_n, with every intermediate an integer matrix.
    """
    last = _faddeev_leverrier(a, "adjugate")[1]
    return last if a.rows % 2 else -last


def _faddeev_leverrier(a: IntMatrix, what):
    """(charpoly coefficients, M_n): M_1 = I, M_(k+1) = A M_k + c_(n-k) I.

    Each step builds one matrix, the product A M_k (for M_1 = I, a copy of
    A), reads c_(n-k) off its trace and adds it to the diagonal in place to
    make M_(k+1): n - 1 products in all, and no identity past M_1.
    """
    n = a.rows
    if a.cols != n:
        raise ValueError(f"{what} needs a square matrix")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    last = IntMatrix.identity(n)
    am = a.copy()
    for k in range(1, n + 1):
        tr = sum(am.data[i][i] for i in range(n))
        if tr % k:
            raise ExactArithmeticError("Faddeev-LeVerrier division must be exact")
        c = -(tr // k)
        coeffs[n - k] = c
        if k < n:
            last = _add_to_diagonal(am, c)
            am = a @ last
    return coeffs, last


def _add_to_diagonal(m: IntMatrix, c) -> IntMatrix:
    """m + c I, written into the diagonal of m itself: only for a square
    matrix the caller has just built and no one else holds."""
    for i, row in enumerate(m.data):
        row[i] += c
    return m


def determinant(a: IntMatrix) -> int:
    """det(a) by fraction-free (Bareiss) elimination.

    Every division is exact over Z, by Sylvester's identity, and an inexact
    one raises ExactArithmeticError.  A zero pivot is swapped with a lower
    row holding a nonzero entry of its column; if there is none, det = 0.
    """
    n = a.rows
    if a.cols != n:
        raise ValueError("determinant needs a square matrix")
    m = [row[:] for row in a.data]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for i in range(k + 1, n):
            row = m[i]
            q = row[k]
            for j in range(k + 1, n):
                entry, rem = divmod(p * row[j] - q * top[j], prev)
                if rem:
                    raise ExactArithmeticError("Bareiss division must be exact")
                row[j] = entry
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


def matrix_power(a: IntMatrix, k: int) -> IntMatrix:
    """a**k for a square matrix and k >= 0, always a fresh matrix; any
    other matrix or exponent is a ValueError.

    k = 0 builds the identity and k = 1 a copy of a.  Otherwise the copy is
    squared once per bit of k below its top bit and multiplied by a after
    each square whose bit is set: bit_length(k) + popcount(k) - 2
    products, none for k = 1 and four for k = 10.
    """
    if a.rows != a.cols:
        raise ValueError(f"matrix power needs a square matrix, got {a.rows}x{a.cols}")
    if k < 0:
        raise ValueError(f"matrix power needs an exponent k >= 0, got {k}")
    if k == 0:
        return IntMatrix.identity(a.rows)
    out = a.copy()
    for bit in bin(k)[3:]:
        out = out @ out
        if bit == "1":
            out = out @ a
    return out


def poly_eval_matrix(coeffs, a: IntMatrix) -> IntMatrix:
    """Evaluate sum c_k x^k at a square matrix (Horner), each c_k added to
    the diagonal of the fresh product in place; a non-square matrix is a
    ValueError."""
    n = a.rows
    if a.cols != n:
        raise ValueError("polynomial evaluation needs a square matrix")
    out = IntMatrix.zeros(n, n)
    for c in reversed(coeffs):
        out = _add_to_diagonal(out @ a, c)
    return out
