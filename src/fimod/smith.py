"""Smith normal form, integer kernels and lattice normal forms.

The diagonal-only path strips unit pivots sparsely first and runs the dense
min-|pivot| algorithm on the small residue; transform-carrying SNF is dense
and computed only when asked for, since tracking the unimodular factors
dominates the cost.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import Matrix, PivotPolicy, SparseEliminator, apply_columns
from .rings import ZZ, IntegerRing


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors d_1 | d_2 | ... | d_k plus optional transforms.

    When transforms are present, left @ A @ right equals the diagonal
    matrix of the factors exactly, and both transforms are unimodular.
    """

    factors: tuple[int, ...]
    left: Matrix | None = None
    right: Matrix | None = None

    def diagonal_matrix(self, nrows: int, ncols: int) -> Matrix:
        ent = {(i, i): d for i, d in enumerate(self.factors)}
        return Matrix(ZZ, nrows, ncols, ent)


def _check_integer(m: Matrix):
    if not isinstance(m.ring, IntegerRing):
        raise ValueError(f"Smith form requires the integer ring, got {m.ring}")


def smith_form(m: Matrix, transforms: bool = False) -> SmithForm:
    """Smith normal form of an integer matrix."""
    _check_integer(m)
    if transforms:
        return _snf_dense_with_transforms(m)
    return SmithForm(tuple(invariant_factors(m)))


def invariant_factors(m: Matrix) -> list[int]:
    """Invariant factors (positive, divisibility chain, no zeros)."""
    _check_integer(m)
    ones, residual = _strip_unit_pivots(m)
    rest = _snf_diagonal_dense(residual) if residual else []
    return [1] * ones + rest


class _UnitPivots(PivotPolicy):
    """Only +-1 entries pivot, in the column held by the fewest rows; a row
    without one is parked until an update pushes it again."""

    def column(self, row, cols):
        best = None
        for c, v in row.items():
            if v == 1 or v == -1:
                k = len(cols[c])
                if best is None or k < best[0]:
                    best = (k, c)
        return None if best is None else best[1]

    def pivot(self, row, pc):
        return row if row[pc] == 1 else {c: -v for c, v in row.items()}


def _strip_unit_pivots(m: Matrix) -> tuple[int, list[dict[int, int]]]:
    """Eliminate with +-1 pivots sparsely; return (#unit factors, residue rows)."""
    elim = SparseEliminator(m.nonzero_rows(), _UnitPivots())
    ones = elim.run()
    return ones, list(elim.rows.values())


def _snf_diagonal_dense(sparse_rows: list[dict[int, int]]) -> list[int]:
    """Dense SNF diagonal of the residue left by unit-pivot stripping."""
    cols = sorted({c for row in sparse_rows for c in row})
    cpos = {c: k for k, c in enumerate(cols)}
    a = [[0] * len(cols) for _ in sparse_rows]
    for i, row in enumerate(sparse_rows):
        for c, v in row.items():
            a[i][cpos[c]] = v
    return _snf_core(a, len(sparse_rows), len(cols), None, None)


def _snf_dense_with_transforms(m: Matrix) -> SmithForm:
    nr, nc = m.nrows, m.ncols
    a = [[int(v) for v in row] for row in m.to_dense_rows()]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    factors = _snf_core(a, nr, nc, u, v)
    left = Matrix.from_rows(ZZ, u) if nr else Matrix.zero(ZZ, 0, 0)
    right = Matrix.from_rows(ZZ, v) if nc else Matrix.zero(ZZ, 0, 0)
    return SmithForm(tuple(factors), left, right)


def _snf_core(a: list[list[int]], nr: int, nc: int,
              u: list[list[int]] | None, v: list[list[int]] | None) -> list[int]:
    """In-place SNF elimination with min-|value| pivoting.

    Row operations are mirrored on u, column operations on v, so
    u @ A_original @ v = diag(result) when both are supplied.
    """

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst -= q * row src
        ad, asrc = a[dst], a[src]
        for k in range(nc):
            if asrc[k]:
                ad[k] -= q * asrc[k]
        if u is not None:
            ud, usrc = u[dst], u[src]
            for k in range(nr):
                if usrc[k]:
                    ud[k] -= q * usrc[k]

    def add_col(dst, src, q):
        # col dst -= q * col src
        for row in a:
            if row[src]:
                row[dst] -= q * row[src]
        if v is not None:
            for row in v:
                if row[src]:
                    row[dst] -= q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    factors: list[int] = []
    t = 0
    while True:
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x:
                    ax = abs(x)
                    if best is None or ax < best:
                        best, piv = ax, (i, j)
                        if ax == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, nr)):
                break
        if a[t][t] < 0:
            negate_row(t)
        # pivot must divide the rest of the submatrix for the chain to hold
        p = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, -1)  # row t += row offender
            continue
        factors.append(p)
        t += 1
        if t == nr or t == nc:
            break
    return factors


# ---------------------------------------------------------------------------
# kernels, solving, lattice forms

def integer_kernel_basis(m: Matrix) -> list[dict[int, int]]:
    """Basis of the lattice {x in Z^ncols : m @ x = 0}, as column dicts."""
    _check_integer(m)
    if m.is_zero():
        return [{j: 1} for j in range(m.ncols)]
    sf = smith_form(m, transforms=True)
    k = len(sf.factors)
    cols = sf.right.columns()
    return [cols[j] for j in range(k, m.ncols)]


class IntegerSolver:
    """Repeated exact solving of A @ x = b over Z for a fixed A."""

    def __init__(self, a: Matrix):
        _check_integer(a)
        self.a = a
        self.sf = smith_form(a, transforms=True)
        self.k = len(self.sf.factors)
        self._left_cols = self.sf.left.columns()
        self._right_cols = self.sf.right.columns()

    def solve(self, b: dict[int, int]) -> dict[int, int] | None:
        """A sparse solution column, or None when b is outside the lattice."""
        y = apply_columns(ZZ, self._left_cols, b)
        z: dict[int, int] = {}
        for i, val in y.items():
            if i < self.k:
                d = self.sf.factors[i]
                if val % d:
                    return None
                z[i] = val // d
            elif val:
                return None
        return apply_columns(ZZ, self._right_cols, z)

    def contains(self, b: dict[int, int]) -> bool:
        return self.solve(b) is not None


def integer_in_span(span: Matrix, vectors: Matrix) -> bool:
    """True iff every column of `vectors` lies in the column lattice of `span`."""
    if vectors.is_zero():
        return True
    solver = IntegerSolver(span)
    return all(solver.contains(col) for col in vectors.columns())


def lattice_canonical(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the column lattice of an integer matrix.

    Row-style Hermite normal form of the transpose: pivots positive,
    entries above each pivot reduced into [0, pivot). Two integer
    matrices span the same column lattice iff their canonical forms
    are equal.
    """
    _check_integer(m)
    ncols = m.nrows  # rows of the transpose live in Z^(m.nrows)
    rows = [row for row in _transpose_dense(m) if any(row)]
    out: list[list[int]] = []
    r = 0
    for c in range(ncols):
        idx = [i for i in range(r, len(rows)) if rows[i][c]]
        if not idx:
            continue
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(rows[i][c]))
            i0 = idx[0]
            for i in idx[1:]:
                q = rows[i][c] // rows[i0][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
            idx = [i for i in idx if rows[i][c]]
        i0 = idx[0]
        rows[r], rows[i0] = rows[i0], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r][c]
        for i in range(r):
            if rows[i][c]:
                q = rows[i][c] // p
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rows = [row for row in rows[:r]] + [row for row in rows[r:] if any(row)]
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r])


def _transpose_dense(m: Matrix) -> list[list[int]]:
    rows = [[0] * m.nrows for _ in range(m.ncols)]
    for (i, j), v in m.entries.items():
        rows[j][i] = int(v)
    return rows


def integer_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix."""
    _check_integer(m)
    n = m.nrows
    if m.ncols != n:
        raise ValueError("inverse of a non-square matrix")
    a = [[Fraction(int(v)) for v in row] for row in m.to_dense_rows()]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        f = a[c][c]
        a[c] = [x / f for x in a[c]]
        inv[c] = [x / f for x in inv[c]]
        for i in range(n):
            if i != c and a[i][c]:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[c])]
                inv[i] = [x - g * y for x, y in zip(inv[i], inv[c])]
    ent = {}
    for i in range(n):
        for j in range(n):
            x = inv[i][j]
            if x:
                if x.denominator != 1:
                    raise ValueError("matrix is not unimodular")
                ent[(i, j)] = int(x)
    return Matrix(ZZ, n, n, ent)
