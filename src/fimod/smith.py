"""Smith normal form, integer kernels and lattice normal forms.

The diagonal-only path strips unit pivots sparsely first and runs the dense
min-|pivot| algorithm on the small residue. One Hermite loop serves every
lattice question: canonical lattice bases, and through the graph lattice
{(a x, x)} integer kernels, exact solving and unimodular inverses. The
transform-carrying SNF is dense and computed only for
smith_form(transforms=True).
"""
from __future__ import annotations

from dataclasses import dataclass

from .matrix import Matrix, PivotPolicy, SparseEliminator
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
# kernels, solving, lattice forms: one Hermite loop

def _hermite(rows: list[list[int]], width: int,
             reduced: bool = True) -> tuple[list[list[int]], int]:
    """Integer row echelon form on the first `width` columns, in place.

    Returns (rows, r): rows[:r] have positive pivots in strictly increasing
    columns below `width`, and rows[r:] vanish on those columns. With
    `reduced`, entries above each pivot lie in [0, pivot). Only unimodular
    row operations are used, so the row lattice is unchanged.
    """
    r = 0
    for c in range(width):
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
        if reduced:
            p = rows[r][c]
            for i in range(r):
                if rows[i][c]:
                    q = rows[i][c] // p
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows, r


def _graph_hermite(m: Matrix, reduced: bool = False):
    """_hermite of the rows (column j of m | e_j), which span the graph
    lattice {(m x, x)}, on their m-part: the x-parts of rows[r:] are a
    basis of ker m, and each row of rows[:r] is some (m x, x)."""
    _check_integer(m)
    rows = [row + [int(k == j) for k in range(m.ncols)]
            for j, row in enumerate(_transpose_dense(m))]
    return _hermite(rows, m.nrows, reduced)


def integer_kernel_basis(m: Matrix) -> list[dict[int, int]]:
    """Basis of the lattice {x in Z^ncols : m @ x = 0}, as column dicts."""
    rows, r = _graph_hermite(m)
    return [{j: v for j, v in enumerate(row[m.nrows:]) if v}
            for row in rows[r:]]


class IntegerSolver:
    """Repeated exact solving of A @ x = b over Z for a fixed A, by back
    substitution along the echelon rows (A x_k, x_k) of the graph form."""

    def __init__(self, a: Matrix):
        rows, r = _graph_hermite(a)
        self.a = a
        self._pivots = [(next(c for c, v in enumerate(row) if v), row)
                        for row in rows[:r]]

    def solve(self, b: dict[int, int]) -> dict[int, int] | None:
        """A sparse solution column, or None when b is outside the lattice."""
        nr = self.a.nrows
        # v stays (b - A x, -x) for the x accumulated so far
        v = [b.get(i, 0) for i in range(nr)] + [0] * self.a.ncols
        for c, row in self._pivots:
            q, rem = divmod(v[c], row[c])
            if rem:
                return None
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        if any(v[:nr]):
            return None
        return {j: -x for j, x in enumerate(v[nr:]) if x}

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
    rows, r = _hermite(_transpose_dense(m), m.nrows)
    return tuple(tuple(row) for row in rows[:r])


def _transpose_dense(m: Matrix) -> list[list[int]]:
    rows = [[0] * m.nrows for _ in range(m.ncols)]
    for (i, j), v in m.entries.items():
        rows[j][i] = int(v)
    return rows


def integer_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix: m is unimodular iff
    its reduced graph form has m-part I, and then row k is (e_k, m^-1 e_k)."""
    _check_integer(m)
    n = m.nrows
    if m.ncols != n:
        raise ValueError("inverse of a non-square matrix")
    rows, r = _graph_hermite(m, reduced=True)
    if r < n:
        raise ValueError("matrix is singular")
    if any(row[:n] != [int(i == k) for i in range(n)]
           for k, row in enumerate(rows)):
        raise ValueError("matrix is not unimodular")
    return Matrix(ZZ, n, n, {(i, k): v for k, row in enumerate(rows)
                             for i, v in enumerate(row[n:]) if v})
