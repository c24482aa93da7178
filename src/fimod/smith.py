"""Smith normal form, integer kernels and lattice normal forms.

One Hermite loop serves every dense integer elimination here. The Smith form
alternates column and row Hermite forms until the matrix is diagonal; the
diagonal-only path merges two-term unit columns and strips unit pivots
sparsely first, and runs that loop on the small residue, and smith_form(transforms=True) runs it on the whole
matrix with its transforms. The same loop gives canonical lattice bases,
and through the graph lattice {(a x, x)} integer kernels, exact solving and
unimodular inverses.
"""
from __future__ import annotations

from dataclasses import dataclass

from .matrix import Matrix, PivotPolicy, contract_unit_pairs
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
    """Merge two-term unit columns, then eliminate the rest with +-1 pivots
    sparsely; return (#unit factors, residue rows)."""
    merges, elim = contract_unit_pairs(m.nonzero_rows(), _UnitPivots())
    ones = merges + elim.run()
    return ones, list(elim.rows.values())


def _snf_diagonal_dense(sparse_rows: list[dict[int, int]]) -> list[int]:
    """Smith diagonal of the residue left by unit-pivot stripping, on its
    nonzero columns."""
    cols = sorted({c for row in sparse_rows for c in row})
    cpos = {c: k for k, c in enumerate(cols)}
    a = [[0] * len(cols) for _ in sparse_rows]
    for i, row in enumerate(sparse_rows):
        for c, v in row.items():
            a[i][cpos[c]] = v
    return _smith(a)


def _snf_dense_with_transforms(m: Matrix) -> SmithForm:
    nr, nc = m.nrows, m.ncols
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    vt = [[int(i == j) for j in range(nc)] for i in range(nc)]
    factors = _smith([[int(v) for v in row] for row in m.to_dense_rows()],
                     u, vt)
    return SmithForm(tuple(factors), Matrix.from_rows(ZZ, u),
                     Matrix.from_rows(ZZ, vt).transpose())


def _smith(a: list[list[int]], u: list[list[int]] | None = None,
           vt: list[list[int]] | None = None) -> list[int]:
    """Invariant factors of the dense integer matrix a (Kannan and Bachem).

    Each round is a column pass, the reduced _hermite of the rows of
    [a^T | vt] on their a^T part, then a row pass, the same on [a | u].
    Once a is diagonal and some d_i does not divide d_{i+1}, row i+1 is
    added to row i in a and u, and the rounds go on. So u @ A @ vt^T stays
    a, and ends diag(factors), when u and vt start as identities.

    It stops: after a column pass the leading entry a[0][0] is the gcd of
    row 0 and the rest of that row is 0; the row pass replaces it by the
    gcd of column 0. If that leading entry stays the same, it divides its
    column, which the pass clears without touching row 0, so row and
    column 0 stay cleared from then on; otherwise it strictly decreases.
    The same holds for each following leading entry once those before it
    are fixed, and a divisibility fix strictly lowers d_i to
    gcd(d_i, d_{i+1}) with d_1..d_{i-1} kept. The column pass comes first:
    a row pass right after the fix would subtract row i's new entry away
    again.
    """
    if not a or not a[0]:
        return []
    while True:
        a = _hermite_transposed(_hermite_transposed(a, vt), u)
        if any(x for i, row in enumerate(a)
               for j, x in enumerate(row) if i != j):
            continue
        d = [a[i][i] for i in range(min(len(a), len(a[0]))) if a[i][i]]
        i = next((i for i in range(len(d) - 1) if d[i + 1] % d[i]), None)
        if i is None:
            return d
        a[i][i + 1] = d[i + 1]
        if u is not None:
            u[i] = [x + y for x, y in zip(u[i], u[i + 1])]


def _hermite_transposed(x: list[list[int]],
                        t: list[list[int]] | None) -> list[list[int]]:
    """Reduced _hermite of the rows of [x^T | t] on the x^T part: returns
    that part, and t in place takes the rest (t has one row per column
    of x)."""
    k = len(x)
    rows = [list(col) for col in zip(*x)]
    if t is None:
        return _hermite(rows, k)[0]
    rows, _ = _hermite([row + tr for row, tr in zip(rows, t)], k)
    t[:] = [row[k:] for row in rows]
    return [row[:k] for row in rows]


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
    """Basis of the lattice {x in Z^ncols : m @ x = 0}, as column dicts.
    A zero matrix (a free module's relations) gets the unit vectors its
    graph form would give, without building the dense identity."""
    _check_integer(m)
    if not m.entries:
        return [{j: 1} for j in range(m.ncols)]
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
