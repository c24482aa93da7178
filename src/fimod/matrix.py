"""Sparse exact matrices and elimination over Q, F_p and Z.

Storage is a dict mapping (row, col) to a nonzero scalar of the matrix's
ring, in the ring's canonical form (a Fraction over Q, an int in [0, p)
over F_p, an int over Z), with every key inside the shape. Scalars combine
with Python arithmetic and the ring's one modulus `p`: every operation
computes `s = x + a * b`, reduces `s %= p` when `p` is nonzero (F_p), and
keeps `s` only if it is nonzero, which leaves the result canonical.
`Matrix()`, `from_rows` and `from_columns` coerce every value they are
given, drop the zeros and check the bounds, so raw values may go in.
`Matrix.canonical` does none of that: it wraps entries that already hold
the invariant. The operations that only move, negate or combine the entries
of canonical matrices build their results with it: `transpose`, `+`, unary
`-`, `scale`, `@`, `hstack`, `vstack` and `block_diagonal`, as do the
builders whose terms provably never meet at one entry: slice assembly and
induced maps in `presentations`, the witness's slice relations and induced
maps in `arnold`, the ideal slices in `coinvariants`, and block placement
in `complexes` (differentials, the homotopy, X_1, ordered shift maps and
poset colimit relations).

Every sparse elimination runs through one `SparseEliminator`: rank over
F_p, fraction-free rank over Q and Z, unit-pivot stripping before a Smith
normal form, and field rref. It keeps row dicts plus a column -> rows index.
The next pivot row is the shortest one left, taken from a lazy min-heap of
(len(row), row id). An entry is stale when its row is gone or has changed
length, and every row an elimination updates is pushed again, so finding a
pivot costs heap pops instead of a scan over every row. A small
`PivotPolicy` per mode picks the pivot column and updates the target rows:

- rank over F_p: the row's column held by the fewest rows (Markowitz) and
  mod-p row operations.
- rank over Q and Z: fraction-free integer rows, each divided by its
  content gcd after every update; pivot columns unit first, then fewest
  rows, then smallest |value|. Rational rows are scaled to integers after
  the contraction below, which does not change rank.
- unit stripping (`smith.invariant_factors`): only +-1 entries pivot. A row
  without one is parked until an update pushes it again.
- rref: the pivot column is min(row) of the row as it leaves the heap, when
  every earlier pivot has been eliminated from it, and each pivot is also
  eliminated from the finished rows the column index names. No row's
  leading column ever moves left, so the result is the unique reduced
  echelon form, which `FieldReducer.free`, `field_kernel_basis` and the
  coinvariant maps rely on. A Markowitz column would give another basis.
  Over F_p each pivot row is scaled to 1 as it is taken. Over Q the rows
  are fraction-free: primitive integer rows with the row update of the
  rank mode, each finished row divided by its pivot only at the end.

Rank over F_p, Q and Z and unit stripping first contract two-term unit
columns (`contract_unit_pairs`, the weight-2 merge of structured Gaussian
elimination, LaMacchia and Odlyzko 1990). Slice relation matrices are
mostly such columns, since every relation is pushed along every injection.
A column +-e_a +-e_b identifies row b with +-row a in the cokernel, so a
signed union-find on rows merges them, and the other columns are rewritten
onto the roots. The merged columns form a forest of unit edges; their span
is a direct summand of the ambient module (one coordinate per row) with
free quotient on the roots, so over Z too the cokernel is that of the rewritten residue: rank = merges +
rank(residue), and every merge is one invariant factor 1. A matrix with no
such column goes to the eliminator untouched. rref does not contract: the
residue lives on the roots, not on the original coordinates, and only the
unique reduced echelon form of the whole matrix serves `FieldReducer` and
kernels.

Ranks, invariant factors and reduced echelon forms do not depend on the
pivot order, so results do not depend on how the heap breaks ties.
Field kernels and `FieldReducer` read the rref rows in the same arithmetic
(Fraction over Q, mod p over F_p); span membership is two ranks.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rings import RationalField, RingSpec


class Matrix:
    """Immutable-by-convention sparse matrix over a RingSpec."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring: RingSpec, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                v = ring.coerce(v)
                if v:
                    ent[(i, j)] = v
        self.entries = ent

    @classmethod
    def canonical(cls, ring: RingSpec, nrows: int, ncols: int,
                  entries: dict) -> "Matrix":
        """Wrap entries that are already nonzero canonical elements of
        `ring` inside the shape; the dict is neither copied nor checked."""
        m = cls.__new__(cls)
        m.ring, m.nrows, m.ncols, m.entries = ring, nrows, ncols, entries
        return m

    @classmethod
    def zero(cls, ring: RingSpec, nrows: int, ncols: int) -> "Matrix":
        return cls(ring, nrows, ncols)

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "Matrix":
        return cls(ring, n, n, {(i, i): ring.one for i in range(n)})

    @classmethod
    def from_rows(cls, ring: RingSpec, rows) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                ent[(i, j)] = v
        return cls(ring, nrows, ncols, ent)

    @classmethod
    def from_columns(cls, ring: RingSpec, nrows: int, columns) -> "Matrix":
        """Build from an iterable of columns, each a dict {row: value}."""
        ent = {}
        ncols = 0
        for j, col in enumerate(columns):
            ncols = j + 1
            for i, v in col.items():
                ent[(i, j)] = v
        return cls(ring, nrows, ncols, ent)

    def get(self, i: int, j: int):
        return self.entries.get((i, j), self.ring.zero)

    def is_zero(self) -> bool:
        return not self.entries

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self) -> list[dict]:
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def rows(self) -> list[dict]:
        rows = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def nonzero_rows(self) -> dict[int, dict]:
        """The nonzero rows as {row index: {column: value}}."""
        rows: dict[int, dict] = {}
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
        return rows

    def to_dense_rows(self) -> list[list]:
        zero = self.ring.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self) -> "Matrix":
        return Matrix.canonical(
            self.ring, self.ncols, self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()})

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.nrows, self.ncols,
                     frozenset(self.entries.items())))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.ring.p
        ent = dict(self.entries)
        for k, v in other.entries.items():
            s = ent.get(k, 0) + v
            if p:
                s %= p
            if s:
                ent[k] = s
            else:
                ent.pop(k, None)
        return Matrix.canonical(self.ring, self.nrows, self.ncols, ent)

    def __neg__(self) -> "Matrix":
        p = self.ring.p
        return Matrix.canonical(
            self.ring, self.nrows, self.ncols,
            {k: p - v if p else -v for k, v in self.entries.items()})

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def scale(self, c) -> "Matrix":
        r = self.ring
        c = r.coerce(c)
        if not c:
            return Matrix.zero(r, self.nrows, self.ncols)
        # Q, Z and F_p have no zero divisors: no product vanishes
        p = r.p
        return Matrix.canonical(
            r, self.nrows, self.ncols,
            {k: c * v % p if p else c * v for k, v in self.entries.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch in matrix product")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        self_cols = self.columns()
        ent = {}
        for j, col in enumerate(other.columns()):
            for i, v in apply_columns(self.ring, self_cols, col).items():
                ent[(i, j)] = v
        return Matrix.canonical(self.ring, self.nrows, other.ncols, ent)

    def apply_to_column(self, col: dict[int, object]) -> dict[int, object]:
        """Image of a sparse column vector under this matrix."""
        return apply_columns(self.ring, self.columns(), col) if col else {}

    def _check_same_shape(self, other: "Matrix"):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def rank(self) -> int:
        if self.ring.p:
            return _rank_mod_p(self, self.ring.p)
        return _rank_fraction_free(self)

    def __repr__(self):
        return f"Matrix({self.ring}, {self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def apply_columns(ring: RingSpec, cols: list[dict],
                  vec: dict[int, object]) -> dict[int, object]:
    """Image of a sparse column vector under the matrix with these columns."""
    p = ring.p
    out: dict[int, object] = {}
    for k, b in vec.items():
        for i, a in cols[k].items():
            s = out.get(i, 0) + a * b
            if p:
                s %= p
            if s:
                out[i] = s
            else:
                del out[i]
    return out


def hstack(mats: list[Matrix]) -> Matrix:
    """Concatenate matrices left to right (equal row counts)."""
    if not mats:
        raise ValueError("hstack of nothing")
    ring, nrows = mats[0].ring, mats[0].nrows
    ent = {}
    off = 0
    for m in mats:
        if m.ring != ring or m.nrows != nrows:
            raise ValueError("hstack mismatch")
        for (i, j), v in m.entries.items():
            ent[(i, j + off)] = v
        off += m.ncols
    return Matrix.canonical(ring, nrows, off, ent)


def vstack(mats: list[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("vstack of nothing")
    ring, ncols = mats[0].ring, mats[0].ncols
    ent = {}
    off = 0
    for m in mats:
        if m.ring != ring or m.ncols != ncols:
            raise ValueError("vstack mismatch")
        for (i, j), v in m.entries.items():
            ent[(i + off, j)] = v
        off += m.nrows
    return Matrix.canonical(ring, off, ncols, ent)


def block_diagonal(ring: RingSpec, mats: list[Matrix]) -> Matrix:
    ent = {}
    roff = coff = 0
    for m in mats:
        if m.ring != ring:
            raise ValueError("block_diagonal ring mismatch")
        for (i, j), v in m.entries.items():
            ent[(i + roff, j + coff)] = v
        roff += m.nrows
        coff += m.ncols
    return Matrix.canonical(ring, roff, coff, ent)


# ---------------------------------------------------------------------------
# the sparse eliminator

class PivotPolicy:
    """How one elimination mode pivots.

    `column` names the pivot column of a candidate row, or None to park the
    row until an update pushes it again. `pivot` returns the row to
    eliminate with. The default `update` turns each target row t into
    t - t[pc] * row, which clears column pc when row[pc] == 1; `p` is the
    modulus for F_p arithmetic, 0 for exact arithmetic.
    """

    p = 0

    def column(self, row: dict, cols: dict[int, set[int]]):
        raise NotImplementedError

    def pivot(self, row: dict, pc: int) -> dict:
        return row

    def update(self, elim: "SparseEliminator", t: int, trow: dict,
               row: dict, pc: int) -> None:
        elim.axpy(t, trow, trow[pc], row)


class SparseEliminator:
    """Sparse row elimination with a lazy min-heap of pivot rows.

    `rows` maps row ids to {column: nonzero value} and is consumed: pivot
    rows leave it, rows that become zero are dropped, and what remains when
    `run` returns is the residue (empty unless the policy parks rows).
    `cols` maps each column to the ids of the rows holding it. With
    `reduced`, pivot rows are kept in `finished` and in `cols`, so every
    later pivot is also eliminated from them (back-elimination).
    """

    def __init__(self, rows: dict[int, dict], policy: PivotPolicy,
                 reduced: bool = False):
        self.rows = rows
        self.policy = policy
        self.finished: dict[int, dict] | None = {} if reduced else None
        self.cols: dict[int, set[int]] = {}
        get = self.cols.get
        for i, row in rows.items():
            for j in row:
                held = get(j)
                if held is None:
                    self.cols[j] = {i}
                else:
                    held.add(i)

    def run(self) -> int:
        """Eliminate until no row can pivot; return the number of pivots."""
        rows, cols, policy, finished = \
            self.rows, self.cols, self.policy, self.finished
        heap = [(len(row), i) for i, row in rows.items()]
        heapify(heap)
        pivots = 0
        while heap:
            n, rid = heappop(heap)
            row = rows.get(rid)
            if row is None or len(row) != n:
                continue  # stale: the row is gone or was updated since
            pc = policy.column(row, cols)
            if pc is None:
                continue  # parked until an update pushes it again
            del rows[rid]
            row = policy.pivot(row, pc)
            pivots += 1
            if finished is None:
                for c in row:
                    cols[c].discard(rid)
            else:
                finished[rid] = row
            for t in list(cols[pc]):
                if t == rid:
                    continue
                trow = rows.get(t)
                if trow is None:
                    policy.update(self, t, finished[t], row, pc)
                    continue
                policy.update(self, t, trow, row, pc)
                if trow:
                    heappush(heap, (len(trow), t))
                else:
                    del rows[t]
        return pivots

    def axpy(self, t: int, trow: dict, f, row: dict) -> None:
        """trow -= f * row (mod p), keeping the column index in step."""
        cols, p = self.cols, self.policy.p
        for c, v in row.items():
            nv = trow.get(c, 0) - f * v
            if p:
                nv %= p
            if nv:
                if c not in trow:
                    cols[c].add(t)
                trow[c] = nv
            elif c in trow:
                del trow[c]
                cols[c].discard(t)


def contract_unit_pairs(rows: dict[int, dict], policy: PivotPolicy
                        ) -> tuple[int, SparseEliminator]:
    """Merge the two-term unit columns of a matrix given by its rows, then
    hand the rest to an eliminator with `policy`.

    A column u_a e_a + u_b e_b with u_a, u_b = +-1 (1 or p - 1 over F_p,
    p = `policy.p`) says e_b = -u_a u_b e_a in the cokernel. A signed
    union-find on rows, by size, keeps each row as +-1 times its root.
    Such a pair on two different roots merges them; on one root it is the
    one-term column (u_a s_a + u_b s_b) on that root, which is 0 or +-2
    (mod p) and stays in the residue when nonzero. Every other column is
    rewritten onto the roots: signs flipped, collisions summed, zeros
    dropped.

    Exact over Z too: the merging pairs form a forest of unit edges, whose
    span is a direct summand with free quotient on the roots. So the
    cokernel of the matrix is the cokernel of the rewritten residue, and
    rank = merges + rank(residue); every merge is one unit invariant
    factor. Returns (merges, an eliminator over the residue rows, not yet
    run). With no qualifying column that eliminator is the one over `rows`
    itself, built once, so such a matrix takes no extra pass over its
    entries. A reduced echelon form is not preserved, so rref never comes
    here.
    """
    elim = SparseEliminator(rows, policy)
    cols, p = elim.cols, policy.p
    minus = p - 1 if p else -1
    up: dict[int, tuple[int, int]] = {}   # non-root row -> (parent, sign)
    size: dict[int, int] = {}

    def find(r: int) -> tuple[int, int]:
        """(root, s) with e_r = s * e_root; compresses the path."""
        s, node = 1, r
        while node in up:
            node, t = up[node]
            s *= t
        root, acc, node = node, s, r
        while node in up:
            parent, t = up[node]
            up[node] = (root, acc)
            acc *= t
            node = parent
        return root, s

    merges = 0
    rest = []                             # columns left for the residue
    loops = []                            # (column, row, value) on one root
    for j, held in cols.items():
        if len(held) == 2:
            a, b = held
            ua, ub = rows[a][j], rows[b][j]
            ua = 1 if ua == 1 else -1 if ua == minus else 0
            if ua:
                ub = 1 if ub == 1 else -1 if ub == minus else 0
                if ub:
                    ra, sa = find(a) if a in up else (a, 1)
                    rb, sb = find(b) if b in up else (b, 1)
                    if ra == rb:
                        c = ua * sa + ub * sb
                        if p:
                            c %= p
                        if c:
                            loops.append((j, ra, c))
                        continue
                    za, zb = size.get(ra, 1), size.get(rb, 1)
                    if za < zb:
                        ra, rb = rb, ra
                    up[rb] = (ra, -ua * sa * ub * sb)
                    size[ra] = za + zb
                    merges += 1
                    continue
        rest.append(j)
    if not merges:
        return 0, elim                    # the first unit pair always merges
    residue: dict[int, dict] = {}
    for j in rest:
        for i in cols[j]:
            r, s = find(i)
            v = rows[i][j]
            if s < 0:
                v = p - v if p else -v
            row = residue.setdefault(r, {})
            if j in row:
                v += row[j]
                if p:
                    v %= p
                if not v:
                    del row[j]
                    continue
            row[j] = v
    for j, r, c in loops:
        r, s = find(r)
        if s < 0:
            c = p - c if p else -c
        residue.setdefault(r, {})[j] = c
    return merges, SparseEliminator(
        {r: row for r, row in residue.items() if row}, policy)


# ---------------------------------------------------------------------------
# rank over F_p

class _ModP(PivotPolicy):
    """Markowitz column (the row's column held by the fewest rows); the
    pivot row is scaled to 1 at it."""

    def __init__(self, p: int):
        self.p = p

    def column(self, row, cols):
        return min(row, key=lambda c: len(cols[c]))

    def pivot(self, row, pc):
        p = self.p
        inv = pow(row[pc], -1, p)
        return {c: v * inv % p for c, v in row.items()}


def _rank_mod_p(m: Matrix, p: int) -> int:
    merges, elim = contract_unit_pairs(m.nonzero_rows(), _ModP(p))
    return merges + elim.run()


# ---------------------------------------------------------------------------
# rank over Z and Q: fraction-free integer elimination. Each row is kept
# primitive (divided by its content gcd) after every update, and pivots are
# chosen unit-first, shortest column next, which keeps growth negligible on
# the permutation-like matrices slices produce.

def _primitive_rows(m: Matrix) -> dict[int, dict[int, int]]:
    """The nonzero rows scaled to integers and divided by their content."""
    rows = m.nonzero_rows()
    _make_primitive(rows, isinstance(m.ring, RationalField))
    return rows


def _make_primitive(rows: dict[int, dict], rational: bool) -> None:
    """Scale each row to integers (when `rational`) and divide it by its
    content, in place; the rows keep their columns."""
    for i, row in rows.items():
        if rational:
            den = lcm(*(v.denominator for v in row.values()))
            rows[i] = row = {j: v.numerator * (den // v.denominator)
                             for j, v in row.items()}
        _reduce_content(row)


def _reduce_content(row: dict[int, int]) -> None:
    """Divide the row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


class _FractionFree(PivotPolicy):
    """Integer rows kept primitive; pivots unit-first, then fewest rows,
    then smallest |value|."""

    def column(self, row, cols):
        return min(row, key=lambda c: (abs(row[c]) != 1, len(cols[c]),
                                       abs(row[c])))

    def update(self, elim, t, trow, row, pc):
        pv = row[pc]
        g = gcd(pv, trow[pc])
        a, b = pv // g, trow[pc] // g
        if a in (1, -1):
            # pv | tv: ordinary integer row operation, no rescale
            f = a * b
        else:
            # cross-multiply: a*trow - b*row, rescaling the whole row
            for c in trow:
                trow[c] *= a
            f = b
        elim.axpy(t, trow, f, row)
        _reduce_content(trow)


def _rank_fraction_free(m: Matrix) -> int:
    merges, elim = contract_unit_pairs(m.nonzero_rows(), _FractionFree())
    _make_primitive(elim.rows, isinstance(m.ring, RationalField))
    return merges + elim.run()


# ---------------------------------------------------------------------------
# field-side echelon machinery: kernels, span membership, reducers.

class _ModPEchelon(_ModP):
    """rref over F_p: the reduced-echelon column, min(row)."""

    def column(self, row, cols):
        return min(row)


class _FractionFreeEchelon(_FractionFree):
    """rref over Q: the reduced-echelon column, min(row). Every row stays a
    nonzero multiple of its Fraction counterpart, so dividing each finished
    row by its pivot gives the reduced echelon form."""

    def column(self, row, cols):
        return min(row)


def field_rref(m: Matrix) -> tuple[list[dict[int, object]], list[int]]:
    """Reduced row-echelon form of a matrix over a field.

    Returns (rows, pivot_cols): sparse row dicts with coefficient 1 at
    their pivot column and zero at every other pivot column, sorted by
    pivot column.
    """
    ring = m.ring
    if not ring.is_field:
        raise ValueError("field_rref needs a field")
    modular = bool(ring.p)
    if modular:
        rows, policy = m.nonzero_rows(), _ModPEchelon(ring.p)
    else:
        rows, policy = _primitive_rows(m), _FractionFreeEchelon()
    elim = SparseEliminator(rows, policy, reduced=True)
    elim.run()
    done = sorted(elim.finished.values(), key=min)
    pivots = [min(r) for r in done]
    if not modular:
        done = [{c: Fraction(v, row[pc]) for c, v in row.items()}
                for row, pc in zip(done, pivots)]
    return done, pivots


def field_kernel_basis(m: Matrix) -> list[dict[int, object]]:
    """Basis of {x : m @ x = 0} over a field, as sparse column dicts."""
    ring, p = m.ring, m.ring.p
    rref_rows, pivots = field_rref(m)
    pivot_set = set(pivots)
    basis = {f: {f: ring.one} for f in range(m.ncols) if f not in pivot_set}
    # a reduced row is zero at every other pivot: each of its other entries
    # f is a free column, and x_f = 1 puts -row[f] at the row's pivot
    for row, pc in zip(rref_rows, pivots):
        for f, coef in row.items():
            if f != pc:
                basis[f][pc] = p - coef if p else -coef
    return list(basis.values())


def field_in_span(span: Matrix, vectors: Matrix) -> bool:
    """True iff every column of `vectors` lies in the column span of `span`."""
    if vectors.is_zero():
        return True
    return hstack([span, vectors]).rank() == span.rank()


class FieldReducer:
    """Reduction mod a column span over a field, with quotient coordinates.

    Built from a relation matrix R (ambient x k): `reduce` rewrites a vector
    modulo colspan(R) onto the non-pivot coordinates `free`, and
    `coordinates` returns the quotient coordinate vector.
    """

    def __init__(self, relations: Matrix):
        ring = relations.ring
        if not ring.is_field:
            raise ValueError("FieldReducer needs a field")
        self.ring = ring
        self.ambient = relations.nrows
        rows, pivots = field_rref(relations.transpose())
        self.pivots = pivots              # ambient coordinates eliminated
        self._pivot_row = {min(r): r for r in rows}
        self.free = [i for i in range(self.ambient) if i not in self._pivot_row]
        self._free_pos = {c: k for k, c in enumerate(self.free)}

    def reduce(self, vec: dict[int, object]) -> dict[int, object]:
        p = self.ring.p
        out = dict(vec)
        # a reduced echelon row is zero in every other pivot column, so only
        # the pivots present in vec need eliminating, in any order
        for pc in [c for c in vec if c in self._pivot_row]:
            coef = out[pc]
            if not coef:
                out.pop(pc, None)
                continue
            for c, v in self._pivot_row[pc].items():
                s = out.get(c, 0) - coef * v
                if p:
                    s %= p
                if s:
                    out[c] = s
                else:
                    out.pop(c, None)
        return out

    def coordinates(self, vec: dict[int, object]) -> dict[int, object]:
        red = self.reduce(vec)
        return {self._free_pos[c]: v for c, v in red.items()}

    @property
    def quotient_dim(self) -> int:
        return len(self.free)
