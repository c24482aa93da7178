import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimod.arnold import ArnoldModule, arnold_presentation
from fimod.coinvariants import MultiIndex, ideal_matrix
from fimod.matrix import (FieldReducer, Matrix, PivotPolicy,
                          SparseEliminator, block_diagonal,
                          contract_unit_pairs, field_in_span,
                          field_kernel_basis, field_rref, hstack, vstack)
from fimod.rings import GF, QQ, ZZ
from fimod.smith import invariant_factors


def dense_rref_reference(rows, p=0):
    """Column-by-column Gauss-Jordan on dense lists, over Q (Fraction
    arithmetic) when p is 0 and over F_p otherwise.

    Returns (rref rows as sparse dicts, pivot columns), sorted by pivot.
    """
    if p:
        m = [[x % p for x in row] for row in rows]
    else:
        m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if p:
            inv = pow(m[r][c], -1, p)
            prow = [(x * inv) % p for x in m[r]]
        else:
            inv = 1 / m[r][c]
            prow = [x * inv for x in m[r]]
        m[r] = prow
        for i in range(nr):
            g = m[i][c]
            if i != r and g:
                if p:
                    m[i] = [(x - g * y) % p for x, y in zip(m[i], prow)]
                else:
                    m[i] = [x - g * y if y else x for x, y in zip(m[i], prow)]
        pivots.append(c)
    out = [{j: v for j, v in enumerate(row) if v} for row in m[:len(pivots)]]
    return out, pivots


def dense_rank_reference(rows):
    return len(dense_rref_reference(rows)[1])


def dense_rank_reference_mod_p(rows, p):
    return len(dense_rref_reference(rows, p)[1])


def test_rank_trivial_cases():
    assert Matrix.identity(QQ, 3).rank() == 3
    assert Matrix.zero(GF(7), 2, 5).rank() == 0
    assert Matrix.from_rows(QQ, [[2, 4], [1, 2]]).rank() == 1


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_reference_all_rings(seed):
    rng = random.Random(seed)
    for _ in range(8):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        expect = dense_rank_reference(rows)
        assert Matrix.from_rows(ZZ, rows).rank() == expect
        assert Matrix.from_rows(QQ, rows).rank() == expect
        qrows = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in rows]
        assert Matrix.from_rows(QQ, qrows).rank() == \
            dense_rank_reference(qrows)


def test_rank_dense_fallback_mod_p():
    rng = random.Random(3)
    rows = [[rng.randrange(5) for _ in range(10)] for _ in range(10)]
    m = Matrix.from_rows(GF(5), rows)
    assert len(m.entries) > 50
    assert m.rank() == dense_rank_reference_mod_p(rows, 5)


def test_matmul_and_stacking():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert (a @ b) == Matrix.from_rows(QQ, [[2, 1], [4, 3]])
    h = hstack([a, b])
    assert (h.nrows, h.ncols) == (2, 4) and h.get(0, 3) == 1
    v = vstack([a, b])
    assert (v.nrows, v.ncols) == (4, 2) and v.get(3, 0) == 1


def test_field_kernel_and_rref():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6]])
    basis = field_kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert m.apply_to_column(vec) == {}
    rows, pivots = field_rref(m)
    assert len(rows) == 1 and pivots == [0]

    mp = Matrix.from_rows(GF(3), [[1, 1, 1], [0, 1, 2]])
    for vec in field_kernel_basis(mp):
        assert mp.apply_to_column(vec) == {}


def dense_kernel_reference(rows, ncols, p=0):
    """Kernel basis read off the dense Gauss-Jordan form, one free column f
    at a time in increasing order: x_f = 1 and x_pc = -rref[pc][f] at each
    pivot column pc."""
    rref, pivots = dense_rref_reference(rows, p)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: 1 if p else Fraction(1)}
        for row, pc in zip(rref, pivots):
            if row.get(f):
                vec[pc] = -row[f] % p if p else -row[f]
        basis.append(vec)
    return basis


@pytest.mark.parametrize("p", [0, 2, 3, 5], ids=lambda p: f"F{p}" if p else "Q")
def test_field_kernel_basis_matches_dense_reference(p):
    ring = GF(p) if p else QQ
    shapes = [(6, 9, 0.4), (9, 6, 0.4), (12, 20, 0.15), (20, 12, 0.2),
              (15, 30, 0.1), (30, 25, 0.08)]
    for seed in range(5):
        for k, (nr, nc, density) in enumerate(shapes):
            rows = random_sparse_rows(100 * seed + k, nr, nc, density)
            m = sparse_matrix(ring, rows)
            basis = field_kernel_basis(m)
            assert basis == dense_kernel_reference(rows, nc, p), (seed, k)
            assert all(m.apply_to_column(x) == {} for x in basis)
    assert field_kernel_basis(Matrix.zero(ring, 0, 3)) == \
        [{0: ring.one}, {1: ring.one}, {2: ring.one}]


def test_field_in_span():
    span = Matrix.from_columns(QQ, 3, [{0: 1, 1: 1}, {1: 1, 2: 1}])
    inside = Matrix.from_columns(QQ, 3, [{0: 2, 1: 3, 2: 1}])
    outside = Matrix.from_columns(QQ, 3, [{0: 1}])
    assert field_in_span(span, inside)
    assert not field_in_span(span, outside)


def test_field_reducer_coordinates():
    rel = Matrix.from_columns(QQ, 3, [{0: 1, 1: 1}])
    red = FieldReducer(rel)
    assert red.quotient_dim == 2
    # e0 and -e1 agree in the quotient
    c0 = red.coordinates({0: Fraction(1)})
    c1 = red.coordinates({1: Fraction(-1)})
    assert c0 == c1
    assert red.reduce({0: Fraction(1), 1: Fraction(1)}) == {}


@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=lambda r: r.name)
def test_field_reducer_reduces_onto_free_coordinates(ring):
    # reduce(v) has no pivot coordinate and differs from v by a relation
    for seed in range(4):
        rel = sparse_matrix(ring, random_sparse_rows(seed, 12, 7, 0.3))
        red = FieldReducer(rel)
        rng = random.Random(seed)
        vecs = [{j: ring.one} for j in range(12)]
        vecs += [{j: ring.coerce(rng.randint(-3, 3))
                  for j in rng.sample(range(12), 4)} for _ in range(5)]
        for v in vecs:
            r = red.reduce(v)
            assert set(r) <= set(red.free)
            diff = {i: ring.coerce(v.get(i, 0) - r.get(i, 0))
                    for i in set(v) | set(r)}
            assert field_in_span(rel, Matrix.from_columns(ring, 12, [diff]))


# ---------------------------------------------------------------------------
# differential tests of the sparse eliminator against dense references

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


def dense_snf_reference(rows):
    """Invariant factors from the dense min-|pivot| SNF core on the whole
    matrix, with no sparse unit stripping in front of it."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    return _snf_core([list(row) for row in rows], nr, nc, None, None)


def sparse_matrix(ring, rows):
    """Matrix.from_rows without visiting the zero cells."""
    ent = {(i, j): v for i, row in enumerate(rows)
           for j, v in enumerate(row) if v}
    return Matrix(ring, len(rows), len(rows[0]), ent)


def random_sparse_rows(seed, nr, nc, density, values=(1, -1, 2, -2, 3, 5)):
    rng = random.Random(seed)
    return [[rng.choice(values) if rng.random() < density else 0
             for _ in range(nc)] for _ in range(nr)]


def _integer_dense(m):
    return [[int(v) for v in row] for row in m.to_dense_rows()]


def _differential_inputs():
    """Integer matrices keyed by label: seeded random sparse matrices, the
    Arnold m=2 and m=3 slice relation matrices for n <= 7 and the
    coinvariant ideal matrices for r=2, J=(2,2), n <= 5 (their entries are
    integers)."""
    inputs = {}
    for seed, (nr, nc, density) in enumerate(
            [(12, 9, 0.3), (9, 14, 0.25), (30, 30, 0.08), (40, 25, 0.1),
             (25, 40, 0.12), (60, 45, 0.05)]):
        inputs[f"random-{seed}"] = random_sparse_rows(seed, nr, nc, density)
    for m in (2, 3):
        for n in range(3, 8):
            rel = ArnoldModule(m, QQ).slice_module(n).relations
            inputs[f"arnold-m{m}-n{n}"] = _integer_dense(rel)
    for n in range(1, 6):
        rel = ideal_matrix(MultiIndex(2, (2, 2)), n, QQ)
        assert all(v.denominator == 1 for v in rel.entries.values())
        inputs[f"coinv-r2-J22-n{n}"] = _integer_dense(rel)
    return inputs


DIFFERENTIAL_INPUTS = _differential_inputs()


@lru_cache(maxsize=None)
def _rational_reference(label):
    return dense_rref_reference(DIFFERENTIAL_INPUTS[label])


@pytest.mark.parametrize("label", sorted(DIFFERENTIAL_INPUTS))
def test_rank_matches_dense_reference(label):
    rows = DIFFERENTIAL_INPUTS[label]
    expect = len(_rational_reference(label)[1])
    assert sparse_matrix(QQ, rows).rank() == expect
    assert sparse_matrix(ZZ, rows).rank() == expect
    for p in (2, 5):
        assert sparse_matrix(GF(p), rows).rank() == \
            dense_rank_reference_mod_p(rows, p)


@pytest.mark.parametrize("label", sorted(DIFFERENTIAL_INPUTS))
def test_field_rref_matches_dense_reference(label):
    rows = DIFFERENTIAL_INPUTS[label]
    assert field_rref(sparse_matrix(QQ, rows)) == \
        _rational_reference(label)
    assert field_rref(sparse_matrix(GF(5), rows)) == \
        dense_rref_reference(rows, 5)


class FractionReducedEchelon(PivotPolicy):
    """field_rref's policy over Q before it moved to integer rows: pivot on
    min(row), pivot row scaled to 1 in Fraction arithmetic."""

    def column(self, row, cols):
        return min(row)

    def pivot(self, row, pc):
        inv = 1 / row[pc]
        return {c: inv * v for c, v in row.items()}


def fraction_rref_reference(m):
    """The sparse eliminator on Fraction rows, as field_rref ran over Q."""
    elim = SparseEliminator(m.nonzero_rows(), FractionReducedEchelon(),
                            reduced=True)
    elim.run()
    done = sorted(elim.finished.values(), key=min)
    return done, [min(r) for r in done]


def _rational_rref_inputs():
    """Seeded sparse matrices with denominators 2 and 3, and the coinvariant
    ideal r=2, J=(2,2), n=6 (too large for the dense reference) with its
    transpose."""
    inputs = {}
    for seed, (nr, nc, density) in enumerate(
            [(8, 11, 0.4), (20, 15, 0.2), (35, 30, 0.1), (50, 40, 0.06)]):
        rng = random.Random(100 + seed)
        rows = random_sparse_rows(seed, nr, nc, density)
        inputs[f"rational-{seed}"] = sparse_matrix(
            QQ, [[Fraction(v, rng.choice((1, 2, 3))) for v in row]
                 for row in rows])
    ideal = ideal_matrix(MultiIndex(2, (2, 2)), 6, QQ)
    inputs["coinv-r2-J22-n6"] = ideal
    inputs["coinv-r2-J22-n6-transpose"] = ideal.transpose()
    return inputs


RATIONAL_RREF_INPUTS = _rational_rref_inputs()


@pytest.mark.parametrize("label", sorted(RATIONAL_RREF_INPUTS))
def test_field_rref_matches_fraction_reference(label):
    m = RATIONAL_RREF_INPUTS[label]
    assert field_rref(m) == fraction_rref_reference(m)


small_matrices = st.integers(1, 6).flatmap(
    lambda nc: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                 min_size=nc, max_size=nc),
        min_size=1, max_size=6))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_matrices)
def test_eliminator_agrees_with_dense_references(rows):
    rref_q, pivots = dense_rref_reference(rows)
    assert sparse_matrix(QQ, rows).rank() == len(pivots)
    assert sparse_matrix(ZZ, rows).rank() == len(pivots)
    for p in (2, 5):
        assert sparse_matrix(GF(p), rows).rank() == \
            dense_rank_reference_mod_p(rows, p)
    assert field_rref(sparse_matrix(QQ, rows)) == (rref_q, pivots)
    assert field_rref(sparse_matrix(GF(5), rows)) == \
        dense_rref_reference(rows, 5)
    assert invariant_factors(sparse_matrix(ZZ, rows)) == \
        dense_snf_reference(rows)


# ---------------------------------------------------------------------------
# the unit-pair contraction in front of rank and unit stripping

def signed_graph_rows(seed, nodes, edges, extra):
    """Dense integer rows of a seeded signed-graph incidence matrix: `edges`
    columns with +-1 at two random rows, then `extra` columns of one to four
    entries from (1, -1, 2, -2, 3), shuffled."""
    rng = random.Random(seed)
    cols = [{a: rng.choice((1, -1)), b: rng.choice((1, -1))}
            for a, b in (rng.sample(range(nodes), 2) for _ in range(edges))]
    for _ in range(extra):
        picked = rng.sample(range(nodes), rng.randint(1, min(4, nodes)))
        cols.append({i: rng.choice((1, -1, 2, -2, 3)) for i in picked})
    rng.shuffle(cols)
    return [[col.get(i, 0) for col in cols] for i in range(nodes)]


def _cycle_rows(signs):
    """The cycle 0 - 1 - ... - 0 with column k = e_k + s_k e_(k+1): balanced
    (a same-root pair of value 0) when the product of -s_k is 1, else
    unbalanced (value +-2)."""
    n = len(signs)
    return [[1 if i == k else s if i == (k + 1) % n else 0
             for k, s in enumerate(signs)] for i in range(n)]


def _contraction_inputs():
    inputs = {
        "balanced-triangle": _cycle_rows([-1, -1, -1]),
        "unbalanced-triangle": _cycle_rows([1, 1, 1]),
        "unbalanced-square": _cycle_rows([1, -1, -1, -1]),
        "balanced-square": _cycle_rows([1, 1, -1, -1]),
        # (2, -1) and (3, 1) are two-term columns that must not merge
        "non-unit-pairs": [[2, 1, 1, 0], [-1, 0, -1, 3], [0, 1, 0, 1]],
        "singletons": [[1, 0, 0, 2], [0, -1, 0, 0], [0, 0, 0, 0]],
        "zero": [[0] * 4 for _ in range(3)],
        # two triangles joined at a node, one a torsion 2, plus a 2-column
        "bowtie": [[1, 1, 0, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0, 0],
                   [0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 1, -1, -1, 2],
                   [0, 0, 0, -1, 0, 0, 0]],
    }
    for seed, (nodes, edges, extra) in enumerate(
            [(6, 8, 0), (10, 9, 3), (12, 20, 4), (20, 18, 6), (25, 40, 8),
             (40, 30, 12), (30, 60, 2), (50, 45, 15)]):
        inputs[f"signed-graph-{seed}"] = signed_graph_rows(seed, nodes, edges,
                                                           extra)
    return inputs


CONTRACTION_INPUTS = _contraction_inputs()


@pytest.mark.parametrize("label", sorted(CONTRACTION_INPUTS))
@pytest.mark.parametrize("transposed", [False, True])
def test_contracted_rank_and_factors_match_dense_references(label, transposed):
    rows = CONTRACTION_INPUTS[label]
    if transposed:
        rows = [list(col) for col in zip(*rows)]
    expect = dense_rank_reference(rows)
    assert sparse_matrix(QQ, rows).rank() == expect
    assert sparse_matrix(ZZ, rows).rank() == expect
    for p in (2, 3, 5):
        assert sparse_matrix(GF(p), rows).rank() == \
            dense_rank_reference_mod_p(rows, p)
    assert invariant_factors(sparse_matrix(ZZ, rows)) == \
        dense_snf_reference(rows)


@pytest.mark.parametrize("chunk", range(8))
def test_contraction_on_many_small_signed_graphs(chunk):
    """Deeper union-find trees, whose compressed paths are read again."""
    for seed in range(100 * chunk, 100 * chunk + 100):
        rng = random.Random(seed)
        nodes = rng.randint(8, 30)
        rows = signed_graph_rows(1000 + seed, nodes,
                                 rng.randint(nodes // 2, 2 * nodes),
                                 rng.randint(0, 4))
        assert sparse_matrix(GF(3), rows).rank() == \
            dense_rank_reference_mod_p(rows, 3), seed
        assert invariant_factors(sparse_matrix(ZZ, rows)) == \
            dense_snf_reference(rows), seed


def test_same_root_pairs_give_zero_or_two():
    balanced = sparse_matrix(ZZ, CONTRACTION_INPUTS["balanced-triangle"])
    unbalanced = sparse_matrix(ZZ, CONTRACTION_INPUTS["unbalanced-triangle"])
    assert invariant_factors(balanced) == [1, 1]
    assert invariant_factors(unbalanced) == [1, 1, 2]
    assert unbalanced.rank() == 3
    assert sparse_matrix(GF(2), CONTRACTION_INPUTS["unbalanced-triangle"]) \
        .rank() == 2
    assert sparse_matrix(GF(3), CONTRACTION_INPUTS["unbalanced-triangle"]) \
        .rank() == 3


def test_rational_non_unit_pairs_do_not_merge():
    half = Fraction(1, 2)
    rows = [[half, 1, 2, 0], [1, 0, -1, Fraction(-1, 3)], [0, -1, 0, 1]]
    m = sparse_matrix(QQ, rows)
    merges, elim = contract_unit_pairs(m.nonzero_rows(), PivotPolicy())
    assert merges == 1            # only column 1, (1, -1), is a unit pair
    assert m.rank() == dense_rank_reference(rows)
    assert m.transpose().rank() == \
        dense_rank_reference([list(c) for c in zip(*rows)])


class _Mod3(PivotPolicy):
    p = 3


def test_contraction_on_the_arnold_presentation_slice():
    """The n=7 slice of the Arnold m=2 presentation (3150 x 9030) merges
    2940 rows and leaves a 105 x 210 residue, over Q and over F3."""
    for ring, policy in ((QQ, PivotPolicy()), (GF(3), _Mod3())):
        rel = arnold_presentation(2, ring).slice_module(7).relations
        merges, elim = contract_unit_pairs(rel.nonzero_rows(), policy)
        assert (merges, len(elim.rows), len(elim.cols)) == (2940, 105, 210)
        residue = Matrix(ring, rel.nrows, rel.ncols,
                         {(i, j): v for i, row in elim.rows.items()
                          for j, v in row.items()})
        assert merges + residue.rank() == rel.rank() == 2975


def test_pair_free_matrix_keeps_its_rows():
    # columns (2, 1, 0), (1, 2, 1) and (1, 1, 1): no two-term unit column
    rows = sparse_matrix(ZZ, [[2, 1, 1], [1, 2, 1], [0, 1, 1]]).nonzero_rows()
    merges, elim = contract_unit_pairs(rows, PivotPolicy())
    assert merges == 0 and elim.rows is rows


def assert_canonical(m: Matrix):
    """Every entry is a nonzero, coerced ring element inside the shape: what
    Matrix.__init__ would make of the same entries."""
    assert Matrix(m.ring, m.nrows, m.ncols, m.entries) == m
    assert all(type(v) is type(m.ring.one) for v in m.entries.values())


@st.composite
def matrix_triples(draw):
    """Dense integer rows of A (r x k), A2 (r x k) and B (k x c), shapes
    0..4 each."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    cell = st.sampled_from([0, 0, 1, -1, 2, -2, 3])

    def rows(nr, nc):
        return [[draw(cell) for _ in range(nc)] for _ in range(nr)]
    return rows(r, k), rows(r, k), rows(k, c), (r, k, c)


def _dense(ring, rows, nr, nc):
    """A Matrix from dense integer rows; over Q every entry is halved so
    that non-integral values occur."""
    half = ring == QQ
    return Matrix(ring, nr, nc, {
        (i, j): Fraction(v, 2) if half else v
        for i, row in enumerate(rows) for j, v in enumerate(row)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrix_triples())
def test_entry_preserving_operations_stay_canonical(triple):
    """Each operation against the same sums on dense rows, reduced once at
    the end; over GF(2) and GF(3) entries also cancel (1 + 1, 2 + 1)."""
    a_rows, a2_rows, b_rows, (r, k, c) = triple
    for ring in (QQ, GF(2), GF(3), ZZ):
        a, a2 = _dense(ring, a_rows, r, k), _dense(ring, a2_rows, r, k)
        b = _dense(ring, b_rows, k, c)
        da, da2, db = a.to_dense_rows(), a2.to_dense_rows(), b.to_dense_rows()
        cases = [
            (a.transpose(), [[row[j] for row in da] for j in range(k)]),
            (a + a2, [[x + y for x, y in zip(u, v)] for u, v in zip(da, da2)]),
            (-a, [[-x for x in u] for u in da]),
            (a - a2, [[x - y for x, y in zip(u, v)] for u, v in zip(da, da2)]),
            (a.scale(2), [[2 * x for x in u] for u in da]),
            (a.scale(-3), [[-3 * x for x in u] for u in da]),
            (a @ b, [[sum(u[t] * db[t][j] for t in range(k)) for j in range(c)]
                     for u in da]),
            (hstack([a, a2]), [u + v for u, v in zip(da, da2)]),
            (vstack([a, a2]), da + da2),
            (block_diagonal(ring, [a, b]),
             [u + [ring.zero] * c for u in da] +
             [[ring.zero] * k + v for v in db]),
        ]
        for j, col in enumerate(b.columns()):
            image = a.apply_to_column(col)
            cases.append((Matrix.canonical(ring, r, 1, {
                (i, 0): v for i, v in image.items()}),
                [[sum(u[t] * db[t][j] for t in range(k))] for u in da]))
        for out, dense in cases:
            assert_canonical(out)
            assert out.to_dense_rows() == \
                [[ring.coerce(x) for x in row] for row in dense]
