import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimod.matrix import Matrix, apply_columns
from fimod.rings import GF, QQ, ZZ
from fimod.sampling import instantiate, seeded_structures
from fimod.smith import (IntegerSolver, SmithForm, integer_inverse,
                         integer_in_span, integer_kernel_basis,
                         invariant_factors, lattice_canonical, smith_form)
from tests.test_matrix import (DIFFERENTIAL_INPUTS, dense_rank_reference_mod_p,
                               dense_snf_reference, random_sparse_rows,
                               sparse_matrix)


# ---------------------------------------------------------------------------
# references: kernels and solving from a transform Smith form, inverses by
# Gauss-Jordan over Fractions

def snf_kernel_reference(m):
    """Basis of ker m: the last columns of the right Smith transform V."""
    if m.is_zero():
        return [{j: 1} for j in range(m.ncols)]
    sf = smith_form(m, transforms=True)
    return sf.right.columns()[len(sf.factors):]


def snf_solver_reference(a):
    """solve(b) -> x with a @ x = b over Z, or None: x = V D^-1 U b."""
    sf = smith_form(a, transforms=True)
    left_cols, right_cols = sf.left.columns(), sf.right.columns()

    def solve(b):
        z = {}
        for i, val in apply_columns(ZZ, left_cols, b).items():
            if i >= len(sf.factors) or val % sf.factors[i]:
                return None
            z[i] = val // sf.factors[i]
        return apply_columns(ZZ, right_cols, z)

    return solve


def fraction_inverse_reference(m):
    """Inverse of a unimodular integer matrix by Gauss-Jordan over Q."""
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
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return Matrix.from_rows(ZZ, [[int(x) for x in row] for row in inv]) \
        if n else Matrix.zero(ZZ, 0, 0)


def snf_free_coordinates_reference(module):
    """(coords, section) of a torsion-free Z quotient from the left Smith
    transform U of its relations: coords the last rows of U, section the
    matching columns of U^-1."""
    n = module.ambient
    if module.relations.is_zero():
        return Matrix.identity(ZZ, n), Matrix.identity(ZZ, n)
    sf = smith_form(module.relations, transforms=True)
    k = len(sf.factors)
    u, uinv = sf.left, fraction_inverse_reference(sf.left)
    coords = Matrix(ZZ, n - k, n, {(i - k, j): v for (i, j), v
                                   in u.entries.items() if i >= k})
    section = Matrix(ZZ, n, n - k, {(i, j - k): v for (i, j), v
                                    in uinv.entries.items() if j >= k})
    return coords, section


def random_unimodular(rng, n):
    """A product of random elementary integer row operations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        op = rng.randrange(3)
        if op == 0 and i != j:
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return Matrix.from_rows(ZZ, rows) if n else Matrix.zero(ZZ, 0, 0)


def seeded_integer_matrices(seed):
    """(label, matrix) pairs: U D V with and without torsion in D, plain
    random matrices, zero matrices and matrices with 0 rows or 0 columns."""
    rng = random.Random(seed)
    out = []
    for torsion in (False, True):
        for _ in range(3):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            k = rng.randint(0, min(nr, nc))
            diag = {(i, i): rng.choice((2, 3, 4, 6)) if torsion and
                    rng.random() < 0.6 else 1 for i in range(k)}
            m = random_unimodular(rng, nr) @ Matrix(ZZ, nr, nc, diag) @ \
                random_unimodular(rng, nc)
            out.append((f"{'torsion' if torsion else 'free'}-{nr}x{nc}", m))
    for _ in range(3):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(nc)]
                for _ in range(nr)]
        out.append((f"random-{nr}x{nc}", Matrix.from_rows(ZZ, rows)))
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    out += [("zero", Matrix.zero(ZZ, nr, nc)), ("0-rows", Matrix.zero(ZZ, 0, nc)),
            ("0-cols", Matrix.zero(ZZ, nr, 0)), ("0x0", Matrix.zero(ZZ, 0, 0))]
    return out


def diagonal(factors, nrows, ncols):
    """The nrows x ncols integer matrix with the factors on its diagonal."""
    return Matrix(ZZ, nrows, ncols, {(i, i): d for i, d in enumerate(factors)})


def assert_smith_transforms(m):
    """smith_form(m, transforms=True): left @ m @ right is the diagonal of
    the factors, both transforms are unimodular, the factors form a
    divisibility chain and equal invariant_factors(m)."""
    sf = smith_form(m, transforms=True)
    assert sf.left @ m @ sf.right == diagonal(sf.factors, m.nrows, m.ncols)
    for a, b in zip(sf.factors, sf.factors[1:]):
        assert b % a == 0 and a > 0
    for t in (sf.left, sf.right):
        assert t @ integer_inverse(t) == Matrix.identity(ZZ, t.nrows)
    assert invariant_factors(m) == list(sf.factors)
    return sf


def canonical_of_columns(nrows, cols):
    return lattice_canonical(Matrix.from_columns(ZZ, nrows, cols)
                             if cols else Matrix.zero(ZZ, nrows, 0))


def test_invariant_factor_examples():
    assert invariant_factors(Matrix.from_rows(ZZ, [[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(Matrix.zero(ZZ, 4, 2)) == []
    assert invariant_factors(Matrix.from_rows(ZZ, [[2, 0], [0, 2]])) == [2, 2]


def test_smith_form_requires_integers():
    with pytest.raises(ValueError):
        smith_form(Matrix.identity(QQ, 2))


@pytest.mark.parametrize("rows, factors", [
    ([[2, 0], [0, 3]], (1, 6)),
    ([[2, 0, 0], [0, 3, 0]], (1, 6)),
    ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
    ([[0, 0], [0, 5]], (5,)),
])
def test_smith_divisibility_fix(rows, factors):
    # diagonal inputs whose entries are out of place or not a divisibility
    # chain: the loop adds row i+1 to row i and must still stop, with the
    # transforms kept exact
    m = Matrix.from_rows(ZZ, rows)
    assert assert_smith_transforms(m).factors == factors


@pytest.mark.parametrize("seed", range(8))
def test_smith_transform_identity_randomized(seed):
    rng = random.Random(seed)
    for _ in range(6):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-8, 8) for _ in range(nc)] for _ in range(nr)]
        assert_smith_transforms(Matrix.from_rows(ZZ, rows))


def test_integer_kernel_basis():
    m = Matrix.from_rows(ZZ, [[2, 4, 6], [1, 2, 3]])
    basis = integer_kernel_basis(m)
    assert len(basis) == 2
    for col in basis:
        assert m.apply_to_column(col) == {}
    # kernel basis is saturated: (1, 1, -1) must be an integer combination
    solver = IntegerSolver(Matrix.from_columns(ZZ, 3, basis))
    assert solver.contains({0: 1, 1: 1, 2: -1})
    # a zero matrix, as a free module's relations^T, has the unit vectors
    for rows in (0, 2):
        assert integer_kernel_basis(Matrix.zero(ZZ, rows, 3)) == \
            [{0: 1}, {1: 1}, {2: 1}]
    with pytest.raises(ValueError):
        integer_kernel_basis(Matrix.zero(QQ, 0, 3))


def test_integer_solver_membership():
    a = Matrix.from_rows(ZZ, [[2, 0], [0, 3]])
    solver = IntegerSolver(a)
    assert solver.contains({0: 4, 1: 9})
    assert not solver.contains({0: 1})
    x = solver.solve({0: 4, 1: 9})
    assert a.apply_to_column(x) == {0: 4, 1: 9}


def test_integer_in_span():
    span = Matrix.from_columns(ZZ, 2, [{0: 2}, {1: 3}])
    assert integer_in_span(span, Matrix.from_columns(ZZ, 2, [{0: 4, 1: -3}]))
    assert not integer_in_span(span, Matrix.from_columns(ZZ, 2, [{0: 1}]))


def test_lattice_canonical_detects_equality():
    a = Matrix.from_columns(ZZ, 3, [{0: 1, 1: 2}, {2: 5}])
    # mix columns unimodularly: same lattice
    b = Matrix.from_columns(ZZ, 3, [{0: 1, 1: 2, 2: 5}, {2: 5},
                                    {0: -1, 1: -2, 2: 10}])
    assert lattice_canonical(a) == lattice_canonical(b)
    c = Matrix.from_columns(ZZ, 3, [{0: 1, 1: 2}, {2: 10}])
    assert lattice_canonical(a) != lattice_canonical(c)


@pytest.mark.parametrize("seed", range(4))
def test_lattice_canonical_unimodular_invariance(seed):
    rng = random.Random(seed)
    for _ in range(5):
        cols = [{i: rng.randint(-4, 4) for i in range(4)} for _ in range(3)]
        m = Matrix.from_columns(ZZ, 4, cols)
        mixed = list(cols)
        # elementary column operations preserve the lattice
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-2, 2)
            mixed[i] = {k: mixed[i].get(k, 0) + q * mixed[j].get(k, 0)
                        for k in range(4)}
        m2 = Matrix.from_columns(ZZ, 4,
                                 [{k: v for k, v in col.items() if v}
                                  for col in mixed])
        assert lattice_canonical(m) == lattice_canonical(m2)


def test_smith_form_dataclass():
    sf = SmithForm((1, 2, 6))
    d = diagonal(sf.factors, 3, 5)
    assert d.get(2, 2) == 6 and d.get(0, 3) == 0


integer_matrices = st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]).map(
            lambda rows: Matrix(ZZ, shape[0], shape[1], {
                (i, j): v for i, row in enumerate(rows)
                for j, v in enumerate(row) if v})))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_matrices)
def test_smith_transforms_hypothesis(m):
    assert_smith_transforms(m)


# random-5 (60 x 45): the dense min-|pivot| reference grows its entries to
# about a million bits on it and does not finish, so its factors are pinned
# from sympy's smith_normal_form instead, with its ranks mod p. The largest
# Hermite entry of the Smith loop on it is 12 bits.
RANDOM_5_FACTORS = [1] * 36 + [2, 2, 6, 6, 30]
RANDOM_5_RANKS = {2: 36, 3: 38, 5: 40, 7: 41, 11: 41}


def test_invariant_factors_random_5():
    rows = DIFFERENTIAL_INPUTS["random-5"]
    m = sparse_matrix(ZZ, rows)
    assert invariant_factors(m) == RANDOM_5_FACTORS
    assert list(assert_smith_transforms(m).factors) == RANDOM_5_FACTORS
    for p, rank in RANDOM_5_RANKS.items():
        assert sparse_matrix(GF(p), rows).rank() == rank
        assert dense_rank_reference_mod_p(rows, p) == rank
        assert sum(d % p != 0 for d in RANDOM_5_FACTORS) == rank


# Left out here, and covered by the rank and rref differential tests: the
# 1330 x 735 Arnold m=3, n=7 matrix, because the dense SNF reference is
# cubic in its size, and random-5, pinned above.
SNF_LABELS = sorted(label for label in DIFFERENTIAL_INPUTS
                    if label not in ("arnold-m3-n7", "random-5"))


@pytest.mark.parametrize("label", SNF_LABELS)
def test_invariant_factors_match_dense_snf(label):
    rows = DIFFERENTIAL_INPUTS[label]
    assert invariant_factors(sparse_matrix(ZZ, rows)) == \
        dense_snf_reference(rows)


@pytest.mark.parametrize("seed", range(6))
def test_invariant_factors_match_dense_snf_without_units(seed):
    # no +-1 entries at all: stripping finds nothing until updates make units
    rows = random_sparse_rows(100 + seed, 14, 11, 0.35,
                              values=(2, -2, 3, 4, -6, 9))
    assert invariant_factors(sparse_matrix(ZZ, rows)) == \
        dense_snf_reference(rows)


# ---------------------------------------------------------------------------
# differential tests against the transform-Smith and Fraction references

@pytest.mark.parametrize("seed", range(8))
def test_kernel_basis_matches_snf_reference(seed):
    for label, m in seeded_integer_matrices(seed):
        got = integer_kernel_basis(m)
        ref = snf_kernel_reference(m)
        assert len(got) == len(ref), label
        assert all(m.apply_to_column(col) == {} for col in got), label
        assert canonical_of_columns(m.ncols, got) == \
            canonical_of_columns(m.ncols, ref), label


@pytest.mark.parametrize("seed", range(8))
def test_solver_matches_snf_reference(seed):
    rng = random.Random(1000 + seed)
    for label, a in seeded_integer_matrices(seed):
        solver, ref = IntegerSolver(a), snf_solver_reference(a)
        targets = [{}]
        for _ in range(6):
            x = {j: rng.randint(-4, 4) for j in range(a.ncols)}
            targets.append(a.apply_to_column({j: v for j, v in x.items() if v}))
            b = {i: rng.randint(-4, 4) for i in range(a.nrows)}
            targets.append({i: v for i, v in b.items() if v})
        for b in targets:
            x, y = solver.solve(b), ref(b)
            assert (x is None) == (y is None), (label, b)
            if x is not None:
                assert a.apply_to_column(x) == b, (label, b)


def _inverse_or_error(fn, m):
    try:
        return fn(m)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("seed", range(8))
def test_integer_inverse_matches_fraction_reference(seed):
    rng = random.Random(2000 + seed)
    cases = [m for _, m in seeded_integer_matrices(seed)]
    for n in range(0, 7):
        u = random_unimodular(rng, n)
        cases.append(u)
        d = {(i, i): 1 for i in range(n)}
        if n:
            d[(rng.randrange(n), rng.randrange(n))] = rng.choice((0, 2, -3))
        cases.append(u @ Matrix(ZZ, n, n, d) @ random_unimodular(rng, n))
    for m in cases:
        got = _inverse_or_error(integer_inverse, m)
        assert got == _inverse_or_error(fraction_inverse_reference, m), m
        if isinstance(got, Matrix):
            assert m @ got == Matrix.identity(ZZ, m.nrows)


@pytest.mark.parametrize("seed", range(8))
def test_free_coordinates_over_seeded_integer_slices(seed):
    with_relations = 0
    for struct in seeded_structures(seed, 20):
        p = instantiate(struct, ZZ)
        for n in range(5):
            module = p.slice_module(n)
            if module.invariants().torsion:
                continue
            coords = module.free_coordinates()
            rel = module.relations
            assert coords.nrows == module.invariants().free_rank
            assert (coords @ rel).is_zero()
            # coords maps Z^ambient onto Z^r
            assert invariant_factors(coords) == [1] * coords.nrows
            assert canonical_of_columns(
                module.ambient, snf_kernel_reference(coords)) == \
                lattice_canonical(rel)
            with_relations += not rel.is_zero()
    assert with_relations >= 4

