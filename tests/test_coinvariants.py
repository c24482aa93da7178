import math
import random
from itertools import permutations, product

import pytest

from fimod.coinvariants import (MultiIndex, _positive_subdegrees,
                                coinvariant_dim, coinvariant_dual_map,
                                coinvariant_module, coinvariant_table,
                                ideal_matrix, invariant_basis, monomials)
from fimod.injections import Injection, identity_injection
from fimod.matrix import Matrix, field_kernel_basis, vstack
from fimod.modules import Invariants
from fimod.rings import GF, QQ, ZZ
from tests.test_matrix import assert_canonical


def test_monomial_counts():
    assert len(monomials(MultiIndex(1, (3,)), 4)) == math.comb(6, 3)
    assert len(monomials(MultiIndex(2, (1, 2)), 3)) == 3 * math.comb(4, 2)
    assert monomials(MultiIndex(1, (2,)), 0) == []
    assert monomials(MultiIndex(1, (0,)), 0) == [((),)]


@pytest.mark.parametrize("entry", [ideal_matrix, coinvariant_module,
                                   invariant_basis, coinvariant_dim])
def test_negative_degree_is_refused(entry):
    with pytest.raises(ValueError, match="n must be >= 0"):
        entry(MultiIndex(1, (1,)), -1, QQ)


def test_coinvariant_dim_examples():
    assert coinvariant_dim(MultiIndex(1, (0,)), 5, QQ).dim == 1
    row = coinvariant_dim(MultiIndex(1, (1,)), 3, QQ)
    assert (row.poly_dim, row.ideal_rank, row.dim) == (3, 1, 2)
    assert coinvariant_dim(MultiIndex(2, (1, 1)), 2, QQ).dim == 0
    assert coinvariant_dim(MultiIndex(1, (0,)), 0, QQ).dim == 1
    assert coinvariant_dim(MultiIndex(1, (2,)), 0, QQ).dim == 0


@pytest.mark.parametrize("J,n,row", [
    ((0,), 0, (1, 0)), ((0,), 1, (1, 0)),
    ((1,), 0, (0, 0)), ((1,), 1, (1, 1)),
    ((2, 2), 0, (0, 0)), ((2, 2), 1, (1, 1)),
])
def test_coinvariant_dim_edge_rows(J, n, row):
    for ring in (QQ, GF(2), GF(3)):
        got = coinvariant_dim(MultiIndex(len(J), J), n, ring)
        assert (got.poly_dim, got.ideal_rank) == row


@pytest.mark.parametrize("J,ambient,free_rank", [
    ((0,), 1, 1), ((1,), 0, 0), ((2, 2), 0, 0),
])
def test_coinvariant_module_at_zero(J, ambient, free_rank):
    for ring in (QQ, GF(3)):
        mod = coinvariant_module(MultiIndex(len(J), J), 0, ring)
        assert (mod.ambient, mod.relations.ncols) == (ambient, 0)
        assert mod.invariants() == Invariants(free_rank)


@pytest.mark.parametrize("J,shape,entries", [
    ((0,), (1, 1), {(0, 0): 1}), ((1,), (1, 0), {}), ((2, 2), (0, 0), {}),
])
def test_coinvariant_dual_map_from_zero(J, shape, entries):
    """The dual map along [0] -> [2]."""
    for ring in (QQ, GF(2)):
        mat = coinvariant_dual_map(MultiIndex(len(J), J),
                                   Injection(0, 2, ()), ring)
        assert (mat.nrows, mat.ncols) == shape and mat.entries == entries


def test_coinvariant_refuses_z():
    with pytest.raises(ValueError):
        coinvariant_dim(MultiIndex(1, (1,)), 2, ZZ)


def test_table_examples():
    t = coinvariant_table(MultiIndex(1, (1,)), 1, 8, QQ)
    assert t.values == [0, 1, 2, 3, 4, 5, 6, 7]
    t0 = coinvariant_table(MultiIndex(1, (0,)), 1, 6, QQ)
    assert t0.values == [1] * 6
    with pytest.raises(ValueError, match="empty degree range"):
        coinvariant_table(MultiIndex(1, (1,)), 3, 2, QQ)


# -- the kernel route invariant_basis replaced, kept as a reference: the
# invariants of the permutation action are the joint kernel of (sigma - 1)
# over two generators of S_n.

def sym_generators(n):
    """The transposition (1 2) and the n-cycle, as image tuples; empty for n <= 1."""
    if n <= 1:
        return []
    transposition = tuple([2, 1] + list(range(3, n + 1)))
    cycle = tuple(list(range(2, n + 1)) + [1])
    return [transposition, cycle]


def permute_monomial(mono, perm):
    """Action substituting variable t by variable perm[t-1] in each group."""
    n = len(perm)
    out = []
    for row in mono:
        new = [0] * n
        for t in range(n):
            new[perm[t] - 1] = row[t]
        out.append(tuple(new))
    return tuple(out)


def kernel_invariant_reference(spec, n, ring, generators=None):
    """(monomials, field_kernel_basis of the stacked sigma - 1)."""
    monos = monomials(spec, n)
    if not monos:
        return monos, []
    gens = sym_generators(n) if generators is None else generators
    if not gens:
        return monos, [{k: ring.one} for k in range(len(monos))]
    index = {m: k for k, m in enumerate(monos)}
    stacked = []
    for perm in gens:
        ent = {}
        for k, mono in enumerate(monos):
            moved = index[permute_monomial(mono, perm)]
            if moved != k:
                ent[(moved, k)] = ring.one
                ent[(k, k)] = ring.coerce(-1)
        stacked.append(Matrix(ring, len(monos), len(monos), ent))
    return monos, field_kernel_basis(vstack(stacked))


def _invariant_cases():
    for r in (1, 2, 3):
        for J in product(range(3), repeat=r):
            for n in range(6 if r < 3 else 4):
                yield MultiIndex(r, J), n


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(5)])
def test_invariant_basis_matches_kernel_reference(ring):
    for spec, n in _invariant_cases():
        assert invariant_basis(spec, n, ring) == \
            kernel_invariant_reference(spec, n, ring), (spec, n, ring.name)


def test_generator_pair_independence():
    def reversed_pair(n):
        tr = list(range(1, n + 1))
        tr[-2], tr[-1] = tr[-1], tr[-2]
        cyc = tuple([n] + list(range(1, n)))
        return [tuple(tr), cyc]

    for spec in (MultiIndex(1, (2,)), MultiIndex(2, (1, 2))):
        for n in (2, 3, 4):
            assert invariant_basis(spec, n, QQ) == kernel_invariant_reference(
                spec, n, QQ, generators=reversed_pair(n))


def test_sym_generators_degenerate():
    assert sym_generators(0) == []
    assert sym_generators(1) == []
    assert sym_generators(2) == [(2, 1), (2, 1)]


# -- the tuple-product builder ideal_matrix replaced, kept as a reference:
# every product monomial built as a tuple of tuples, looked up in a
# monomial index, and every entry coerced through Matrix.from_columns.

def ideal_matrix_reference(spec, n, ring):
    monos = monomials(spec, n)
    index = {m: k for k, m in enumerate(monos)}
    cols = []
    for jp in _positive_subdegrees(spec.J):
        sub = MultiIndex(spec.r, tuple(jp))
        sub_monos, inv = invariant_basis(sub, n, ring)
        if not inv:
            continue
        rest = MultiIndex(spec.r,
                          tuple(j - p for j, p in zip(spec.J, jp)))
        for factor in monomials(rest, n):
            for vec in inv:
                col = {}
                for k, coeff in vec.items():
                    prod = tuple(
                        tuple(a + b for a, b in zip(row_s, row_f))
                        for row_s, row_f in zip(sub_monos[k], factor))
                    col[index[prod]] = coeff
                cols.append(col)
    if not cols:
        return Matrix.zero(ring, len(monos), 0)
    return Matrix.from_columns(ring, len(monos), cols)


def _ideal_cases():
    specs = [MultiIndex(1, (j,)) for j in range(5)]
    specs += [MultiIndex(2, J) for J in product(range(3), repeat=2)]
    specs += [MultiIndex(2, (3, 1)), MultiIndex(2, (1, 3))]
    specs += [MultiIndex(3, J) for J in product(range(2), repeat=3)]
    specs += [MultiIndex(3, (2, 0, 1)), MultiIndex(3, (0, 0, 2))]
    for spec in specs:
        for n in range(7):
            yield spec, n


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(5)])
def test_ideal_matrix_matches_reference(ring):
    for spec, n in _ideal_cases():
        got = ideal_matrix(spec, n, ring)
        want = ideal_matrix_reference(spec, n, ring)
        assert got == want, (spec, n, ring.name)
        assert got.entries == want.entries, (spec, n, ring.name)
        assert list(got.entries) == list(want.entries), (spec, n, ring.name)
        assert_canonical(got)


def test_ideal_matrix_results_are_independent():
    spec = MultiIndex(2, (2, 1))
    first = ideal_matrix(spec, 4, QQ)
    first.entries.clear()
    assert ideal_matrix(spec, 4, QQ) == ideal_matrix_reference(spec, 4, QQ)
    again = ideal_matrix(spec, 4, QQ)
    again.entries[(0, 0)] = QQ.one + QQ.one
    assert ideal_matrix(spec, 4, QQ) == ideal_matrix_reference(spec, 4, QQ)
    over_q = ideal_matrix(spec, 4, QQ)
    over_f3 = ideal_matrix(spec, 4, GF(3))
    assert over_q.entries is not over_f3.entries
    assert over_f3 == ideal_matrix_reference(spec, 4, GF(3))


def test_ideal_matrix_refuses_z():
    with pytest.raises(ValueError):
        ideal_matrix(MultiIndex(1, (1,)), 2, ZZ)


# -- independent oracle: invariants are spanned by monomial orbit sums under
# the full symmetric group, over any field; ranks via dense elimination.

def orbit_sum_ideal_rank(spec, n, ring):
    monos = monomials(spec, n)
    index = {m: k for k, m in enumerate(monos)}
    columns = []
    for jp in _positive_subdegrees(spec.J):
        sub = MultiIndex(spec.r, tuple(jp))
        sub_monos = monomials(sub, n)
        orbits = {}
        for mono in sub_monos:
            orbit = frozenset(permute_monomial(mono, perm)
                              for perm in permutations(range(1, n + 1)))
            orbits[orbit] = orbit
        rest = MultiIndex(spec.r, tuple(j - p for j, p in zip(spec.J, jp)))
        for orbit in orbits:
            for factor in monomials(rest, n):
                col = {}
                for mono in orbit:
                    prod = tuple(tuple(a + b for a, b in zip(rs, rf))
                                 for rs, rf in zip(mono, factor))
                    col[index[prod]] = col.get(index[prod], 0) + 1
                columns.append(col)
    if not columns:
        return 0
    return Matrix.from_columns(ring, len(monos), columns).rank()


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3)])
def test_against_orbit_sum_oracle(ring):
    cases = [(MultiIndex(1, (2,)), 3), (MultiIndex(1, (3,)), 3),
             (MultiIndex(1, (2,)), 4), (MultiIndex(2, (1, 1)), 3),
             (MultiIndex(2, (2, 1)), 3), (MultiIndex(2, (1, 1)), 4),
             (MultiIndex(3, (1, 1, 1)), 3)]
    for spec, n in cases:
        row = coinvariant_dim(spec, n, ring)
        oracle_rank = orbit_sum_ideal_rank(spec, n, ring)
        assert row.ideal_rank == oracle_rank, (spec, n, ring.name)


def test_invariant_dimension_matches_orbit_count():
    # over any field the invariant subspace of a permutation module has the
    # orbit sums as a basis
    for ring in (QQ, GF(2)):
        for spec, n in [(MultiIndex(1, (2,)), 4), (MultiIndex(2, (1, 1)), 3)]:
            monos, kernel = invariant_basis(spec, n, ring)
            orbits = set()
            for mono in monos:
                orbits.add(frozenset(
                    permute_monomial(mono, perm)
                    for perm in permutations(range(1, n + 1))))
            assert len(kernel) == len(orbits)


def test_semicontinuity_rational_vs_mod_p():
    for p in (2, 3):
        for spec in (MultiIndex(1, (2,)), MultiIndex(2, (1, 1))):
            for n in (2, 3, 4):
                dq = coinvariant_dim(spec, n, QQ).dim
                dp = coinvariant_dim(spec, n, GF(p)).dim
                assert dq <= dp


def test_classical_total_dimension():
    for n in (1, 2, 3, 4):
        total = sum(coinvariant_dim(MultiIndex(1, (j,)), n, QQ).dim
                    for j in range(0, math.comb(n, 2) + 1))
        assert total == math.factorial(n)


def test_dual_map_examples():
    f12 = Injection(1, 2, (1,))
    dm = coinvariant_dual_map(MultiIndex(1, (1,)), f12, QQ)
    assert (dm.nrows, dm.ncols) == (1, 0)
    ident = coinvariant_dual_map(MultiIndex(1, (1,)), identity_injection(3), QQ)
    assert ident == Matrix.identity(QQ, 2)


def test_dual_map_functoriality():
    rng = random.Random(5)
    for _ in range(8):
        lo = rng.randint(1, 3)
        mid = rng.randint(lo, 4)
        hi = rng.randint(mid, 4)
        f = Injection(lo, mid, tuple(rng.sample(range(1, mid + 1), lo)))
        g = Injection(mid, hi, tuple(rng.sample(range(1, hi + 1), mid)))
        spec = MultiIndex(1, (rng.randint(0, 2),))
        lhs = coinvariant_dual_map(spec, g.after(f), QQ)
        rhs = coinvariant_dual_map(spec, g, QQ) @ \
            coinvariant_dual_map(spec, f, QQ)
        assert lhs == rhs

