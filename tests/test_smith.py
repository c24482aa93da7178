import random

import pytest

from fimod.matrix import Matrix
from fimod.rings import QQ, ZZ
from fimod.smith import (IntegerSolver, SmithForm, integer_inverse,
                         integer_in_span, integer_kernel_basis,
                         invariant_factors, lattice_canonical, smith_form)
from tests.test_matrix import (DIFFERENTIAL_INPUTS, dense_snf_reference,
                               random_sparse_rows, sparse_matrix)


def test_invariant_factor_examples():
    assert invariant_factors(Matrix.from_rows(ZZ, [[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(Matrix.zero(ZZ, 4, 2)) == []
    assert invariant_factors(Matrix.from_rows(ZZ, [[2, 0], [0, 2]])) == [2, 2]


def test_smith_form_requires_integers():
    with pytest.raises(ValueError):
        smith_form(Matrix.identity(QQ, 2))


@pytest.mark.parametrize("seed", range(8))
def test_smith_transform_identity_randomized(seed):
    rng = random.Random(seed)
    for _ in range(6):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-8, 8) for _ in range(nc)] for _ in range(nr)]
        m = Matrix.from_rows(ZZ, rows)
        sf = smith_form(m, transforms=True)
        assert sf.left @ m @ sf.right == sf.diagonal_matrix(nr, nc)
        for a, b in zip(sf.factors, sf.factors[1:]):
            assert b % a == 0 and a > 0
        # transforms are unimodular
        for t in (sf.left, sf.right):
            inv = integer_inverse(t)
            assert t @ inv == Matrix.identity(ZZ, t.nrows)
        # diagonal-only path agrees
        assert invariant_factors(m) == list(sf.factors)


def test_integer_kernel_basis():
    m = Matrix.from_rows(ZZ, [[2, 4, 6], [1, 2, 3]])
    basis = integer_kernel_basis(m)
    assert len(basis) == 2
    for col in basis:
        assert m.apply_to_column(col) == {}
    # kernel basis is saturated: (1, 1, -1) must be an integer combination
    solver = IntegerSolver(Matrix.from_columns(ZZ, 3, basis))
    assert solver.contains({0: 1, 1: 1, 2: -1})


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
    d = sf.diagonal_matrix(3, 5)
    assert d.get(2, 2) == 6 and d.get(0, 3) == 0


# Left to the rank and rref differential tests: the 1330 x 735 Arnold m=3,
# n=7 matrix, because the dense SNF reference is cubic in its size, and
# random-5, because the dense SNF core (the reference and the residue step
# of invariant_factors alike) grows its entries to a million bits on it and
# does not finish.
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
