import math

import pytest

from fimod.dimensions import (DimensionTable, IntegerValuedPolynomial,
                              dimension_table, finite_difference,
                              fit_polynomial, tail_equal)
from fimod.presentations import free_presentation
from fimod.rings import QQ, ZZ
from tests.test_presentations import torsion_module


def test_dimension_table_examples():
    assert dimension_table(free_presentation(QQ, 1), 0, 5).values == \
        [0, 1, 2, 3, 4, 5]
    assert dimension_table(free_presentation(QQ, 2), 0, 5).values == \
        [0, 0, 2, 6, 12, 20]
    assert dimension_table(torsion_module(QQ), 0, 4).values == [1, 0, 0, 0, 0]


def test_finite_difference_examples():
    t2 = dimension_table(free_presentation(QQ, 2), 0, 5)
    assert finite_difference(t2).values == [0, 2, 4, 6, 8]
    const = DimensionTable(QQ, 0, [7] * 5)
    assert finite_difference(const).values == [0, 0, 0, 0]
    t1 = dimension_table(free_presentation(QQ, 1), 0, 5)
    assert finite_difference(t1).values == [1] * 5


def test_finite_difference_refuses_z_tables():
    tz = dimension_table(free_presentation(ZZ, 1), 0, 4)
    with pytest.raises(ValueError):
        finite_difference(tz)


def test_polynomial_evaluation_and_difference():
    p = IntegerValuedPolynomial((1, -2, 3))
    assert p.value(0) == 1
    assert p.value(4) == 1 - 8 + 3 * 6
    assert p.difference().coefficients == (-2, 3)
    assert str(p) == "1 + -2*C(n,1) + 3*C(n,2)"
    with pytest.raises(ValueError):
        IntegerValuedPolynomial((1, 0))


def test_fit_free_modules():
    for d in range(0, 4):
        table = dimension_table(free_presentation(QQ, d), 0, 9)
        rep = fit_polynomial(table, 3)
        assert rep.certified and rep.onset == 0
        assert rep.polynomial.degree == d
        assert rep.polynomial.coefficients[-1] == math.factorial(d)
        for n, v in table.rows():
            assert rep.polynomial.value(n) == v


def test_fit_m2_example():
    rep = fit_polynomial(dimension_table(free_presentation(QQ, 2), 0, 8), 3)
    assert rep.polynomial.coefficients == (0, 0, 2)


def test_fit_torsion_module_onset():
    rep = fit_polynomial(dimension_table(torsion_module(QQ), 0, 6), 3)
    assert rep.certified
    assert rep.polynomial.degree == -1    # the zero polynomial
    assert rep.onset == 1


def test_fit_factorial_is_inconclusive():
    table = DimensionTable(QQ, 0, [math.factorial(n) for n in range(9)])
    rep = fit_polynomial(table, 3)
    assert not rep.certified


def test_fit_short_table_is_inconclusive():
    rep = fit_polynomial(DimensionTable(QQ, 0, [1, 2, 3]), 3)
    assert not rep.certified and "rows" in rep.detail


def test_fit_commutes_with_difference():
    table = dimension_table(free_presentation(QQ, 2), 0, 9)
    fit = fit_polynomial(table, 3)
    fit_diff = fit_polynomial(finite_difference(table), 3)
    assert fit_diff.polynomial == fit.polynomial.difference()


def test_fit_translation_consistency():
    table = dimension_table(free_presentation(QQ, 3), 0, 10)
    rep = fit_polynomial(table, 3)
    shifted = DimensionTable(QQ, 1, table.values[1:])
    rep2 = fit_polynomial(shifted, 3)
    assert rep2.polynomial == rep.polynomial


def test_tail_equal_examples():
    t = dimension_table(free_presentation(QQ, 2), 0, 8)
    assert tail_equal(t, t, 5)
    ones = dimension_table(free_presentation(QQ, 0), 1, 6)
    torsion = dimension_table(torsion_module(QQ), 1, 6)
    zero = DimensionTable(QQ, 1, [0] * 6)
    assert not tail_equal(ones, torsion, 4)
    assert tail_equal(torsion, zero, 4)
    with pytest.raises(ValueError):
        tail_equal(DimensionTable(QQ, 0, [1, 2]),
                   DimensionTable(QQ, 5, [1, 2]), 2)


def test_csv_round_trip():
    tq = dimension_table(free_presentation(QQ, 2), 0, 6)
    assert DimensionTable.from_csv(tq.to_csv(), QQ).values == tq.values
    tz = dimension_table(free_presentation(ZZ, 1), 0, 4)
    back = DimensionTable.from_csv(tz.to_csv(), ZZ)
    assert [v.free_rank for v in back.values] == \
        [v.free_rank for v in tz.values]
    from fimod.modules import Invariants
    torsion_table = DimensionTable(ZZ, 0, [Invariants(1, (2, 4))])
    back2 = DimensionTable.from_csv(torsion_table.to_csv(), ZZ)
    assert back2.values[0].torsion == (2, 4)


def test_from_csv_requires_contiguity():
    with pytest.raises(ValueError):
        DimensionTable.from_csv("n,dim\n0,1\n2,1\n", QQ)


@pytest.mark.parametrize("text,ring", [
    ("", QQ), ("\n\n", ZZ),                          # no header
    ("n,dim\n", QQ), ("n,free_rank,torsion\n", ZZ),  # header only
    ("n,free_rank,torsion\n0,1,\n", QQ),             # Z header over a field
    ("n,dim\n0,1\n", ZZ),                            # field header over Z
    ("n,dims\n0,1\n", QQ),                           # not the README header
    ("n,dim\n0\n", QQ), ("n,dim\n0,1,2\n", QQ),      # rows of the wrong width
])
def test_from_csv_requires_header_for_ring_and_rows(text, ring):
    with pytest.raises(ValueError):
        DimensionTable.from_csv(text, ring)


def test_from_csv_accepts_integer_rows_without_torsion_field():
    back = DimensionTable.from_csv("n,free_rank,torsion\n0,1\n1,2,2;4\n", ZZ)
    assert [(v.free_rank, v.torsion) for v in back.values] == \
        [(1, ()), (2, (2, 4))]


@pytest.mark.parametrize("text,ring", [
    ("n,dim\n0,-1\n", QQ),                               # negative dimension
    ("n,free_rank,torsion\n0,-1,\n", ZZ),                 # negative free rank
    ("n,free_rank,torsion\n0,-1,0;-2;3\n", ZZ),
    ("n,free_rank,torsion\n0,1,0\n", ZZ),                 # torsion 0
    ("n,free_rank,torsion\n0,1,1\n", ZZ),                 # torsion 1
    ("n,free_rank,torsion\n0,1,-2\n", ZZ),                # negative torsion
    ("n,free_rank,torsion\n0,1,4;2\n", ZZ),               # 4 does not divide 2
    ("n,free_rank,torsion\n0,1,2;3\n", ZZ),               # 2 does not divide 3
])
def test_from_csv_refuses_impossible_values(text, ring):
    with pytest.raises(ValueError):
        DimensionTable.from_csv(text, ring)


def test_from_csv_accepts_invariant_factor_chains():
    back = DimensionTable.from_csv("n,free_rank,torsion\n0,0,2;2;6;12\n", ZZ)
    assert back.values[0].torsion == (2, 2, 6, 12)
