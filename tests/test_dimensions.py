import math
import random
import tracemalloc

import pytest

from fimod.dimensions import (DimensionTable, FitReport,
                              IntegerValuedPolynomial, dimension_table,
                              finite_difference, fit_polynomial, tail_equal)
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


# -- the two-pyramid reconstruction the closed form replaced, kept as a
# reference: the Newton form at the base b is evaluated at n = 0..degree
# through a generalized binomial, and a second difference pyramid over
# those values reads off c_k = Delta^k P(0).

def _binom_reference(m, k):
    num = 1
    for i in range(k):
        num *= m - i
    return num // math.factorial(k)


def fit_reference(table, min_tail=3):
    vals = list(table.values)
    if len(vals) < min_tail + 1:
        return FitReport(None, None, 0, "inconclusive",
                         f"table has {len(vals)} rows; need at least "
                         f"{min_tail + 1} for a degree-0 certificate")
    diffs = [vals]
    while len(diffs[-1]) > 1:
        prev = diffs[-1]
        diffs.append([b - a for a, b in zip(prev, prev[1:])])
    degree = None
    for d in range(0, len(diffs) - 1):
        row = diffs[d + 1]
        if len(row) >= min_tail and all(x == 0 for x in row[-min_tail:]):
            degree = d
            break
    if degree is None:
        return FitReport(None, None, 0, "inconclusive",
                         "no finite difference vanishes on the window tail")
    base_idx = len(vals) - 1 - degree
    base = table.start + base_idx
    newton = [diffs[k][base_idx] for k in range(degree + 1)]
    row = [sum(a * _binom_reference(n - base, k)
               for k, a in enumerate(newton))
           for n in range(0, degree + 1)]
    coeffs = []
    for _ in range(degree + 1):
        coeffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    poly = IntegerValuedPolynomial(tuple(coeffs))
    onset = None
    for n, v in reversed(table.rows()):
        if poly.value(n) != v:
            break
        onset = n
    if onset is None or table.end - onset + 1 < min_tail:
        return FitReport(None, None, 0, "inconclusive",
                         "reconstructed polynomial matches too short a tail")
    return FitReport(poly, onset, table.end - onset + 1,
                     "certified-on-window")


def random_fit_table(rng):
    """A degree <= 5 polynomial in the binomial basis on a contiguous
    window, starting near 0 or anywhere up to 10^12, with up to three
    entries moved off it."""
    degree = rng.randint(0, 5)
    coeffs = [rng.randint(-20, 20) for _ in range(degree + 1)]
    start = rng.randint(0, 10) if rng.random() < 0.5 else \
        rng.randint(10 ** 9, 10 ** 12)
    rows = rng.randint(1, 14)
    vals = [sum(c * math.comb(n, k) for k, c in enumerate(coeffs))
            for n in range(start, start + rows)]
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(rows)
        vals[k] += rng.choice([-1, 1]) * rng.randint(1, 9)
    return DimensionTable(QQ, start, vals)


def test_fit_matches_two_pyramid_reference_on_random_tables():
    rng = random.Random(20121)
    certified = 0
    for _ in range(3000):
        table = random_fit_table(rng)
        min_tail = rng.randint(1, 4)
        rep = fit_polynomial(table, min_tail)
        assert rep == fit_reference(table, min_tail), (table, min_tail)
        certified += rep.certified
    assert 0 < certified < 3000


def test_fit_perturbed_prefix_at_large_starts_matches_reference():
    rng = random.Random(7)
    for _ in range(300):
        degree = rng.randint(0, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + \
            [rng.randint(1, 9)]
        start = rng.randint(10 ** 9, 10 ** 12)
        vals = [sum(c * math.comb(n, k) for k, c in enumerate(coeffs))
                for n in range(start, start + degree + 7)]
        prefix = rng.randint(1, 3)
        for k in range(prefix):
            vals[k] += rng.randint(1, 5)
        table = DimensionTable(QQ, start, vals)
        rep = fit_polynomial(table, 3)
        assert rep == fit_reference(table, 3)
        assert rep.polynomial.coefficients == tuple(coeffs)
        assert rep.onset == start + prefix


def test_fit_table_starting_at_ten_to_the_twelfth():
    start = 10 ** 12
    table = DimensionTable(QQ, start, [math.comb(n, 2)
                                       for n in range(start, start + 8)])
    rep = fit_polynomial(table, 3)
    assert rep.certified and rep.polynomial.coefficients == (0, 0, 1)
    assert (rep.onset, rep.tail_length) == (start, 8)
    # a perturbed first row moves the onset, not the polynomial
    table.values[0] += 1
    rep = fit_polynomial(table, 3)
    assert rep.polynomial.coefficients == (0, 0, 1)
    assert (rep.onset, rep.tail_length) == (start + 1, 7)


def test_fit_of_a_long_table_holds_one_difference_row():
    # the whole difference pyramid of 20,000 rows would be 2 * 10^8 integers
    table = DimensionTable(QQ, 0, [3 * n + 1 for n in range(20_000)])
    tracemalloc.start()
    try:
        rep = fit_polynomial(table, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep == FitReport(IntegerValuedPolynomial((1, 3)), 0, 20_000,
                            "certified-on-window")
    assert peak < 4 * 2 ** 20


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
    ("n,dim\n 0 ,1\n", QQ), ("n,dim\n0, 1\n", QQ),   # padded cells
    ("n,dim\n+1,2\n", QQ), ("n,dim\n0,+2\n", QQ),    # a plus sign
    ("n,dim\n\u0662,3\n", QQ), ("n,dim\n0,\u0663\n", QQ),  # Arabic-Indic
    ("n,dim\n1_0,2\n", QQ), ("n,dim\n0,1_0\n", QQ),  # digit grouping
    ("n,dim\n1.0,2\n", QQ), ("n,dim\n0,1e3\n", QQ), ("n,dim\n,2\n", QQ),
    ("n,free_rank,torsion\n0, 1,\n", ZZ),
    ("n,free_rank,torsion\n0,1,2; 4\n", ZZ),
    ("n,free_rank,torsion\n0,1,+2\n", ZZ),
    ("n,free_rank,torsion\n0,1,2;;4\n", ZZ),
    ("n,free_rank,torsion\n0,1,\u0662\n", ZZ),
    ("n,free_rank,torsion\n0,1,2_0\n", ZZ),
])
def test_from_csv_refuses_cells_other_than_ascii_digits(text, ring):
    with pytest.raises(ValueError, match="ASCII decimal digits"):
        DimensionTable.from_csv(text, ring)


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
