import math
import random

import pytest

from itertools import combinations

from fimod.arnold import (ArnoldModule, _sort_sign, _support,
                          admissible_edge_sets, arnold_induced_map,
                          arnold_presentation, arnold_slice, edge_sets, edges)
from fimod.complexes import check_inductive, find_N
from fimod.dimensions import DimensionTable, fit_polynomial
from fimod.injections import Injection, identity_injection, standard_inclusion
from fimod.matrix import Matrix
from fimod.modules import Invariants
from fimod.presentations import FIPresentation, FreeElement
from fimod.rings import GF, QQ, ZZ
from fimod.sampling import random_injection
from tests.test_matrix import assert_canonical


def elementary_symmetric_2(n):
    vals = list(range(1, n))
    return sum(vals[i] * vals[j]
               for i in range(len(vals)) for j in range(i + 1, len(vals)))


def test_degree_zero_and_one():
    for n in range(0, 6):
        assert arnold_slice(0, n, QQ).dim() == 1
    assert arnold_slice(1, 4, QQ).dim() == math.comb(4, 2)
    # no relations below degree 2
    assert arnold_slice(1, 5, QQ).relations.ncols == 0


@pytest.mark.parametrize("n", range(0, 7))
def test_degree_two_matches_admissible_oracle(n):
    d = arnold_slice(2, n, QQ).dim()
    assert d == len(admissible_edge_sets(2, n))
    assert d == elementary_symmetric_2(n)


@pytest.mark.parametrize("n", range(0, 6))
def test_degree_three_matches_admissible_oracle(n):
    assert arnold_slice(3, n, QQ).dim() == len(admissible_edge_sets(3, n))


def test_slices_free_over_integers():
    for n in range(0, 6):
        inv = arnold_slice(2, n, ZZ).invariants()
        assert not inv.torsion
        assert inv.free_rank == elementary_symmetric_2(n)


def test_dimensions_uniform_across_fields():
    for n in range(0, 6):
        dq = arnold_slice(2, n, QQ).dim()
        assert arnold_slice(2, n, GF(2)).dim() == dq
        assert arnold_slice(2, n, GF(3)).dim() == dq


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ])
@pytest.mark.parametrize("m", range(4))
def test_slice_invariants_match_whole_slices(m, ring):
    witness = ArnoldModule(m, ring)
    for n in range(8):
        assert witness.slice_invariants(n) == \
            ArnoldModule(m, ring).slice_module(n).invariants(), n


def arnold_product_formula(m: int, n: int) -> int:
    """The t^m coefficient of (1 + t)(1 + 2t)...(1 + (n-1)t), the rank of
    H^m(Conf_n(C)) (Arnold 1969)."""
    coeffs = [1]
    for k in range(1, n):
        coeffs = [a + k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[m] if m < len(coeffs) else 0


@pytest.mark.parametrize("m, top, ring", [(0, 10, QQ), (2, 30, GF(3)),
                                          (3, 40, ZZ), (4, 20, GF(2))])
def test_slice_invariants_match_product_formula(m, top, ring):
    witness = ArnoldModule(m, ring)
    for n in range(top + 1):
        assert witness.slice_invariants(n) == \
            Invariants(arnold_product_formula(m, n)), n


def test_slice_invariants_refuse_negative_degree():
    with pytest.raises(ValueError):
        ArnoldModule(1, QQ).slice_invariants(-1)


def test_induced_map_functoriality_and_well_definedness():
    rng = random.Random(9)
    for m in (1, 2):
        witness = ArnoldModule(m, QQ)
        for _ in range(6):
            lo = rng.randint(m, 4)
            mid = rng.randint(lo, 5)
            hi = rng.randint(mid, 6)
            f = random_injection(rng, lo, mid)
            g = random_injection(rng, mid, hi)
            assert witness.induced_matrix(g.after(f)) == \
                witness.induced_matrix(g) @ witness.induced_matrix(f)
            assert witness.induced_map(f).is_well_defined()


def test_induced_map_signs():
    # relabeling that swaps two disjoint edges transposes the wedge factors
    witness = ArnoldModule(2, QQ)
    f = Injection(4, 4, (3, 4, 1, 2))
    src = witness.slice_basis(4)
    mat = witness.induced_matrix(f)
    col = src.index(((1, 2), (3, 4)))
    row = src.index(((1, 2), (3, 4)))   # lands on itself, edges swapped
    assert mat.get(row, col) == QQ.coerce(-1)
    # an edge fixed as a set keeps coefficient +1
    g = Injection(4, 4, (2, 1, 3, 4))
    col2 = src.index(((1, 2), (3, 4)))
    assert witness.induced_matrix(g).get(col2, col2) == QQ.coerce(1)


def test_presentation_export_matches_witness():
    for m in (0, 1, 2):
        pres = arnold_presentation(m, QQ)
        witness = ArnoldModule(m, QQ)
        for n in range(0, 6):
            assert pres.evaluate_slice(n).module.dim() == \
                witness.slice_module(n).dim(), (m, n)


def test_presentation_export_runs_through_complex_machinery():
    # the emitted presentation must behave identically under the generic
    # homology and cutoff scans, relations included
    from fimod.complexes import complex_homology
    for m, top in ((1, 5), (2, 4)):
        pres = arnold_presentation(m, QQ)
        witness = ArnoldModule(m, QQ)
        assert find_N(pres, top).bound == find_N(witness, top).bound
        for n in range(0, top + 1):
            hp = complex_homology(pres, n)
            hw = complex_homology(witness, n)
            assert {a: i.free_rank for a, i in hp.positions.items()} == \
                   {a: i.free_rank for a, i in hw.positions.items()}


def test_presentation_export_round_trips():
    pres = arnold_presentation(2, ZZ)
    again = FIPresentation.loads(pres.dumps())
    assert again.content_hash() == pres.content_hash()


def test_eventual_polynomiality():
    for m in (0, 1, 2):
        witness = ArnoldModule(m, QQ)
        vals = [witness.slice_module(n).dim() for n in range(m + 1, 9)]
        table = DimensionTable(QQ, m + 1, vals)
        rep = None
        for tail in (3, 2, 1):
            rep = fit_polynomial(table, tail)
            if rep.certified:
                break
        assert rep.certified
        assert rep.polynomial.degree == 2 * m
        for n in (9, 10):
            assert rep.polynomial.value(n) == len(admissible_edge_sets(m, n))


def test_witness_inductive_bounds():
    bounds = {}
    for m in (1, 2):
        witness = ArnoldModule(m, QQ)
        rep = find_N(witness, 7)
        bounds[m] = rep.bound
        for n in range(rep.bound + 1, 8):
            ok, _ = check_inductive(witness, rep.bound, n)
            assert ok
    # golden data from the first computation
    assert bounds == {1: 2, 2: 4}


def test_generation_degree_of_witness_presentation():
    from fimod.functors import generation_degree
    pres = arnold_presentation(1, QQ)
    assert generation_degree(pres, 6).degree == 2


def test_edge_helpers():
    assert edges(3) == [(1, 2), (1, 3), (2, 3)]
    assert len(edge_sets(2, 4)) == math.comb(6, 2)
    assert arnold_induced_map(1, Injection(2, 3, (3, 1)), QQ).matrix.ncols == 1


# ---------------------------------------------------------------------------
# differential references: the witness built by merging coerced terms

def triangle_terms_reference(i, j, k):
    e_ij, e_jk, e_ik = (i, j), (j, k), (i, k)
    return [(e_ij, e_jk), (e_jk, e_ik), (e_ik, e_ij)]


def arnold_relations_reference(m: int, n: int, ring) -> Matrix:
    """The degree-n relation matrix with every triangle term coerced and
    added into its column (dropping zeros), then Matrix.from_columns."""
    basis = edge_sets(m, n)
    index = {es: k for k, es in enumerate(basis)}
    cols = []
    if m >= 2:
        for (i, j, k) in combinations(range(1, n + 1), 3):
            for extra in combinations(edges(n), m - 2):
                col: dict = {}
                for (e1, e2) in triangle_terms_reference(i, j, k):
                    es, sign = _sort_sign([e1, e2, *extra])
                    if sign == 0:
                        continue
                    key = index[es]
                    cur = ring.coerce(col.get(key, 0) + sign)
                    if cur:
                        col[key] = cur
                    else:
                        col.pop(key, None)
                if col:
                    cols.append(col)
    if not cols:
        return Matrix.zero(ring, len(basis), 0)
    return Matrix.from_columns(ring, len(basis), cols)


def arnold_induced_reference(m: int, f: Injection, ring) -> Matrix:
    """f_* with each re-sorting sign coerced by Matrix()."""
    index = {es: k for k, es in enumerate(edge_sets(m, f.target))}
    ent = {}
    for col, es in enumerate(edge_sets(m, f.source)):
        sorted_es, sign = _sort_sign(
            [tuple(sorted((f(u), f(v)))) for (u, v) in es])
        ent[(index[sorted_es], col)] = sign
    return Matrix(ring, len(index), len(edge_sets(m, f.source)), ent)


def arnold_presentation_reference(m: int, ring) -> FIPresentation:
    """The exported presentation with every relation merged term by term."""
    gens = [(s, es) for s in range(0, 2 * m + 1) for es in edge_sets(m, s)
            if _support(es) == tuple(range(1, s + 1))]
    gen_index = {es: gi for gi, (s, es) in enumerate(gens)}
    relations = []
    for gi, (s, es) in enumerate(gens):
        for t in range(1, s):
            images = list(range(1, s + 1))
            images[t - 1], images[t] = images[t], images[t - 1]
            sigma = Injection(s, s, tuple(images))
            sorted_es, sign = _sort_sign(
                [tuple(sorted((sigma(u), sigma(v)))) for (u, v) in es])
            terms = {(gi, sigma): ring.one}
            key = (gen_index[sorted_es], identity_injection(s))
            terms[key] = ring.coerce(terms.get(key, 0) - sign)
            relations.append(FreeElement(
                s, {k: v for k, v in terms.items() if v}))
    if m >= 2:
        for s in range(3, 2 * m + 1):
            for (i, j, k) in combinations(range(1, s + 1), 3):
                for extra in combinations(edges(s), m - 2):
                    verts = {i, j, k}.union(*extra)
                    if verts != set(range(1, s + 1)):
                        continue
                    terms: dict = {}
                    for (e1, e2) in triangle_terms_reference(i, j, k):
                        sorted_es, sign = _sort_sign([e1, e2, *extra])
                        if sign == 0:
                            continue
                        key = (gen_index[sorted_es], identity_injection(s))
                        cur = ring.coerce(terms.get(key, 0) + sign)
                        if cur:
                            terms[key] = cur
                        else:
                            terms.pop(key, None)
                    if terms:
                        relations.append(FreeElement(s, terms))
    return FIPresentation(ring, [s for s, _ in gens], relations)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ])
@pytest.mark.parametrize("m", range(4))
def test_witness_matches_merged_references(m, ring):
    rng = random.Random(17 * m + 5)
    witness = ArnoldModule(m, ring)
    for n in range(7):
        rel = witness.slice_module(n).relations
        assert rel == arnold_relations_reference(m, n, ring), n
        assert_canonical(rel)
    for lo in range(7):
        for hi in range(lo, 7):
            for f in (standard_inclusion(lo, hi), random_injection(rng, lo, hi)):
                mat = witness.induced_matrix(f)
                assert mat == arnold_induced_reference(m, f, ring), f
                assert_canonical(mat)
    assert arnold_presentation(m, ring).content_hash() == \
        arnold_presentation_reference(m, ring).content_hash()
