import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fimod.functors import _ascending
from fimod.matrix import (Matrix, block_diagonal, field_in_span,
                          field_kernel_basis)
from fimod.modules import (Invariants, ModuleMap, PresentedModule,
                           SubmoduleOfQuotient, cokernel_invariants,
                           direct_sum, identity_map, is_isomorphism,
                           kernel_subspace_generators)
from fimod.rings import GF, QQ, ZZ
from fimod.sampling import instantiate, seeded_structures
from fimod.smith import integer_in_span, integer_kernel_basis, lattice_canonical


def test_cokernel_invariant_examples():
    z2 = PresentedModule(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
    assert cokernel_invariants(z2) == Invariants(0, (2,))
    free = PresentedModule(GF(5), 4)
    assert cokernel_invariants(free) == Invariants(4)
    quo = PresentedModule(QQ, 3, Matrix.from_rows(QQ, [[1, 0], [0, 1], [1, 1]]))
    assert cokernel_invariants(quo) == Invariants(1)


def test_direct_sum_examples():
    z2, z3 = Invariants(0, (2,)), Invariants(0, (3,))
    assert direct_sum([(3, z2), (1, z3)]) == Invariants(0, (2, 2, 6))
    assert direct_sum([(2, Invariants(0, (4,))), (1, Invariants(1, (6,)))]) \
        == Invariants(1, (2, 4, 12))
    assert direct_sum([(5, Invariants(2)), (0, z2), (3, Invariants(0))]) \
        == Invariants(10)
    assert direct_sum([]) == Invariants(0)


@pytest.mark.parametrize("seed", range(4))
def test_direct_sum_matches_block_diagonal_presentation(seed):
    # copies of Z^r (+) Z/t_1 (+) ..., presented one block each, against
    # the Smith form of the whole block-diagonal relation matrix
    rng = random.Random(seed)
    parts, blocks = [], []
    for _ in range(rng.randint(1, 4)):
        free = rng.randint(0, 2)
        torsion = sorted(rng.choice((2, 3, 4, 6, 9, 12))
                         for _ in range(rng.randint(0, 2)))
        module = PresentedModule(ZZ, free + len(torsion), Matrix(
            ZZ, free + len(torsion), len(torsion),
            {(free + k, k): t for k, t in enumerate(torsion)}))
        inv = module.invariants()
        copies = rng.randint(0, 3)
        parts.append((copies, inv))
        blocks += [module.relations] * copies
    relations = block_diagonal(ZZ, blocks)
    whole = PresentedModule(ZZ, relations.nrows, relations)
    assert direct_sum(parts) == whole.invariants()


@pytest.mark.parametrize("seed", range(4))
def test_cokernel_invariants_stable_under_column_mixing(seed):
    rng = random.Random(seed)
    for ring in (QQ, ZZ, GF(3)):
        cols = [{i: rng.randint(-3, 3) for i in range(4)} for _ in range(3)]
        cols = [{k: v for k, v in c.items() if v} for c in cols]
        rel = Matrix.from_columns(ring, 4, cols)
        base = PresentedModule(ring, 4, rel).invariants()
        mixed = [dict(c) for c in cols]
        for _ in range(8):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-2, 2)
            mixed[i] = {k: mixed[i].get(k, 0) + q * mixed[j].get(k, 0)
                        for k in range(4)}
        rel2 = Matrix.from_columns(
            ring, 4, [{k: v for k, v in c.items() if v} for c in mixed])
        assert PresentedModule(ring, 4, rel2).invariants() == base


def test_is_isomorphism_examples():
    quo = PresentedModule(QQ, 3, Matrix.from_rows(QQ, [[1, 0], [0, 1], [1, 1]]))
    ok, cert = is_isomorphism(identity_map(quo))
    assert ok and cert["surjective"]

    zfree = PresentedModule(ZZ, 1)
    ok, cert = is_isomorphism(ModuleMap(zfree, zfree,
                                        Matrix.from_rows(ZZ, [[2]])))
    assert not ok and not cert["surjective"]

    plane = PresentedModule(QQ, 2)
    ok, _ = is_isomorphism(ModuleMap(plane, plane,
                                     Matrix.from_rows(QQ, [[1, 1], [0, 1]])))
    assert ok


def test_is_isomorphism_needs_matching_rings():
    a = PresentedModule(QQ, 1)
    b = PresentedModule(ZZ, 1)
    with pytest.raises(ValueError):
        ModuleMap(a, b, Matrix.identity(QQ, 1))


def test_well_definedness_detects_bad_maps():
    # source Z/2, target Z: multiplication by 1 does not carry 2Z into 0
    source = PresentedModule(ZZ, 1, Matrix.from_rows(ZZ, [[2]]))
    target = PresentedModule(ZZ, 1)
    bad = ModuleMap(source, target, Matrix.identity(ZZ, 1))
    assert not bad.is_well_defined()
    good = ModuleMap(target, source, Matrix.identity(ZZ, 1))
    assert good.is_well_defined()


def test_kernel_subspace_generators_field():
    # map Q^2 -> Q, (x, y) -> x + y
    src = PresentedModule(QQ, 2)
    tgt = PresentedModule(QQ, 1)
    f = ModuleMap(src, tgt, Matrix.from_rows(QQ, [[1, 1]]))
    gens = kernel_subspace_generators(f)
    sub = SubmoduleOfQuotient(src, gens)
    assert sub.invariants() == Invariants(1)


def test_submodule_of_quotient_over_z():
    # ambient Z^2 / <(0,3)>; submodule generated by (2,0) and (0,1)
    mod = PresentedModule(ZZ, 2, Matrix.from_columns(ZZ, 2, [{1: 3}]))
    sub = SubmoduleOfQuotient(mod, [{0: 2}, {1: 1}])
    inv = sub.invariants()
    assert inv == Invariants(1, (3,))
    full = SubmoduleOfQuotient(mod, [{0: 1}, {1: 1}])
    bigger = SubmoduleOfQuotient(mod, [{0: 2}, {0: 1}, {1: 1}])
    assert bigger.same_span_as(full)
    assert not sub.same_span_as(full)


# -- the Hopfian rule against the span references ----------------------------

SPAN_RINGS = (QQ, GF(2), GF(3), ZZ)


def _in_span(ring, ambient, span, cols):
    """Reference containment: rank comparison over a field, the integer
    solver over Z."""
    vecs = Matrix.from_columns(ring, ambient, cols)
    span = Matrix.from_columns(ring, ambient, span)
    if ring.is_field:
        return field_in_span(span, vecs)
    return integer_in_span(span, vecs)


def _same_span(ring, ambient, rel, a, b):
    """Reference equality of (A + R) and (B + R): equal Hermite bases over
    Z, equal ranks of A + R, B + R and A + B + R over a field."""
    if not ring.is_field:
        return lattice_canonical(Matrix.from_columns(ring, ambient, a + rel)) \
            == lattice_canonical(Matrix.from_columns(ring, ambient, b + rel))
    ranks = {Matrix.from_columns(ring, ambient, cols).rank()
             for cols in (a + rel, b + rel, a + b + rel)}
    return len(ranks) == 1


def _kernel_presentation(ring, ambient, rel, gens):
    """Reference invariants of the span of `gens` in R^ambient / R: the
    cokernel of R^k / pi ker [G | R], with pi the projection onto G."""
    if not gens:
        return Invariants(0)
    stacked = Matrix.from_columns(ring, ambient, gens + rel)
    kernel = field_kernel_basis(stacked) if ring.is_field \
        else integer_kernel_basis(stacked)
    k = len(gens)
    proj = [{i: v for i, v in col.items() if i < k} for col in kernel]
    return PresentedModule(ring, k, Matrix.from_columns(ring, k, proj)) \
        .invariants()


@st.composite
def span_problems(draw):
    """(ambient, relation columns, columns A, columns B), integer entries.

    Half the time B respells A: a unimodular change of its columns plus
    multiples of relations, so equal spans are common.
    """
    ambient = draw(st.integers(1, 3))
    column = st.dictionaries(st.integers(0, ambient - 1),
                             st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4, 6]),
                             max_size=ambient)
    rel = draw(st.lists(column, max_size=3))
    a = draw(st.lists(column, max_size=3))
    if not draw(st.booleans()):
        return ambient, rel, a, draw(st.lists(column, max_size=2))
    b = []
    for j, col in enumerate(a):
        new = dict(col)
        extra = [(draw(st.integers(-2, 2)), c) for c in a[j + 1:]]
        if rel:
            extra.append((draw(st.integers(-2, 2)),
                          rel[draw(st.integers(0, len(rel) - 1))]))
        for c, other in extra:
            for i, v in other.items():
                new[i] = new.get(i, 0) + c * v
        b.append({i: v for i, v in new.items() if v})
    return ambient, rel, a, b[::-1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(span_problems())
@example((1, [{0: 4}], [{0: 2}], []))      # Z/4 and 2: only torsion differs
@example((2, [{0: 2, 1: 2}], [{0: 1, 1: 1}], [{0: 3, 1: 3}]))
def test_hopfian_rule_matches_span_references(problem):
    """`kills`, `contains`, `is_well_defined`, `same_span_as`, `_ascending`
    and the submodule's invariants, read over Q, F2, F3 and Z, against
    `field_in_span`, `integer_in_span`, `lattice_canonical`, ranks and the
    kernel presentation."""
    ambient, rel, a, b = problem
    for ring in SPAN_RINGS:
        m = PresentedModule(ring, ambient, Matrix.from_columns(ring, ambient,
                                                               rel))
        for cols in (a, b, a + b):
            assert m.kills(cols) == _in_span(ring, ambient, rel, cols)
        for col in a:
            assert m.contains(col) == _in_span(ring, ambient, rel, [col])
        over_b = PresentedModule(ring, ambient, Matrix.from_columns(
            ring, ambient, b + rel))
        assert ModuleMap(over_b, m, Matrix.identity(ring, ambient)) \
            .is_well_defined() == _in_span(ring, ambient, rel, b)
        sa, sb = SubmoduleOfQuotient(m, a), SubmoduleOfQuotient(m, b)
        same = _same_span(ring, ambient, rel, a, b)
        assert sa.same_span_as(sb) == same == sb.same_span_as(sa)
        assert _ascending([sa, sb]) == _in_span(ring, ambient, b + rel, a)
        assert _ascending([sb, sa]) == _in_span(ring, ambient, a + rel, b)
        assert sa.invariants() == _kernel_presentation(ring, ambient, rel, a)


def test_torsion_alone_decides_containment_over_z():
    """In Z/4 the span of 2 and the zero span have quotients Z/2 and Z/4:
    equal free ranks, so only the torsion tells them apart."""
    z4 = PresentedModule(ZZ, 1, Matrix.from_rows(ZZ, [[4]]))
    two, zero = SubmoduleOfQuotient(z4, [{0: 2}]), SubmoduleOfQuotient(z4, [])
    assert two.quotient.invariants() == Invariants(0, (2,))
    assert not z4.kills([{0: 2}]) and z4.kills([{0: 8}])
    assert not two.same_span_as(zero) and not zero.same_span_as(two)
    assert _ascending([zero, two]) and not _ascending([two, zero])
    assert two.invariants() == Invariants(0, (2,))
    for ring in (QQ, GF(2), GF(3)):
        m = PresentedModule(ring, 1, Matrix.from_rows(ring, [[4]]))
        assert m.kills([{0: 2}])


# ---------------------------------------------------------------------------
# free coordinates: one annihilator basis on every ring

def reducer_coordinates_reference(module):
    """The coordinate matrix read off the field reducer, column by column:
    column j is the reducer's coordinate vector of e_j."""
    red, ring = module.reducer(), module.ring
    return Matrix.from_columns(ring, red.quotient_dim, [
        red.coordinates({j: ring.one}) for j in range(module.ambient)])


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(5)],
                         ids=lambda r: r.name)
def test_free_coordinates_over_fields_match_reducer(ring):
    from fimod.arnold import ArnoldModule
    modules = [ArnoldModule(2, ring).slice_module(n) for n in (5, 6, 7)]
    for seed in (0, 1):
        for struct in seeded_structures(seed, 15):
            p = instantiate(struct, ring)
            modules += [p.slice_module(n) for n in range(5)]
    with_relations = 0
    for module in modules:
        assert module.free_coordinates() == \
            reducer_coordinates_reference(module), module
        with_relations += not module.relations.is_zero()
    assert with_relations >= 20


def test_free_coordinates_refuse_torsion_over_z():
    z2 = PresentedModule(ZZ, 2, Matrix.from_columns(ZZ, 2, [{0: 2}]))
    with pytest.raises(ValueError, match="torsion"):
        z2.free_coordinates()
    torsion_slices = 0
    for struct in seeded_structures(6, 60):
        p = instantiate(struct, ZZ)
        for n in range(4):
            module = p.slice_module(n)
            if module.invariants().torsion:
                torsion_slices += 1
                with pytest.raises(ValueError, match="torsion"):
                    module.free_coordinates()
    assert torsion_slices >= 3
