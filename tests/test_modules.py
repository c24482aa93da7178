import random

import pytest

from fimod.matrix import Matrix, block_diagonal
from fimod.modules import (Invariants, ModuleMap, PresentedModule,
                           SubmoduleOfQuotient, cokernel_invariants,
                           direct_sum, identity_map, is_isomorphism,
                           kernel_subspace_generators)
from fimod.rings import GF, QQ, ZZ


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
