import math
import random

import pytest

from fimod.arnold import arnold_presentation
from fimod.functors import shift_presentation
from fimod.injections import (Injection, enumerate_injections,
                              identity_injection, standard_inclusion)
from fimod.matrix import Matrix
from fimod.presentations import (FIPresentation, FreeElement, evaluate_slice,
                                 free_presentation, induced_map, pushforward)
from fimod.rings import GF, QQ, ZZ
from fimod.sampling import instantiate, random_injection, seeded_structures
from tests.test_matrix import assert_canonical

TORSION_RELATION = FreeElement(1, {(0, Injection(0, 1, ())): 1})


def torsion_module(ring):
    """R in degree 0, zero above: the quotient of a degree-0 generator by
    the image of a degree-1 relation."""
    return FIPresentation(ring, [0], [TORSION_RELATION])


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ])
def test_free_slice_dimensions(ring):
    for d in range(0, 4):
        md = free_presentation(ring, d)
        for n in range(0, 9):
            inv = md.evaluate_slice(n).invariants()
            assert inv.free_rank == math.perm(n, d)
            assert not inv.torsion


def test_evaluate_slice_examples():
    assert free_presentation(QQ, 2).evaluate_slice(4).module.dim() == 12
    t = torsion_module(QQ)
    assert t.evaluate_slice(0).module.dim() == 1
    assert t.evaluate_slice(2).module.dim() == 0
    inv = free_presentation(ZZ, 1).evaluate_slice(6).invariants()
    assert inv.free_rank == 6 and not inv.torsion


def test_induced_map_examples():
    m1 = free_presentation(QQ, 1)
    f = Injection(1, 2, (2,))
    sm = m1.induced_map(f)
    assert sm.matrix == Matrix(QQ, 2, 1, {(1, 0): 1})
    ident = m1.induced_map(identity_injection(3))
    assert ident.matrix == Matrix.identity(QQ, 3)


@pytest.mark.parametrize("seed", range(5))
def test_induced_map_functoriality(seed):
    rng = random.Random(seed)
    for struct in seeded_structures(seed, 3):
        p = instantiate(struct, QQ)
        a = rng.randint(0, 3)
        b = rng.randint(a, 5)
        c = rng.randint(b, 6)
        f = random_injection(rng, a, b)
        g = random_injection(rng, b, c)
        assert p.induced_map(g.after(f)).matrix == \
            p.induced_map(g).matrix @ p.induced_map(f).matrix


@pytest.mark.parametrize("seed", range(4))
def test_induced_maps_are_well_defined(seed):
    rng = random.Random(seed ^ 99)
    for struct in seeded_structures(seed + 50, 2):
        for ring in (QQ, ZZ, GF(5)):
            p = instantiate(struct, ring)
            m = rng.randint(0, 3)
            n = rng.randint(m, 4)
            f = random_injection(rng, m, n)
            assert p.induced_map(f).is_well_defined()


def test_pushforward_examples():
    e = FreeElement(1, {(0, Injection(1, 1, (1,))): 1})
    ident = identity_injection(1)
    assert pushforward(e, ident) == e
    f = Injection(1, 3, (2,))
    pushed = pushforward(e, f)
    assert pushed.terms == {(0, Injection(1, 3, (2,))): 1}
    with pytest.raises(ValueError):
        pushforward(e, Injection(2, 3, (1, 2)))


def test_pushforward_linearity():
    def add(ring, e1, e2):
        """e1 + e2 with coefficients merged in `ring`, zeros dropped."""
        terms = {k: ring.coerce(v) for k, v in e1.terms.items()}
        for k, v in e2.terms.items():
            terms[k] = ring.coerce(terms.get(k, 0) + v)
        return FreeElement(e1.degree, {k: v for k, v in terms.items() if v})

    rng = random.Random(2)
    for ring in (ZZ, GF(3)):
        for _ in range(10):
            deg = rng.randint(1, 3)
            n = rng.randint(deg, 5)
            injs = [random_injection(rng, 1, deg) for _ in range(3)]
            e1 = FreeElement(deg, {(0, injs[0]): rng.randint(-3, 3) or 1})
            e2 = FreeElement(deg, {(0, injs[1]): rng.randint(-3, 3) or 1,
                                   (0, injs[2]): 1})
            f = random_injection(rng, deg, n)
            assert pushforward(add(ring, e1, e2), f) == \
                add(ring, pushforward(e1, f), pushforward(e2, f))


def test_slice_independent_of_relation_order():
    rng = random.Random(4)
    for struct in seeded_structures(17, 4):
        p = instantiate(struct, GF(7))
        if len(p.relations) < 2:
            continue
        rels = list(p.relations)
        rng.shuffle(rels)
        q = FIPresentation(p.ring, p.generator_degrees, rels)
        for n in range(0, 5):
            assert p.evaluate_slice(n).invariants() == \
                q.evaluate_slice(n).invariants()


def test_document_round_trip():
    struct = seeded_structures(23, 1)[0]
    for ring in (QQ, ZZ, GF(5)):
        p = instantiate(struct, ring)
        again = FIPresentation.loads(p.dumps())
        assert again.content_hash() == p.content_hash()
        assert again.ring == ring


def test_document_rejects_bad_terms():
    doc = {"ring": "Q", "generators": [1],
           "relations": [{"degree": 2,
                          "terms": [{"gen": 0, "injection": [1, 2],
                                     "coeff": "1"}]}]}
    with pytest.raises(ValueError):
        FIPresentation.from_document(doc)   # source size 2 != generator degree 1


@pytest.mark.parametrize("term", [
    {"gen": 0.0, "injection": [1], "coeff": "1"},
    {"gen": False, "injection": [1], "coeff": "1"},
    {"gen": 0, "injection": [1.0], "coeff": "1"},
    {"gen": 0, "injection": [1], "coeff": 1.5},
    {"gen": 0, "injection": [1], "coeff": None},
])
def test_document_rejects_non_integral_numbers(term):
    doc = {"ring": "Q", "generators": [1],
           "relations": [{"degree": 2, "terms": [term]}]}
    with pytest.raises(ValueError):
        FIPresentation.from_document(doc)
    doc["relations"][0]["terms"] = [{"gen": 0, "injection": [1],
                                     "coeff": -2}]
    assert FIPresentation.from_document(doc).relations[0].terms == \
        {(0, Injection(1, 2, (1,))): -2}


def test_relation_degree_must_be_nonnegative():
    with pytest.raises(ValueError, match="relation degrees"):
        FIPresentation(QQ, [1], [FreeElement(-1, {})])
    doc = {"ring": "Q", "generators": [1],
           "relations": [{"degree": -1, "terms": []}]}
    with pytest.raises(ValueError, match="relation degrees"):
        FIPresentation.from_document(doc)


def test_slice_cache_shares_instances():
    a = free_presentation(QQ, 2)
    b = free_presentation(QQ, 2)
    assert a.evaluate_slice(4) is b.evaluate_slice(4)


def test_functions_mirror_methods():
    p = free_presentation(QQ, 1)
    assert evaluate_slice(p, 3).ambient == 3
    f = Injection(1, 2, (1,))
    assert induced_map(p, f).matrix == p.induced_map(f).matrix


# ---------------------------------------------------------------------------
# differential references: slice assembly through pushforward

def pushforward_slice_reference(p: FIPresentation, n: int) -> Matrix:
    """The degree-n relation matrix built one pushed-forward relation at a
    time: FreeElement.pushforward (Injection.after per term, merging and
    dropping zeros) and Matrix.from_columns (coercing every entry)."""
    index = {(g, inj.images): k for k, (g, inj) in enumerate(p.slice_basis(n))}
    cols = []
    for rel in p.relations:
        for h in enumerate_injections(rel.degree, n):
            pushed = rel.pushforward(h)
            cols.append({index[(gen, inj.images)]: c
                         for (gen, inj), c in pushed.terms.items()})
    if not cols:
        return Matrix.zero(p.ring, len(index), 0)
    return Matrix.from_columns(p.ring, len(index), cols)


def induced_map_reference(p: FIPresentation, f: Injection) -> Matrix:
    """f_*: V_m -> V_n with one validated Injection per basis element."""
    index = {(g, inj.images): k
             for k, (g, inj) in enumerate(p.slice_basis(f.target))}
    cols = [{index[(gen, f.after(g).images)]: p.ring.one}
            for gen, g in p.slice_basis(f.source)]
    return Matrix.from_columns(p.ring, len(index), cols)


def assert_slices_match_references(p: FIPresentation, n_max: int, rng):
    for n in range(n_max + 1):
        sm = p.evaluate_slice(n)
        relmat = sm.module.relations
        assert relmat == pushforward_slice_reference(p, n), n
        assert_canonical(relmat)
        assert [(g, inj.images) for g, inj in sm.basis] == \
            [(g, inj.images) for g, inj in p.slice_basis(n)]
    for m in range(n_max + 1):
        for n in range(m, n_max + 1):
            fs = [standard_inclusion(m, n), random_injection(rng, m, n)]
            for f in fs:
                mat = p.induced_matrix(f)
                assert mat == induced_map_reference(p, f), (m, n, f)
                assert_canonical(mat)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(5), ZZ])
@pytest.mark.parametrize("seed", range(4))
def test_slices_match_pushforward_reference(seed, ring):
    rng = random.Random(seed * 31 + 7)
    for struct in seeded_structures(seed, 20):
        assert_slices_match_references(instantiate(struct, ring), 5, rng)


@pytest.mark.parametrize("ring", [QQ, GF(3), ZZ])
def test_arnold_slices_match_pushforward_reference(ring):
    assert_slices_match_references(arnold_presentation(2, ring), 6,
                                   random.Random(11))


def test_shift_slices_match_pushforward_reference():
    struct = seeded_structures(5, 1)[0]
    for ring in (QQ, ZZ):
        p = shift_presentation(instantiate(struct, ring), 1)
        assert_slices_match_references(p, 4, random.Random(13))
