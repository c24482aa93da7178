import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimod import presentations
from fimod.arnold import arnold_presentation
from fimod.functors import shift_presentation
from fimod.injections import (Injection, enumerate_injections,
                              identity_injection, standard_inclusion)
from fimod.matrix import Matrix, hstack
from fimod.modules import PresentedModule
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


def used_positions_reference(p: FIPresentation, n: int) -> Matrix:
    """The columns slice assembly writes, built through pushforward: for
    each relation of degree e <= n and each injection u of its used
    positions U (lexicographic, as enumerate_injections lists them), the
    pushforward along one extension of u to [e] -> [n], whose positions
    outside U take the values u leaves free in increasing order."""
    index = {(g, inj.images): k for k, (g, inj) in enumerate(p.slice_basis(n))}
    cols = []
    for rel in p.relations:
        if rel.degree > n:
            continue
        used = sorted({v for _, g in rel.terms for v in g.images})
        for u in enumerate_injections(len(used), n):
            on_used = dict(zip(used, u.images))
            free = iter(v for v in range(1, n + 1) if v not in u.images)
            h = Injection(rel.degree, n, tuple(
                on_used[v] if v in on_used else next(free)
                for v in range(1, rel.degree + 1)))
            cols.append({index[(gen, inj.images)]: c
                         for (gen, inj), c in rel.pushforward(h).terms.items()})
    if not cols:
        return Matrix.zero(p.ring, len(index), 0)
    return Matrix.from_columns(p.ring, len(index), cols)


def assert_same_column_span(a: Matrix, b: Matrix):
    """Over a field: equal ranks of a, b and [a | b]. Over Z: equal
    invariants of the three cokernels, which is equal spans because
    finitely generated modules are Hopfian."""
    both = hstack([a, b])
    if a.ring.is_field:
        assert a.rank() == b.rank() == both.rank()
    else:
        def inv(m):
            return PresentedModule(a.ring, m.nrows, m).invariants()
        assert inv(a) == inv(b) == inv(both)


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
        assert_same_column_span(relmat, pushforward_slice_reference(p, n))
        assert relmat == used_positions_reference(p, n), n
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


def test_relation_with_no_used_position_gets_one_column():
    # 2 g0 - 2 g1 in degree 3 on two degree-0 generators: its pushforward
    # along every injection [3] -> [n] is the same column
    rel = FreeElement(3, {(0, Injection(0, 3, ())): 2,
                          (1, Injection(0, 3, ())): -2})
    for ring in (QQ, GF(3), ZZ):
        p = FIPresentation(ring, [0, 0], [rel])
        for n in range(8):
            relmat = p.evaluate_slice(n).module.relations
            assert relmat == Matrix(ring, 2, int(n >= 3),
                                    {(0, 0): 2, (1, 0): -2} if n >= 3 else {})
            assert_same_column_span(relmat, pushforward_slice_reference(p, n))
        assert pushforward_slice_reference(p, 7).ncols == 210


def test_shift_slices_match_pushforward_reference():
    struct = seeded_structures(5, 1)[0]
    for ring in (QQ, ZZ):
        p = shift_presentation(instantiate(struct, ring), 1)
        assert_slices_match_references(p, 4, random.Random(13))


# ---------------------------------------------------------------------------
# reduction by Tietze moves: reduced() against the original presentation

REDUCTION_RINGS = [ZZ, GF(2), GF(3), QQ]


@pytest.fixture
def scoped_slice_cache():
    """Forget the slices a test builds, so large ones do not stay cached
    for the rest of the session."""
    before = dict(presentations._slice_cache)
    yield
    presentations._slice_cache.clear()
    presentations._slice_cache.update(before)


@pytest.mark.parametrize("ring", REDUCTION_RINGS)
@pytest.mark.parametrize("seed", range(8))
def test_reduced_slices_match_original(seed, ring):
    for struct in seeded_structures(seed, 20):
        p = instantiate(struct, ring)
        r = p.reduced()
        for n in range(6):
            assert r.slice_module(n).invariants() == \
                p.slice_module(n).invariants(), (struct, n)


@pytest.mark.parametrize("ring", REDUCTION_RINGS)
@pytest.mark.parametrize("m, shape", [
    (1, ((2,), 1)), (2, ((3, 4), 5)), (3, ((4, 5, 6), 12))])
def test_reduced_arnold_slices_match_original(m, shape, ring,
                                              scoped_slice_cache):
    p = arnold_presentation(m, ring)
    r = p.reduced()
    assert (r.generator_degrees, len(r.relations)) == shape
    for n in range(7):
        assert r.slice_module(n).invariants() == \
            p.slice_module(n).invariants(), n


def test_reduction_substitutes_along_the_inverse_bijection():
    """g0 . (2 1) + g1 = 0 eliminates g0 = -(g1, (2 1)), so 2 (g0, (1 3))
    becomes -2 (g1, (1 3) . (2 1)) = -2 (g1, (3 1))."""
    p = FIPresentation(ZZ, [2, 2], [
        FreeElement(2, {(0, Injection(2, 2, (2, 1))): 1,
                        (1, Injection(2, 2, (1, 2))): 1}),
        FreeElement(3, {(0, Injection(2, 3, (1, 3))): 2})])
    r = p.reduced()
    assert r.generator_degrees == (2,)
    assert [rel.canonical_terms() for rel in r.relations] == \
        [[(0, (3, 1), -2)]]


def test_reduction_drops_zero_and_repeated_relations():
    """A relation equal to a kept one up to S_e and sign goes; one of
    another degree stays, whatever its terms read as."""
    rels = [FreeElement(1, {(0, Injection(1, 1, (1,))): 2}),
            FreeElement(2, {(0, Injection(1, 2, (2,))): 2}),
            FreeElement(2, {(0, Injection(1, 2, (1,))): -2}),
            FreeElement(2, {})]
    r = FIPresentation(ZZ, [1], rels).reduced()
    assert [rel.canonical_terms() for rel in r.relations] == \
        [[(0, (1,), 2)], [(0, (2,), 2)]]


def test_relation_keys_stay_cheap_on_symmetric_relations():
    """A sum over all 12 points would need 12! relabelings for an exact
    key; the bounded search still finds the negated copy."""
    def spread(c):
        terms = {(1, Injection(1, 12, (i,))): c for i in range(1, 13)}
        terms[(0, Injection(0, 12, ()))] = 2 * c
        return FreeElement(12, terms)
    p = FIPresentation(ZZ, [0, 1], [spread(1), spread(-1), spread(3)])
    assert [len(rel.terms) for rel in p.reduced().relations] == [13, 13]


def test_reduced_is_deterministic_and_idempotent():
    docs = [arnold_presentation(m, ZZ).to_document() for m in (2, 3)]
    docs += [instantiate(s, GF(3)).to_document()
             for s in seeded_structures(3, 20)]
    for doc in docs:
        r = FIPresentation.from_document(doc).reduced()
        # the terms of a relation are a set: their order must not matter
        flipped = dict(doc, relations=[dict(rel, terms=rel["terms"][::-1])
                                       for rel in doc["relations"]])
        assert FIPresentation.from_document(flipped).reduced().dumps() == \
            r.dumps()
        assert r.reduced() is r
        again = FIPresentation.loads(r.dumps())
        assert again.reduced() is again


def test_nothing_to_reduce_returns_self():
    for p in (free_presentation(QQ, 2), free_presentation(ZZ, 0, 1),
              torsion_module(ZZ), arnold_presentation(1, GF(3))):
        assert p.reduced() is p


# ---------------------------------------------------------------------------
# one integer presentation over Z, Q and F_p

@st.composite
def integer_structures(draw):
    """Up to 3 generators and relations of degree <= 3, integer terms."""
    degrees = tuple(draw(st.lists(st.integers(0, 3), min_size=1,
                                  max_size=3)))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(min(degrees), 3))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            g = draw(st.integers(0, len(degrees) - 1))
            if degrees[g] <= e:
                images = draw(st.permutations(range(1, e + 1)))
                terms[(g, tuple(images[:degrees[g]]))] = draw(
                    st.sampled_from([-1, 1, 2, -2, 3, 4, 5, 6, -10]))
        relations.append((e, terms))
    return degrees, tuple(relations)


CROSS_RING_PRIMES = (2, 3, 5)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_structures())
def test_integer_presentation_agrees_across_rings(struct):
    """By right exactness of the tensor product, a slice with Z invariants
    (r; t_1..t_k) has dimension r over Q and r + #{i : p | t_i} over F_p.
    Checked on the presentation as drawn, on its reduction over each ring,
    and on its reduction over Z read over each field (as `homology` reads
    it when slices carry torsion)."""
    z = instantiate(struct, ZZ)
    z_doc = z.reduced().to_document()
    fields = [QQ] + [GF(q) for q in CROSS_RING_PRIMES]
    readings = [(z, [instantiate(struct, k) for k in fields]),
                (z.reduced(), [instantiate(struct, k).reduced()
                               for k in fields]),
                (z.reduced(), [FIPresentation.from_document(z_doc, ring=k)
                               for k in fields])]
    for n in range(5):
        for zp, over in readings:
            inv = zp.slice_module(n).invariants()
            expected = [inv.free_rank] + [
                inv.free_rank + sum(1 for t in inv.torsion if t % q == 0)
                for q in CROSS_RING_PRIMES]
            assert [f.slice_module(n).invariants().free_rank
                    for f in over] == expected, n
