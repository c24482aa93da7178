import math
import random

import pytest

from fimod.functors import (GenerationReport, _ascending, derivative,
                            generation_degree, h0_slice, pi_projection,
                            q_summand_rank, saturate, shift_decomposition,
                            shift_identification, shift_presentation,
                            torsion_slice, x_map, x_map_decomposed)
from fimod.injections import Injection, count_injections
from fimod.matrix import Matrix
from fimod.modules import (PresentedModule, SubmoduleOfQuotient,
                           is_isomorphism)
from fimod.presentations import FIPresentation, FreeElement, free_presentation
from fimod.rings import GF, QQ, ZZ
from fimod.sampling import instantiate, seeded_structures
from fimod.smith import integer_in_span, lattice_canonical
from tests.test_modules import _submodule_reference
from tests.test_presentations import torsion_module


def test_shift_of_free_modules():
    s = shift_presentation(free_presentation(QQ, 1), 1)
    assert sorted(s.generator_degrees) == [0, 1] and not s.relations
    for a in (0, 1, 3):
        sa = shift_presentation(free_presentation(QQ, 0), a)
        assert sa.generator_degrees == (0,) and not sa.relations


def test_shift_slice_consistency():
    m2 = free_presentation(QQ, 2)
    dec = shift_decomposition(m2, 2)
    assert dec.presentation.evaluate_slice(3).module.dim() == 20
    assert m2.evaluate_slice(5).module.dim() == 20
    ok, _ = is_isomorphism(shift_identification(dec, 3))
    assert ok


def test_shift_identification_is_isomorphism_with_relations():
    # the slice identification is a basis bijection that carries relations
    # into relations; with equal invariants it is an isomorphism of
    # presented modules, not only a rank equality
    for struct in seeded_structures(47, 4):
        for ring in (QQ, GF(3), ZZ):
            p = instantiate(struct, ring)
            for a in (1, 2):
                dec = shift_decomposition(p, a)
                for n in (0, 1, 2):
                    ident = shift_identification(dec, n)
                    assert ident.is_well_defined()
                    ok, cert = is_isomorphism(ident)
                    assert ok, (struct, ring.name, a, n, cert)


@pytest.mark.parametrize("d", range(0, 4))
@pytest.mark.parametrize("a", range(0, 4))
def test_shift_dimension_split(d, a):
    md = free_presentation(QQ, d)
    dec = shift_decomposition(md, a)
    for n in range(0, 6):
        shifted = dec.presentation.evaluate_slice(n).module.dim()
        assert shifted == count_injections(d, n + a)
        assert shifted == count_injections(d, n) + q_summand_rank(dec, n)


def test_shift_respects_relations():
    # the defining property of the shift: its slice at n is the original
    # slice at n + a, relations transported through the decomposition
    struct_ring_pairs = [(s, r) for s in seeded_structures(31, 8)
                         for r in (QQ, GF(3), ZZ)]
    for struct, ring in struct_ring_pairs:
        p = instantiate(struct, ring)
        for a in (1, 2, 3):
            dec = shift_decomposition(p, a)
            for n in range(0, 4):
                lhs = dec.presentation.evaluate_slice(n).invariants()
                rhs = p.evaluate_slice(n + a).invariants()
                assert lhs == rhs, (struct, ring.name, a, n)


def test_x_map_examples():
    m1 = free_presentation(QQ, 1)
    assert x_map(m1, 0, 2).matrix == Matrix.identity(QQ, 2)
    assert x_map(m1, 1, 1).matrix == Matrix(QQ, 2, 1, {(0, 0): 1})


def test_x_map_composite_identity():
    # the canonical map to the (a+1)-shift factors through the a-shift
    m1 = free_presentation(QQ, 1)
    for a in (0, 1, 2):
        for n in (0, 1, 2, 3):
            lhs = x_map(m1, a + 1, n).matrix
            rhs = x_map(m1, 1, n + a).matrix @ x_map(m1, a, n).matrix
            assert lhs == rhs


def test_shift_step_factors_canonical_map():
    # the canonical map into the (a+1)-shift is the canonical map into the
    # a-shift followed by the degree-1 canonical map of the shifted
    # presentation, read back through the slice identification
    for struct in seeded_structures(3, 3):
        p = instantiate(struct, QQ)
        for a in (0, 1, 2):
            dec = shift_decomposition(p, a)
            for n in (0, 1, 2):
                lhs = x_map(p, a + 1, n).matrix
                step = x_map(dec.presentation, 1, n).matrix
                into = x_map_decomposed(p, a, n, dec).matrix
                ident = shift_identification(dec, n + 1).matrix
                assert lhs == ident @ (step @ into)


def test_x_map_decomposed_lands_in_trivial_summand():
    p = free_presentation(QQ, 2)
    dec = shift_decomposition(p, 2)
    xm = x_map_decomposed(p, 2, 3, dec)
    ident = shift_identification(dec, 3)
    assert (ident.matrix @ xm.matrix) == x_map(p, 2, 3).matrix


@pytest.mark.parametrize("d,a", [(d, a) for d in (0, 1, 2) for a in (0, 1, 2)])
def test_projection_splits_canonical_map(d, a):
    md = free_presentation(QQ, d)
    dec = shift_decomposition(md, a)
    for n in range(0, 5):
        proj = pi_projection(d, a, n, QQ, dec)
        comp = proj.compose(x_map_decomposed(md, a, n, dec))
        assert comp.matrix == Matrix.identity(QQ, comp.matrix.nrows)


def test_projection_rank_example():
    proj = pi_projection(2, 1, 3, QQ)
    assert proj.matrix.rank() == 6


def test_h0_concentrated_for_free():
    for d in range(0, 4):
        md = free_presentation(QQ, d)
        for n in range(0, 7):
            dim = h0_slice(md, n).invariants().free_rank
            assert dim == (math.factorial(d) if n == d else 0)


def test_h0_of_torsion_module():
    t = torsion_module(QQ)
    dims = [h0_slice(t, n).invariants().free_rank for n in range(0, 5)]
    assert dims == [1, 0, 0, 0, 0]


def test_generation_degree_examples():
    assert generation_degree(free_presentation(QQ, 3), 6).degree == 3
    assert generation_degree(FIPresentation(QQ, [0, 2]), 5).degree == 2
    report = generation_degree(free_presentation(QQ, 1), 4)
    assert isinstance(report, GenerationReport)
    assert report.status == "certified-up-to-bound"


def test_h0_vanishing_in_window_forces_zero_slices():
    # whenever no nonzero h0 appears through the window, every slice in the
    # window vanishes (tested on cokernels of maps into random presentations)
    rng = random.Random(41)
    seen_zero = 0
    for struct in seeded_structures(41, 12):
        p = instantiate(struct, GF(5))
        extra = []
        for gi, d in enumerate(p.generator_degrees):
            if rng.random() < 0.7:
                from fimod.injections import identity_injection
                extra.append(FreeElement(
                    d, {(gi, identity_injection(d)): 1}))
        coker = FIPresentation(p.ring, p.generator_degrees,
                               list(p.relations) + extra)
        window = 4
        h0_zero = all(h0_slice(coker, n).is_zero_module()
                      for n in range(0, window + 1))
        if h0_zero:
            seen_zero += 1
            for n in range(0, window + 1):
                assert coker.evaluate_slice(n).module.is_zero_module()
    assert seen_zero >= 1


def test_shift_preserves_generation_bound():
    # a cokernel presentation is generated in degree <= max generator
    # degree, and shifting preserves that bound
    for struct in seeded_structures(59, 6):
        p = instantiate(struct, QQ)
        bound = max(p.generator_degrees)
        window = bound + 2
        base = generation_degree(p, window).degree
        assert base is None or base <= bound
        for a in (1, 2):
            shifted = shift_presentation(p, a)
            after = generation_degree(shifted, window).degree
            assert after is None or after <= bound


def test_torsion_of_free_modules_vanishes():
    for ring in (QQ, ZZ):
        rep = torsion_slice(free_presentation(ring, 2), 3, 3)
        assert all(inv.is_zero for inv in rep.invariants)
        assert rep.stabilized and rep.ascending


def test_torsion_of_handmade_module():
    t = torsion_module(ZZ)
    rep0 = torsion_slice(t, 0, 3)
    assert rep0.final_invariants().free_rank == 1
    assert rep0.stabilized
    rep2 = torsion_slice(t, 2, 3)
    assert all(inv.is_zero for inv in rep2.invariants)


def _z_lattice(span):
    """Reference: Hermite basis of the generators plus the relations."""
    module = span.module
    return lattice_canonical(Matrix.from_columns(
        ZZ, module.ambient, span.generators + module.relations.columns()))


def _z_reference(spans):
    """Reference invariants and ascending flag of a chain of spans over Z:
    the kernel presentation, or the lattice route where the module has
    torsion, and the integer solver."""
    invariants = [_submodule_reference(ZZ, s.module.ambient,
                                       s.module.relations.columns(),
                                       s.generators) for s in spans]
    ascending = all(integer_in_span(
        Matrix.from_columns(ZZ, nxt.module.ambient, nxt.generators +
                            nxt.module.relations.columns()),
        Matrix.from_columns(ZZ, prev.module.ambient, prev.generators))
        for prev, nxt in zip(spans, spans[1:]))
    return invariants, ascending


def _check_torsion_over_z(rep):
    assert (rep.invariants, rep.ascending) == _z_reference(rep.kernels)
    last = [_z_lattice(k) for k in rep.kernels[-3:]]
    assert rep.stabilized == (len(last) == 3 and len(set(last)) == 1)


def test_torsion_kernels_with_torsion_over_z():
    """Z/8 in degree 0 becomes Z/4 from degree 1 and Z/2 from degree 3, so
    the kernels from degree 0 are Z/2, Z/2, Z/4, Z/4, Z/4."""
    y = [(8, 0), (4, 1), (2, 3)]
    p = FIPresentation(ZZ, [0], [FreeElement(e, {(0, Injection(0, e, ())): c})
                                 for c, e in y])
    rep = torsion_slice(p, 0, 4)
    assert [inv.torsion for inv in rep.invariants] == [(2,), (2,), (4,), (4,)]
    assert rep.ascending and not rep.stabilized
    _check_torsion_over_z(rep)
    assert torsion_slice(p, 0, 5).stabilized
    seen = 0
    for struct in seeded_structures(7, 40):
        q = instantiate(struct, ZZ)
        for n in range(3):
            rep = torsion_slice(q, n, 3)
            _check_torsion_over_z(rep)
            seen += any(inv.torsion for inv in rep.invariants)
    assert seen >= 3


def test_saturation_stages_differ_from_q_only_by_torsion():
    """2 x and then 3 x reach the degree-1 slice at stages 1 and 2: over Z
    stage 1 is 2Z, of index 2, so the chain stabilizes one stage later
    than over Q, with the same free ranks."""
    w2 = FreeElement(2, {(0, Injection(1, 2, (1,))): 2})
    w3 = FreeElement(3, {(0, Injection(1, 3, (1,))): 3})
    over_q = saturate(1, [w2, w3], 4, 1, QQ)
    over_z = saturate(1, [w2, w3], 4, 1, ZZ)
    assert [s.invariants for s in over_z.stages] == \
        [s.invariants for s in over_q.stages]
    assert (over_q.stabilization, over_z.stabilization) == (1, 2)
    assert over_z.stages[1].span.quotient.invariants().torsion == (2,)
    spans = [stage.span for stage in over_z.stages]
    assert ([s.invariants for s in over_z.stages], over_z.ascending) == \
        _z_reference(spans)
    lattices = [_z_lattice(s) for s in spans]
    assert over_z.stabilization == next(
        n0 for n0 in range(len(spans) - 1) if lattices[n0] == lattices[n0 + 1])


def test_derivative_of_torsion_module_vanishes():
    # the handmade degree-0 torsion module has zero 1-shift, so zero derivative
    d = derivative(torsion_module(QQ))
    for n in range(0, 4):
        assert d.evaluate_slice(n).module.dim() == 0


def test_derivative_examples():
    dm1 = derivative(free_presentation(QQ, 1))
    assert [dm1.evaluate_slice(n).module.dim() for n in range(4)] == [1] * 4
    dm0 = derivative(free_presentation(QQ, 0))
    assert all(dm0.evaluate_slice(n).module.dim() == 0 for n in range(4))
    dm2 = derivative(free_presentation(QQ, 2))
    for n in range(0, 7):
        assert dm2.evaluate_slice(n).module.dim() == 2 * n


def test_derivative_is_discrete_derivative_for_torsion_free():
    for struct in seeded_structures(71, 5):
        p = instantiate(struct, GF(7))
        dp = derivative(p)
        for n in range(0, 4):
            rep = torsion_slice(p, n, 1)
            if not rep.invariants[0].is_zero:
                continue      # canonical map not injective at this degree
            lhs = dp.evaluate_slice(n).module.dim()
            rhs = p.evaluate_slice(n + 1).module.dim() - \
                p.evaluate_slice(n).module.dim()
            assert lhs == rhs


SATURATION_GENERATOR = FreeElement(2, {(0, Injection(1, 2, (1,))): 1,
                                       (0, Injection(1, 2, (2,))): 1})


@pytest.mark.parametrize("ring", [QQ, ZZ])
def test_saturation_two_point_generator(ring):
    rep = saturate(1, [SATURATION_GENERATOR], 4, 3, ring)
    assert rep.stabilization == 1
    assert rep.ascending
    assert rep.stages[0].invariants.is_zero
    assert rep.stages[1].invariants.free_rank == 1


def test_saturation_immediate_cases():
    w1 = FreeElement(1, {(0, Injection(1, 1, (1,))): 1})
    assert saturate(1, [w1], 3, 2, QQ).stabilization == 0
    w2 = FreeElement(1, {(0, Injection(1, 1, (1,))): 2})
    rep = saturate(1, [w2], 3, 2, ZZ)
    assert rep.stabilization == 0
    assert rep.stages[0].invariants.free_rank == 1


def saturation_stage_reference(d, generators, a, ring):
    """Stage a by the hand loop: every generator pushed along every
    injection of its degree into [d + a], kept on the rows of [d]."""
    from fimod.injections import enumerate_injections
    ambient = FIPresentation(ring, [d]).evaluate_slice(d)
    cols = []
    for w in generators:
        for f in enumerate_injections(w.degree, d + a):
            col = {ambient.index[(gen, u.images)]: ring.coerce(c)
                   for (gen, u), c in w.pushforward(f).terms.items()
                   if ring.coerce(c) and all(v <= d for v in u.images)}
            if col:
                cols.append(col)
    return SubmoduleOfQuotient(ambient.module, cols)


@pytest.mark.parametrize("ring", [QQ, GF(3), ZZ], ids=lambda r: r.name)
def test_saturation_stages_match_pushforward_reference(ring):
    rng = random.Random(31)
    grew = 0
    for _ in range(12):
        d = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 3)):
            e = rng.randint(d, d + 2)
            gens.append(FreeElement(e, {
                (0, Injection(d, e, tuple(rng.sample(range(1, e + 1), d)))):
                rng.choice([-3, -2, -1, 1, 2, 3])
                for _ in range(rng.randint(1, 3))}))
        rep = saturate(d, gens, 3, 1, ring)
        for stage in rep.stages:
            ref = saturation_stage_reference(d, gens, stage.amount, ring)
            assert stage.span.same_span_as(ref), (d, gens, stage.amount)
            assert stage.invariants == ref.invariants()
        grew += rep.stages[0].invariants != rep.stages[-1].invariants
    assert grew >= 3


def test_saturation_warns_on_unreachable_generators():
    deep = FreeElement(5, {(0, Injection(1, 5, (3,))): 1})
    rep = saturate(1, [deep], 2, 1, QQ)
    assert rep.warnings


def test_saturation_empirical_bound():
    # on a free ambient with generators in degree <= m, stabilization is
    # observed no later than m - d + slack
    rng = random.Random(83)
    for _ in range(6):
        d = rng.randint(1, 2)
        m = rng.randint(d, d + 2)
        from fimod.injections import enumerate_injections
        injs = enumerate_injections(d, m)
        terms = {}
        for inj in rng.sample(injs, k=min(len(injs), rng.randint(1, 3))):
            terms[(0, inj)] = rng.choice([-1, 1, 2])
        w = FreeElement(m, terms)
        slack = 2
        rep = saturate(d, [w], (m - d) + slack + 1, slack, QQ)
        if rep.stabilization is not None:
            assert rep.stabilization <= m - d + slack


def test_ascending_chains_of_spans():
    """Two lines in Q^2 do not nest; the zero span lies in both."""
    plane = PresentedModule(QQ, 2)
    x = SubmoduleOfQuotient(plane, [{0: 1}])
    y = SubmoduleOfQuotient(plane, [{1: 1}])
    zero = SubmoduleOfQuotient(plane, [])
    whole = SubmoduleOfQuotient(plane, [{0: 1}, {1: 1}])
    assert not _ascending([x, y])
    assert not _ascending([zero, x, y, whole])
    assert _ascending([zero, x, whole])
    assert _ascending([x]) and _ascending([])
