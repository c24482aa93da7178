import math
import random
from fractions import Fraction

import pytest

import fimod.complexes
from fimod.arnold import ArnoldModule
from fimod.complexes import (check_inductive, complex_homology, differential,
                             find_N, homology_field_table, homotopy_matrix,
                             ordered_shift_free_iso, ordered_shift_slice,
                             ordered_shift_structure_map, poset_colimit,
                             shift_one_matrix, signed_shift_slice,
                             slice_complex, subsets_of_size,
                             verify_chain_homotopy)
from fimod.functors import h0_slice
from fimod.injections import Injection, standard_inclusion
from fimod.matrix import Matrix, block_diagonal, hstack
from fimod.modules import (Invariants, ModuleMap, PresentedModule,
                           is_isomorphism)
from fimod.presentations import FIPresentation, free_presentation
from fimod.rings import GF, QQ, ZZ
from fimod.sampling import instantiate, random_injection, seeded_structures
from tests.test_matrix import assert_canonical
from tests.test_presentations import CROSS_RING_PRIMES, torsion_module
from tests.test_smith import (snf_free_coordinates_reference,
                              snf_kernel_reference, snf_solver_reference)


def test_signed_slice_sizes():
    m0 = free_presentation(QQ, 0)
    for n in range(0, 5):
        for a in range(0, n + 1):
            assert signed_shift_slice(m0, a, n).module.ambient == math.comb(n, a)
    s = signed_shift_slice(free_presentation(QQ, 1), 1, 3)
    assert len(s.labels) == 3 and s.module.dim() == 6
    # a > n gives the empty slice, not an error
    assert signed_shift_slice(m0, 4, 2).module.ambient == 0


def test_signed_slice_rank_bookkeeping():
    for d in (0, 1, 2):
        md = free_presentation(QQ, d)
        for n in range(0, 6):
            for a in range(0, n + 1):
                got = signed_shift_slice(md, a, n).module.ambient
                assert got == math.comb(n, a) * math.perm(n - a, d)


def test_differential_component_is_signed_inclusion():
    # the block out of summand T into T + {u} is the inclusion-induced map
    # with sign (-1)^(rank of u in the complement)
    p = free_presentation(QQ, 1)
    n, a = 3, 2
    s_from = signed_shift_slice(p, a, n)
    s_to = signed_shift_slice(p, a - 1, n)
    d = differential(p, a, n).matrix
    t = (2,)                      # complement (1, 3): u = 1 sign -, u = 3 sign +
    si = s_from.labels.index(t)
    for u, sign in ((1, -1), (3, 1)):
        t2 = tuple(sorted(t + (u,)))
        ti = s_to.labels.index(t2)
        block = {}
        for (r, c), v in d.entries.items():
            if s_to.offset(ti) <= r < s_to.offset(ti) + s_to.summand.ambient \
                    and s_from.offset(si) <= c < s_from.offset(si) + \
                    s_from.summand.ambient:
                block[(r - s_to.offset(ti), c - s_from.offset(si))] = v
        pos = {v: k + 1 for k, v in enumerate(t2)}
        rho = Injection(1, 2, (pos[t[0]],))
        expect = {k: QQ.coerce(sign * int(v))
                  for k, v in p.induced_matrix(rho).entries.items()}
        assert block == expect, (u, block, expect)


@pytest.mark.parametrize("ring", [QQ, GF(5), ZZ])
def test_square_zero_seeded(ring):
    for struct in seeded_structures(7, 6):
        p = instantiate(struct, ring)
        for n in (2, 3, 4):
            assert slice_complex(p, n).check_square_zero()


def oracle_simplex_homology(n):
    """Independent boundary-matrix homology of the trivial-module complex."""
    levels = [subsets_of_size(n, n - a) for a in range(n + 1)]
    index = [{t: i for i, t in enumerate(lv)} for lv in levels]
    mats = []
    for a in range(1, n + 1):
        rows, cols = len(levels[a - 1]), len(levels[a])
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for ci, t in enumerate(levels[a]):
            comp = [u for u in range(1, n + 1) if u not in t]
            for i, u in enumerate(comp, start=1):
                t2 = tuple(sorted(t + (u,)))
                m[index[a - 1][t2]][ci] += Fraction(-1) ** i
        mats.append(m)

    def rank(m):
        if not m or not m[0]:
            return 0
        m = [row[:] for row in m]
        nr, nc = len(m), len(m[0])
        r = 0
        for c in range(nc):
            piv = next((i for i in range(r, nr) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            f = m[r][c]
            m[r] = [x / f for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    g = m[i][c]
                    m[i] = [x - g * y for x, y in zip(m[i], m[r])]
            r += 1
        return r

    dims = {}
    for a in range(0, n + 1):
        qd = len(levels[a])
        rk_in = rank(mats[a - 1]) if 1 <= a <= n else 0
        rk_out = rank(mats[a]) if a + 1 <= n else 0
        dims[a] = qd - rk_in - rk_out
    return dims


@pytest.mark.parametrize("n", range(0, 6))
def test_trivial_module_homology_matches_oracle(n):
    m0 = free_presentation(QQ, 0)
    res = complex_homology(m0, n)
    oracle = oracle_simplex_homology(n)
    for a in range(0, n + 1):
        assert res.positions[a].free_rank == oracle[a]
        assert oracle[a] == (1 if (n == 0 and a == 0) else 0)


def test_h0_position_agrees_with_h0_slice():
    for struct in seeded_structures(13, 4):
        p = instantiate(struct, GF(3))
        for n in range(0, 5):
            via_complex = complex_homology(p, n, positions=[0]).positions[0]
            assert via_complex.free_rank == \
                h0_slice(p, n).invariants().free_rank


def test_free_module_h0_positions():
    for d in (1, 2, 3):
        md = free_presentation(QQ, d)
        for n in (d, d + 1, d + 2):
            dim = complex_homology(md, n, positions=[0]).positions[0].free_rank
            assert dim == (math.factorial(d) if n == d else 0)


def test_field_dimensions_agree_on_free_slice_inputs():
    for d in (1, 2):
        srcs = {"Q": free_presentation(QQ, d),
                "F2": free_presentation(GF(2), d),
                "F7": free_presentation(GF(7), d)}
        for n in (2, 3, 4):
            table = homology_field_table(srcs, n)
            assert table["Q"] == table["F2"] == table["F7"]


def test_integer_homology_matches_rational_on_free_slices():
    rz = complex_homology(free_presentation(ZZ, 2), 4)
    rq = complex_homology(free_presentation(QQ, 2), 4)
    for a in rz.positions:
        assert rz.positions[a].free_rank == rq.positions[a].free_rank
        assert not rz.positions[a].torsion


def ambient_homology_reference(src, n):
    """Field homology of the degree-n slice complex in ambient coordinates.

    dim H_a = dim(level a) - rank im(d_a) - rank im(d_{a+1}), where the
    image of d_a on the presented quotients has rank
    rank [d_a | R_{a-1}] - rank R_{a-1}.
    """
    cx = slice_complex(src, n)
    rel = [t.module.relations.rank() for t in cx.terms]
    image = [0] * (n + 2)
    for a in range(1, n + 1):
        stacked = hstack([cx.differentials[a - 1].matrix,
                          cx.terms[a - 1].module.relations])
        image[a] = stacked.rank() - rel[a - 1]
    return {a: Invariants(cx.terms[a].module.ambient - rel[a] - image[a]
                          - image[a + 1])
            for a in range(n + 1)}


FIELDS = [QQ, GF(2), GF(3), GF(5)]


@pytest.mark.parametrize("ring", FIELDS, ids=lambda r: r.name)
def test_field_homology_matches_ambient_reference(ring):
    from fimod.arnold import ArnoldModule
    sources = [(free_presentation(ring, d), 6) for d in (0, 1, 2)]
    sources += [(ArnoldModule(m, ring), 6) for m in (0, 1, 2)]
    for seed in (0, 1, 2):
        sources += [(instantiate(s, ring), 5)
                    for s in seeded_structures(seed, 20)]
    for src, n_max in sources:
        for n in range(n_max + 1):
            got = complex_homology(src, n)
            assert got.mode == "field"
            assert got.positions == ambient_homology_reference(src, n), \
                (src, n)


def lattice_homology_reference(src, n):
    """Integer homology of the degree-n slice complex by kernel lattices.

    Lifts every differential to free coordinates of the slices, takes a
    basis of ker L_a from a transform Smith form, solves every boundary
    column of L_{a+1} into that basis and reads H_a off the Smith form of
    the resulting relation matrix. Free coordinates, kernels and solving
    all come from the transform-Smith references, not the code under test.
    """
    cx = slice_complex(src, n)
    coords, sections = [], []
    for t in cx.terms:
        k = len(t.labels)
        if t.module.relations.is_zero():
            c = s = Matrix.identity(ZZ, t.module.ambient)
        else:
            c0, s0 = snf_free_coordinates_reference(t.summand)
            c, s = block_diagonal(ZZ, [c0] * k), block_diagonal(ZZ, [s0] * k)
        coords.append(c)
        sections.append(s)
    lifted = {a: coords[a - 1] @ cx.differentials[a - 1].matrix @ sections[a]
              for a in range(1, n + 1)}
    out = {}
    for a in range(n + 1):
        rank_a = coords[a].nrows
        kernel = snf_kernel_reference(lifted[a]) if a >= 1 \
            else [{j: 1} for j in range(rank_a)]
        if not kernel:
            out[a] = Invariants(0)
            continue
        cols = []
        if a + 1 <= n and not lifted[a + 1].is_zero():
            solve = snf_solver_reference(
                Matrix.from_columns(ZZ, rank_a, kernel))
            for col in lifted[a + 1].columns():
                sol = solve(col)
                assert sol is not None, "boundary escaped the cycle lattice"
                cols.append(sol)
        inner = Matrix.from_columns(ZZ, len(kernel), cols) if cols \
            else Matrix.zero(ZZ, len(kernel), 0)
        out[a] = PresentedModule(ZZ, len(kernel), inner).invariants()
    return out


def complex_size(src, n):
    """Total ambient rank of the degree-n slice complex."""
    return sum(math.comb(n, a) * src.slice_module(n - a).ambient
               for a in range(n + 1))


def torsion_free_up_to(src, n):
    return all(not src.slice_module(m).invariants().torsion
               for m in range(n + 1))


# (structure, n, the nonzero torsion of H_a by position a): cases with
# torsion in H, plus seeded_structures(6, 60)[32] = M(1)/(2e1 - 3e2, 2e1),
# whose stacked ambient boundary matrices have no +-1 pivot.
INTEGER_HOMOLOGY_CASES = [
    (seeded_structures(6, 60)[29], 3, {1: (2,)}),
    (seeded_structures(6, 60)[29], 4, {2: (2,)}),
    (seeded_structures(6, 60)[29], 5, {3: (2,)}),
    (seeded_structures(8, 60, max_generators=3, max_relations=3)[41], 3,
     {1: (2, 2)}),
    (seeded_structures(8, 60, max_generators=3, max_relations=3)[41], 4,
     {2: (2, 2, 2)}),
    (seeded_structures(3, 40)[11], 2, {0: (3,)}),
    (seeded_structures(4, 40)[25], 1, {0: (2,)}),
    (seeded_structures(6, 60)[32], 6, {}),
]


@pytest.mark.parametrize("struct,n,torsion", INTEGER_HOMOLOGY_CASES)
def test_integer_homology_matches_lattice_reference_with_torsion(struct, n,
                                                                 torsion):
    p = instantiate(struct, ZZ)
    got = complex_homology(p, n).positions
    assert got == lattice_homology_reference(p, n)
    assert {a: inv.torsion for a, inv in got.items() if inv.torsion} == \
        torsion


def test_integer_homology_matches_lattice_reference():
    from fimod.arnold import ArnoldModule
    sources = [(free_presentation(ZZ, d), 6) for d in (0, 1, 2)]
    sources.append((ArnoldModule(1, ZZ), 5))
    sources.append((ArnoldModule(2, ZZ), 4))
    for seed in (0, 5):
        sources += [(instantiate(s, ZZ), 6)
                    for s in seeded_structures(seed, 12)]
    checked = 0
    for src, n_max in sources:
        for n in range(n_max + 1):
            # the size cap keeps the transform Smith forms of the reference
            # to a few seconds in all
            if complex_size(src, n) > 300 or not torsion_free_up_to(src, n):
                continue
            assert complex_homology(src, n).positions == \
                lattice_homology_reference(src, n), (src, n)
            checked += 1
    assert checked >= 140


def test_integer_homology_agrees_across_rings():
    """Universal coefficients, with no reference code. With torsion-free
    slices every level of the complex C over Z is free, and the same
    integer presentation read over a field k gives C ⊗ k. So H_a over Q has
    dimension r_a, and over F_p dimension r_a + #{p | t in H_a} +
    #{p | t in H_{a-1}} (the Tor term), where H_a = Z^{r_a} + torsion t.
    Seeded structures at n <= 4 almost never have torsion in H, so the
    pinned torsion cases above come too."""
    cases = [(struct, n) for seed in (0, 1, 2)
             for struct in seeded_structures(seed, 30, max_generators=3,
                                             max_relations=3)
             for n in range(5)]
    cases += [(struct, n) for struct, n, _ in INTEGER_HOMOLOGY_CASES]
    checked = with_relations = with_torsion = 0
    for struct, n in cases:
        z = instantiate(struct, ZZ)
        if not torsion_free_up_to(z, n):
            continue
        with_relations += any(not z.slice_module(m).relations.is_zero()
                              for m in range(n + 1))
        h = complex_homology(z, n).positions

        def divisible(a, q):
            return sum(1 for t in h[a].torsion if t % q == 0) if a >= 0 else 0

        expected = [{a: h[a].free_rank for a in h}] + [
            {a: h[a].free_rank + divisible(a, q) + divisible(a - 1, q)
             for a in h} for q in CROSS_RING_PRIMES]
        got = [{a: inv.free_rank for a, inv in complex_homology(
            instantiate(struct, k), n).positions.items()}
            for k in [QQ] + [GF(q) for q in CROSS_RING_PRIMES]]
        assert got == expected, (struct, n)
        checked += 1
        with_torsion += any(inv.torsion for inv in h.values())
    assert checked >= 300 and with_relations >= 90 and with_torsion >= 6


@pytest.mark.parametrize("ring", [QQ, ZZ])
def test_homology_rejects_negative_degree(ring):
    with pytest.raises(ValueError, match="degree must be >= 0"):
        complex_homology(free_presentation(ring, 1), -1)


def test_integer_homology_refuses_torsion_slices():
    t = torsion_module(ZZ)
    # V_0 = Z here and V_n = 0 after, actually torsion-free slices; build a
    # genuinely torsion slice instead: Z/2 in every degree >= 1
    from fimod.presentations import FreeElement
    p = FIPresentation(ZZ, [0], [FreeElement(
        0, {(0, Injection(0, 0, ())): 2})])
    with pytest.raises(ValueError, match="field-wise"):
        complex_homology(p, 2)


@pytest.mark.parametrize("ring", [QQ, GF(5), ZZ])
def test_chain_homotopy_seeded(ring):
    for struct in seeded_structures(11, 4):
        p = instantiate(struct, ring)
        for n in (1, 2, 3):
            for a in range(0, n + 1):
                assert verify_chain_homotopy(p, a, n)


def test_chain_homotopy_free_modules():
    for d in (0, 1, 2):
        md = free_presentation(QQ, d)
        for n in (1, 2, 3, 4):
            for a in range(0, min(3, n) + 1):
                assert verify_chain_homotopy(md, a, n)


def test_shift_one_kills_homology_over_field():
    # the canonical degree-raising map must induce zero on homology:
    # images of cycles land in boundaries plus relations
    from fimod.matrix import field_in_span, field_kernel_basis
    for struct in seeded_structures(29, 4):
        p = instantiate(struct, GF(5))
        for n in (1, 2, 3):
            for a in (0, 1):
                s_src = signed_shift_slice(p, a, n)
                s_tgt = signed_shift_slice(p, a, n + 1)
                x1 = shift_one_matrix(p, a, n)
                if a >= 1:
                    below = signed_shift_slice(p, a - 1, n)
                    stacked = hstack([differential(p, a, n).matrix,
                                      below.module.relations])
                    cycles = [
                        {i: v for i, v in col.items()
                         if i < s_src.module.ambient}
                        for col in field_kernel_basis(stacked)]
                else:
                    cycles = [{i: GF(5).one}
                              for i in range(s_src.module.ambient)]
                images = [x1.apply_to_column(c) for c in cycles]
                images = [c for c in images if c]
                if not images:
                    continue
                boundaries = hstack([differential(p, a + 1, n + 1).matrix,
                                     s_tgt.module.relations])
                img_mat = Matrix.from_columns(GF(5), s_tgt.module.ambient,
                                              images)
                assert field_in_span(boundaries, img_mat)


def test_colimit_examples():
    m1 = free_presentation(QQ, 1)
    col = poset_colimit(m1, 3, 1)
    assert col.module.dim() == 3
    ok, _ = is_isomorphism(col.canonical)
    assert ok
    # cutoff >= n reconstructs any slice
    for struct in seeded_structures(3, 2):
        p = instantiate(struct, QQ)
        for n in (0, 1, 2, 3):
            ok, _ = check_inductive(p, n, n)
            assert ok


def test_colimit_mode_agreement():
    for struct in seeded_structures(37, 20):
        p = instantiate(struct, GF(5))
        for n in (2, 3, 4, 5):
            for cutoff in range(1, n + 1):
                full = poset_colimit(p, n, cutoff, "full")
                final = poset_colimit(p, n, cutoff, "final-layers")
                assert full.module.invariants() == final.module.invariants()
                ok_full, _ = is_isomorphism(full.canonical)
                ok_final, _ = is_isomorphism(final.canonical)
                assert ok_full == ok_final


def test_final_layers_requires_small_cutoff():
    with pytest.raises(ValueError):
        poset_colimit(free_presentation(QQ, 1), 2, 3, "final-layers")


def test_check_inductive_free_modules():
    for d in (1, 2, 3):
        md = free_presentation(QQ, d)
        for n in range(0, 7):
            ok, _ = check_inductive(md, d, n)
            assert ok
        ok, cert = check_inductive(md, d - 1, d)
        assert not ok and not cert["surjective"]


def test_check_inductive_torsion_module():
    # the degree-0 torsion module needs cutoff 1: the empty-set colimit
    # surjects onto the zero slices but is not injective
    t = torsion_module(QQ)
    for n in (1, 2, 3):
        ok, _ = check_inductive(t, 1, n)
        assert ok
    ok, cert = check_inductive(t, 0, 2)
    assert not ok and cert["surjective"]


def test_corollary_biconditional_seeded():
    for struct in seeded_structures(19, 6):
        p = instantiate(struct, GF(5))
        for n in range(1, 5):
            res = complex_homology(p, n, positions=[0, 1])
            vanish = res.positions[0].is_zero and res.positions[1].is_zero
            ok, _ = check_inductive(p, n - 1, n)
            assert vanish == ok


def test_h1_is_kernel_of_colimit_map():
    for struct in seeded_structures(43, 5):
        p = instantiate(struct, GF(7))
        for n in (1, 2, 3, 4):
            h1 = complex_homology(p, n, positions=[1]).positions.get(1)
            if h1 is None:
                continue
            col = poset_colimit(p, n, n - 1, "full")
            src_dim = col.module.dim()
            rel_rank = col.canonical.target.relations.rank()
            image_rank = hstack([col.canonical.matrix,
                                 col.canonical.target.relations]).rank() \
                - rel_rank
            assert h1.free_rank == src_dim - image_rank


def test_found_bound_reconstructs_within_window():
    # whenever H0 and H1 vanish for bound < m <= n, the slice at n is the
    # colimit over subsets of size <= bound: the windowed inductive theorem
    for struct in seeded_structures(53, 10):
        p = instantiate(struct, GF(5))
        rep = find_N(p, 5)
        for n in range(rep.bound + 1, 6):
            ok, cert = check_inductive(p, rep.bound, n)
            assert ok, (struct, rep.bound, n, cert)


def test_h0_is_cokernel_of_colimit_map():
    # the cokernel of the proper-subset colimit map is the degree-zero
    # homology of the slice complex
    for struct in seeded_structures(61, 5):
        p = instantiate(struct, GF(7))
        for n in (1, 2, 3, 4):
            h0 = complex_homology(p, n, positions=[0]).positions[0]
            col = poset_colimit(p, n, n - 1, "full")
            target = col.canonical.target
            rel_rank = target.relations.rank()
            image_rank = hstack([col.canonical.matrix,
                                 target.relations]).rank() - rel_rank
            coker_dim = (target.ambient - rel_rank) - image_rank
            assert h0.free_rank == coker_dim


def test_find_N_examples():
    assert find_N(free_presentation(QQ, 2), 6).bound == 2
    assert find_N(free_presentation(QQ, 0), 5).bound == 0
    rep = find_N(torsion_module(QQ), 5)
    assert rep.bound == 1
    assert rep.nonzero_h0 == [0] and rep.nonzero_h1 == [1]



class CountingSource:
    """A slice source that records every injection it is asked to push
    along."""

    def __init__(self, src):
        self.ring = src.ring
        self._src = src
        self.pushed = []

    def slice_module(self, m):
        return self._src.slice_module(m)

    def induced_matrix(self, f):
        self.pushed.append(f)
        return self._src.induced_matrix(f)


@pytest.mark.parametrize("src", [
    free_presentation(QQ, 2), free_presentation(ZZ, 1),
    torsion_module(GF(3)),
    *(instantiate(s, GF(2)) for s in seeded_structures(1, 3))])
def test_find_N_lifts_each_injection_once(src):
    counting = CountingSource(src)
    assert find_N(counting, 5) == find_N(src, 5)
    assert counting.pushed
    assert len(counting.pushed) == len(set(counting.pushed))

def test_ordered_shift_free_iso_naturality():
    rng = random.Random(23)
    for d in (0, 1, 2):
        src = free_presentation(QQ, d)
        for a in (0, 1, 2):
            big = free_presentation(QQ, a + d)
            for n in (2, 3):
                assert ordered_shift_slice(src, a, n).module.ambient == \
                    big.evaluate_slice(n).ambient
                phi_n = ordered_shift_free_iso(d, a, n, QQ)
                m = rng.randint(n, n + 2)
                w = random_injection(rng, n, m)
                phi_m = ordered_shift_free_iso(d, a, m, QQ)
                lhs = phi_m @ ordered_shift_structure_map(src, a, w).matrix
                rhs = big.induced_matrix(w) @ phi_n
                assert lhs == rhs


@pytest.mark.parametrize("ring", [QQ, GF(3), ZZ])
def test_placed_block_matrices_are_canonical(ring):
    rng = random.Random(3)
    for struct in seeded_structures(9, 4):
        p = instantiate(struct, ring)
        for n in range(0, 4):
            for a in range(0, n + 1):
                assert_canonical(homotopy_matrix(p, a, n))
                assert_canonical(shift_one_matrix(p, a, n))
                if a:
                    assert_canonical(differential(p, a, n).matrix)
            for a in range(0, 3):
                w = random_injection(rng, n, n + 1)
                assert_canonical(ordered_shift_structure_map(p, a, w).matrix)


# ---------------------------------------------------------------------------
# references: complex matrices from per-label subset combinatorics, and
# poset colimits merged column by column

def position_injection(small, big):
    """The injection [|small|] -> [|big|] of positions induced by an
    inclusion of sorted subsets."""
    pos = {v: k + 1 for k, v in enumerate(big)}
    return Injection(len(small), len(big), tuple(pos[v] for v in small))


def placed_reference(ring, nrows, ncols, placements):
    """The matrix of non-overlapping blocks (row offset, column offset,
    block, negate), entries coerced by Matrix()."""
    ent = {}
    for roff, coff, block, negate in placements:
        for (r, c), v in block.entries.items():
            ent[(roff + r, coff + c)] = -v if negate else v
    return Matrix(ring, nrows, ncols, ent)


def differential_reference(src, a, n):
    """d out of level a at degree n: for each label T and each u in its
    complement, the block induced by T -> T + {u}, negated when the rank of
    u in the complement is odd."""
    s_from = signed_shift_slice(src, a, n)
    s_to = signed_shift_slice(src, a - 1, n)
    tgt_index = {t: k for k, t in enumerate(s_to.labels)}
    placements = []
    for si, t in enumerate(s_from.labels):
        complement = [u for u in range(1, n + 1) if u not in t]
        for i, u in enumerate(complement, start=1):
            t2 = tuple(sorted(t + (u,)))
            placements.append((s_to.offset(tgt_index[t2]), s_from.offset(si),
                               src.induced_matrix(position_injection(t, t2)),
                               i % 2 == 1))
    mat = placed_reference(src.ring, s_to.module.ambient,
                           s_from.module.ambient, placements)
    return ModuleMap(s_from.module, s_to.module, mat)


def homotopy_matrix_reference(src, a, n):
    """G: the summand T of (a, n) to the summand T of (a+1, n+1), sign
    (-1)^a."""
    s_from = signed_shift_slice(src, a, n)
    s_to = signed_shift_slice(src, a + 1, n + 1)
    tgt_index = {t: k for k, t in enumerate(s_to.labels)}
    ident = Matrix.identity(src.ring, s_from.summand.ambient)
    return placed_reference(src.ring, s_to.module.ambient,
                            s_from.module.ambient,
                            [(s_to.offset(tgt_index[t]), s_from.offset(si),
                              ident, a % 2 == 1)
                             for si, t in enumerate(s_from.labels)])


def shift_one_matrix_reference(src, a, n):
    """X_1: the summand T of (a, n) to the summand T + {n+1} of (a, n+1)
    through the standard inclusion."""
    s_from = signed_shift_slice(src, a, n)
    s_to = signed_shift_slice(src, a, n + 1)
    tgt_index = {t: k for k, t in enumerate(s_to.labels)}
    block = src.induced_matrix(standard_inclusion(n - a, n - a + 1)) \
        if a <= n else None
    return placed_reference(src.ring, s_to.module.ambient,
                            s_from.module.ambient,
                            [(s_to.offset(tgt_index[t + (n + 1,)]),
                              s_from.offset(si), block, False)
                             for si, t in enumerate(s_from.labels)])


def assert_complex_matrices_match_reference(src, n_max):
    for n in range(n_max + 1):
        for a in range(n + 1):
            if a:
                got = differential(src, a, n).matrix
                assert got == differential_reference(src, a, n).matrix, (a, n)
                assert_canonical(got)
            for build, reference in ((homotopy_matrix,
                                      homotopy_matrix_reference),
                                     (shift_one_matrix,
                                      shift_one_matrix_reference)):
                got = build(src, a, n)
                assert got == reference(src, a, n), (build.__name__, a, n)
                assert_canonical(got)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ])
@pytest.mark.parametrize("seed", range(3))
def test_complex_matrices_match_reference(seed, ring):
    for struct in seeded_structures(seed, 12):
        assert_complex_matrices_match_reference(instantiate(struct, ring), 4)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ])
def test_free_and_witness_complex_matrices_match_reference(ring):
    for src in [free_presentation(ring, d) for d in (0, 1, 2)] + \
            [ArnoldModule(2, ring)]:
        assert_complex_matrices_match_reference(src, 4)


@pytest.mark.parametrize("a", range(4))
def test_chain_homotopy_builds_each_level_once(monkeypatch, a):
    built = []
    build = fimod.complexes._shift_slice

    def counting(src, level, n, labels):
        built.append((level, n))
        return build(src, level, n, labels)

    monkeypatch.setattr(fimod.complexes, "_shift_slice", counting)
    assert verify_chain_homotopy(free_presentation(QQ, 1), a, 3)
    assert len(built) == len(set(built)) == (4 if a else 2)


def poset_colimit_reference(src, n, cutoff, mode):
    """(objects, relations, canonical map) of the colimit, with each gluing
    column [I at S; -f_* at S u {u}] merged entry by entry through
    ring.sub, the relations built by Matrix.from_columns and the canonical
    map by a coercing Matrix()."""
    ring = src.ring
    sizes = range(0, min(cutoff, n) + 1) if mode == "full" else \
        range(max(0, cutoff - 1), cutoff + 1)
    objects = [s for k in sizes for s in subsets_of_size(n, k)]
    obj_index = {s: k for k, s in enumerate(objects)}
    slices = [src.slice_module(len(s)) for s in objects]
    offsets, total = [], 0
    for sl in slices:
        offsets.append(total)
        total += sl.ambient
    cols = []
    for oi, sl in enumerate(slices):
        cols.extend({offsets[oi] + r: v for r, v in col.items()}
                    for col in sl.relations.columns())
    for oi, s in enumerate(objects):
        for u in range(1, n + 1):
            s2 = tuple(sorted(s + (u,)))
            if u in s or s2 not in obj_index:
                continue
            ti = obj_index[s2]
            block_cols = src.induced_matrix(position_injection(s, s2)).columns()
            for k in range(slices[oi].ambient):
                col = {offsets[oi] + k: ring.one}
                for r, v in block_cols[k].items():
                    key = offsets[ti] + r
                    cur = ring.coerce(col.get(key, 0) - v)
                    if cur:
                        col[key] = cur
                    else:
                        col.pop(key, None)
                cols.append(col)
    relations = Matrix.from_columns(ring, total, cols) if cols \
        else Matrix.zero(ring, total, 0)
    ent = {}
    for oi, s in enumerate(objects):
        block = src.induced_matrix(Injection(len(s), n, s))
        for (r, c), v in block.entries.items():
            ent[(r, offsets[oi] + c)] = v
    cmap = Matrix(ring, src.slice_module(n).ambient, total, ent)
    return objects, relations, cmap


def assert_colimits_match_reference(src, n_max):
    for n in range(n_max + 1):
        for mode, top in (("full", n + 1), ("final-layers", n)):
            for cutoff in range(top + 1):
                col = poset_colimit(src, n, cutoff, mode)
                objects, relations, cmap = \
                    poset_colimit_reference(src, n, cutoff, mode)
                assert col.objects == objects
                assert col.module.relations == relations, (n, cutoff, mode)
                assert col.canonical.matrix == cmap, (n, cutoff, mode)
                assert_canonical(col.module.relations)
                assert_canonical(col.canonical.matrix)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ])
@pytest.mark.parametrize("seed", range(4))
def test_colimits_match_merged_reference(seed, ring):
    for struct in seeded_structures(seed, 20):
        assert_colimits_match_reference(instantiate(struct, ring), 4)


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ])
def test_witness_colimits_match_merged_reference(ring):
    for m in (1, 2):
        assert_colimits_match_reference(ArnoldModule(m, ring), 4)
