"""Negative-shift complexes, homology, poset colimits, inductive checks.

Everything here works against a "slice source": any object with a `ring`
attribute, a `slice_module(n) -> PresentedModule` method and an
`induced_matrix(f: Injection) -> Matrix` method, functorial in f. Finitely
presented FI-modules provide one; so does the configuration-space witness.

The degree-n slice of the signed complex has, at level a, one summand for
each subset T of [n] of size n - a, realized as the degree-(n-a) slice
through the order-preserving bijection with T. The distinguished ordered
representative of the summand T is the increasing enumeration of its
complement; then the differential out of T is an alternating sum over the
complement. The cover table (`_subset_index`, `_covers`) is the one place
that knows subset order and cover incidence: u inserted at position p of T
takes block p (`_cover_blocks`) and sign (-1)^(u-p), u-p its complement rank.

Every matrix assembled here (differentials, the homotopy, X_1, ordered
shift structure maps, colimit relations) is a placement of canonical
blocks at row and column offsets (`_place_blocks`): the blocks of one
matrix never overlap, so entries are written as they are, with nothing to
merge or coerce, through `Matrix.canonical`. A differential's offsets are
its blocks' shape: every block of d_a is f_* from slice n-a to slice
n-a+1, so no level needs building to place it.

Homology is one theorem over Q, F_p and Z. Level a is C_a, C(n, a) copies
of slice n-a; D_b is the ambient matrix of the differential out of level b
and R_a the block relations of level a. When the levels are free (any
field; over Z every slice must be torsion-free), im d_a lies in the free
module C_{a-1}, so ker d_a is a direct summand of C_a and
coker [D_{a+1} | R_a] = C_a / im d_{a+1} ≅ H_a ⊕ R^{rk d_a}. H_a is that
cokernel's invariants with rk d_a taken off the free rank, and
rk d_a = rk[D_a | R_{a-1}] - C(n, a-1) rk R_{n-a+1}: one rank per matrix
over a field, one Smith form without transforms over Z. A level whose
slice is zero contributes nothing, so no matrix touching it is built.

When slices carry torsion over Z, `homology_field_table` reads the same
ranks off the integer matrices for Q and each F_p, with
H_a = dim C_a - rk d_a - rk d_{a+1}. Each integer matrix is stripped of
its unit pivots once over Z; that is a unimodular equivalence, exact after
reduction modulo every p, so only the residue is ranked per field.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .injections import Injection, enumerate_injections, standard_inclusion
from .matrix import Matrix, block_diagonal, hstack
from .modules import (Invariants, ModuleMap, PresentedModule, is_isomorphism)
from .rings import GF, QQ, ZZ
from .smith import _strip_unit_pivots


def subsets_of_size(n: int, k: int) -> list[tuple[int, ...]]:
    return list(_subset_index(n, k))


# ---------------------------------------------------------------------------
# subset tables, shift slices and block assembly

@lru_cache(maxsize=64)
def _subset_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    """k-subsets of [n] in lexicographic order -> position (read only)."""
    return {s: i for i, s in enumerate(combinations(range(1, n + 1), k))}


@lru_cache(maxsize=64)
def _covers(n: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """(index of S, index of S ∪ {u}, insertion position p, u) for each
    k-subset S of [n] and u not in S: S lexicographic, then u increasing."""
    big = _subset_index(n, k + 1)
    return tuple((si, big[tuple(sorted(s + (u,)))], sum(v < u for v in s), u)
                 for s, si in _subset_index(n, k).items()
                 for u in range(1, n + 1) if u not in s)


def _cover_blocks(src, k: int) -> list[Matrix]:
    """f_* of the k + 1 injections [k] -> [k+1]; the p-th skips p + 1."""
    return [src.induced_matrix(Injection(k, k + 1, tuple(
        i + (i > p) for i in range(1, k + 1)))) for p in range(k + 1)]


@dataclass
class ShiftSlice:
    """Level a of a shift at degree n: one copy of the degree-(n-a) slice
    per label (subsets of size n - a for the signed complex, injections
    [a] -> [n] for the ordered shift)."""
    level: int
    degree: int
    labels: list
    summand: PresentedModule           # the shared degree-(n-a) slice
    module: PresentedModule            # block sum over the labels

    def offset(self, idx: int) -> int:
        return idx * self.summand.ambient


def _shift_slice(src, a: int, n: int, labels: list) -> ShiftSlice:
    ring = src.ring
    if not labels:
        empty = PresentedModule(ring, 0)
        return ShiftSlice(a, n, [], empty, empty)
    summand = src.slice_module(n - a)
    rels = block_diagonal(ring, [summand.relations] * len(labels))
    module = PresentedModule(ring, summand.ambient * len(labels), rels)
    return ShiftSlice(a, n, labels, summand, module)


def _place_blocks(ring, nrows: int, ncols: int, placements) -> Matrix:
    """The nrows x ncols matrix assembled from placements (row offset,
    column offset, block, negate) of canonical blocks that do not overlap,
    so every entry is written once and never merged."""
    p = ring.p
    ent = {}
    for roff, coff, block, negate in placements:
        for (r, c), v in block.entries.items():
            if negate:
                v = p - v if p else -v
            ent[(roff + r, coff + c)] = v
    return Matrix.canonical(ring, nrows, ncols, ent)


# ---------------------------------------------------------------------------
# signed slices and differentials

def _level(src, a: int, n: int) -> tuple[dict, int]:
    """(subset index, summand size) of level a at degree n, unbuilt."""
    if a < 0 or n < 0:
        raise ValueError("level and degree must be >= 0")
    return (_subset_index(n, n - a), src.slice_module(n - a).ambient) \
        if a <= n else ({}, 0)


def signed_shift_slice(src, a: int, n: int) -> ShiftSlice:
    """Level-a piece of the signed complex at degree n."""
    return _shift_slice(src, a, n, list(_level(src, a, n)[0]))


def _differential_matrix(src, a: int, n: int) -> Matrix:
    """The matrix of d out of level a at degree n, 1 <= a <= n. Every block
    is f_*: slice n-a -> slice n-a+1, so its shape gives the offsets: block
    p of the cover (S, S ∪ {u}, p, u) sits at (index of S ∪ {u}) x rows,
    (index of S) x cols, negated when u - p is odd."""
    blocks = _cover_blocks(src, n - a)
    rows, cols = blocks[0].nrows, blocks[0].ncols
    return _place_blocks(src.ring, comb(n, a - 1) * rows, comb(n, a) * cols,
                         ((ti * rows, si * cols, blocks[p], (u - p) % 2 == 1)
                          for si, ti, p, u in _covers(n, n - a)))


def differential(src, a: int, n: int) -> ModuleMap:
    """d: (level a) -> (level a-1) at degree n, 1 <= a <= n."""
    if not 1 <= a <= n:
        raise ValueError("differential needs 1 <= a <= n")
    return ModuleMap(signed_shift_slice(src, a, n).module,
                     signed_shift_slice(src, a - 1, n).module,
                     _differential_matrix(src, a, n))


@dataclass
class SliceComplex:
    degree: int
    terms: list[ShiftSlice]                # levels 0..degree
    differentials: list[ModuleMap]         # differentials[a-1]: level a -> a-1

    def check_square_zero(self) -> bool:
        for a in range(2, self.degree + 1):
            comp = self.differentials[a - 2].matrix @ self.differentials[a - 1].matrix
            if not comp.is_zero():
                return False
        return True


def slice_complex(src, n: int) -> SliceComplex:
    terms = [signed_shift_slice(src, a, n) for a in range(n + 1)]
    diffs = [ModuleMap(terms[a].module, terms[a - 1].module,
                       _differential_matrix(src, a, n))
             for a in range(1, n + 1)]
    return SliceComplex(n, terms, diffs)


# ---------------------------------------------------------------------------
# homology

@dataclass
class HomologyResult:
    degree: int
    mode: str                          # "field" or "integer-free-slices"
    positions: dict[int, Invariants]


def _with_relations(src, b: int, n: int) -> Matrix:
    """[D_b | R_{b-1}] at degree n, 1 <= b <= n: the ambient differential
    out of level b beside the block relations of level b-1, C(n, b-1)
    copies of the relations of slice n-b+1."""
    return hstack([_differential_matrix(src, b, n), block_diagonal(
        src.ring, [src.slice_module(n - b + 1).relations] * comb(n, b - 1))])


def complex_homology(src, n: int, positions=None) -> HomologyResult:
    """Homology of the degree-n slice of the signed complex, by the
    theorem of the module docstring on every ring: H_a has the torsion of
    coker [D_{a+1} | R_a] and its free rank less rk d_a. rk d_a is
    rank C_{a-1} less the free rank of coker [D_a | R_{a-1}] when a - 1
    was requested too, else read off one rank of [D_a | R_{a-1}]; rank C_a
    is C(n, a) times the free rank of slice n-a. Over Z the slices must be
    torsion-free.
    """
    ring = src.ring
    positions = _positions(n, positions)
    if not ring.is_field:
        for m in range(0, n + 1):
            if src.slice_module(m).invariants().torsion:
                raise ValueError(
                    f"slice at degree {m} has torsion over Z; integer "
                    "homology supports free slices only - run field-wise "
                    "(Q and a prime list) instead")

    def rank_of(a: int) -> int:        # rank of the free level C_a
        return comb(n, a) * src.slice_module(n - a).invariants().free_rank \
            if 0 <= a <= n else 0

    def rank_d(b: int) -> int:         # rank of d_b: C_b -> C_{b-1}
        if not rank_of(b) or not rank_of(b - 1):
            return 0
        rel = src.slice_module(n - b + 1)
        return _with_relations(src, b, n).rank() - comb(n, b - 1) * (
            rel.ambient - rel.invariants().free_rank)

    ranks = {}                         # b -> rank of d_b
    out = {}
    for a in positions:
        if not rank_of(a) or not rank_of(a + 1):
            h = Invariants(rank_of(a))
        else:
            h = PresentedModule(ring, comb(n, a) * src.slice_module(n - a)
                                .ambient, _with_relations(src, a + 1, n)) \
                .invariants()
        ranks[a + 1] = rank_of(a) - h.free_rank
        if a not in ranks:
            ranks[a] = rank_d(a)
        out[a] = Invariants(h.free_rank - ranks[a], h.torsion)
    return HomologyResult(n, "field" if ring.is_field else
                          "integer-free-slices", out)


def homology_field_table(src, n: int, primes, positions=None) -> dict:
    """Homology dimensions over Q and over F_p for each p in `primes`, all
    read off the integer slice source `src`: {ring name: {a: dim H_a}},
    Q first, then `primes` in their order. It serves slices with torsion
    over Z, where the integer homology is not computed.

    Over a field k, level a is C(n, a) copies of V_{n-a} ⊗ k, the
    cokernel of R_{n-a} ⊗ k, so dim C_a = C(n, a)(amb_{n-a} - rk R_{n-a}),
    and rk d_a = rk[D_a | R_{a-1}] - C(n, a-1) rk R_{n-a+1} as in
    `complex_homology`, from the same matrices [D_b | R_{b-1}]; then
    H_a = dim C_a - rk d_a - rk d_{a+1}.

    Every rank is one integer matrix stripped of its unit pivots once over
    Z (`_strip_unit_pivots`), then only its small residue ranked per field
    (`_field_ranks`). Merging two-term unit columns and eliminating with
    +-1 pivots are integer row and column operations that stay invertible
    modulo every p, and a +-1 pivot is a unit in every field, so the rank
    over Q or F_p is the number of unit pivots plus the residue's rank over
    that field. No field slice, free coordinate or invariant factor is
    computed: a dense Smith form of a residue costs far more than its rank.
    """
    if src.ring.is_field:
        raise ValueError("a field-wise table reads an integer slice source")
    positions = _positions(n, positions)
    fields = [QQ] + [GF(q) for q in primes]
    relation_ranks: dict[int, dict] = {}    # m -> {ring name: rk R_m}

    def rk_relations(m: int) -> dict:
        if m not in relation_ranks:
            relation_ranks[m] = _field_ranks(src.slice_module(m).relations,
                                             fields)
        return relation_ranks[m]

    ranks = {}                         # b -> {ring name: rank of d_b}
    for b in sorted({b for a in positions for b in (a, a + 1)}):
        if not 1 <= b <= n:
            ranks[b] = dict.fromkeys((k.name for k in fields), 0)
            continue
        both = _field_ranks(_with_relations(src, b, n), fields)
        ranks[b] = {name: r - comb(n, b - 1) * rk_relations(n - b + 1)[name]
                    for name, r in both.items()}
    table = {}
    for k in fields:
        table[k.name] = {a: comb(n, a) * (src.slice_module(n - a).ambient
                                          - rk_relations(n - a)[k.name])
                         - ranks[a][k.name] - ranks[a + 1][k.name]
                         for a in positions}
    return table


def _field_ranks(m: Matrix, fields) -> dict[str, int]:
    """{field name: rank} of the integer matrix m over each field: its unit
    pivots, stripped once over Z, plus the rank of the residue there, as
    integer rows over Q and reduced mod p over F_p."""
    ones, residue = _strip_unit_pivots(m)
    out = {}
    for k in fields:
        p = k.p
        ent = {(i, c): v % p if p else v for i, row in enumerate(residue)
               for c, v in row.items() if not p or v % p}
        out[k.name] = ones + (Matrix.canonical(
            k if p else ZZ, len(residue), m.ncols, ent).rank()
            if ent else 0)
    return out


def _positions(n: int, positions) -> list[int]:
    """The requested levels, sorted and distinct; 0..n when None."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if positions is None:
        return list(range(n + 1))
    positions = sorted(set(positions))
    if any(a < 0 or a > n for a in positions):
        raise ValueError("positions must lie in 0..n")
    return positions


# ---------------------------------------------------------------------------
# chain homotopy

def homotopy_matrix(src, a: int, n: int) -> Matrix:
    """G: (level a, degree n) -> (level a+1, degree n+1).

    Prepending the added point to the ordered representative sends the
    summand T of [n] to the summand T of [n+1]; re-sorting the
    representative costs the sign (-1)^a.
    """
    subsets, size = _level(src, a, n)
    targets = _subset_index(n + 1, n - a) if a <= n else {}
    ident = Matrix.identity(src.ring, size)
    return _place_blocks(src.ring, len(targets) * size, len(subsets) * size,
                         ((targets[t] * size, si * size, ident, a % 2 == 1)
                          for t, si in subsets.items()))


def shift_one_matrix(src, a: int, n: int) -> Matrix:
    """X_1 on the level-a signed slice: (a, n) -> (a, n+1).

    The summand T goes to the summand T ∪ {n+1} through the standard
    inclusion of its slice; the representative stays increasing, so no
    sign appears.
    """
    subsets, size = _level(src, a, n)
    targets, big = _level(src, a, n + 1)
    block = src.induced_matrix(standard_inclusion(n - a, n - a + 1)) \
        if a <= n else None
    return _place_blocks(src.ring, len(targets) * big, len(subsets) * size,
                         ((targets[(*t, n + 1)] * big, si * size, block, False)
                          for t, si in subsets.items()))


def verify_chain_homotopy(src, a: int, n: int) -> bool:
    """Exact matrix identity dG + Gd = -X_1 at level a, degree n."""
    if not 0 <= a <= n:
        raise ValueError("need 0 <= a <= n")
    lhs = _differential_matrix(src, a + 1, n + 1) @ homotopy_matrix(src, a, n)
    if a >= 1:
        lhs = lhs + homotopy_matrix(src, a - 1, n) @ \
            _differential_matrix(src, a, n)
    return lhs == -shift_one_matrix(src, a, n)


# ---------------------------------------------------------------------------
# poset colimits and the inductive description

@dataclass
class PosetColimit:
    degree: int
    cutoff: int
    mode: str
    objects: list[tuple[int, ...]]
    module: PresentedModule
    canonical: ModuleMap               # colimit -> V_n


def poset_colimit(src, n: int, cutoff: int, mode: str = "full") -> PosetColimit:
    """Coequalizer presentation of the colimit over subsets of [n].

    mode "full": all S with |S| <= cutoff, gluing along covering
    inclusions (any inclusion factors through covers, so the span is
    unchanged). mode "final-layers": only |S| in {cutoff-1, cutoff}, valid
    for cutoff <= n by finality of the top two layers.

    The ambient module is the sum of the slices V_|S|. The relations are
    each object's relation block, then one column block [I at S;
    -f_* at S u {u}] per covering inclusion f inside the object set; I and
    -f_* sit in the rows of different objects, so no entry merges. The
    canonical map puts the inclusion S -> [n] on each object's columns.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    ring = src.ring
    if mode == "full":
        sizes = range(0, min(cutoff, n) + 1)
    elif mode == "final-layers":
        if cutoff > n:
            raise ValueError("final-layers mode needs cutoff <= n")
        sizes = range(max(0, cutoff - 1), cutoff + 1)
    else:
        raise ValueError(f"unknown colimit mode {mode!r}")
    objects = [s for k in sizes for s in subsets_of_size(n, k)]
    slices = {k: src.slice_module(k) for k in sizes}
    offsets = {}                       # k -> first row of layer k
    placements = []
    total = ncols = 0
    for k, sl in slices.items():
        offsets[k] = total
        for _ in _subset_index(n, k):
            placements.append((total, ncols, sl.relations, False))
            total += sl.ambient
            ncols += sl.relations.ncols
    for k in sizes[:-1]:
        small, big = slices[k].ambient, slices[k + 1].ambient
        ident, blocks = Matrix.identity(ring, small), _cover_blocks(src, k)
        for si, ti, p, _ in _covers(n, k):
            placements += [(offsets[k] + si * small, ncols, ident, False),
                           (offsets[k + 1] + ti * big, ncols, blocks[p], True)]
            ncols += small
    colim = PresentedModule(ring, total,
                            _place_blocks(ring, total, ncols, placements))
    inclusions = hstack([src.induced_matrix(Injection(len(s), n, s))
                         for s in objects])
    cmap = ModuleMap(colim, src.slice_module(n), inclusions)
    return PosetColimit(n, cutoff, mode, objects, colim, cmap)


def check_inductive(src, cutoff: int, n: int) -> tuple[bool, dict]:
    """Is the canonical map (colimit over |S| <= cutoff) -> V_n an iso?"""
    colim = poset_colimit(src, n, cutoff, mode="full")
    ok, cert = is_isomorphism(colim.canonical)
    cert["degree"] = n
    cert["cutoff"] = cutoff
    return ok, cert


@dataclass
class FindNReport:
    bound: int
    n_max: int
    nonzero_h0: list[int]
    nonzero_h1: list[int]
    status: str = "certified-up-to-bound"


def find_N(src, n_max: int) -> FindNReport:
    """Largest n <= n_max where H_0 or H_1 of the slice complex is nonzero.

    Returns 0 when neither obstruction appears anywhere in the window;
    vanishing beyond the window is never asserted.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    bad_h0 = []
    bad_h1 = []
    for n in range(0, n_max + 1):
        res = complex_homology(src, n, [a for a in (0, 1) if a <= n])
        if not res.positions[0].is_zero:
            bad_h0.append(n)
        if 1 in res.positions and not res.positions[1].is_zero:
            bad_h1.append(n)
    candidates = bad_h0 + bad_h1
    return FindNReport(max(candidates) if candidates else 0, n_max,
                       bad_h0, bad_h1)


# ---------------------------------------------------------------------------
# ordered (unsigned) shift slices, used for the free-module comparison

def ordered_shift_slice(src, a: int, n: int) -> ShiftSlice:
    """Level-a piece of the ordered shift at degree n: one summand per
    injection [a] -> [n], in lexicographic order."""
    return _shift_slice(src, a, n, enumerate_injections(a, n))


def ordered_shift_structure_map(src, a: int, w: Injection) -> ModuleMap:
    """Structure map of the ordered shift along w: degree w.source -> w.target.

    The summand at f goes to the summand at w∘f via the map induced on the
    complements (positions tracked through w).
    """
    n, m = w.source, w.target
    s_from = ordered_shift_slice(src, a, n)
    s_to = ordered_shift_slice(src, a, m)
    tgt_index = {f.images: k for k, f in enumerate(s_to.labels)}

    def placements():
        for si, f in enumerate(s_from.labels):
            wf = w.after(f)
            comp_src = [v for v in range(1, n + 1) if v not in set(f.images)]
            comp_tgt = sorted(v for v in range(1, m + 1)
                              if v not in set(wf.images))
            pos_tgt = {v: k + 1 for k, v in enumerate(comp_tgt)}
            rho = Injection(len(comp_src), len(comp_tgt),
                            tuple(pos_tgt[w(v)] for v in comp_src))
            yield (s_to.offset(tgt_index[wf.images]), s_from.offset(si),
                   src.induced_matrix(rho), False)

    mat = _place_blocks(src.ring, s_to.module.ambient, s_from.module.ambient,
                        placements())
    return ModuleMap(s_from.module, s_to.module, mat)


def ordered_shift_free_iso(d: int, a: int, n: int, ring) -> Matrix:
    """The explicit basis bijection (ordered shift of M(d) at level a)_n ->
    M(a+d)_n, pairing (f, g) with the disjoint concatenation f ⊔ g."""
    from .presentations import free_presentation
    src = free_presentation(ring, d)
    big = free_presentation(ring, a + d)
    s_from = ordered_shift_slice(src, a, n)
    tgt = big.evaluate_slice(n)
    sl_small = src.evaluate_slice(n - a)
    ent = {}
    for si, f in enumerate(s_from.labels):
        comp = sorted(v for v in range(1, n + 1) if v not in set(f.images))
        for k, (_, g) in enumerate(sl_small.basis):
            u = f.images + tuple(comp[v - 1] for v in g.images)
            ent[(tgt.index[(0, u)], s_from.offset(si) + k)] = ring.one
    return Matrix(ring, tgt.ambient, s_from.module.ambient, ent)
