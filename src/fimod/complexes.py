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
merge or coerce, through `Matrix.canonical`.

Homology takes one route over Q, F_p and Z. The slices are read in free
coordinates (over Z every slice must be torsion-free), so level a becomes
R^{r_a} and the differential L_a a matrix over R, lifted with no section as
coords_{a-1} @ d_a from level a in ambient coordinates: those surject onto
the slice, so the lift has the image of L_a. That image lies in the free
module R^{r_{a-1}}, so ker L_a is a direct summand of R^{r_a} and
coker L_{a+1} ≅ H_a ⊕ R^{rank L_a}. H_a is therefore the cokernel of
L_{a+1} with rank L_a taken off its free rank: one rank per differential
over a field, one Smith form without transforms over Z.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .injections import Injection, enumerate_injections, standard_inclusion
from .matrix import Matrix, block_diagonal, hstack
from .modules import (Invariants, ModuleMap, PresentedModule, is_isomorphism)


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


def differential(src, a: int, n: int,
                 source_slice: ShiftSlice | None = None,
                 target_slice: ShiftSlice | None = None) -> ModuleMap:
    """d: (level a) -> (level a-1) at degree n, 1 <= a <= n."""
    if not 1 <= a <= n:
        raise ValueError("differential needs 1 <= a <= n")
    s_from = source_slice or signed_shift_slice(src, a, n)
    s_to = target_slice or signed_shift_slice(src, a - 1, n)
    blocks = _cover_blocks(src, n - a)
    mat = _place_blocks(src.ring, s_to.module.ambient, s_from.module.ambient,
                        ((s_to.offset(ti), s_from.offset(si), blocks[p],
                          (u - p) % 2 == 1)
                         for si, ti, p, u in _covers(n, n - a)))
    return ModuleMap(s_from.module, s_to.module, mat)


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
    diffs = [differential(src, a, n, terms[a], terms[a - 1])
             for a in range(1, n + 1)]
    return SliceComplex(n, terms, diffs)


# ---------------------------------------------------------------------------
# homology

@dataclass
class HomologyResult:
    degree: int
    mode: str                          # "field" or "integer-free-slices"
    positions: dict[int, Invariants]


class _FreeSlices:
    """A slice source read in the free coordinates of its slices: slice m
    is the relation-free R^{r_m}, and f lifts once to coords_target @ M_f,
    whose source is the ambient module of slice f.source."""

    def __init__(self, src):
        self.ring = src.ring
        self._src = src
        self._slices: dict[int, PresentedModule] = {}
        self._lifts: dict[Injection, Matrix] = {}

    def slice_module(self, m: int) -> PresentedModule:
        if m not in self._slices:
            coords = self._src.slice_module(m).free_coordinates()
            self._slices[m] = PresentedModule(self.ring, coords.nrows)
        return self._slices[m]

    def induced_matrix(self, f: Injection) -> Matrix:
        if f not in self._lifts:
            coords = self._src.slice_module(f.target).free_coordinates()
            self._lifts[f] = coords @ self._src.induced_matrix(f)
        return self._lifts[f]


def _bare_level(src, a: int, n: int) -> ShiftSlice:
    """Level a at degree n without relations: the offsets, all a lift reads."""
    subsets, size = _level(src, a, n)
    return ShiftSlice(a, n, list(subsets), PresentedModule(src.ring, size),
                      PresentedModule(src.ring, size * len(subsets)))


def complex_homology(src, n: int, positions=None,
                     _free: _FreeSlices | None = None) -> HomologyResult:
    """Homology of the degree-n slice of the signed complex.

    Every ring takes the route of the module docstring: with L_a the
    differential in the free coordinates of the slices, lifted from the
    ambient coordinates of level a (same image), im L_a lies in a free
    module, so ker L_a is a direct summand and
    coker L_{a+1} ≅ H_a ⊕ R^{rank L_a}. H_a has the torsion of
    coker L_{a+1} and free rank r_a - rank L_a - rank L_{a+1}. Over Z the
    slices must be torsion-free. Only the levels a-1..a+1 of the requested
    positions are built, a+1 as offsets. `_free` is the lifted source to
    reuse, one per `find_N` call.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    ring = src.ring
    if positions is None:
        positions = range(0, n + 1)
    positions = sorted(set(positions))
    if any(a < 0 or a > n for a in positions):
        raise ValueError("positions must lie in 0..n")
    if not ring.is_field:
        for m in range(0, n + 1):
            if src.slice_module(m).invariants().torsion:
                raise ValueError(
                    f"slice at degree {m} has torsion over Z; integer "
                    "homology supports free slices only - run field-wise "
                    "(Q and a prime list) instead")
    free = _FreeSlices(src) if _free is None else _free
    targets = {b: _bare_level(free, b, n) for a in positions
               for b in (a - 1, a) if b >= 0}
    cokers: dict[int, Invariants] = {}   # b -> coker L_b, with L_{n+1} = 0

    def lifted(b: int) -> Matrix:
        return differential(free, b, n, _bare_level(src, b, n),
                            targets[b - 1]).matrix

    out = {}
    for a in positions:
        free_a = targets[a].module.ambient
        image = lifted(a + 1) if a < n else Matrix.zero(ring, free_a, 0)
        h = cokers[a + 1] = PresentedModule(ring, free_a, image).invariants()
        if a == 0:
            rank_in = 0
        elif a in cokers:
            rank_in = targets[a - 1].module.ambient - cokers[a].free_rank
        else:
            rank_in = lifted(a).rank()
        out[a] = Invariants(h.free_rank - rank_in, h.torsion)
    return HomologyResult(n, "field" if ring.is_field else
                          "integer-free-slices", out)


def homology_field_table(src_by_ring, n: int, positions=None) -> dict:
    """Field-wise homology dimensions: {ring name: {a: dim}}.

    `src_by_ring` maps ring names to slice sources over the corresponding
    field; used to report integer conclusions prime-by-prime when slices
    carry torsion.
    """
    table = {}
    for name, src in src_by_ring.items():
        res = complex_homology(src, n, positions)
        table[name] = {a: inv.free_rank for a, inv in res.positions.items()}
    return table


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
    g_a = homotopy_matrix(src, a, n)
    d_up = differential(src, a + 1, n + 1).matrix
    lhs = d_up @ g_a
    if a >= 1:
        d_here = differential(src, a, n).matrix
        g_below = homotopy_matrix(src, a - 1, n)
        lhs = lhs + (g_below @ d_here)
    rhs = -shift_one_matrix(src, a, n)
    return lhs == rhs


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
    free = _FreeSlices(src)
    for n in range(0, n_max + 1):
        res = complex_homology(src, n, [a for a in (0, 1) if a <= n],
                               _free=free)
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
