"""A desk-scale witness FI-module from plane configuration spaces.

The degree-m cohomology of the ordered configuration space of the plane is
presented by classes indexed by edges of the complete graph: products of m
distinct edge classes, anticommuting, squaring to zero, subject to the
three-term relations on triangles wedged with arbitrary complementary edge
sets. Slices are quotients of the free module on m-edge-sets; injections
relabel edges with the sign of re-sorting.

The same module can be emitted as a finitely presented FI-module document:
one generator per full-support edge-set, adjacent-transposition relabeling
identifications, and the canonical triangle relations.

No builder here merges terms. The surviving terms of a triangle relation
each miss a different triangle edge, so they land on distinct edge-sets;
relabeling along an injection is injective on edge-sets; and a relabeling
identification pairs a generator moved by a transposition, never the
identity, with an unmoved one. The slice relations and induced matrices
therefore write the ring's own +-1 through `Matrix.canonical`, and the
presentation's relations list each term once.

Slices split by vertex support, so tables need only a few small ranks.
Every term of the triangle relation on (i, j, k) wedged with `extra` lives
on the same vertex set, {i, j, k} together with the vertices of `extra`;
the relation matrix of slice n is block diagonal over the supports
S of [n]. Relabeling along the order-preserving bijection [s] -> S, s = |S|,
keeps the lexicographic order of edges and so every `_sort_sign` sign: it
carries the full-support summand B_s of slice s (edge-sets touching all of
[s], and their relations) onto the block of S. Slice n is therefore the
direct sum of C(n, s) copies of B_s over s <= n, and B_s = 0 for s > 2m,
since m edges touch at most 2m vertices (the FI#-decomposition of
Church-Ellenberg-Farb). `slice_invariants` reads each B_s off
`slice_module(s)` and adds up the copies.
"""
from __future__ import annotations

import math
from itertools import combinations

from .injections import Injection, identity_injection
from .matrix import Matrix
from .modules import Invariants, ModuleMap, PresentedModule, direct_sum
from .presentations import FIPresentation, FreeElement
from .rings import RingSpec


def edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def edge_sets(m: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    return [tuple(s) for s in combinations(edges(n), m)]


def _sort_sign(seq: list[tuple[int, int]]) -> tuple[tuple[tuple[int, int], ...], int]:
    """Sort an edge list, returning (sorted tuple, permutation sign);
    duplicates make the product zero, signalled by sign 0."""
    if len(set(seq)) != len(seq):
        return tuple(seq), 0
    sign = 1
    lst = list(seq)
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return tuple(lst), sign


def _triangle_relation(i: int, j: int, k: int, extra) -> dict:
    """e_ij e_jk + e_jk e_ik + e_ik e_ij wedged with the edges `extra`, as
    {sorted edge-set: +-1}. A term vanishes when `extra` holds one of its
    edges; the surviving terms each miss a different triangle edge, so no
    two of them share an edge-set."""
    e_ij, e_jk, e_ik = (i, j), (j, k), (i, k)
    rel = {}
    for e1, e2 in ((e_ij, e_jk), (e_jk, e_ik), (e_ik, e_ij)):
        es, sign = _sort_sign([e1, e2, *extra])
        if sign:
            rel[es] = sign
    return rel


class ArnoldModule:
    """Slice source for the degree-m witness over a chosen ring."""

    def __init__(self, m: int, ring: RingSpec):
        if m < 0:
            raise ValueError("cohomological degree must be >= 0")
        self.m = m
        self.ring = ring
        self._slices: dict[int, PresentedModule] = {}
        self._bases: dict[int, dict] = {}
        self._summands: dict[int, Invariants] = {}
        self._signs = {1: ring.one, -1: ring.coerce(-1)}

    def slice_basis(self, n: int) -> list[tuple[tuple[int, int], ...]]:
        return edge_sets(self.m, n)

    def _basis_index(self, n: int) -> dict:
        if n not in self._bases:
            self._bases[n] = {es: k for k, es in enumerate(self.slice_basis(n))}
        return self._bases[n]

    def slice_module(self, n: int) -> PresentedModule:
        if n in self._slices:
            return self._slices[n]
        index = self._basis_index(n)
        ent = {}
        ncols = 0
        if self.m >= 2:
            all_edges = edges(n)
            for (i, j, k) in combinations(range(1, n + 1), 3):
                for extra in combinations(all_edges, self.m - 2):
                    rel = _triangle_relation(i, j, k, extra)
                    if rel:
                        for es, sign in rel.items():
                            ent[(index[es], ncols)] = self._signs[sign]
                        ncols += 1
        relmat = Matrix.canonical(self.ring, len(index), ncols, ent)
        sm = PresentedModule(self.ring, len(index), relmat)
        self._slices[n] = sm
        return sm

    def slice_invariants(self, n: int) -> Invariants:
        """Invariants of slice n: C(n, s) copies of each full-support
        summand B_s, s <= min(n, 2m)."""
        if n < 0:
            raise ValueError("degree must be >= 0")
        return direct_sum((math.comb(n, s), self._summand_invariants(s))
                          for s in range(min(n, 2 * self.m) + 1))

    def _summand_invariants(self, s: int) -> Invariants:
        """Invariants of B_s: the rows of slice s whose edge-sets touch all
        of [s], and the relation columns on them."""
        if s not in self._summands:
            full = tuple(range(1, s + 1))
            rows = {}
            for es, k in self._basis_index(s).items():
                if _support(es) == full:
                    rows[k] = len(rows)
            cols: dict[int, int] = {}
            ent = {}
            # a relation's terms share one support, so each column lies
            # wholly inside B_s or wholly outside it
            for (i, j), v in self.slice_module(s).relations.entries.items():
                if i in rows:
                    ent[(rows[i], cols.setdefault(j, len(cols)))] = v
            relmat = Matrix.canonical(self.ring, len(rows), len(cols), ent)
            self._summands[s] = PresentedModule(
                self.ring, len(rows), relmat).invariants()
        return self._summands[s]

    def induced_matrix(self, f: Injection) -> Matrix:
        """Relabel every edge-set along f, with the re-sorting sign."""
        src_basis = self.slice_basis(f.source)
        tgt_index = self._basis_index(f.target)
        ent = {}
        for col, es in enumerate(src_basis):
            relabeled = [tuple(sorted((f(u), f(v)))) for (u, v) in es]
            sorted_es, sign = _sort_sign(relabeled)
            ent[(tgt_index[sorted_es], col)] = self._signs[sign]
        return Matrix.canonical(self.ring, len(tgt_index), len(src_basis),
                                ent)

    def induced_map(self, f: Injection) -> ModuleMap:
        return ModuleMap(self.slice_module(f.source),
                         self.slice_module(f.target),
                         self.induced_matrix(f))

    def __repr__(self):
        return f"ArnoldModule(m={self.m}, ring={self.ring})"


def arnold_slice(m: int, n: int, ring: RingSpec) -> PresentedModule:
    return ArnoldModule(m, ring).slice_module(n)


def arnold_induced_map(m: int, f: Injection, ring: RingSpec) -> ModuleMap:
    return ArnoldModule(m, ring).induced_map(f)


def _support(es) -> tuple[int, ...]:
    verts = set()
    for (u, v) in es:
        verts.add(u)
        verts.add(v)
    return tuple(sorted(verts))


def arnold_presentation(m: int, ring: RingSpec) -> FIPresentation:
    """The witness as a finitely presented FI-module.

    Generators: one per m-edge-set with full vertex support [s], s <= 2m.
    Relations: adjacent-transposition relabeling identifications (these
    generate all of them under pushforward) and the full-support triangle
    relations.
    """
    gens: list[tuple[int, tuple]] = []           # (degree s, edge-set)
    for s in range(0, 2 * m + 1):
        for es in edge_sets(m, s):
            if _support(es) == tuple(range(1, s + 1)):
                gens.append((s, es))
    gen_index = {es: gi for gi, (s, es) in enumerate(gens)}
    degrees = [s for s, _ in gens]
    relations: list[FreeElement] = []
    # relabeling identifications sigma_*(es) - sign * es', sigma != id
    for gi, (s, es) in enumerate(gens):
        for t in range(1, s):
            images = list(range(1, s + 1))
            images[t - 1], images[t] = images[t], images[t - 1]
            sigma = Injection(s, s, tuple(images))
            relabeled = [tuple(sorted((sigma(u), sigma(v)))) for (u, v) in es]
            sorted_es, sign = _sort_sign(relabeled)
            relations.append(FreeElement(s, {
                (gi, sigma): 1,
                (gen_index[sorted_es], identity_injection(s)): -sign}))
    # triangle relations on full support
    if m >= 2:
        for s in range(3, 2 * m + 1):
            all_edges, ident = edges(s), identity_injection(s)
            for (i, j, k) in combinations(range(1, s + 1), 3):
                for extra in combinations(all_edges, m - 2):
                    # full support: the triangle and `extra` touch all of [s]
                    if _support(((i, j), (j, k), *extra)) != ident.images:
                        continue
                    rel = _triangle_relation(i, j, k, extra)
                    if rel:
                        relations.append(FreeElement(s, {
                            (gen_index[es], ident): sign
                            for es, sign in rel.items()}))
    return FIPresentation(ring, degrees, relations)


def admissible_edge_sets(m: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    """Edge-sets whose larger endpoints are pairwise distinct.

    Writing each class with its edges sorted by larger endpoint, these are
    the classical monomial basis of the degree-m slice; counting them is an
    independent oracle for the quotient dimension.
    """
    return [es for es in edge_sets(m, n)
            if len({max(u, v) for (u, v) in es}) == m]
