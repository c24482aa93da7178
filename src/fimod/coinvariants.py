"""Multigraded diagonal coinvariant algebras at desk scale.

For r groups of n variables and a multidegree J, the degree-J slice of the
coinvariant algebra is the monomial span modulo the ideal slice generated
by symmetric-group invariants of positive multidegree times complementary
monomials. S_n permutes the monomials of each multidegree, and the
invariants of a permutation module have the orbit sums as a basis over
every ring. So the invariants are read off the orbits, with no linear
algebra and no averaging, and every characteristic is handled uniformly.

The ideal slice is built on packed monomials: an exponent matrix e is the
integer sum of e[g][i] * B**(g*n + i) with B = total + 1. No exponent of a
degree-J monomial reaches B, so codes never carry and a product's code is
the sum of its factors' codes. Every entry of the ideal matrix is 1, so its
sparsity pattern does not depend on the ring: it is computed once per
(multidegree, n) in a small per-process memo and shared by Q and every F_p.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

from .dimensions import DimensionTable, invariants_table
from .injections import Injection
from .matrix import FieldReducer, Matrix
from .modules import Invariants, PresentedModule
from .rings import RingSpec


@dataclass(frozen=True)
class MultiIndex:
    """r variable groups with multidegree J = (j_1, ..., j_r)."""

    r: int
    J: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need r >= 1 variable groups")
        if len(self.J) != self.r or any(j < 0 for j in self.J):
            raise ValueError("J must be r nonnegative integers")

    @property
    def total(self) -> int:
        return sum(self.J)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials(spec: MultiIndex, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Exponent matrices (r rows, n columns) with row sums J, lex order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rows_per_group = [list(compositions(j, n)) for j in spec.J]
    return [tuple(choice) for choice in iter_product(*rows_per_group)]


def _orbits(monos) -> list[list[int]]:
    """Indices of `monos` grouped into S_n orbits, sorted by their largest
    index.

    Permuting the variables permutes the columns of an exponent matrix, so
    two monomials share an orbit exactly when their columns agree as a
    multiset.
    """
    orbits: dict = {}
    for k, mono in enumerate(monos):
        orbits.setdefault(tuple(sorted(zip(*mono))), []).append(k)
    return sorted(orbits.values(), key=lambda orbit: orbit[-1])


def invariant_basis(spec: MultiIndex, n: int, ring: RingSpec):
    """Basis (column dicts over the monomial list) of the invariant subspace:
    the orbit sums, sorted by their largest monomial index."""
    if not ring.is_field:
        raise ValueError("coinvariant computations are field-only")
    monos = monomials(spec, n)
    return monos, [{k: ring.one for k in orbit} for orbit in _orbits(monos)]


def _positive_subdegrees(J: tuple[int, ...]):
    for jp in iter_product(*[range(j + 1) for j in J]):
        if any(jp):
            yield jp


def _codes(spec: MultiIndex, n: int, base: int) -> list[int]:
    """Packed codes of `monomials(spec, n)`, in the same order: exponent
    e[g][i] is the digit of base**(g*n + i)."""
    per_group = [[sum(e * base ** (g * n + i) for i, e in enumerate(row))
                  for row in compositions(j, n)]
                 for g, j in enumerate(spec.J)]
    return [sum(choice) for choice in iter_product(*per_group)]


@lru_cache(maxsize=32)
def _ideal_pattern(spec: MultiIndex, n: int):
    """(rows, columns, (row, col) keys) of the degree-J ideal slice.

    For every positive subdegree J', each orbit of degree J' times each
    monomial of degree J - J' is one column, ordered by J', then factor,
    then orbit; products are looked up by packed code.
    """
    base = spec.total + 1
    index = {c: k for k, c in enumerate(_codes(spec, n, base))}
    keys = []
    ncols = 0
    for jp in _positive_subdegrees(spec.J):
        sub = MultiIndex(spec.r, jp)
        sub_codes = _codes(sub, n, base)
        orbits = [[sub_codes[k] for k in orbit]
                  for orbit in _orbits(monomials(sub, n))]
        rest = MultiIndex(spec.r, tuple(j - p for j, p in zip(spec.J, jp)))
        for factor in _codes(rest, n, base):
            for orbit in orbits:
                keys.extend((index[c + factor], ncols) for c in orbit)
                ncols += 1
    return len(index), ncols, tuple(keys)


def ideal_matrix(spec: MultiIndex, n: int, ring: RingSpec) -> Matrix:
    """Columns spanning the degree-J ideal slice inside the monomial span:
    every invariant of a positive degree J' times every monomial of degree
    J - J'. Every entry is 1, so the pattern is shared by all rings; an
    orbit times a monomial has distinct products, so no entry merges."""
    if not ring.is_field:
        raise ValueError("coinvariant computations are field-only")
    if n < 0:
        raise ValueError("n must be >= 0")
    nrows, ncols, keys = _ideal_pattern(spec, n)
    return Matrix.canonical(ring, nrows, ncols, dict.fromkeys(keys, ring.one))


@dataclass
class CoinvariantRow:
    n: int
    poly_dim: int
    ideal_rank: int

    @property
    def dim(self) -> int:
        return self.poly_dim - self.ideal_rank


def coinvariant_dim(spec: MultiIndex, n: int, ring: RingSpec) -> CoinvariantRow:
    """One row of dimension data for the degree-J coinvariant slice."""
    if not ring.is_field:
        raise ValueError("coinvariant computations are field-only; "
                         "run over Q and a list of primes for Z conclusions")
    ideal = ideal_matrix(spec, n, ring)
    return CoinvariantRow(n, ideal.nrows, ideal.rank())


def coinvariant_module(spec: MultiIndex, n: int, ring: RingSpec) -> PresentedModule:
    """The coinvariant slice as a presented module over the monomial basis."""
    ideal = ideal_matrix(spec, n, ring)
    return PresentedModule(ring, ideal.nrows, ideal)


def _pullback_monomial(mono, f: Injection):
    """f^* on a monomial over [f.target]: zero unless every used variable
    is hit, in which case the exponents transport along the preimage."""
    m = f.source
    out = []
    image_pos = {v: s for s, v in enumerate(f.images)}
    for row in mono:
        new = [0] * m
        for t, e in enumerate(row, start=1):
            if e == 0:
                continue
            s = image_pos.get(t)
            if s is None:
                return None
            new[s] = e
        out.append(tuple(new))
    return tuple(out)


def coinvariant_dual_map(spec: MultiIndex, f: Injection, ring: RingSpec) -> Matrix:
    """Matrix of the dual of the pullback, from R(m)^dual to R(n)^dual.

    Bases are the non-pivot monomials of each quotient in monomial order.
    The returned matrix has dim R(n) rows and dim R(m) columns.
    """
    if not ring.is_field:
        raise ValueError("coinvariant computations are field-only")
    m, n = f.source, f.target
    monos_n = monomials(spec, n)
    monos_m = monomials(spec, m)
    red_n = FieldReducer(ideal_matrix(spec, n, ring))
    red_m = FieldReducer(ideal_matrix(spec, m, ring))
    index_m = {mono: k for k, mono in enumerate(monos_m)}
    ent = {}
    for col, amb in enumerate(red_n.free):
        pulled = _pullback_monomial(monos_n[amb], f)
        if pulled is None:
            continue
        coords = red_m.coordinates({index_m[pulled]: ring.one})
        for row, v in coords.items():
            ent[(col, row)] = v          # transpose as we go
    return Matrix(ring, red_n.quotient_dim, red_m.quotient_dim, ent)


def coinvariant_table(spec: MultiIndex, n_start: int, n_end: int,
                      ring: RingSpec) -> DimensionTable:
    """DimensionTable of dim R over a contiguous range of n."""
    return invariants_table(ring, n_start, n_end, lambda n: Invariants(
        coinvariant_dim(spec, n, ring).dim))
