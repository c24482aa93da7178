"""Multigraded diagonal coinvariant algebras at desk scale.

For r groups of n variables and a multidegree J, the degree-J slice of the
coinvariant algebra is the monomial span modulo the ideal slice generated
by symmetric-group invariants of positive multidegree times complementary
monomials. S_n permutes the monomials of each multidegree, and the
invariants of a permutation module have the orbit sums as a basis over
every ring. So the invariants are read off the orbits, with no linear
algebra and no averaging, and every characteristic is handled uniformly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .injections import Injection
from .matrix import FieldReducer, Matrix
from .modules import PresentedModule
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
    rows_per_group = [list(compositions(j, n)) for j in spec.J]
    return [tuple(choice) for choice in iter_product(*rows_per_group)]


def invariant_basis(spec: MultiIndex, n: int, ring: RingSpec):
    """Basis (column dicts over the monomial list) of the invariant subspace:
    the orbit sums, sorted by their largest monomial index.

    Permuting the variables permutes the columns of an exponent matrix, so
    two monomials share an orbit exactly when their columns agree as a
    multiset.
    """
    if not ring.is_field:
        raise ValueError("coinvariant computations are field-only")
    monos = monomials(spec, n)
    orbits: dict = {}
    for k, mono in enumerate(monos):
        orbits.setdefault(tuple(sorted(zip(*mono))), []).append(k)
    basis = sorted(orbits.values(), key=lambda orbit: orbit[-1])
    return monos, [{k: ring.one for k in orbit} for orbit in basis]


def _positive_subdegrees(J: tuple[int, ...]):
    for jp in iter_product(*[range(j + 1) for j in J]):
        if any(jp):
            yield jp


def ideal_matrix(spec: MultiIndex, n: int, ring: RingSpec) -> Matrix:
    """Columns spanning the degree-J ideal slice inside the monomial span.

    For every positive subdegree J', multiply each invariant of degree J'
    by every monomial of degree J - J'.
    """
    monos = monomials(spec, n)
    index = {m: k for k, m in enumerate(monos)}
    cols = []
    for jp in _positive_subdegrees(spec.J):
        sub = MultiIndex(spec.r, tuple(jp))
        sub_monos, inv = invariant_basis(sub, n, ring)
        if not inv:
            continue
        rest = MultiIndex(spec.r,
                          tuple(j - p for j, p in zip(spec.J, jp)))
        for factor in monomials(rest, n):
            for vec in inv:
                col = {}
                for k, coeff in vec.items():
                    prod = tuple(
                        tuple(a + b for a, b in zip(row_s, row_f))
                        for row_s, row_f in zip(sub_monos[k], factor))
                    col[index[prod]] = coeff
                cols.append(col)
    if not cols:
        return Matrix.zero(ring, len(monos), 0)
    return Matrix.from_columns(ring, len(monos), cols)


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
    if n < 0:
        raise ValueError("n must be >= 0")
    monos = monomials(spec, n)
    if n == 0 or not monos:
        return CoinvariantRow(n, len(monos), 0)
    ideal = ideal_matrix(spec, n, ring)
    return CoinvariantRow(n, len(monos), ideal.rank())


def coinvariant_module(spec: MultiIndex, n: int, ring: RingSpec) -> PresentedModule:
    """The coinvariant slice as a presented module over the monomial basis."""
    monos = monomials(spec, n)
    ideal = ideal_matrix(spec, n, ring) if monos else Matrix.zero(ring, 0, 0)
    return PresentedModule(ring, len(monos), ideal)


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
    red_n = FieldReducer(ideal_matrix(spec, n, ring)
                         if monos_n and n > 0 else Matrix.zero(ring, len(monos_n), 0))
    red_m = FieldReducer(ideal_matrix(spec, m, ring)
                         if monos_m and m > 0 else Matrix.zero(ring, len(monos_m), 0))
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
                      ring: RingSpec):
    """DimensionTable of dim R over a contiguous range of n."""
    from .dimensions import DimensionTable
    if n_end < n_start:
        raise ValueError("empty range")
    values = [coinvariant_dim(spec, n, ring).dim
              for n in range(n_start, n_end + 1)]
    return DimensionTable(ring, n_start, values)
