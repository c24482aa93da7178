"""Dimension tables, finite differences and eventually-polynomial fits.

Polynomials live in the binomial basis C(n, k) with integer coefficients,
so integrality at every nonnegative integer is structural. A fit succeeds
when some iterated finite difference vanishes on a long enough tail; the
binomial coefficients are the differences at n = 0, read off one column of
the difference table by Newton's series.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .modules import Invariants
from .rings import RingSpec


@dataclass(frozen=True)
class IntegerValuedPolynomial:
    """sum of coefficients[k] * C(n, k), all coefficients integers."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = self.coefficients
        if coeffs and coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else -1

    def value(self, n: int) -> int:
        total = 0
        binom = 1
        for k, c in enumerate(self.coefficients):
            if k:
                binom = binom * (n - k + 1) // k
            total += c * binom
        return total

    def difference(self) -> "IntegerValuedPolynomial":
        """The polynomial n -> value(n+1) - value(n): coefficients shift down."""
        return IntegerValuedPolynomial(self.coefficients[1:])

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            term = f"C(n,{k})" if k else "1"
            parts.append(f"{c}*{term}" if k else f"{c}")
        return " + ".join(parts) if parts else "0"


@dataclass
class DimensionTable:
    """Contiguous rows (n, dimension) over a field, or (n, invariants) over Z."""

    ring: RingSpec
    start: int
    values: list            # ints over a field; Invariants over Z

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("table must start at n >= 0")

    @property
    def is_field_table(self) -> bool:
        return self.ring.is_field

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def row(self, n: int):
        return self.values[n - self.start]

    def rows(self):
        return [(self.start + k, v) for k, v in enumerate(self.values)]

    def free_ranks(self) -> list[int]:
        if self.is_field_table:
            return list(self.values)
        return [inv.free_rank for inv in self.values]

    def to_csv(self) -> str:
        if self.is_field_table:
            lines = ["n,dim"]
            lines += [f"{n},{v}" for n, v in self.rows()]
        else:
            lines = ["n,free_rank,torsion"]
            for n, inv in self.rows():
                tor = ";".join(str(d) for d in inv.torsion)
                lines.append(f"{n},{inv.free_rank},{tor}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, ring: RingSpec) -> "DimensionTable":
        """Parse to_csv output: header `n,dim` over a field or
        `n,free_rank,torsion` over Z, then at least one row. Every n,
        dimension, free rank and torsion entry is ASCII decimal digits, and
        torsion entries are invariant factors: each > 1 and dividing the
        next."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        want = ["n", "dim"] if ring.is_field else ["n", "free_rank", "torsion"]
        if not lines or lines[0].split(",") != want:
            raise ValueError(f"a table over {ring.name} needs the header "
                             f"{','.join(want)}")
        if len(lines) == 1:
            raise ValueError("table has no rows")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if not 2 <= len(parts) <= len(want):
                raise ValueError(f"row {ln!r} does not match the header")
            cells = parts[:2] + (parts[2].split(";")
                                 if len(parts) > 2 and parts[2] else [])
            if not all(re.fullmatch(r"[0-9]+", c) for c in cells):
                raise ValueError(f"row {ln!r}: every entry must be ASCII "
                                 "decimal digits")
            n, rank, *tor = map(int, cells)
            if ring.is_field:
                rows.append((n, rank))
            else:
                if any(d < 2 for d in tor) or \
                        any(b % a for a, b in zip(tor, tor[1:])):
                    raise ValueError(
                        f"row {ln!r}: torsion must be invariant factors "
                        "> 1, each dividing the next")
                rows.append((n, Invariants(rank, tuple(tor))))
        rows.sort(key=lambda t: t[0])
        start = rows[0][0]
        for k, (n, _) in enumerate(rows):
            if n != start + k:
                raise ValueError("table rows are not contiguous")
        return cls(ring, start, [v for _, v in rows])


def dimension_table(p, n_start: int, n_end: int) -> DimensionTable:
    """Slice invariants of a presentation over a contiguous degree range."""
    return invariants_table(p.ring, n_start, n_end,
                            lambda n: p.slice_module(n).invariants())


def invariants_table(ring: RingSpec, n_start: int, n_end: int,
                     invariants) -> DimensionTable:
    """The table of `invariants(n)` over a contiguous degree range: free
    ranks over a field, whole Invariants over Z."""
    if n_end < n_start:
        raise ValueError("empty degree range")
    values = [invariants(n) for n in range(n_start, n_end + 1)]
    if ring.is_field:
        values = [inv.free_rank for inv in values]
    return DimensionTable(ring, n_start, values)


def finite_difference(table: DimensionTable) -> DimensionTable:
    """Row-wise discrete derivative f(n+1) - f(n); needs a field table."""
    if not table.is_field_table:
        raise ValueError(
            "finite differences of Z tables are not meaningful; "
            "difference the free-rank column explicitly if intended")
    if len(table.values) < 2:
        raise ValueError("need at least two rows to difference")
    vals = table.values
    return DimensionTable(table.ring, table.start,
                          [b - a for a, b in zip(vals, vals[1:])])


@dataclass
class FitReport:
    polynomial: IntegerValuedPolynomial | None
    onset: int | None            # least tabulated n from which values match
    tail_length: int
    status: str                  # "certified-on-window" | "inconclusive"
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified-on-window"


def fit_polynomial(table: DimensionTable, min_tail: int = 3) -> FitReport:
    """Find the least-degree binomial-basis polynomial matching a tail.

    Searches for the least D whose (D+1)-st finite difference vanishes on
    the trailing min_tail entries of its difference row, reconstructs the
    polynomial from the difference table, and reports the earliest
    tabulated onset from which every row matches.
    """
    if not table.is_field_table:
        raise ValueError("fit the free-rank column of Z tables explicitly")
    if min_tail < 1:
        raise ValueError("min_tail must be >= 1")
    vals = table.values
    if len(vals) < min_tail + 1:
        return FitReport(None, None, 0, "inconclusive",
                         f"table has {len(vals)} rows; need at least "
                         f"{min_tail + 1} for a degree-0 certificate")
    # difference rows one at a time, up to the first whose tail vanishes
    degree = None
    row = vals
    for d in range(len(vals) - 1):
        row = [b - a for a, b in zip(row, row[1:])]
        if len(row) < min_tail:
            break
        if all(x == 0 for x in row[-min_tail:]):
            degree = d
            break
    if degree is None:
        return FitReport(None, None, 0, "inconclusive",
                        "no finite difference vanishes on the window tail")
    # Newton's series at step -b reads the C(n, k) coefficients off the
    # difference column at n = b = end - degree in closed form:
    # c_k = Delta^k P(0) = sum_j C(-b, j) Delta^(k+j) P(b), with
    # C(-b, j) = (-1)^j C(b + j - 1, j). That is O(degree^2) integer work
    # however large the table's start is. The j = 0 term is Delta^k P(b)
    # itself, since math.comb refuses C(-1, 0) when b = 0. Delta^k P(b)
    # for k <= degree reads only the last degree + 1 values, so the column
    # is the first entry of each difference row of those values.
    base_idx = len(vals) - 1 - degree
    b = table.start + base_idx
    column, row = [], vals[base_idx:]
    while row:
        column.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    coeffs = [column[k] + sum((-1) ** j * math.comb(b + j - 1, j)
                              * column[k + j]
                              for j in range(1, degree - k + 1))
              for k in range(degree + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    poly = IntegerValuedPolynomial(tuple(coeffs))
    onset = None
    for n in range(table.end, table.start - 1, -1):
        if poly.value(n) != table.row(n):
            break
        onset = n
    if onset is None or table.end - onset + 1 < min_tail:
        return FitReport(None, None, 0, "inconclusive",
                        "reconstructed polynomial matches too short a tail")
    return FitReport(poly, onset, table.end - onset + 1,
                     "certified-on-window")


def tail_equal(a: DimensionTable, b: DimensionTable, window: int) -> bool:
    """Do the two tables agree on the trailing `window` common rows?"""
    if window < 1:
        raise ValueError("window must be >= 1")
    lo = max(a.start, b.start)
    hi = min(a.end, b.end)
    if hi - lo + 1 < window:
        raise ValueError(
            f"tables overlap on {max(0, hi - lo + 1)} rows; need {window}")
    for n in range(hi - window + 1, hi + 1):
        if a.row(n) != b.row(n):
            return False
    return True
