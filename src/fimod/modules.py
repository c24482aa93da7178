"""Finitely presented modules over Q, F_p, Z and maps between them.

A PresentedModule is a cokernel: an ambient free module R^r together with a
relation matrix whose column span is divided out. Maps are given by ambient
matrices. Finitely generated modules over a commutative Noetherian ring are
Hopfian: a surjection between two with equal invariants is an isomorphism.
That one rule decides, over Q, F_p and Z alike, isomorphism (a surjection
with equal invariants), containment (dividing the columns out as well leaves
the invariants unchanged), and through it well-definedness and equality.
"""
from __future__ import annotations

from dataclasses import dataclass

from .matrix import FieldReducer, Matrix, field_kernel_basis, hstack
from .rings import ZZ, RingSpec
from .smith import integer_kernel_basis, invariant_factors


@dataclass(frozen=True)
class Invariants:
    """Normal form of a finitely generated module.

    Over a field: dimension (torsion empty). Over Z: free rank plus the
    torsion invariant factors > 1, in divisibility order.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def describe(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.free_rank:
            parts.append(f"rank {self.free_rank}")
        if self.torsion:
            parts.append("torsion (" + ",".join(map(str, self.torsion)) + ")")
        return ", ".join(parts)


def direct_sum(parts) -> Invariants:
    """Invariants of a direct sum, from (copies, Invariants) pairs.

    Free ranks add up. The torsion is the Smith form of the diagonal that
    repeats each summand's factors `copies` times: for example three copies
    of Z/2 and one Z/3 give (2, 2, 6).
    """
    free, diagonal = 0, []
    for copies, inv in parts:
        free += copies * inv.free_rank
        diagonal += inv.torsion * copies
    if not diagonal:
        return Invariants(free)
    size = len(diagonal)
    facs = invariant_factors(Matrix.canonical(
        ZZ, size, size, {(k, k): d for k, d in enumerate(diagonal)}))
    return Invariants(free, tuple(d for d in facs if d != 1))


def _kernel_basis(m: Matrix) -> list[dict]:
    """Basis of {x : m @ x = 0}: a field kernel, or a saturated lattice
    basis over Z."""
    return (field_kernel_basis if m.ring.is_field else integer_kernel_basis)(m)


class PresentedModule:
    """R^ambient modulo the column span of a relation matrix."""

    def __init__(self, ring: RingSpec, ambient: int, relations: Matrix | None = None):
        self.ring = ring
        self.ambient = ambient
        if relations is None:
            relations = Matrix.zero(ring, ambient, 0)
        if relations.ring != ring or relations.nrows != ambient:
            raise ValueError("relation matrix does not match ambient module")
        self.relations = relations
        self._invariants: Invariants | None = None
        self._reducer = None
        self._free_coords = None

    def invariants(self) -> Invariants:
        if self._invariants is None:
            if self.ring.is_field:
                self._invariants = Invariants(self.ambient - self.relations.rank())
            else:
                facs = invariant_factors(self.relations)
                tors = tuple(d for d in facs if d != 1)
                self._invariants = Invariants(self.ambient - len(facs), tors)
        return self._invariants

    def dim(self) -> int:
        """Dimension over a field (raises over Z when torsion is present)."""
        inv = self.invariants()
        if inv.torsion:
            raise ValueError("module has torsion; no single dimension")
        return inv.free_rank

    def is_zero_module(self) -> bool:
        return self.invariants().is_zero

    # -- quotient coordinates -------------------------------------------
    def reducer(self) -> FieldReducer:
        if self._reducer is None:
            self._reducer = FieldReducer(self.relations)
        return self._reducer

    def free_coordinates(self) -> Matrix:
        """coords (free_rank x ambient): an isomorphism of the quotient onto
        R^free_rank. Its rows are a kernel basis of relations^T, a basis of
        the annihilator of the relations, on every ring; over a field they
        are the reducer's coordinates. Over Z the quotient must be
        torsion-free: ker coords, the saturation of the relation lattice, is
        then the lattice itself, and a kernel lattice is saturated, so
        coords is onto Z^free_rank.
        """
        if self._free_coords is None:
            if self.invariants().torsion:
                raise ValueError("quotient has torsion; no free coordinates")
            self._free_coords = Matrix.from_columns(
                self.ring, self.ambient,
                _kernel_basis(self.relations.transpose())).transpose()
        return self._free_coords

    def quotient(self, columns: list[dict]) -> "PresentedModule":
        """This module with the ambient columns divided out as well."""
        return PresentedModule(self.ring, self.ambient, hstack([
            Matrix.from_columns(self.ring, self.ambient, columns),
            self.relations]))

    def kills(self, columns: list[dict]) -> bool:
        """Do the ambient columns lie in the relation span? This module
        surjects onto its quotient by them, so (Hopfian) exactly when that
        quotient has the same invariants."""
        return not any(columns) or \
            self.quotient(columns).invariants() == self.invariants()

    def contains(self, column: dict) -> bool:
        """Is the ambient vector zero in the quotient (inside the relations)?"""
        return self.kills([column])

    def __repr__(self):
        return (f"PresentedModule({self.ring}, ambient={self.ambient}, "
                f"relations={self.relations.ncols})")


def cokernel_invariants(pm: PresentedModule) -> Invariants:
    """Normal form of the cokernel: dimension / free rank plus torsion."""
    return pm.invariants()


class ModuleMap:
    """A map of presented modules given by an ambient matrix."""

    def __init__(self, source: PresentedModule, target: PresentedModule,
                 matrix: Matrix):
        if source.ring != target.ring:
            raise ValueError("ring mismatch between source and target")
        if matrix.nrows != target.ambient or matrix.ncols != source.ambient:
            raise ValueError("ambient matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix

    @property
    def ring(self) -> RingSpec:
        return self.source.ring

    def is_well_defined(self) -> bool:
        """Do the mapped source relations land in the target relation span?"""
        return self.target.kills(
            (self.matrix @ self.source.relations).columns())

    def is_surjective(self) -> bool:
        stacked = PresentedModule(self.ring, self.target.ambient,
                                  hstack([self.matrix, self.target.relations]))
        return stacked.is_zero_module()

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other (self . other)."""
        if other.target is not self.source and \
                other.target.ambient != self.source.ambient:
            raise ValueError("maps are not composable")
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def is_isomorphism(f: ModuleMap) -> tuple[bool, dict]:
    """Surjectivity plus equal invariants, with a certificate.

    Over a Noetherian ring a surjection between finitely generated modules
    with equal invariants is an isomorphism, so no presentation-level kernel
    is ever computed.
    """
    src = f.source.invariants()
    tgt = f.target.invariants()
    surj = f.is_surjective()
    ok = surj and src == tgt
    cert = {
        "surjective": surj,
        "source_invariants": src,
        "target_invariants": tgt,
        "equal_invariants": src == tgt,
    }
    return ok, cert


def identity_map(pm: PresentedModule) -> ModuleMap:
    return ModuleMap(pm, pm, Matrix.identity(pm.ring, pm.ambient))


def kernel_subspace_generators(f: ModuleMap) -> list[dict]:
    """Ambient generators of ker(f) as a submodule of the source quotient.

    Returns columns x with f(x) = 0 in the target quotient; together with
    the source relations they span the kernel's preimage in the ambient
    module.
    """
    n = f.source.ambient
    gens = []
    for col in _kernel_basis(hstack([f.matrix, f.target.relations])):
        x = {i: v for i, v in col.items() if i < n}
        if x:
            gens.append(x)
    return gens


class SubmoduleOfQuotient:
    """A submodule S of a presented quotient M, spanned by ambient columns,
    read through `quotient` = M/S, whose invariants are computed once."""

    def __init__(self, module: PresentedModule, generators: list[dict]):
        self.module = module
        self.generators = generators
        self.quotient = module.quotient(generators)

    def invariants(self) -> Invariants:
        """Invariants of S. If M has no torsion neither has S, and free ranks
        subtract along 0 -> S -> M -> M/S -> 0; otherwise S is presented on
        its k generators, as R^k modulo the kernel of R^k -> M."""
        inv = self.module.invariants()
        if not inv.torsion:
            return Invariants(inv.free_rank -
                              self.quotient.invariants().free_rank)
        ring, k = self.module.ring, len(self.generators)
        gens = Matrix.from_columns(ring, self.module.ambient, self.generators)
        kernel = kernel_subspace_generators(
            ModuleMap(PresentedModule(ring, k), self.module, gens))
        return PresentedModule(ring, k, Matrix.from_columns(ring, k, kernel)) \
            .invariants()

    def same_span_as(self, other: "SubmoduleOfQuotient") -> bool:
        """Equality as submodules A, B of one M: `kills` says B lies in A,
        and then M/B surjects onto M/A, an isomorphism if invariants agree."""
        return self.quotient.invariants() == other.quotient.invariants() \
            and self.quotient.kills(other.generators)
