"""Functors on finitely presented FI-modules.

Positive shifts with their explicit free-summand decomposition, the
canonical maps into shifts, the degree-zero homology quotient and
generation-degree scan, slicewise torsion kernels, the discrete derivative,
and the saturation chain used to certify finite generation of submodules of
a free module.

Conventions: the a new points added by a shift are relabeled n+1, ..., n+a
when a degree-n slice is identified with a degree-(n+a) slice, and the
shifted free module decomposes along pairs (T, h) where T is the subset of
a generator's domain sent to the new points and h the injection recording
where; the complement of T is re-indexed order-preservingly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .injections import (Injection, count_injections, enumerate_injections,
                         identity_injection, standard_inclusion)
from .matrix import Matrix
from .modules import (Invariants, ModuleMap, PresentedModule,
                      SubmoduleOfQuotient, kernel_subspace_generators)
from .presentations import FIPresentation, FreeElement
from .rings import RingSpec


# ---------------------------------------------------------------------------
# shift decomposition

@dataclass(frozen=True)
class ShiftLabel:
    """One free summand of a shifted generator: (original gen, T, h).

    T is a sorted tuple of positions in the generator's domain that map to
    the added points; h records their targets as positive labels 1..a
    standing for the added points in order. The summand is free of degree
    d - |T|.
    """

    gen: int
    subset: tuple[int, ...]
    targets: tuple[int, ...]


@dataclass(frozen=True)
class ShiftDecomposition:
    amount: int
    presentation: FIPresentation
    labels: tuple[ShiftLabel, ...]
    original: FIPresentation


def _splits(d: int, a: int):
    """Every (T, h): a subset T of [d] and an injection h of T into the a
    added points, given as its targets in the order of T."""
    for size in range(0, min(d, a) + 1):
        for subset in combinations(range(1, d + 1), size):
            for targets in permutations(range(1, a + 1), size):
                yield subset, targets


def _shift_labels(p: FIPresentation, a: int) -> list[ShiftLabel]:
    return [ShiftLabel(i, subset, targets)
            for i, d in enumerate(p.generator_degrees)
            for subset, targets in _splits(d, a)]


def _decompose_shift_injection(images: tuple[int, ...], base: int):
    """Split u: [d] -> [base]⊔[added] into (T, h, rest) coordinates.

    Values above `base` are the added points. Returns the subset T of
    positions hitting them, their targets (value - base), and the injection
    of the remaining positions into [base], re-indexed in order.
    """
    subset = tuple(k + 1 for k, v in enumerate(images) if v > base)
    targets = tuple(images[k - 1] - base for k in subset)
    # values in position order of [d] - T: the order-preserving re-indexing
    rest = tuple(v for v in images if v <= base)
    return subset, targets, rest


def _join(d: int, subset, targets, base: int, rest) -> tuple[int, ...]:
    """The inverse of `_decompose_shift_injection`: images of [d] sending
    T to base + h and the other positions, in order, through `rest`."""
    tmap = dict(zip(subset, targets))
    others = iter(rest)
    return tuple(base + tmap[k] if k in tmap else next(others)
                 for k in range(1, d + 1))


def shift_decomposition(p: FIPresentation, a: int) -> ShiftDecomposition:
    """Presentation of the positive shift by a, with its summand labels."""
    if a < 0:
        raise ValueError("shift amount must be >= 0")
    labels = _shift_labels(p, a)
    label_pos = {lab: k for k, lab in enumerate(labels)}
    gen_degrees = [p.generator_degrees[lab.gen] - len(lab.subset)
                   for lab in labels]
    relations = []
    for rel in p.relations:
        e = rel.degree
        for subset, targets in _splits(e, a):
            m = e - len(subset)
            # u: [e] -> [m]⊔[added points], the canonical generator of this
            # source summand
            u = Injection(e, m + a,
                          _join(e, subset, targets, m, range(1, m + 1)))
            # (gen, g) -> (label, rest) is injective because u is, so the
            # terms stay distinct and nonzero
            terms: dict = {}
            for (gen, g), coeff in rel.terms.items():
                t_sub, t_tar, t_rest = _decompose_shift_injection(
                    u.after(g).images, m)
                lab = ShiftLabel(gen, t_sub, t_tar)
                d_rest = p.generator_degrees[gen] - len(t_sub)
                terms[(label_pos[lab], Injection(d_rest, m, t_rest))] = coeff
            if terms:
                relations.append(FreeElement(m, terms))
    shifted = FIPresentation(p.ring, gen_degrees, relations)
    return ShiftDecomposition(a, shifted, tuple(labels), p)


def shift_presentation(p: FIPresentation, a: int) -> FIPresentation:
    return shift_decomposition(p, a).presentation


def shift_identification(dec: ShiftDecomposition, n: int) -> ModuleMap:
    """The slice isomorphism (shifted presentation at n) -> (original at n+a).

    Basis bijection: a summand basis element (label, g) corresponds to the
    original generator's injection into [n+a] sending the label's subset to
    the relabeled added points n+1, ..., n+a and the rest through g.
    """
    p, a = dec.original, dec.amount
    src = dec.presentation.evaluate_slice(n)
    tgt = p.evaluate_slice(n + a)
    ent = {}
    for k, (li, g) in enumerate(src.basis):
        lab = dec.labels[li]
        images = _join(p.generator_degrees[lab.gen], lab.subset, lab.targets,
                       n, g.images)
        ent[(tgt.index[(lab.gen, images)], k)] = p.ring.one
    mat = Matrix(p.ring, tgt.ambient, src.ambient, ent)
    return ModuleMap(src.module, tgt.module, mat)


def q_summand_rank(dec: ShiftDecomposition, n: int) -> int:
    """Ambient rank at degree n of the complement Q of the original module.

    Reads the labels with nonempty subset: those summands assemble the free
    complement in (shifted) = (original) ⊕ Q.
    """
    p = dec.original
    total = 0
    for lab in dec.labels:
        if lab.subset:
            total += count_injections(
                p.generator_degrees[lab.gen] - len(lab.subset), n)
    return total


# ---------------------------------------------------------------------------
# canonical maps into shifts

def x_map(p: FIPresentation, a: int, n: int) -> ModuleMap:
    """The canonical map V_n -> V_{n+a} induced by the standard inclusion."""
    if a < 0:
        raise ValueError("shift amount must be >= 0")
    return p.induced_map(standard_inclusion(n, n + a))


def x_map_decomposed(p: FIPresentation, a: int, n: int,
                     dec: ShiftDecomposition | None = None) -> ModuleMap:
    """V_n -> (shifted presentation)_n, the x_map read through the
    identification of the shifted slice with V_{n+a}."""
    dec = dec if dec is not None else shift_decomposition(p, a)
    ident = shift_identification(dec, n)
    xm = x_map(p, a, n)
    # ident is a basis bijection, so its transpose is its inverse
    return ModuleMap(xm.source, ident.source,
                     ident.matrix.transpose() @ xm.matrix)


def pi_projection(d: int, a: int, n: int, ring: RingSpec,
                  dec: ShiftDecomposition | None = None) -> ModuleMap:
    """(shifted M(d))_n -> M(d)_n: kill every summand that touches the
    added points, keep the T = ∅ summand identically."""
    p = FIPresentation(ring, [d])
    dec = dec if dec is not None else shift_decomposition(p, a)
    src = dec.presentation.evaluate_slice(n)
    tgt = p.evaluate_slice(n)
    empty = ShiftLabel(0, (), ())
    ent = {}
    for k, (li, g) in enumerate(src.basis):
        if dec.labels[li] == empty:
            ent[(tgt.index[(0, g.images)], k)] = ring.one
    mat = Matrix(ring, tgt.ambient, src.ambient, ent)
    return ModuleMap(src.module, tgt.module, mat)


# ---------------------------------------------------------------------------
# H0 and generation degree

def h0_slice(p: FIPresentation, n: int) -> PresentedModule:
    """V_n modulo the images of every inclusion from a codimension-1 subset.

    Killing the codimension-1 images kills all lower images (any inclusion
    factors through one of codimension 1), so this is the degree-n slice of
    the largest quotient on which maps from smaller sets vanish.
    """
    sm = p.evaluate_slice(n)
    ring = p.ring
    extra = []
    for k, (gen, g) in enumerate(sm.basis):
        if len(g.images) < n:
            extra.append({k: ring.one})
    cols = sm.module.relations.columns() + extra
    return PresentedModule(ring, sm.ambient,
                           Matrix.from_columns(ring, sm.ambient, cols))


@dataclass
class GenerationReport:
    degree: int | None            # largest n <= n_max with nonzero H0
    n_max: int
    h0_invariants: list[Invariants]
    status: str = "certified-up-to-bound"


def generation_degree(p: FIPresentation, n_max: int) -> GenerationReport:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    invs = [h0_slice(p, n).invariants() for n in range(n_max + 1)]
    degree = None
    for n, inv in enumerate(invs):
        if not inv.is_zero:
            degree = n
    return GenerationReport(degree, n_max, invs)


# ---------------------------------------------------------------------------
# torsion

@dataclass
class TorsionReport:
    degree: int
    a_max: int
    kernels: list[SubmoduleOfQuotient]
    invariants: list[Invariants]
    ascending: bool
    stabilized: bool

    def final_invariants(self) -> Invariants:
        return self.invariants[-1]


def _ascending(spans: list[SubmoduleOfQuotient]) -> bool:
    """Does each span lie in the next? Stops at the first pair that fails."""
    return all(nxt.quotient.kills(prev.generators)
               for prev, nxt in zip(spans, spans[1:]))


def torsion_slice(p: FIPresentation, n: int, a_max: int) -> TorsionReport:
    """Kernels of the canonical maps V_n -> V_{n+a} for a = 1..a_max.

    The union over all a is the degree-n torsion; the report only asserts
    the union-so-far, flagged stabilized when the last three kernels agree
    as submodules of V_n.
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    sm = p.evaluate_slice(n)
    kernels = []
    invariants = []
    for a in range(1, a_max + 1):
        gens = kernel_subspace_generators(x_map(p, a, n))
        sub = SubmoduleOfQuotient(sm.module, gens)
        kernels.append(sub)
        invariants.append(sub.invariants())
    ascending = _ascending(kernels)
    stabilized = len(kernels) >= 3 and \
        kernels[-1].same_span_as(kernels[-2]) and \
        kernels[-2].same_span_as(kernels[-3])
    return TorsionReport(n, a_max, kernels, invariants, ascending, stabilized)


# ---------------------------------------------------------------------------
# derivative

def derivative(p: FIPresentation) -> FIPresentation:
    """Presentation of the cokernel of the canonical map into the 1-shift.

    Generators are those of the shifted presentation; relations are its
    relations plus, for each original generator, the image of that
    generator under the canonical map, which is the identity injection in
    the (gen, T = ∅) summand.
    """
    dec = shift_decomposition(p, 1)
    extra = []
    for i, d in enumerate(p.generator_degrees):
        lab = ShiftLabel(i, (), ())
        li = dec.labels.index(lab)
        extra.append(FreeElement(
            d, {(li, identity_injection(d)): p.ring.one}))
    return FIPresentation(p.ring, dec.presentation.generator_degrees,
                          list(dec.presentation.relations) + extra)


# ---------------------------------------------------------------------------
# saturation

@dataclass
class SaturationStage:
    amount: int
    span: SubmoduleOfQuotient
    invariants: Invariants


@dataclass
class SaturationReport:
    generator_degree: int           # the d of the ambient free module M(d)
    a_max: int
    slack: int
    stages: list[SaturationStage]
    ascending: bool
    stabilization: int | None       # least N with W^N = W^(N+j), j <= slack
    warnings: list[str] = field(default_factory=list)


def saturate(d: int, generators: list[FreeElement], a_max: int,
             slack: int, ring: RingSpec) -> SaturationReport:
    """The chain of degree-d snapshots of the projected shifted submodule.

    For each a, the stage spans pi(f_*(w)) over all generators w of the
    submodule and all injections of their degrees into [d]⊔[a new points]:
    the surviving terms are the bijections of [d], giving a submodule of
    the d! dimensional degree-d slice of the ambient free module.
    """
    if a_max < 0:
        raise ValueError("a_max must be >= 0")
    if slack < 1:
        raise ValueError("slack must be >= 1")
    ambient = FIPresentation(ring, [d]).evaluate_slice(d)
    warnings = []
    for w in generators:
        if w.degree > d + a_max:
            warnings.append(
                f"generator of degree {w.degree} exceeds d + a_max = "
                f"{d + a_max}; it cannot map into any tested shift")
    stages = []
    for a in range(0, a_max + 1):
        cols = []
        for w in generators:
            for f in enumerate_injections(w.degree, d + a):
                pushed = w.pushforward(f)
                # f_* is injective on terms, so no two land at one key
                col = {}
                for (gen, u), c in pushed.terms.items():
                    c = ring.coerce(c)
                    if c and all(v <= d for v in u.images):
                        col[ambient.index[(gen, u.images)]] = c
                if col:
                    cols.append(col)
        sub = SubmoduleOfQuotient(ambient.module, cols)
        stages.append(SaturationStage(a, sub, sub.invariants()))
    ascending = _ascending([stage.span for stage in stages])
    stabilization = None
    for n0 in range(0, a_max - slack + 1):
        if all(stages[n0].span.same_span_as(stages[n0 + j].span)
               for j in range(1, slack + 1)):
            stabilization = n0
            break
    return SaturationReport(d, a_max, slack, stages, ascending,
                            stabilization, warnings)
