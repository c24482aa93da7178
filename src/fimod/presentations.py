"""Finitely presented FI-modules: free generators, relations, slices.

A presentation is a list of generator degrees d_i and a list of relation
elements r_j, each living in some degree e_j of the free module on the
generators; the module presented is the cokernel of the induced map of free
FI-modules. Slices V_n are returned as PresentedModules over the ambient
basis {(generator i, injection [d_i] -> [n])} in generator-major,
lexicographic-injection order, which makes every matrix reproducible
bit-for-bit.

The relation matrix of V_n has one column per relation r_j and injection
h: [e_j] -> [n], in lexicographic order of h. It is assembled on image
tuples: the term (i, g) of r_j lands in the row of (i, h∘g), whose images
are h's images read at g's. Pushforward along an injection is injective on
(generator, injection) keys, so a column never receives two terms at one
row, and the coefficients were coerced and cleared of zeros when the
presentation was built. The entries are therefore written as they are,
with nothing to merge, drop or coerce (`Matrix.canonical`). Induced maps
compose image tuples the same way.

`reduced()` returns a presentation of an isomorphic module with fewer
generators and relations; `eval` and `homology` read it, since they print
only isomorphism invariants. A Tietze move takes a relation r of degree s
with a term c·(g, σ) where deg g = s, so σ is a bijection of [s], and g is
in no other term of r. In the module c·(g, σ) = -Σ_t c_t (g_t, f_t) over
the other terms, so (g, id) = -c⁻¹ Σ_t c_t (g_t, σ⁻¹∘f_t), and (g, h) is
that pushed forward along h. Substituting it into every other relation and
dropping r and g presents the same module: the FI-maps that send g to that
expression and back to (g, id) are mutually inverse, because r is exactly
what makes them agree. Only relations whose coefficients are all ±1 (1 or
p-1 over F_p) serve as pivots. A pivot c = ±1 makes the move an
isomorphism over Z, hence over every ring by base change, so one reduced
integer document stays valid when `homology` re-reads it over Q and F_p.
The other ±1 coefficients make every substituted coefficient ±1, so
coefficients grow only where substituted terms collide; without that rule
the m = 3 Arnold document written over F3 and read over Z reached
coefficients of 2,048. Then a relation that became zero, or that equals a
kept relation of the same degree e up to S_e and sign, is dropped. The key
holds e: 2·(g, [1]->[2]) relabels to the term list of 2·(g, [1]), but the
two lie in different degrees and span different submodules. Relations
keep their order and the pivot is the first qualifying term in
`canonical_terms()` order, so the result is deterministic.
"""
from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import islice, permutations

from .injections import Injection, count_injections, enumerate_injections
from .matrix import Matrix
from .modules import ModuleMap, PresentedModule
from .rings import RingSpec, ring_from_token, ring_to_token


class FreeElement:
    """An element of (⊕_i M(d_i))_n: terms (generator, injection) -> scalar."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict):
        self.degree = degree
        self.terms = {}
        for (gen, inj), coeff in terms.items():
            if inj.target != degree:
                raise ValueError(
                    f"term injection lands in [{inj.target}], element degree {degree}")
            self.terms[(gen, inj)] = coeff

    def pushforward(self, f: Injection) -> "FreeElement":
        """Apply f_*: relabel every term along f. g -> f∘g is injective, so
        no two terms meet and each is written once as it is."""
        if f.source != self.degree:
            raise ValueError(
                f"pushforward along [{f.source}]->[{f.target}] "
                f"of a degree-{self.degree} element")
        return FreeElement(f.target, {(gen, f.after(g)): c
                                      for (gen, g), c in self.terms.items()})

    def canonical_terms(self):
        return sorted(((gen, inj.images, coeff)
                       for (gen, inj), coeff in self.terms.items()),
                      key=lambda t: (t[0], t[1]))

    def __eq__(self, other):
        return (isinstance(other, FreeElement) and self.degree == other.degree
                and self.terms == other.terms)

    def __repr__(self):
        return f"FreeElement(deg={self.degree}, {len(self.terms)} terms)"


def pushforward(e: FreeElement, f: Injection) -> FreeElement:
    return e.pushforward(f)


class SliceModule:
    """The degree-n slice of a presentation, with its enumerated basis."""

    __slots__ = ("degree", "basis", "index", "module")

    def __init__(self, degree: int, basis: list, index: dict,
                 module: PresentedModule):
        self.degree = degree
        self.basis = basis                      # [(gen index, Injection)]
        self.index = index                      # (gen, images) -> position
        self.module = module

    @property
    def ambient(self) -> int:
        return self.module.ambient

    def invariants(self):
        return self.module.invariants()


_slice_cache: dict = {}
_ORBIT_TRIES = 720                  # relabelings per relation key (6!)


class FIPresentation:
    """coker(⊕_j M(e_j) -> ⊕_i M(d_i)) with the relation elements r_j."""

    def __init__(self, ring: RingSpec, generator_degrees, relations=()):
        self.ring = ring
        self.generator_degrees = tuple(int(d) for d in generator_degrees)
        if any(d < 0 for d in self.generator_degrees):
            raise ValueError("generator degrees must be >= 0")
        rels = []
        for r in relations:
            if r.degree < 0:
                raise ValueError("relation degrees must be >= 0")
            for (gen, inj), coeff in r.terms.items():
                if not 0 <= gen < len(self.generator_degrees):
                    raise ValueError(f"relation references generator {gen}")
                if inj.source != self.generator_degrees[gen]:
                    raise ValueError(
                        f"relation term on generator {gen} has source size "
                        f"{inj.source}, expected {self.generator_degrees[gen]}")
            canon = {k: ring.coerce(v) for k, v in r.terms.items()}
            rels.append(FreeElement(
                r.degree, {k: v for k, v in canon.items() if v}))
        self.relations = tuple(rels)
        self._hash = None
        self._reduced = None

    # -- identity ---------------------------------------------------------
    def content_hash(self) -> str:
        if self._hash is None:
            doc = self.to_document()
            blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            self._hash = hashlib.sha256(blob.encode()).hexdigest()
        return self._hash

    def __eq__(self, other):
        return isinstance(other, FIPresentation) and \
            self.content_hash() == other.content_hash()

    def __hash__(self):
        return hash(self.content_hash())

    # -- slices -----------------------------------------------------------
    def slice_basis(self, n: int) -> list:
        basis = []
        for i, d in enumerate(self.generator_degrees):
            for inj in enumerate_injections(d, n):
                basis.append((i, inj))
        return basis

    def evaluate_slice(self, n: int) -> SliceModule:
        if n < 0:
            raise ValueError("slice degree must be >= 0")
        key = (self.content_hash(), n)
        cached = _slice_cache.get(key)
        if cached is not None:
            return cached
        basis = self.slice_basis(n)
        index = {(g, inj.images): k for k, (g, inj) in enumerate(basis)}
        ent = {}
        j = 0
        for rel in self.relations:
            terms = [(gen, tuple(v - 1 for v in g.images), c)
                     for (gen, g), c in rel.terms.items()]
            for h in permutations(range(1, n + 1), rel.degree):
                for gen, pos, c in terms:
                    ent[(index[(gen, tuple([h[v] for v in pos]))], j)] = c
                j += 1
        relmat = Matrix.canonical(self.ring, len(basis), j, ent)
        sm = SliceModule(n, basis, index,
                         PresentedModule(self.ring, len(basis), relmat))
        _slice_cache[key] = sm
        return sm

    def slice_module(self, n: int) -> PresentedModule:
        return self.evaluate_slice(n).module

    def induced_map(self, f: Injection) -> ModuleMap:
        """The basis-relabeling map f_*: V_m -> V_n for f: [m] -> [n]."""
        src = self.evaluate_slice(f.source)
        tgt = self.evaluate_slice(f.target)
        images, index, one = f.images, tgt.index, self.ring.one
        ent = {(index[(gen, tuple([images[v - 1] for v in g.images]))], k): one
               for k, (gen, g) in enumerate(src.basis)}
        mat = Matrix.canonical(self.ring, tgt.ambient, src.ambient, ent)
        return ModuleMap(src.module, tgt.module, mat)

    def induced_matrix(self, f: Injection) -> Matrix:
        return self.induced_map(f).matrix

    def free_rank_formula(self, n: int) -> int:
        """Ambient rank of the degree-n slice (no relations counted)."""
        return sum(count_injections(d, n) for d in self.generator_degrees)

    # -- reduction ----------------------------------------------------------
    def reduced(self) -> "FIPresentation":
        """A presentation of an isomorphic FI-module, reduced by Tietze
        moves and duplicate relations (module docstring), or `self` when
        nothing reduces. Computed once per instance."""
        if self._reduced is None:
            self._reduced = _reduce(self)
            self._reduced._reduced = self._reduced
        return self._reduced

    # -- serialization ------------------------------------------------------
    def to_document(self) -> dict:
        rels = []
        for r in self.relations:
            terms = [{"gen": gen, "injection": list(images),
                      "coeff": str(coeff)}
                     for gen, images, coeff in r.canonical_terms()]
            rels.append({"degree": r.degree, "terms": terms})
        return {
            "ring": ring_to_token(self.ring),
            "generators": list(self.generator_degrees),
            "relations": rels,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_document(cls, doc: dict, ring: RingSpec | None = None) -> "FIPresentation":
        ring = ring if ring is not None else ring_from_token(doc["ring"])
        gens = [_json_int(d, "generator degree") for d in doc["generators"]]
        rels = []
        for rd in doc.get("relations", []):
            degree = _json_int(rd["degree"], "relation degree")
            terms = {}
            for t in rd["terms"]:
                inj = Injection(len(t["injection"]), degree, tuple(
                    _json_int(x, "injection entry") for x in t["injection"]))
                coeff = t["coeff"]
                if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", str(coeff)):
                    raise ValueError("a coefficient must be a JSON integer or "
                                     f"a string b or a/b, got {coeff!r}")
                coeff = ring.coerce(Fraction(coeff))
                key = (_json_int(t["gen"], "gen"), inj)
                if key in terms:
                    raise ValueError("duplicate (gen, injection) term")
                terms[key] = coeff
            rels.append(FreeElement(degree, terms))
        return cls(ring, gens, rels)

    @classmethod
    def loads(cls, text: str, ring: RingSpec | None = None) -> "FIPresentation":
        return cls.from_document(json.loads(text), ring=ring)

    def __repr__(self):
        return (f"FIPresentation({self.ring}, gens={self.generator_degrees}, "
                f"{len(self.relations)} relations)")


def _json_int(value, what: str) -> int:
    """A JSON integer, refusing floats (which int() would truncate) and
    booleans (which Python counts as integers)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _reduce(p: FIPresentation) -> FIPresentation:
    """Tietze elimination, then dropping zero and repeated relations.

    Relations are worked on as (degree, {(gen, images): coeff}) with
    1-based image tuples; an eliminated relation becomes None."""
    mod, degrees = p.ring.p, p.generator_degrees
    units = {1, mod - 1} if mod else {1, -1}
    rels = [(r.degree, {(g, f.images): c for (g, f), c in r.terms.items()})
            for r in p.relations]
    eliminated = set()
    start = 0          # relations before it have no pivot and did not change
    while True:
        for j in range(start, len(rels)):
            pivot = rels[j] and _pivot(*rels[j], degrees, units)
            if pivot:
                break
        else:
            break
        g, sigma = pivot
        terms = rels[j][1]
        c = terms.pop((g, sigma))
        inv = [0] * len(sigma)
        for k, v in enumerate(sigma):
            inv[v - 1] = k + 1
        # (g, id) = -c * sum_t c_t (g_t, sigma^-1 . f_t), as c = 1/c
        sub = [(gt, tuple([inv[v - 1] for v in ft]),
                (-c * ct) % mod if mod else -c * ct)
               for (gt, ft), ct in terms.items()]
        rels[j] = None
        eliminated.add(g)
        start = j
        for i, rel in enumerate(rels):
            hits = rel and [key for key in rel[1] if key[0] == g]
            if not hits:
                continue
            start = min(start, i)
            t = rel[1]
            for key in hits:
                a, h = t.pop(key), key[1]
                for gt, tau, ct in sub:
                    k2 = (gt, tuple([h[v - 1] for v in tau]))
                    v = t.get(k2, 0) + a * ct
                    if mod:
                        v %= mod
                    if v:
                        t[k2] = v
                    else:
                        del t[k2]
    kept, seen = [], set()
    for rel in rels:
        if rel and rel[1]:
            key = _orbit_key(*rel, mod)
            if key not in seen:
                seen.add(key)
                kept.append(rel)
    if not eliminated and len(kept) == len(p.relations):
        return p
    left = [g for g in range(len(degrees)) if g not in eliminated]
    renumber = {g: i for i, g in enumerate(left)}
    return FIPresentation(p.ring, [degrees[g] for g in left], [
        FreeElement(e, {(renumber[g], Injection(degrees[g], e, images)): c
                        for (g, images), c in t.items()})
        for e, t in kept])


def _pivot(e: int, terms: dict, degrees: tuple, units: set):
    """The first (gen, images) in canonical order that a Tietze move may
    eliminate from this relation, or None: every coefficient is ±1, the
    generator has the relation's degree and occurs in no other term."""
    if not all(c in units for c in terms.values()):
        return None
    count: dict = {}
    for g, _ in terms:
        count[g] = count.get(g, 0) + 1
    for g, images in sorted(terms):
        if degrees[g] == e and count[g] == 1:
            return g, images
    return None


def _orbit_key(e: int, terms: dict, mod: int) -> tuple:
    """A key of a degree-e relation's orbit under S_e and sign: e and the
    least sorted term list over relabelings and both signs. Each key is
    one relabeled, signed copy of the relation, so equal keys mean equal
    orbits.

    Only the set U of values the images take matters, and the least list
    numbers it 1..|U|: renumbering U in order never raises a list. The
    least list starts with the least generator g0 at images (1..d), so
    only the orderings of U that put a term of g0 first are tried, and at
    most _ORBIT_TRIES of them. Past that the key may miss a repeat, which
    then stays, but it never joins two orbits."""
    negated = {k: (-c) % mod if mod else -c for k, c in terms.items()}
    used = sorted({v for _, images in terms for v in images})
    g0 = min(g for g, _ in terms)
    orders = (first + tail for g, first in sorted(terms) if g == g0
              for tail in permutations([v for v in used if v not in first]))
    best = None
    for order in islice(orders, _ORBIT_TRIES):
        sigma = dict(zip(order, range(1, len(order) + 1)))
        for t in (terms, negated):
            cand = sorted((h, tuple([sigma[v] for v in images]), c)
                          for (h, images), c in t.items())
            if best is None or cand < best:
                best = cand
    return e, tuple(best)


def free_presentation(ring: RingSpec, *degrees: int) -> FIPresentation:
    """The free module M(d_1) ⊕ ... ⊕ M(d_k)."""
    return FIPresentation(ring, degrees)


def evaluate_slice(p: FIPresentation, n: int) -> SliceModule:
    return p.evaluate_slice(n)


def induced_map(p: FIPresentation, f: Injection) -> ModuleMap:
    return p.induced_map(f)
