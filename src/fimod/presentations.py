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
"""
from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import permutations

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


def free_presentation(ring: RingSpec, *degrees: int) -> FIPresentation:
    """The free module M(d_1) ⊕ ... ⊕ M(d_k)."""
    return FIPresentation(ring, degrees)


def evaluate_slice(p: FIPresentation, n: int) -> SliceModule:
    return p.evaluate_slice(n)


def induced_map(p: FIPresentation, f: Injection) -> ModuleMap:
    return p.induced_map(f)
