"""Exact computational workbench for finitely presented FI-modules.

Evaluate slices of finitely presented FI-modules over Q, F_p and Z, apply
shift and derivative functors, compute homology of the signed negative-shift
complex, reconstruct slices from poset colimits, fit eventually-polynomial
dimension tables, and reproduce the dimension behavior of diagonal
coinvariant algebras and a plane configuration-space witness at desk scale.
"""

__version__ = "0.1.0"

from .injections import Injection, enumerate_injections
from .matrix import Matrix
from .modules import (Invariants, ModuleMap, PresentedModule,
                      cokernel_invariants, is_isomorphism)
from .presentations import (FIPresentation, FreeElement, SliceModule,
                            evaluate_slice, free_presentation, induced_map,
                            pushforward)
from .rings import GF, QQ, ZZ, PrimeField, RingSpec
from .smith import SmithForm, invariant_factors, smith_form

__all__ = [
    "FIPresentation", "FreeElement", "GF", "Injection", "Invariants",
    "Matrix", "ModuleMap", "PresentedModule", "PrimeField", "QQ", "RingSpec",
    "SliceModule", "SmithForm", "ZZ", "cokernel_invariants",
    "enumerate_injections", "evaluate_slice", "free_presentation",
    "induced_map", "invariant_factors", "is_isomorphism", "pushforward",
    "smith_form",
]
