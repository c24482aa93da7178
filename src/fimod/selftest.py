"""The acceptance property suite behind the `selftest` command.

Each check verifies one headline property of the workbench at desk scale
and carries a stable tag naming the mathematical fact exercised. Checks
are deterministic given the seed; runtime budgets are reported as
within/over, never as raw timings, so reports stay byte-identical across
runs.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .arnold import ArnoldModule, admissible_edge_sets
from .coinvariants import MultiIndex, coinvariant_table
from .complexes import (check_inductive, complex_homology, find_N,
                        ordered_shift_free_iso, ordered_shift_slice,
                        ordered_shift_structure_map, slice_complex,
                        verify_chain_homotopy)
from .dimensions import dimension_table, fit_polynomial
from .functors import (pi_projection, saturate, shift_decomposition,
                       torsion_slice, q_summand_rank, x_map_decomposed)
from .injections import Injection, count_injections
from .matrix import Matrix
from .modules import SubmoduleOfQuotient
from .presentations import FIPresentation, FreeElement, free_presentation
from .rings import GF, QQ, ZZ
from .sampling import instantiate, random_injection, seeded_structures

EXCLUSION_NOTE = ("not reproduced at desk scale: homology of arithmetic "
                  "congruence subgroups and mod-p growth estimates for its "
                  "Betti numbers")


@dataclass
class CheckResult:
    tag: str
    status: str          # pass | fail | inconclusive
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _budget(elapsed: float, budget: float) -> tuple[bool, str]:
    if elapsed <= budget:
        return True, f"runtime within {budget:.0f}s budget"
    return False, f"runtime exceeded {budget:.0f}s budget"


def check_free_slice_dimensions() -> CheckResult:
    """dim M(d)_n = n!/(n-d)! for d <= 3, n <= 8, over Q, F2, F3 and Z."""
    start = time.monotonic()
    failures = []
    count = 0
    for ring in (QQ, GF(2), GF(3), ZZ):
        for d in range(0, 4):
            md = free_presentation(ring, d)
            for n in range(0, 9):
                inv = md.evaluate_slice(n).invariants()
                expect = count_injections(d, n)
                count += 1
                if inv.free_rank != expect or inv.torsion:
                    failures.append((ring.name, d, n, inv))
    within, note = _budget(time.monotonic() - start, 5.0)
    if failures:
        return CheckResult("free-slice-dimensions", "fail",
                           f"mismatches: {failures[:3]}")
    if not within:
        return CheckResult("free-slice-dimensions", "fail", note)
    return CheckResult("free-slice-dimensions", "pass",
                       f"{count} slice ranks verified; {note}")


def check_shift_splitting() -> CheckResult:
    """Shifted free dims split as original plus complement; projection
    composed with the canonical map is the identity."""
    start = time.monotonic()
    for d in range(0, 4):
        md = free_presentation(QQ, d)
        for a in range(0, 4):
            dec = shift_decomposition(md, a)
            for n in range(0, 7):
                lhs = dec.presentation.evaluate_slice(n).module.dim()
                if lhs != count_injections(d, n + a):
                    return CheckResult("shift-splitting", "fail",
                                       f"dim mismatch d={d} a={a} n={n}")
                if lhs != count_injections(d, n) + q_summand_rank(dec, n):
                    return CheckResult("shift-splitting", "fail",
                                       f"complement rank off d={d} a={a} n={n}")
                proj = pi_projection(d, a, n, QQ, dec)
                into = x_map_decomposed(md, a, n, dec)
                comp = proj.compose(into)
                if comp.matrix != Matrix.identity(QQ, comp.matrix.nrows):
                    return CheckResult("shift-splitting", "fail",
                                       f"projection section d={d} a={a} n={n}")
    within, note = _budget(time.monotonic() - start, 30.0)
    if not within:
        return CheckResult("shift-splitting", "fail", note)
    return CheckResult("shift-splitting", "pass",
                       f"d<=3, a<=3, n<=6 verified; {note}")


def check_h0_support() -> CheckResult:
    """H0 of a free module is concentrated in its generator degree."""
    from .functors import h0_slice
    for d in range(0, 4):
        md = free_presentation(QQ, d)
        for n in range(0, 8):
            dim = h0_slice(md, n).invariants().free_rank
            expect = math.factorial(d) if n == d else 0
            if dim != expect:
                return CheckResult("h0-support", "fail", f"d={d} n={n} dim={dim}")
    return CheckResult("h0-support", "pass", "d <= 3, n <= 7 verified")


def check_ordered_shift_free(seed: int) -> CheckResult:
    """Ordered shifts of free modules are free, naturally in injections."""
    rng = random.Random(seed ^ 0x0517)
    for d in range(0, 3):
        md = free_presentation(QQ, d)
        for a in range(0, 4):
            big = free_presentation(QQ, a + d)
            for n in range(0, 8):
                got = ordered_shift_slice(md, a, n).module.ambient
                if got != big.evaluate_slice(n).ambient:
                    return CheckResult("ordered-shift-free", "fail",
                                       f"rank d={d} a={a} n={n}")
    for trial in range(10):
        d = rng.randint(0, 2)
        a = rng.randint(0, 3)
        n = rng.randint(a, 7)
        m = rng.randint(n, 7)
        w = random_injection(rng, n, m)
        md = free_presentation(QQ, d)
        big = free_presentation(QQ, a + d)
        lhs = ordered_shift_free_iso(d, a, m, QQ) @ \
            ordered_shift_structure_map(md, a, w).matrix
        rhs = big.induced_matrix(w) @ ordered_shift_free_iso(d, a, n, QQ)
        if lhs != rhs:
            return CheckResult("ordered-shift-free", "fail",
                               f"naturality trial {trial}: d={d} a={a} w={w.images}")
    return CheckResult("ordered-shift-free", "pass",
                       "ranks d<=2, a<=3, n<=7 and 10 naturality squares")


def check_complex_identities(seed: int) -> CheckResult:
    """d.d = 0 and dG + Gd = -X_1 exactly, over Q, F5 and Z."""
    start = time.monotonic()
    structures = seeded_structures(seed, 20)
    for si, struct in enumerate(structures):
        for ring in (QQ, GF(5), ZZ):
            p = instantiate(struct, ring)
            for n in range(1, 6):
                cx = slice_complex(p, n)
                if not cx.check_square_zero():
                    return CheckResult("complex-identities", "fail",
                                       f"d^2 != 0: structure {si}, {ring.name}, n={n}")
                for a in range(0, min(3, n) + 1):
                    if not verify_chain_homotopy(p, a, n):
                        return CheckResult(
                            "complex-identities", "fail",
                            f"homotopy: structure {si}, {ring.name}, a={a}, n={n}")
    within, note = _budget(time.monotonic() - start, 120.0)
    if not within:
        return CheckResult("complex-identities", "fail", note)
    return CheckResult("complex-identities", "pass",
                       f"20 presentations x 3 rings, n<=5; {note}")


def check_colimit_biconditional(seed: int) -> CheckResult:
    """H0 = H1 = 0 at n iff the proper-subset colimit maps isomorphically,
    the colimit side built by the full-poset coequalizer."""
    structures = seeded_structures(seed, 20)
    disagreements = []
    for si, struct in enumerate(structures):
        p = instantiate(struct, GF(5))
        for n in range(1, 7):
            res = complex_homology(p, n, positions=[0, 1])
            vanish = res.positions[0].is_zero and res.positions[1].is_zero
            ok, _ = check_inductive(p, n - 1, n)
            if vanish != ok:
                disagreements.append((si, n, vanish, ok))
    if disagreements:
        return CheckResult("h0h1-colimit-biconditional", "fail",
                           f"disagreements: {disagreements[:3]}")
    return CheckResult("h0h1-colimit-biconditional", "pass",
                       "20 presentations over F5, n <= 6, zero disagreements")


def check_inductive_description() -> CheckResult:
    """Free modules reconstruct from their generator-degree cutoff; the
    configuration witnesses reconstruct above their found bound."""
    for ring in (QQ, ZZ):
        for d in range(0, 4):
            md = free_presentation(ring, d)
            for n in range(0, 8):
                ok, cert = check_inductive(md, d, n)
                if not ok:
                    return CheckResult("inductive-description", "fail",
                                       f"M({d}) cutoff {d} n={n} over {ring.name}: {cert}")
            if d >= 1:
                ok, _ = check_inductive(md, d - 1, d)
                if ok:
                    return CheckResult("inductive-description", "fail",
                                       f"M({d}) cutoff {d-1} unexpectedly passed")
    found = {}
    for m in (1, 2):
        witness = ArnoldModule(m, QQ)
        rep = find_N(witness, 7)
        found[m] = rep.bound
        for n in range(rep.bound + 1, 8):
            ok, _ = check_inductive(witness, rep.bound, n)
            if not ok:
                return CheckResult("inductive-description", "fail",
                                   f"witness m={m} bound {rep.bound} n={n}")
    return CheckResult("inductive-description", "pass",
                       f"free modules d<=3 over Q and Z; witness bounds "
                       f"{{1: {found[1]}, 2: {found[2]}}} verified to n=7")


def check_polynomial_dimensions() -> CheckResult:
    """Eventually-polynomial dimension fits with pinned leading data."""
    start = time.monotonic()
    for d in range(0, 4):
        md = free_presentation(QQ, d)
        rep = fit_polynomial(dimension_table(md, 0, 9), 3)
        if not rep.certified or rep.polynomial.degree != d or \
                rep.polynomial.coefficients[-1] != math.factorial(d):
            return CheckResult("polynomial-dimensions", "fail",
                               f"free module fit d={d}: {rep}")
    for m in range(0, 3):
        witness = ArnoldModule(m, QQ)
        from .dimensions import DimensionTable
        vals = []
        for n in range(m + 1, 9):
            dim = witness.slice_module(n).dim()
            if dim != len(admissible_edge_sets(m, n)):
                return CheckResult("polynomial-dimensions", "fail",
                                   f"witness m={m} n={n} disagrees with "
                                   "admissible-monomial oracle")
            vals.append(dim)
        # the pinned window supports a 3-long tail only for low degrees;
        # fall back to the longest tail it admits and strengthen the
        # certificate with out-of-window oracle agreement
        for tail in (3, 2, 1):
            rep = fit_polynomial(DimensionTable(QQ, m + 1, vals), tail)
            if rep.certified:
                break
        if not rep.certified:
            return CheckResult("polynomial-dimensions", "fail",
                               f"witness fit m={m}: {rep.detail}")
        for n in (9, 10):
            if rep.polynomial.value(n) != len(admissible_edge_sets(m, n)):
                return CheckResult("polynomial-dimensions", "fail",
                                   f"witness fit m={m} fails the oracle at n={n}")
    from .coinvariants import coinvariant_dim
    for j in (1, 2, 3):
        for ring in (QQ, GF(2), GF(3)):
            spec = MultiIndex(1, (j,))
            table = coinvariant_table(spec, 1, 8, ring)
            if j == 1 and table.values != list(range(0, 8)):
                return CheckResult("polynomial-dimensions", "fail",
                                   f"coinvariant J=(1) table over {ring.name}: "
                                   f"{table.values}")
            for tail in (3, 2, 1):
                rep = fit_polynomial(table, tail)
                if rep.certified:
                    break
            if not rep.certified:
                return CheckResult("polynomial-dimensions", "fail",
                                   f"coinvariant fit J=({j},) over {ring.name}")
            for n in (9, 10):
                if rep.polynomial.value(n) != coinvariant_dim(spec, n, ring).dim:
                    return CheckResult(
                        "polynomial-dimensions", "fail",
                        f"coinvariant fit J=({j},) over {ring.name} fails "
                        f"out-of-window at n={n}")
    within, note = _budget(time.monotonic() - start, 180.0)
    if not within:
        return CheckResult("polynomial-dimensions", "fail", note)
    return CheckResult("polynomial-dimensions", "pass",
                       f"free, witness and coinvariant fits certified; {note}")


def check_torsion_vanishing() -> CheckResult:
    """Free modules are torsion-free; the handmade torsion module is
    torsion exactly in degree 0."""
    for ring in (QQ, ZZ):
        for d in (0, 1, 2):
            md = free_presentation(ring, d)
            for n in range(0, 5):
                rep = torsion_slice(md, n, 3)
                if any(not inv.is_zero for inv in rep.invariants):
                    return CheckResult("torsion-vanishing", "fail",
                                       f"M({d}) kernel at n={n} over {ring.name}")
    handmade = FIPresentation(ZZ, [0],
                              [FreeElement(1, {(0, Injection(0, 1, ())): 1})])
    rep0 = torsion_slice(handmade, 0, 3)
    final = rep0.final_invariants()
    if final.free_rank != 1 or final.torsion or not rep0.stabilized:
        return CheckResult("torsion-vanishing", "fail",
                           f"handmade module at 0: {final}, "
                           f"stabilized={rep0.stabilized}")
    for n in range(1, 7):
        rep = torsion_slice(handmade, n, 3)
        if any(not inv.is_zero for inv in rep.invariants):
            return CheckResult("torsion-vanishing", "fail",
                               f"handmade module nonzero at n={n}")
    return CheckResult("torsion-vanishing", "pass",
                       "free modules clean; handmade torsion is rank 1 at "
                       "degree 0 and vanishes for 1 <= n <= 6")


def check_saturation_chain() -> CheckResult:
    """The two-point generator saturates to the full degree-1 slice at
    stage 1, over Q and Z."""
    w = FreeElement(2, {(0, Injection(1, 2, (1,))): 1,
                        (0, Injection(1, 2, (2,))): 1})
    for ring in (QQ, ZZ):
        rep = saturate(1, [w], 4, 3, ring)
        if rep.stabilization != 1 or not rep.ascending:
            return CheckResult("saturation-chain", "fail",
                               f"over {ring.name}: N={rep.stabilization}")
        full = SubmoduleOfQuotient(rep.stages[1].span.module,
                                   [{0: ring.one}])
        if not rep.stages[1].span.same_span_as(full):
            return CheckResult("saturation-chain", "fail",
                               f"stage 1 is not the full slice over {ring.name}")
    return CheckResult("saturation-chain", "pass",
                       "N = 1 with the full degree-1 slice, over Q and Z")


def run_selftest(seed: int = 0) -> list[CheckResult]:
    start = time.monotonic()
    results = [
        check_free_slice_dimensions(),
        check_shift_splitting(),
        check_h0_support(),
        check_ordered_shift_free(seed),
        check_complex_identities(seed),
        check_colimit_biconditional(seed),
        check_inductive_description(),
        check_polynomial_dimensions(),
        check_torsion_vanishing(),
        check_saturation_chain(),
    ]
    elapsed = time.monotonic() - start
    peak_bytes = _peak_memory_bytes()
    within_time = elapsed <= 600.0
    within_mem = peak_bytes is None or peak_bytes <= 2 * 1024 ** 3
    status = "pass" if (within_time and within_mem) else "fail"
    mem_note = "peak memory within 2 GiB budget" if within_mem \
        else "peak memory exceeded 2 GiB budget"
    time_note = "runtime within 600s budget" if within_time \
        else "runtime exceeded 600s budget"
    results.append(CheckResult("runtime-envelope", status,
                               f"{time_note}; {mem_note}"))
    return results


def _peak_memory_bytes() -> int | None:
    try:
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return kb * 1024
    except Exception:
        return None
