"""The benchmark's workloads: seeded lists of fimod CLI jobs with oracles.

`build(workload, seed, workdir)` writes every input document into
`workdir`, works out each job's expected report, and returns the job list.
All of it happens before any pass starts and none of it is timed.

- `witness`: the desk-scale applications (Arnold witness tables over Q,
  F_p and Z, coinvariant tables and one dual map). A few sparse
  eliminations with thousands of rows; `presentations` and `complexes` do
  no work. The seed only picks the prime of the F_p Arnold table.
- `homology-z`: `homology` over Z at n = 5..7 on free M(2), M(1)+M(2), a
  truncated module and seeded presentations. The only workload that runs
  the transform Smith form, the dense inverse, kernel lattices and
  `IntegerSolver`.
- `presented-fp`: many small field jobs (find-N, check-inductive, colimit,
  homotopy-check, h0, torsion, shift, derivative) on seeded presentations
  over F_p and Q, plus an `eval` of the Arnold m=2 presentation document
  (the largest job) and one of a free module.
  Slice assembly, induced maps, cache hits, colimits, differentials and
  hundreds of small ranks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

from fimod.arnold import admissible_edge_sets, arnold_presentation
from fimod.complexes import complex_homology
from fimod.injections import count_injections, standard_inclusion
from fimod.matrix import hstack
from fimod.presentations import FIPresentation, free_presentation
from fimod.rings import GF, QQ, ZZ
from fimod.sampling import instantiate, seeded_structures

import oracles

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORKLOADS = ("witness", "homology-z", "presented-fp")


@dataclass
class Job:
    id: str
    argv: list[str]
    check: Callable                 # check(outcome, outcomes) -> problems


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    workdir.mkdir(parents=True, exist_ok=True)
    makers = {"witness": witness, "homology-z": homology_z,
                "presented-fp": presented_fp}
    return makers[workload](seed, workdir)


def _write(workdir: Path, name: str, p: FIPresentation) -> str:
    path = workdir / name
    path.write_text(p.dumps())
    return str(path)


def reference(job_id: str) -> str:
    return (REFERENCE_DIR / f"{job_id}.txt").read_text()


# ---------------------------------------------------------------------------
# witness

def mahonian(n: int, k: int) -> int:
    """Permutations of [n] with k inversions: the degree-k coinvariant
    dimension of S_n (the Hilbert series of the coinvariants is [n]_q!)."""
    row = [1]
    for m in range(1, n + 1):
        row = [sum(row[j - i] for i in range(m) if 0 <= j - i < len(row))
               for j in range(len(row) + m - 1)]
    return row[k] if k < len(row) else 0


def _arnold_rows(m: int, lo: int, hi: int, integer: bool) -> dict:
    rows = {}
    for n in range(lo, hi + 1):
        dim = len(admissible_edge_sets(m, n))
        rows[n] = (dim, ()) if integer else (dim,)
    return rows


REFERENCE_JOBS = {
    "coinv-r2-J22-Q": ["coinv", "--r", "2", "--J", "2,2", "--ring", "Q",
                       "--n", "1..7"],
    "coinv-r2-J22-F3": ["coinv", "--r", "2", "--J", "2,2", "--ring", "F3",
                        "--n", "1..7"],
    "coinv-map-r2-J22-Q": ["coinv-map", "--r", "2", "--J", "2,2", "--ring",
                           "Q", "--images", "1,3,4,5", "--target", "5"],
}


def witness(seed: int, workdir: Path) -> list[Job]:
    p = random.Random(seed).choice([3, 5, 7, 11])
    arnold_m2 = lambda n: len(admissible_edge_sets(2, n))
    mahonian2 = lambda n: mahonian(n, 2)
    jobs = [
        Job("arnold-m3-Q", ["arnold", "--m", "3", "--n", "3..9", "--ring", "Q"],
            oracles.table_check(_arnold_rows(3, 3, 9, False))),
        Job(f"arnold-m3-F{p}",
            ["arnold", "--m", "3", "--n", "3..9", "--ring", f"F{p}"],
            oracles.table_check(_arnold_rows(3, 3, 9, False))),
        Job("arnold-m3-Z", ["arnold", "--m", "3", "--n", "3..8", "--ring", "Z"],
            oracles.table_check(_arnold_rows(3, 3, 8, True))),
        Job("arnold-m2-Q-fit",
            ["arnold", "--m", "2", "--n", "2..9", "--ring", "Q", "--fit"],
            oracles.table_check(_arnold_rows(2, 2, 9, False),
                                fit=(arnold_m2, [10, 11, 12]))),
        Job("coinv-r1-J2-Q-fit",
            ["coinv", "--r", "1", "--J", "2", "--ring", "Q", "--n", "1..8",
             "--fit"],
            oracles.table_check({n: (mahonian(n, 2),) for n in range(1, 9)},
                                fit=(mahonian2, [9, 10, 11]))),
    ]
    for job_id, argv in REFERENCE_JOBS.items():
        jobs.append(Job(job_id, argv, oracles.reference_check(reference(job_id))))
    return jobs


# ---------------------------------------------------------------------------
# homology-z

# complex size cap for seeded presentations: sum over levels a of
# C(n, a) * ambient(n - a); keeps each seeded job well below the free ones
COMPLEX_CAP = 300
# seeded jobs taking the integer path and the documented field-wise
# fallback (slices with torsion); the seed picks which presentations
SEEDED_TORSION_FREE = 18
SEEDED_TORSION = 6


def complex_size(p: FIPresentation, n: int) -> int:
    return sum(comb(n, a) * p.free_rank_formula(n - a) for a in range(n + 1))


def has_torsion(p: FIPresentation, n: int) -> bool:
    return any(p.slice_module(m).invariants().torsion for m in range(n + 1))


# Z in degrees 0..2 and zero above: two relations of degree 3 on a
# degree-0 generator. At n = 7 its slice relation matrix is 1 x 420, whose
# transform Smith form carries a dense 420 x 420 right transform; it sets
# the workload's peak RSS, which seeded jobs would otherwise set by chance.
TRUNCATED = ((0,), ((3, {(0, ()): 1}), (3, {(0, ()): 2})))


def homology_z(seed: int, workdir: Path) -> list[Job]:
    fixed = [("free-M2", free_presentation(ZZ, 2), 5),
             ("free-M2", free_presentation(ZZ, 2), 6),
             ("free-M1M2", free_presentation(ZZ, 1, 2), 5),
             ("free-M1M2", free_presentation(ZZ, 1, 2), 6),
             ("truncated", instantiate(TRUNCATED, ZZ), 7)]
    quota = {False: SEEDED_TORSION_FREE, True: SEEDED_TORSION}
    seeded = []
    for k, struct in enumerate(seeded_structures(seed, 1000)):
        if not any(quota.values()):
            break
        if not struct[1]:
            continue            # no relations: a free module, covered above
        p = instantiate(struct, ZZ)
        sizes = [n for n in (7, 6, 5) if complex_size(p, n) <= COMPLEX_CAP]
        if not sizes:
            continue
        torsion = has_torsion(p, sizes[0])
        if quota[torsion]:
            quota[torsion] -= 1
            seeded.append((f"s{k:03d}", p, sizes[0], torsion))
    jobs = []
    for name, p, n, torsion in [(*c, False) for c in fixed] + seeded:
        path = _write(workdir, f"{name}.fim", p)
        jobs.append(Job(f"homology-{name}-n{n}",
                        ["homology", "--module", path, "--n", str(n)],
                        _homology_oracle(p, n, torsion)))
    return jobs


def _homology_oracle(p: FIPresentation, n: int, fallback: bool):
    doc = p.to_document()

    def over(ring):
        return FIPresentation.from_document(doc, ring=ring)

    q_dims = {a: inv.free_rank
              for a, inv in complex_homology(over(QQ), n).positions.items()}
    memo: dict[int, dict] = {}

    def field_dims(prime: int) -> dict:
        if prime not in memo:
            res = complex_homology(over(GF(prime)), n)
            memo[prime] = {a: inv.free_rank for a, inv in res.positions.items()}
        return memo[prime]

    return oracles.homology_z_check(q_dims, fallback, field_dims)


# ---------------------------------------------------------------------------
# presented-fp

SEEDED_PRESENTATIONS = 50
FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))
N_MAX = 5


def _dim(p: FIPresentation, n: int) -> int:
    return p.slice_module(n).invariants().free_rank


def _image_rank(p: FIPresentation, n: int, a: int) -> int:
    """Rank of V_n -> V_{n+a} on quotients, from ambient matrices."""
    x = p.induced_matrix(standard_inclusion(n, n + a))
    rel = p.slice_module(n + a).relations
    return hstack([x, rel]).rank() - rel.rank()


def _document_dim(doc: dict, n: int) -> int:
    return _dim(FIPresentation.from_document(doc), n)


def presented_fp(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    a2 = arnold_presentation(2, QQ)
    path = _write(workdir, "arnold-m2.fim", a2)
    jobs = [Job("eval-arnold-m2", ["eval", "--module", path, "--n", "0..7"],
                oracles.table_check({n: (len(admissible_edge_sets(2, n)),)
                                     for n in range(8)}))]
    ring = rng.choice(FIELDS[1:])
    free = free_presentation(ring, 1, 2)
    path = _write(workdir, "free-M1M2.fim", free)
    jobs.append(Job("eval-free-M1M2", ["eval", "--module", path, "--n", "0..8"],
                    oracles.table_check({n: (count_injections(1, n) +
                                             count_injections(2, n),)
                                         for n in range(9)})))
    for k, struct in enumerate(seeded_structures(seed, SEEDED_PRESENTATIONS)):
        p = instantiate(struct, rng.choice(FIELDS))
        path = _write(workdir, f"p{k:02d}.fim", p)
        jobs.extend(_presentation_jobs(f"p{k:02d}", p, path, rng))
    return jobs


def _presentation_jobs(name: str, p: FIPresentation, path: str, rng):
    n0 = rng.randint(2, N_MAX)
    n1 = rng.randint(2, 4)
    t = rng.randint(1, 2)
    find_n = f"{name}-find-N"
    kernels = [_dim(p, t) - _image_rank(p, t, a) for a in (1, 2, 3)]
    shifted = [_dim(p, n + 1) for n in range(3)]
    derived = [_dim(p, n + 1) - _image_rank(p, n, 1) for n in range(3)]
    gens = sum(1 + d for d in p.generator_degrees)
    mod = ["--module", path]
    return [
        Job(find_n, ["find-N", *mod, "--n-max", str(N_MAX)],
            oracles.find_n_check()),
        Job(f"{name}-h0", ["h0", *mod, "--n-max", str(N_MAX)],
            oracles.h0_check(find_n)),
        Job(f"{name}-check-inductive",
            ["check-inductive", *mod, "--N", str(n0 - 1), "--n", f"{n0}..{n0}"],
            oracles.inductive_check(find_n, n0)),
        Job(f"{name}-colimit",
            ["colimit", *mod, "--n", str(n1), "--N", str(n1 - 1)],
            oracles.colimit_check(find_n, n1)),
        Job(f"{name}-homotopy-check", ["homotopy-check", *mod, "--n", "3"],
            oracles.homotopy_check(3)),
        Job(f"{name}-torsion", ["torsion", *mod, "--n", str(t), "--a-max", "3"],
            oracles.torsion_check(kernels)),
        Job(f"{name}-shift", ["shift", *mod, "--a", "1"],
            oracles.presentation_dims_check(shifted, _document_dim, gens)),
        Job(f"{name}-derivative", ["derivative", *mod],
            oracles.presentation_dims_check(derived, _document_dim)),
    ]
