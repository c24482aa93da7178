"""Report parsing and the oracles that judge each benchmark job.

Every job carries a check: a function of its own outcome and of the other
outcomes of the same pass, returning a list of problems (empty when the
report is right). Expected values come from computations that do not run
the timed code path: closed-form counts, admissible-monomial bases,
Mahonian numbers, a Q run of a Z document, ranks of ambient matrices, the
H0/H1 <=> colimit biconditional between two jobs, or reports stored in
`perfbench/reference/` for seed-independent jobs with no independent
oracle.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass


@dataclass
class Outcome:
    """What one job returned inside a pass."""

    rc: int | None          # exit code of cli.main; None if it raised
    stdout: str
    stderr: str
    error: str | None       # "timeout", an exception, or None
    seconds: float


class Report:
    """A parsed fimod text report."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.checks: dict[str, tuple[str, str]] = {}
        for line in self.lines:
            m = re.match(r"check (\S+): (pass|fail|inconclusive)(?: - (.*))?$",
                         line)
            if m:
                self.checks[m.group(1)] = (m.group(2), m.group(3) or "")

    def table(self) -> dict[int, tuple]:
        """Rows of the `table:` block: n -> (dim,) or (rank, torsion)."""
        start = self.lines.index("table:") + 2
        rows = {}
        for line in self.lines[start:]:
            if not re.match(r"\d+,", line):
                break
            parts = line.split(",")
            if len(parts) == 2:
                rows[int(parts[0])] = (int(parts[1]),)
            else:
                tors = tuple(int(x) for x in parts[2].split(";") if x)
                rows[int(parts[0])] = (int(parts[1]), tors)
        return rows

    def document(self) -> dict:
        """The JSON document printed in a `presentation:` block."""
        start = self.lines.index("presentation:") + 1
        end = max(i for i, ln in enumerate(self.lines) if ln.startswith("status: "))
        return json.loads("\n".join(self.lines[start:end]))

    def notes(self, pattern: str) -> list[re.Match]:
        return [m for m in (re.match(pattern, ln) for ln in self.lines) if m]


def describe(rank: int, torsion: tuple = ()) -> str:
    """The text fimod prints for a module with these invariants."""
    parts = []
    if rank:
        parts.append(f"rank {rank}")
    if torsion:
        parts.append("torsion (" + ",".join(map(str, torsion)) + ")")
    return ", ".join(parts) or "0"


def parse_describe(text: str) -> tuple[int, tuple]:
    rank = 0
    torsion: tuple = ()
    m = re.search(r"rank (\d+)", text)
    if m:
        rank = int(m.group(1))
    m = re.search(r"torsion \(([\d,]+)\)", text)
    if m:
        torsion = tuple(int(x) for x in m.group(1).split(","))
    return rank, torsion


def parse_polynomial(text: str):
    """'2*C(n,3) + 3*C(n,4)' -> callable n -> value."""
    from math import comb
    terms = []
    for term in text.split(" + "):
        m = re.fullmatch(r"(-?\d+)\*C\(n,(\d+)\)", term.strip())
        if m:
            terms.append((int(m.group(1)), int(m.group(2))))
        else:
            terms.append((int(term), 0))
    return lambda n: sum(c * comb(n, k) for c, k in terms)


def judge(check, outcome: Outcome, outcomes: dict) -> list[str]:
    """Problems with one outcome: errors first, then the job's oracle."""
    if outcome.error is not None:
        return [outcome.error]
    try:
        return check(outcome, outcomes)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return [f"unreadable report (exit code {outcome.rc}): "
                f"{type(e).__name__}: {e} {outcome.stderr.strip()}"]


def _rc(outcome: Outcome, expected: int) -> list[str]:
    if outcome.rc != expected:
        return [f"exit code {outcome.rc}, expected {expected}: "
                f"{outcome.stderr.strip()}"]
    return []


# ---------------------------------------------------------------------------
# check factories; each returns check(outcome, outcomes) -> problems

def table_check(expected: dict[int, tuple], fit=None):
    """Exact table rows; with `fit=(oracle, ns)` the reported polynomial
    must also match the oracle at degrees `ns` outside the window."""
    def check(outcome, outcomes):
        problems = _rc(outcome, 0)
        rep = Report(outcome.stdout)
        got = rep.table()
        if got != expected:
            bad = sorted(n for n in set(got) | set(expected)
                         if got.get(n) != expected.get(n))
            problems.append(f"table rows differ at n={bad}")
        if fit is not None:
            oracle, ns = fit
            status, detail = rep.checks.get("fit", ("missing", ""))
            if status != "pass":
                problems.append(f"fit {status}")
            else:
                poly = parse_polynomial(
                    re.match(r"polynomial (.*), onset", detail).group(1))
                wrong = [n for n in ns if poly(n) != oracle(n)]
                if wrong:
                    problems.append(f"fit disagrees with oracle at n={wrong}")
        return problems
    return check


def reference_check(reference: str):
    def check(outcome, outcomes):
        problems = _rc(outcome, 0)
        if outcome.stdout != reference:
            problems.append("report differs from the stored reference")
        return problems
    return check


def homology_z_check(q_dims: dict[int, int], fallback: bool, field_dims):
    """Z homology against the Q run of the same document.

    Integer mode: free ranks equal the Q dimensions, and for p = 2 and
    every prime dividing a reported torsion factor the universal
    coefficient theorem must hold: dim_p H_a = rank_a + t_a(p) + t_{a-1}(p).
    Fallback mode (slices with torsion): the Q line and each F_p line equal
    the field runs of the same document. `field_dims(p)` returns {a: dim}
    over F_p.
    """
    def check(outcome, outcomes):
        problems = _rc(outcome, 0)
        rep = Report(outcome.stdout)
        mode = rep.checks.get("homology", ("missing", ""))[1]
        if fallback:
            if mode != "field-wise table emitted":
                return problems + [f"expected the field-wise fallback, got {mode!r}"]
            for m in rep.notes(r"over (\S+): (\{.*\})$"):
                dims = {int(a): d for a, d in json.loads(m.group(2)).items()}
                name = m.group(1)
                want = q_dims if name == "Q" else field_dims(int(name[1:]))
                if dims != want:
                    problems.append(f"{name} dims {dims} != {want}")
            return problems
        if mode != "mode integer-free-slices":
            return problems + [f"expected the integer path, got {mode!r}"]
        got = {int(m.group(1)): parse_describe(m.group(2))
               for m in rep.notes(r"H_(\d+) at degree \d+: (.*)$")}
        if {a: r for a, (r, _) in got.items()} != q_dims:
            problems.append("free ranks differ from the Q run")
            return problems
        primes = {2} | {p for _, tors in got.values() for d in tors
                        for p in _prime_factors(d)}
        for p in sorted(primes):
            dims = field_dims(p)
            for a, (r, _) in got.items():
                expect = r + _count_div(got[a][1], p) + \
                    _count_div(got.get(a - 1, (0, ()))[1], p)
                if dims[a] != expect:
                    problems.append(f"torsion at H_{a} violates universal "
                                    f"coefficients mod {p}")
        return problems
    return check


def _prime_factors(d: int) -> set[int]:
    out, q = set(), 2
    while q * q <= d:
        while d % q == 0:
            out.add(q)
            d //= q
        q += 1
    if d > 1:
        out.add(d)
    return out


def _count_div(torsion: tuple, p: int) -> int:
    return sum(1 for d in torsion if d % p == 0)


def find_n_lists(outcome: Outcome) -> tuple[list[int], list[int]]:
    rep = Report(outcome.stdout)
    h0 = json.loads(rep.notes(r"nonzero H0 at degrees (.*)$")[0].group(1))
    h1 = json.loads(rep.notes(r"nonzero H1 at degrees (.*)$")[0].group(1))
    return h0, h1


def find_n_check():
    def check(outcome, outcomes):
        problems = _rc(outcome, 0)
        h0, h1 = find_n_lists(outcome)
        bound = max(h0 + h1) if h0 + h1 else 0
        detail = Report(outcome.stdout).checks["found-N"][1]
        if not detail.startswith(f"N = {bound} "):
            problems.append(f"reported {detail!r}, lists give N = {bound}")
        return problems
    return check


def _vanishes(find_n_id: str, n: int, outcomes) -> bool:
    h0, h1 = find_n_lists(outcomes[find_n_id])
    return n not in h0 and n not in h1


def inductive_check(find_n_id: str, n: int):
    """Colimit over proper subsets is V_n iff H0 = H1 = 0 at n (biconditional
    against the find-N report of the same presentation)."""
    def check(outcome, outcomes):
        ok = _vanishes(find_n_id, n, outcomes)
        problems = _rc(outcome, 0 if ok else 1)
        status = Report(outcome.stdout).checks[f"inductive-description-n-{n}"][0]
        if status != ("pass" if ok else "fail"):
            problems.append(f"inductive check {status}, find-N says "
                            f"{'vanishing' if ok else 'nonvanishing'}")
        return problems
    return check


def colimit_check(find_n_id: str, n: int):
    """Proper-subset colimit at n: 2^n - 1 objects, iso iff H0 = H1 = 0."""
    def check(outcome, outcomes):
        ok = _vanishes(find_n_id, n, outcomes)
        problems = _rc(outcome, 0 if ok else 1)
        rep = Report(outcome.stdout)
        count = int(rep.notes(r"colimit over (\d+) subsets")[0].group(1))
        if count != 2 ** n - 1:
            problems.append(f"{count} subsets, expected {2 ** n - 1}")
        status = rep.checks["canonical-map-isomorphism"][0]
        if status != ("pass" if ok else "fail"):
            problems.append(f"colimit iso {status} against find-N")
        return problems
    return check


def homotopy_check(n: int):
    def check(outcome, outcomes):
        problems = _rc(outcome, 0)
        checks = Report(outcome.stdout).checks
        want = {f"homotopy-identity-level-{a}" for a in range(n + 1)}
        if set(checks) != want or any(s != "pass" for s, _ in checks.values()):
            problems.append("dG + Gd = -X_1 not verified at every level")
        return problems
    return check


def h0_check(find_n_id: str):
    """Nonzero H0 degrees agree with the complex homology of find-N."""
    def check(outcome, outcomes):
        problems = _rc(outcome, 0)
        rep = Report(outcome.stdout)
        nonzero = [int(m.group(1)) for m in rep.notes(r"h0 at (\d+): (.*)$")
                   if m.group(2) != "0"]
        h0, _ = find_n_lists(outcomes[find_n_id])
        if nonzero != h0:
            problems.append(f"h0 nonzero at {nonzero}, find-N says {h0}")
        largest = str(nonzero[-1]) if nonzero else "none"
        detail = rep.checks["generation-degree"][1]
        if not detail.startswith(f"largest nonzero h0 at {largest} "):
            problems.append(f"generation degree {detail!r}")
        return problems
    return check


def torsion_check(kernel_dims: list[int]):
    """Kernel dimensions of V_n -> V_{n+a} from ranks of ambient matrices;
    the chain is stable (exit 0) iff the last three kernels agree."""
    stable = len(kernel_dims) >= 3 and len(set(kernel_dims[-3:])) == 1

    def check(outcome, outcomes):
        problems = _rc(outcome, 0 if stable else 2)
        rep = Report(outcome.stdout)
        got = [m.group(1) for m in
               rep.notes(r"kernel of the degree-\d+ canonical map: (.*)$")]
        if got != [describe(d) for d in kernel_dims]:
            problems.append(f"kernels {got}, expected dims {kernel_dims}")
        if rep.checks["kernel-chain-ascending"][0] != "pass":
            problems.append("kernel chain not ascending")
        if rep.checks["stabilized"][0] != ("pass" if stable else "inconclusive"):
            problems.append("stabilization verdict disagrees with the dims")
        return problems
    return check


def presentation_dims_check(expected_dims: list[int], evaluate,
                            generators: int | None = None):
    """An emitted presentation whose slices 0.. have the given dimensions.

    `evaluate(document, n)` computes a slice dimension of the emitted
    document; results are memoized per report text, since every pass of a
    run prints the same document.
    """
    memo: dict[str, list[str]] = {}

    def check(outcome, outcomes):
        problems = _rc(outcome, 0)
        if outcome.stdout not in memo:
            rep = Report(outcome.stdout)
            found = []
            if generators is not None:
                m = rep.notes(r"shifted presentation: (\d+) generators")
                if int(m[0].group(1)) != generators:
                    found.append(f"{m[0].group(1)} generators, expected "
                                 f"{generators}")
            doc = rep.document()
            dims = [evaluate(doc, n) for n in range(len(expected_dims))]
            if dims != expected_dims:
                found.append(f"slice dims {dims}, expected {expected_dims}")
            memo[outcome.stdout] = found
        return problems + memo[outcome.stdout]
    return check
