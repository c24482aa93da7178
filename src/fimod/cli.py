"""Command-line surface: reproducible runs over presentation documents.

Every command prints a deterministic text report: tool version, command,
config echo (sorted JSON), seed, one line per check, payload blocks, and a
final status. Exit codes: 0 all checks pass, 1 a check failed, 2 none
failed but some inconclusive, 3 usage, parse or write error, 4 internal error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import __version__
from .arnold import ArnoldModule, arnold_presentation
from .coinvariants import (MultiIndex, coinvariant_dual_map,
                           coinvariant_table)
from .complexes import (check_inductive, complex_homology, find_N,
                        homology_field_table, poset_colimit,
                        verify_chain_homotopy)
from .dimensions import (DimensionTable, dimension_table, fit_polynomial,
                         invariants_table, tail_equal)
from .functors import (derivative, generation_degree, saturate,
                       shift_presentation, torsion_slice)
from .injections import Injection
from .modules import is_isomorphism
from .presentations import FIPresentation
from .rings import GF, QQ, IntegerRing, parse_ring


class UsageError(Exception):
    pass


class Report:
    def __init__(self, command: str, config: dict, seed: int = 0):
        self.command = command
        self.config = config
        self.seed = seed
        self.lines: list[str] = []
        self.statuses: list[str] = []

    def check(self, name: str, status: str, detail: str = ""):
        assert status in ("pass", "fail", "inconclusive")
        self.statuses.append(status)
        suffix = f" - {detail}" if detail else ""
        self.lines.append(f"check {name}: {status}{suffix}")

    def note(self, text: str):
        self.lines.append(text)

    def block(self, title: str, body: str):
        self.lines.append(f"{title}:")
        self.lines.append(body.rstrip("\n"))

    @property
    def status(self) -> str:
        if "fail" in self.statuses:
            return "fail"
        if "inconclusive" in self.statuses:
            return "inconclusive"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "inconclusive": 2}[self.status]

    def render(self) -> str:
        head = [
            f"fimod {__version__}",
            f"command: {self.command}",
            "config: " + json.dumps(self.config, sort_keys=True),
            f"seed: {self.seed}",
        ]
        return "\n".join(head + self.lines + [f"status: {self.status}"]) + "\n"


def _integer(text: str) -> int:
    """An integer option value: an optional minus sign and ASCII digits,
    nothing else. int() alone would also take '1_0', surrounding
    whitespace, a plus sign and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _integers(option: str, text: str) -> tuple[int, ...]:
    """A comma list of `_integer`s (--J, --images, --positions)."""
    try:
        return tuple(_integer(x) for x in text.split(","))
    except argparse.ArgumentTypeError as e:
        raise UsageError(f"argument {option}: {e}") from e


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = _integer(lo), _integer(hi if sep else lo)
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad degree range {text!r}") from None
    if lo < 0 or hi < lo:
        raise UsageError(f"bad degree range {text!r}")
    return lo, hi


def _load_presentation(path: str, ring_name: str | None) -> FIPresentation:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    ring = parse_ring(ring_name) if ring_name else None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except RecursionError as e:
        raise UsageError(
            f"{path}: parse error: document nested too deeply") from e
    try:
        return FIPresentation.from_document(doc, ring=ring)
    except (ValueError, KeyError, TypeError, ZeroDivisionError,
            OverflowError) as e:
        raise UsageError(f"{path}: invalid presentation document: {e}") from e


def _load_table(path: str, ring_name: str) -> DimensionTable:
    ring = parse_ring(ring_name)
    try:
        with open(path) as fh:
            return DimensionTable.from_csv(fh.read(), ring)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    except ValueError as e:
        raise UsageError(f"{path}: invalid table: {e}") from e


def _require_degree(n: int):
    if n < 0:
        raise UsageError(f"--n must be >= 0, got {n}")


def _default_primes() -> list[int]:
    """FIMOD_PRIMES: distinct primes in ASCII digits, comma separated, with
    nothing else; 2,3,5,7 when unset or empty."""
    env = os.environ.get("FIMOD_PRIMES")
    if not env:
        return [2, 3, 5, 7]
    primes: list[int] = []
    for text in env.split(","):
        if not re.fullmatch(r"[0-9]+", text):
            raise UsageError(f"FIMOD_PRIMES: invalid entry {text!r}")
        p = int(text)
        if p in primes:
            raise UsageError(f"FIMOD_PRIMES: duplicate prime {p}")
        try:
            GF(p)
        except ValueError as e:
            raise UsageError(f"FIMOD_PRIMES: {e}") from None
        primes.append(p)
    return primes


def _write(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from e


def _emit(report: Report, out: str | None):
    """Write the report to `out` first, so an unwritable path leaves
    stdout empty, then to stdout."""
    text = report.render()
    if out:
        _write(out, text)
    sys.stdout.write(text)


def _maybe_write(path: str | None, text: str, report: Report, label: str):
    if path:
        _write(path, text)
        report.note(f"{label} written to {path}")
    else:
        report.block(label, text)


# ---------------------------------------------------------------------------
# commands

def cmd_eval(args) -> Report:
    p = _load_presentation(args.module, args.ring).reduced()
    lo, hi = _parse_range(args.n)
    rep = Report("eval", {"module": args.module, "n": args.n,
                          "ring": p.ring.name})
    table = dimension_table(p, lo, hi)
    rep.block("table", table.to_csv())
    if args.fit:
        _fit_table(rep, table, args.min_tail)
    return rep


def _report_fit(rep: Report, fit):
    if fit.certified:
        rep.check("fit", "pass",
                  f"polynomial {fit.polynomial}, onset {fit.onset}, "
                  f"tail {fit.tail_length}")
    else:
        rep.check("fit", "inconclusive", fit.detail)


def _fit_table(rep: Report, table: DimensionTable, min_tail: int):
    """Fit a table; Z tables fit their free-rank column, torsion stays raw."""
    if table.is_field_table:
        _report_fit(rep, fit_polynomial(table, min_tail))
        return
    rep.note("integer table: fitting the free-rank column; torsion "
             "invariants reported raw above")
    ranks = DimensionTable(QQ, table.start, table.free_ranks())
    _report_fit(rep, fit_polynomial(ranks, min_tail))


def cmd_h0(args) -> Report:
    p = _load_presentation(args.module, args.ring)
    rep = Report("h0", {"module": args.module, "n_max": args.n_max,
                        "ring": p.ring.name})
    g = generation_degree(p, args.n_max)
    for n, inv in enumerate(g.h0_invariants):
        rep.note(f"h0 at {n}: {inv.describe()}")
    deg = "none" if g.degree is None else str(g.degree)
    rep.check("generation-degree", "pass",
              f"largest nonzero h0 at {deg} ({g.status})")
    return rep


def cmd_shift(args) -> Report:
    p = _load_presentation(args.module, args.ring)
    rep = Report("shift", {"module": args.module, "a": args.a,
                           "ring": p.ring.name})
    shifted = shift_presentation(p, args.a)
    rep.note(f"shifted presentation: {len(shifted.generator_degrees)} "
             f"generators, {len(shifted.relations)} relations")
    _maybe_write(args.emit, shifted.dumps(), rep, "presentation")
    return rep


def cmd_torsion(args) -> Report:
    p = _load_presentation(args.module, args.ring)
    rep = Report("torsion", {"module": args.module, "n": args.n,
                             "a_max": args.a_max, "ring": p.ring.name})
    t = torsion_slice(p, args.n, args.a_max)
    for a, inv in enumerate(t.invariants, start=1):
        rep.note(f"kernel of the degree-{a} canonical map: {inv.describe()}")
    rep.check("kernel-chain-ascending", "pass" if t.ascending else "fail")
    rep.check("stabilized", "pass" if t.stabilized else "inconclusive",
              "union-so-far only" if not t.stabilized else
              f"union is {t.final_invariants().describe()}")
    return rep


def cmd_derivative(args) -> Report:
    p = _load_presentation(args.module, args.ring)
    rep = Report("derivative", {"module": args.module, "ring": p.ring.name})
    d = derivative(p)
    _maybe_write(args.emit, d.dumps(), rep, "presentation")
    return rep


def cmd_saturate(args) -> Report:
    doc = _load_presentation(args.submodule, args.ring)
    if len(doc.generator_degrees) != 1:
        raise UsageError("submodule document must present one free generator; "
                         "its relation elements are read as the submodule "
                         "generators")
    d = doc.generator_degrees[0]
    rep = Report("saturate", {"submodule": args.submodule, "d": d,
                              "a_max": args.a_max, "slack": args.slack,
                              "ring": doc.ring.name})
    result = saturate(d, list(doc.relations), args.a_max, args.slack, doc.ring)
    for w in result.warnings:
        rep.note(f"warning: {w}")
    for stage in result.stages:
        rep.note(f"stage {stage.amount}: {stage.invariants.describe()}")
    rep.check("chain-ascending", "pass" if result.ascending else "fail")
    if result.stabilization is None:
        rep.check("stabilization", "inconclusive",
                  f"no stage stable across slack {args.slack} within "
                  f"a_max {args.a_max}")
    else:
        rep.check("stabilization", "pass", f"N = {result.stabilization}")
    return rep


def cmd_homology(args) -> Report:
    _require_degree(args.n)
    p = _load_presentation(args.module, args.ring).reduced()
    positions = _integers("--positions", args.positions) \
        if args.positions else None
    primes = _default_primes()
    rep = Report("homology", {"module": args.module, "n": args.n,
                              "positions": args.positions or "all",
                              "primes": ",".join(map(str, primes)),
                              "ring": p.ring.name})
    if isinstance(p.ring, IntegerRing) and \
            any(p.slice_module(m).invariants().torsion
                for m in range(0, args.n + 1)):
        rep.note("slices carry torsion over Z: reporting field-wise "
                 "dimensions (universal-coefficients caveat: integer "
                 "homology is not determined by these alone)")
        doc = p.to_document()
        srcs = {ring.name: FIPresentation.from_document(doc, ring=ring)
                for ring in [QQ] + [GF(q) for q in primes]}
        for name, dims in homology_field_table(srcs, args.n,
                                               positions).items():
            rep.note(f"over {name}: {json.dumps(dims, sort_keys=True)}")
        rep.check("homology", "pass", "field-wise table emitted")
        return rep
    res = complex_homology(p, args.n, positions)
    for a in sorted(res.positions):
        rep.note(f"H_{a} at degree {args.n}: {res.positions[a].describe()}")
    rep.check("homology", "pass", f"mode {res.mode}")
    return rep


def cmd_homotopy_check(args) -> Report:
    _require_degree(args.n)
    p = _load_presentation(args.module, args.ring)
    rep = Report("homotopy-check", {"module": args.module, "n": args.n,
                                    "a": args.a, "ring": p.ring.name})
    levels = [args.a] if args.a is not None else list(range(0, args.n + 1))
    for a in levels:
        ok = verify_chain_homotopy(p, a, args.n)
        rep.check(f"homotopy-identity-level-{a}", "pass" if ok else "fail")
    return rep


def cmd_colimit(args) -> Report:
    p = _load_presentation(args.module, args.ring)
    rep = Report("colimit", {"module": args.module, "n": args.n,
                             "cutoff": args.N, "mode": args.mode,
                             "ring": p.ring.name})
    col = poset_colimit(p, args.n, args.N, args.mode)
    rep.note(f"colimit over {len(col.objects)} subsets: "
             f"{col.module.invariants().describe()}")
    ok, cert = is_isomorphism(col.canonical)
    rep.check("canonical-map-isomorphism", "pass" if ok else "fail",
              f"surjective={cert['surjective']}, "
              f"source={cert['source_invariants'].describe()}, "
              f"target={cert['target_invariants'].describe()}")
    return rep


def cmd_check_inductive(args) -> Report:
    p = _load_presentation(args.module, args.ring)
    lo, hi = _parse_range(args.n)
    rep = Report("check-inductive", {"module": args.module, "N": args.N,
                                     "n": args.n, "ring": p.ring.name})
    for n in range(lo, hi + 1):
        ok, cert = check_inductive(p, args.N, n)
        rep.check(f"inductive-description-n-{n}", "pass" if ok else "fail",
                  f"colimit {cert['source_invariants'].describe()} vs slice "
                  f"{cert['target_invariants'].describe()}")
    return rep


def cmd_find_n(args) -> Report:
    p = _load_presentation(args.module, args.ring)
    rep = Report("find-N", {"module": args.module, "n_max": args.n_max,
                            "ring": p.ring.name})
    r = find_N(p, args.n_max)
    rep.note(f"nonzero H0 at degrees {r.nonzero_h0}")
    rep.note(f"nonzero H1 at degrees {r.nonzero_h1}")
    rep.check("found-N", "pass", f"N = {r.bound} ({r.status})")
    return rep


def cmd_fit(args) -> Report:
    table = _load_table(args.table, args.ring)
    rep = Report("fit", {"table": args.table, "ring": args.ring,
                         "min_tail": args.min_tail})
    _report_fit(rep, fit_polynomial(table, args.min_tail))
    return rep


def _parse_multiindex(args) -> MultiIndex:
    J = _integers("--J", args.J)
    if len(J) != args.r:
        raise UsageError(f"J has {len(J)} components, expected r = {args.r}")
    return MultiIndex(args.r, J)


def cmd_coinv(args) -> Report:
    ring = parse_ring(args.ring)
    if not ring.is_field:
        raise UsageError("coinvariant computations are field-only; use Q or Fp "
                         "(run several primes for integral conclusions)")
    spec = _parse_multiindex(args)
    lo, hi = _parse_range(args.n)
    rep = Report("coinv", {"r": args.r, "J": args.J, "ring": ring.name,
                           "n": args.n})
    table = coinvariant_table(spec, lo, hi, ring)
    rep.block("table", table.to_csv())
    if args.fit:
        _report_fit(rep, fit_polynomial(table, args.min_tail))
    return rep


def cmd_coinv_map(args) -> Report:
    ring = parse_ring(args.ring)
    if not ring.is_field:
        raise UsageError("coinvariant computations are field-only")
    spec = _parse_multiindex(args)
    images = _integers("--images", args.images)
    try:
        f = Injection(len(images), args.target, images)
    except ValueError as e:
        raise UsageError(f"bad injection: {e}") from e
    rep = Report("coinv-map", {"r": args.r, "J": args.J, "ring": ring.name,
                               "images": args.images, "target": args.target})
    mat = coinvariant_dual_map(spec, f, ring)
    rows = [[str(mat.get(i, j)) for j in range(mat.ncols)]
            for i in range(mat.nrows)]
    rep.note(f"dual map matrix ({mat.nrows} x {mat.ncols}), "
             "rows = target coinvariant basis")
    rep.block("matrix", "\n".join(",".join(row) for row in rows)
              if mat.nrows and mat.ncols else "(empty)")
    return rep


def cmd_arnold(args) -> Report:
    ring = parse_ring(args.ring)
    lo, hi = _parse_range(args.n)
    rep = Report("arnold", {"m": args.m, "n": args.n, "ring": ring.name})
    table = invariants_table(ring, lo, hi,
                             ArnoldModule(args.m, ring).slice_invariants)
    rep.block("table", table.to_csv())
    if args.fit:
        _fit_table(rep, table, args.min_tail)
    if args.emit_presentation:
        pres = arnold_presentation(args.m, ring)
        _maybe_write(args.emit_presentation, pres.dumps(), rep, "presentation")
    return rep


def cmd_tail_equal(args) -> Report:
    a = _load_table(args.table_a, args.ring)
    b = _load_table(args.table_b, args.ring)
    rep = Report("tail-equal", {"table_a": args.table_a,
                                "table_b": args.table_b,
                                "window": args.window, "ring": args.ring})
    try:
        same = tail_equal(a, b, args.window)
    except ValueError as e:
        raise UsageError(str(e)) from e
    rep.note(f"result: {'true' if same else 'false'}")
    rep.check("tail-comparison", "pass",
              f"tables {'agree' if same else 'differ'} on the trailing "
              f"{args.window} rows")
    return rep


def cmd_selftest(args) -> Report:
    # imported here: no other command needs the suite or its sampling
    from .selftest import EXCLUSION_NOTE, run_selftest
    rep = Report("selftest", {"seed": args.seed}, seed=args.seed)
    for result in run_selftest(args.seed):
        rep.check(result.tag, result.status, result.detail)
    rep.note(f"exclusion: {EXCLUSION_NOTE}")
    return rep


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process. Parsing leaves nothing on
    it (no append actions, no mutable defaults), so one tree serves every
    call of `main`."""
    parser = _Parser(prog="fimod",
                     description="Exact workbench for finitely presented "
                                 "FI-modules over Q, F_p and Z")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="also write the report to this path")
        return p

    def module_opts(p):
        p.add_argument("--module", required=True,
                       help="presentation document (JSON)")
        p.add_argument("--ring", help="override the document ring (Q, Z, Fp)")

    p = add("eval", cmd_eval, help="slice dimension table")
    module_opts(p)
    p.add_argument("--n", required=True, help="degree range A..B")
    p.add_argument("--fit", action="store_true")
    p.add_argument("--min-tail", type=_integer, default=3)

    p = add("h0", cmd_h0, help="generation-degree scan")
    module_opts(p)
    p.add_argument("--n-max", type=_integer, required=True)

    p = add("shift", cmd_shift, help="positive shift presentation")
    module_opts(p)
    p.add_argument("--a", type=_integer, required=True)
    p.add_argument("--emit", help="write the shifted presentation here")

    p = add("torsion", cmd_torsion, help="slicewise torsion kernels")
    module_opts(p)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--a-max", type=_integer, default=3)

    p = add("derivative", cmd_derivative, help="discrete derivative presentation")
    module_opts(p)
    p.add_argument("--emit", help="write the derivative presentation here")

    p = add("saturate", cmd_saturate, help="degree-d saturation chain")
    p.add_argument("--submodule", required=True,
                   help="document with one generator of degree d; relation "
                        "elements are the submodule generators")
    p.add_argument("--ring", help="override the document ring")
    p.add_argument("--a-max", type=_integer, default=4)
    p.add_argument("--slack", type=_integer, default=3)

    p = add("homology", cmd_homology, help="homology of the slice complex")
    module_opts(p)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--positions", help="comma list of levels (default all)")

    p = add("homotopy-check", cmd_homotopy_check,
            help="verify the contracting homotopy identity")
    module_opts(p)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--a", type=_integer)

    p = add("colimit", cmd_colimit, help="poset colimit presentation")
    module_opts(p)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--N", type=_integer, required=True, help="size cutoff")
    p.add_argument("--mode", choices=["full", "final-layers"], default="full")

    p = add("check-inductive", cmd_check_inductive,
            help="is V_n the colimit over subsets of size <= N?")
    module_opts(p)
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--n", required=True, help="degree range A..B")

    p = add("find-N", cmd_find_n, help="largest degree with H0 or H1 nonzero")
    module_opts(p)
    p.add_argument("--n-max", type=_integer, required=True)

    p = add("fit", cmd_fit, help="eventually-polynomial fit of a CSV table")
    p.add_argument("--table", required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--min-tail", type=_integer, default=3)

    p = add("coinv", cmd_coinv, help="coinvariant dimension table")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--J", required=True, help="comma list, e.g. 1,2")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", required=True, help="degree range A..B")
    p.add_argument("--fit", action="store_true")
    p.add_argument("--min-tail", type=_integer, default=3)

    p = add("coinv-map", cmd_coinv_map, help="dual coinvariant map matrix")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--images", required=True,
                   help="comma list of injection images")
    p.add_argument("--target", type=_integer, required=True)

    p = add("arnold", cmd_arnold, help="configuration witness table")
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--n", required=True, help="degree range A..B")
    p.add_argument("--ring", required=True)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--min-tail", type=_integer, default=3)
    p.add_argument("--emit-presentation", nargs="?", const="", default=None,
                   help="emit the witness as a presentation document "
                        "(optionally to a path)")

    p = add("tail-equal", cmd_tail_equal, help="compare two table tails")
    p.add_argument("--table-a", required=True)
    p.add_argument("--table-b", required=True)
    p.add_argument("--window", type=_integer, required=True)
    p.add_argument("--ring", required=True)

    p = add("selftest", cmd_selftest, help="run the acceptance property suite")
    p.add_argument("--seed", type=_integer, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.fn(args)
        _emit(report, args.out if hasattr(args, "out") else None)
    except (UsageError, ValueError) as e:
        sys.stderr.write(f"fimod: error: {e}\n")
        return 3
    except Exception as e:
        sys.stderr.write(f"fimod: internal error: {type(e).__name__}: {e}\n")
        return 4
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
