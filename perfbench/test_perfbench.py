"""Tests of the benchmark's own machinery: oracles, failure counting and
the trace wrappers. Run with `PYTHONPATH=src python -m pytest perfbench`."""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fimod import cli  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _result(argv):
    rc, stdout = _cli(argv)
    return {"rc": rc, "stdout": stdout, "stderr": "", "error": None,
            "seconds": 0.01}


def _arnold_jobs():
    return [
        workloads.Job("arnold-m2", ["arnold", "--m", "2", "--n", "2..5",
                                    "--ring", "Q"],
                      oracles.table_check(workloads._arnold_rows(2, 2, 5, False))),
        workloads.Job("arnold-m1-Z", ["arnold", "--m", "1", "--n", "1..4",
                                      "--ring", "Z"],
                      oracles.table_check(workloads._arnold_rows(1, 1, 4, True))),
    ]


def test_correct_reports_pass_their_oracles():
    jobs = _arnold_jobs()
    p = SimpleNamespace(data={"jobs": [_result(j.argv) for j in jobs]},
                        error=None)
    assert run.judge_pass(p, jobs, {}) == []


def test_one_wrong_dimension_fails_and_counts_in_fail_ratio():
    jobs = _arnold_jobs()
    good = [_result(j.argv) for j in jobs]
    assert "\n5,35\n" in good[0]["stdout"]
    bad = dict(good[0], stdout=good[0]["stdout"].replace("\n5,35\n", "\n5,36\n"))
    first = {}
    passes = [SimpleNamespace(data={"jobs": good}, error=None, index=1),
              SimpleNamespace(data={"jobs": [bad, good[1]]}, error=None,
                              index=2)]
    failures = []
    for p in passes:
        failures += [(p.index, job_id, problems)
                     for job_id, problems in run.judge_pass(p, jobs, first)]
    assert [(i, j) for i, j, _ in failures] == [(2, "arnold-m2")]
    assert any("table rows differ at n=[5]" in msg for msg in failures[0][2])
    assert any("first pass" in msg for msg in failures[0][2])
    assert run.tally(jobs, passes, failures) == (4, 1)


def test_dead_pass_fails_every_job():
    jobs = _arnold_jobs()
    p = SimpleNamespace(data=None, error="pass exited 1", index=1)
    failures = [(1, j, pr) for j, pr in run.judge_pass(p, jobs, {})]
    assert run.tally(jobs, [p], failures) == (2, 2)


def test_unexpected_exit_code_fails():
    check = oracles.table_check({2: (0,)})
    out = oracles.Outcome(rc=3, stdout="", stderr="fimod: error: bad",
                          error=None, seconds=0.0)
    problems = oracles.judge(check, out, {})
    assert problems and "exit code 3" in problems[0]


def test_mahonian_numbers():
    # permutations of [4] by inversions: 1, 3, 5, 6, 5, 3, 1
    assert [workloads.mahonian(4, k) for k in range(8)] == \
        [1, 3, 5, 6, 5, 3, 1, 0]


def test_polynomial_parser():
    poly = oracles.parse_polynomial("-1 + 1*C(n,2)")
    assert [poly(n) for n in (2, 3, 4)] == [0, 2, 5]


def _calls():
    from fimod.matrix import Matrix
    from fimod.modules import PresentedModule
    from fimod.presentations import FIPresentation, free_presentation
    from fimod.rings import QQ, ZZ
    from fimod.smith import smith_form
    import fimod.modules
    m = Matrix.from_rows(ZZ, [[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    p = free_presentation(QQ, 1, 2)
    sf = smith_form(m, transforms=True)
    return [
        m.rank(),
        fimod.modules.invariant_factors(m),
        sf.factors, sf.left, sf.right,
        PresentedModule(ZZ, 3, m).invariants(),
        FIPresentation.from_document(p.to_document()) == p,
        p.evaluate_slice(3).ambient,
        p.evaluate_slice(3) is p.evaluate_slice(3),
    ]


def test_trace_wrappers_return_what_the_wrapped_function_returns():
    import fimod.modules
    import fimod.smith
    original = fimod.smith.invariant_factors
    plain = _calls()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fimod.modules.invariant_factors is not original
        traced = _calls()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert fimod.modules.invariant_factors is original
    assert fimod.smith.invariant_factors is original
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"Matrix.rank", "invariant_factors", "smith_form[transforms]",
            "PresentedModule.invariants", "FIPresentation.from_document",
            "FIPresentation.evaluate_slice"} <= names


def test_traced_cli_report_is_byte_identical():
    argv = ["arnold", "--m", "2", "--n", "2..6", "--ring", "Z"]
    plain = _cli(argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _cli(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    top = [s for s in tracer.spans if s[tracing.PARENT] == -1]
    assert [s[tracing.NAME] for s in top] == ["main"]
    metrics = tracing.layer_metrics(tracer.spans)
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    duration = top[0][tracing.END] - top[0][tracing.START]
    assert abs(total - duration) < 1e-9 * max(1.0, duration) + 1e-12
    assert metrics["smith.invariant_factors.calls"] > 0
    assert metrics["arnold.slice_module.self_s"] > 0


def test_self_times_subtract_direct_children():
    spans = [["cli", "main", -1, 0.0, 10.0, None],
             ["matrix", "Matrix.rank", 0, 1.0, 4.0, [5, 2]],
             ["smith", "invariant_factors", 0, 5.0, 9.0, None],
             ["matrix", "Matrix.rank", 2, 6.0, 7.0, [3, 4]]]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    m = tracing.layer_metrics(spans)
    assert m["matrix.self_s"] == 4.0 and m["smith.self_s"] == 3.0
    assert m["matrix.rank.calls"] == 2
    assert m["matrix.rank.nnz_in"] == 8 and m["matrix.rank.rows_max"] == 4
