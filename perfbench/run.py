"""fimod benchmark: seeded CLI sessions with oracles, end to end and per layer.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 40 --trace 0

Workloads: witness, homology-z, presented-fp (see workloads.py). One run
builds the workload's inputs from --seed (untimed), then runs passes for
about --seconds seconds. Each pass is a fresh interpreter (session.py) that
runs the whole job list in order through fimod.cli.main.

--trace 0: every pass is untraced. Prints the end-to-end metrics as
medians over passes: wall_s (time inside cli.main summed over a pass's
jobs), job_max_s (the pass's slowest job), peak_rss_mb (ru_maxrss of the
pass's interpreter) and setup_s (spawn to start of the first job:
interpreter start plus `import fimod.cli`; sampled on every untraced pass
and on two job-less interpreters after each).

--trace 1: passes alternate untraced and traced. Prints the per-layer
metrics of tracing.py as medians over traced passes, plus
trace.overhead_ratio, the median traced wall_s over the median untraced one.

Every job of every pass is judged by its oracle, and every report must be
byte-identical to the same job's report in the first pass, so traced and
untraced reports are compared too. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it hold
the run record (seed, job-list digest, Python version, nproc, git sha,
load average before each pass), one line per pass and a readable summary.
The exit code is 0 when the run completed, even if jobs failed; a missing
fimod source tree exits 1 without a result line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 165.0      # hard cap for one run, set-up included
JOB_LIMIT_S = 30.0       # a job running longer counts as failed
SETUP_PROBES = 2         # extra set-up samples after each untraced pass

END_TO_END = {"wall_s": "s", "job_max_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s"}


def import_fimod():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fimod.cli  # noqa: F401  (also compiles every module once)
    except ImportError as e:
        sys.exit(f"perfbench: cannot import fimod from {src}: {e}")
    import fimod
    if Path(fimod.__file__).resolve().parent != src / "fimod":
        sys.exit(f"perfbench: fimod imported from {fimod.__file__}, "
                 f"not from {src}")


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def job_digest(jobs, workdir: Path) -> str:
    """sha256 over job ids, argv and the content of every input document."""
    h = hashlib.sha256()
    prefix = str(workdir)
    for job in jobs:
        h.update(job.id.encode())
        for arg in job.argv:
            if arg.startswith(prefix):
                arg = hashlib.sha256(Path(arg).read_bytes()).hexdigest()
            h.update(b"\0" + arg.encode())
        h.update(b"\n")
    return h.hexdigest()


def quantile_line(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples above."""
    s = sorted(values)
    parts = [f"median {statistics.median(s):.6f}"]
    for q in (99, 95, 90, 75):
        if len(s) * (100 - q) / 100 >= 10:
            parts.append(f"p{q} {s[min(len(s) - 1, int(len(s) * q / 100))]:.6f}")
            break
    return ", ".join(parts) + f" (n={len(s)})"


class Pass:
    """One interpreter running the job list; returns parsed results."""

    def __init__(self, index: int | str, traced: bool, workdir: Path):
        self.index = index
        self.traced = traced
        self.result_path = workdir / f"pass{index}.json"
        self.spans_path = workdir / f"spans{index}.json"
        self.loadavg = os.getloadavg()
        self.error = None
        self.data = None
        self.spans = None
        self.setup_s = None

    def run(self, jobs_path: Path, timeout: float):
        cmd = [sys.executable, str(HERE / "session.py"), str(jobs_path),
               str(self.result_path)]
        if self.traced:
            cmd.append(str(self.spans_path))
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("FIMOD_PRIMES", None)
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.error = f"pass killed after {timeout:.0f} s"
            return
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            self.error = f"pass exited {proc.returncode}: {err.strip()[-300:]}"
            return
        self.data = json.loads(self.result_path.read_text())
        self.setup_s = self.data["first_job_start"] - spawn
        if self.traced:
            self.spans = json.loads(self.spans_path.read_text())

    def wall_s(self) -> float:
        return sum(j["seconds"] for j in self.data["jobs"])

    def job_max_s(self) -> float:
        return max(j["seconds"] for j in self.data["jobs"])


def judge_pass(p: Pass, jobs, first_reports: dict) -> list[tuple[str, list]]:
    """Failed jobs of a pass as (job id, problems)."""
    import oracles
    if p.data is None:
        return [(job.id, [p.error]) for job in jobs]
    outcomes = {job.id: oracles.Outcome(**r)
                for job, r in zip(jobs, p.data["jobs"])}
    failed = []
    for job in jobs:
        out = outcomes[job.id]
        problems = list(oracles.judge(job.check, out, outcomes))
        first = first_reports.setdefault(job.id, out.stdout)
        if out.stdout != first:
            problems.append("report differs from the first pass's report")
        if problems:
            failed.append((job.id, problems))
    return failed


def tally(jobs, passes, failures) -> tuple[int, int]:
    """(attempted, failed) jobs; every job of every pass is attempted, and
    a pass that died fails all of its jobs."""
    return len(jobs) * len(passes), len({(i, j) for i, j, _ in failures})


def main(argv=None) -> int:
    run_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_fimod()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    # SIGTERM unwinds through the finally below, which stops the pass
    signal.signal(signal.SIGTERM, lambda *a: sys.exit(143))
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        jobs_path = workdir / "jobs.json"
        jobs_path.write_text(json.dumps({
            "job_limit_s": JOB_LIMIT_S,
            "jobs": [{"id": j.id, "argv": j.argv} for j in jobs]}))
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "jobs": len(jobs), "job_digest": job_digest(jobs, workdir),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seconds": args.seconds,
        }
        passes, failures, setups = run_passes(args, jobs, jobs_path,
                                              workdir, run_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    record["loadavg_before_pass"] = [list(p.loadavg) for p in passes]
    print("run-record " + json.dumps(record, sort_keys=True))
    for p in passes:
        if p.data is None:
            print(f"pass {p.index}: {p.error}")
        else:
            print(f"pass {p.index}: traced={int(p.traced)} "
                  f"wall_s={p.wall_s():.6f} job_max_s={p.job_max_s():.6f} "
                  f"peak_rss_mb={p.data['peak_rss_mb']:.3f} "
                  f"setup_s={p.setup_s:.6f} "
                  f"loadavg={p.loadavg[0]:.2f}")
    for index, job_id, problems in failures[:20]:
        print(f"FAILED pass {index} job {job_id}: {'; '.join(problems)[:400]}")

    attempted, failed = tally(jobs, passes, failures)
    plain = [p for p in passes if not p.traced and p.data is not None]
    traced = [p for p in passes if p.traced and p.data is not None]
    metrics = {}
    if args.trace == 0 and plain:
        samples = {
            "wall_s": [p.wall_s() for p in plain],
            "job_max_s": [p.job_max_s() for p in plain],
            "peak_rss_mb": [p.data["peak_rss_mb"] for p in plain],
            "setup_s": setups,
        }
        for name, values in samples.items():
            metrics[name] = {"value": statistics.median(values),
                             "unit": END_TO_END[name]}
            print(f"{name}: {quantile_line(values)} {END_TO_END[name]}")
        job_seconds = [j["seconds"] for p in plain for j in p.data["jobs"]]
        print(f"job seconds: {quantile_line(job_seconds)} s")
    if args.trace == 1 and plain and traced:
        layer = [tracing.layer_metrics(p.spans) for p in traced]
        for name in layer[0]:
            metrics[name] = {"value": statistics.median(m[name] for m in layer),
                             "unit": per_layer_unit(name)}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(p.wall_s() for p in traced)
            / statistics.median(p.wall_s() for p in plain),
            "unit": "ratio"}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio: {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_passes(args, jobs, jobs_path: Path, workdir: Path, run_start: float):
    """Passes until --seconds is used up; trace mode alternates kinds.

    Returns the passes, their failed jobs, and the set-up times of the
    untraced passes plus SETUP_PROBES job-less interpreters after each.
    """
    passes: list[Pass] = []
    setups: list[float] = []
    failures: list[tuple[int, str, list]] = []
    first_reports: dict[str, str] = {}
    durations: list[float] = []
    measure_start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        p = Pass(len(passes) + 1, traced, workdir)
        remaining = RUN_LIMIT_S - (time.monotonic() - run_start)
        t0 = time.monotonic()
        p.run(jobs_path, timeout=max(remaining, 1.0))
        passes.append(p)
        if p.setup_s is not None and not traced:
            setups.append(p.setup_s)
        failures += [(p.index, job_id, problems)
                     for job_id, problems in judge_pass(p, jobs, first_reports)]
        if args.trace == 0 and p.data is not None:
            setups += probe_setup(jobs_path.with_name("probe.json"), workdir)
        now = time.monotonic()
        durations.append(now - t0)
        if p.data is None or now + max(durations) - run_start > RUN_LIMIT_S:
            break
        kinds_done = args.trace == 0 or len(passes) >= 2
        if kinds_done and \
                now - measure_start + statistics.median(durations) > args.seconds:
            break
    return passes, failures, setups


def probe_setup(probe_path: Path, workdir: Path) -> list[float]:
    """Set-up times of interpreters that import fimod.cli and run no job."""
    if not probe_path.exists():
        probe_path.write_text(json.dumps({"job_limit_s": JOB_LIMIT_S,
                                          "jobs": []}))
    out = []
    for k in range(SETUP_PROBES):
        probe = Pass(f"probe{k}", False, workdir)
        probe.run(probe_path, timeout=30.0)
        if probe.setup_s is not None:
            out.append(probe.setup_s)
    return out


if __name__ == "__main__":
    sys.exit(main())
