"""One benchmark pass: a fresh interpreter running a job list in order.

    python3 perfbench/session.py JOBS.json RESULT.json [SPANS.json]

JOBS.json holds {"job_limit_s": float, "jobs": [{"id": ..., "argv": [...]}]}.
Jobs run one at a time through `fimod.cli.main(argv)` with stdout and
stderr captured, sharing one interpreter and therefore fimod's global slice
cache, as calls do in a library session. A job that runs past the limit is
interrupted by SIGALRM and recorded as a timeout. With SPANS.json the pass
is traced (see tracing.py) and the spans are written there after the last
job.

RESULT.json receives the monotonic clock at the start of the first job (the
parent subtracts its spawn time to get set-up time), each job's exit code,
captured stdout and stderr, error and duration, and the interpreter's peak RSS.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, argv: list[str], limit_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        error = f"timeout after {limit_s:g} s"
    except Exception as e:      # a crashing job is a failed job, not a crash
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error, "seconds": seconds}


def main(argv: list[str]) -> int:
    jobs_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    spec = json.loads(Path(jobs_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from fimod import cli

    tracer = None
    if spans_path:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    first_job_start = time.monotonic()
    results = [run_job(cli, job["argv"], spec["job_limit_s"])
               for job in spec["jobs"]]
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps({
        "first_job_start": first_job_start,
        "jobs": results,
        "peak_rss_mb": maxrss_kib / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
