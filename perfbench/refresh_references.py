"""Rewrite the stored reports that judge seed-independent jobs.

    python3 perfbench/refresh_references.py

Runs each job of workloads.REFERENCE_JOBS once through fimod.cli.main and
stores its report as perfbench/reference/<job id>.txt. Run it only when a
report format changes on purpose, and review the diff: these files are the
oracle for jobs that have no independent one.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fimod import cli

    import workloads
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for job_id, argv in workloads.REFERENCE_JOBS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            print(f"{job_id}: exit code {rc}", file=sys.stderr)
            return 1
        (workloads.REFERENCE_DIR / f"{job_id}.txt").write_text(out.getvalue())
        print(f"wrote reference/{job_id}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
