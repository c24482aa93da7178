"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/steadiness.py --workloads witness,homology-z \
        --seeds 1-10 --seconds 40

Runs run.py once per (workload, seed), one after another, and prints for
every metric the median of the per-run values and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median. Compare each spread with the metric's bound in
BENCHMARK.json; a steady benchmark keeps it well below.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound")
              for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())
              ["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()), flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"{workload} {name}: median {statistics.median(values):.6g} "
                  f"spread {spread(values):.4f} (bound {bound}, a third is "
                  f"{bound / 3:.4f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
