#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and compare spreads to bounds.

    python3 bench/steady.py --workload verify [--first-seed 0]

Each of its ten runs is ``run.py --trace 0`` with the next seed and
BENCHMARK.json's ``run_seconds``.  For every end-to-end metric it prints the
median over the runs, the quartiles (``statistics.quantiles(values, n=4)``),
the spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json.
A spread above a third of its bound is marked, except for ``setup_s``, whose
bound governs only the shift of its median between two sets of runs.  The
summary is written to ``bench/results/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    failed = attempted = 0
    for seed in range(args.first_seed, args.first_seed + RUNS):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n} {v[-1]:.6g}" for n, v in values.items()),
              flush=True)

    summary = {"workload": args.workload, "runs": RUNS, "first_seed": args.first_seed,
               "run_seconds": spec["run_seconds"], "attempted": attempted, "failed": failed,
               "metrics": {}}
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        loose = name != "setup_s" and spread > bounds[name] / 3
        print(f"{name:<14}{median:12.6g}{q1:12.6g}{q3:12.6g}"
              f"{spread:9.3f}{bounds[name]:8.3f}{'  > bound/3' if loose else ''}")
        summary["metrics"][name] = {"values": vals, "median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bounds[name]}
    print(f"operations: {failed} failed of {attempted}")
    out = BENCH_DIR / "results" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
