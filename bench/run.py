#!/usr/bin/env python3
"""posgame benchmark: one workload, end-to-end metrics or a traced run.

    python3 bench/run.py --workload verify|figures|large_n --seed N \\
        --seconds S --trace 0|1

Run it from anywhere inside a full checkout; it imports posgame from the
checkout's ``src/`` and fails without printing a result when that is absent.
Seeds are non-negative integers.
The workloads are defined in ``workloads.py``.  Each is a closed loop: one
caller runs the workload's posgame commands one after another, in one
process, with numpy's thread pools held to one thread.

``--trace 0`` measures, with tracing off:

- ``setup_s``: from starting a fresh interpreter until ``posgame.cli`` is
  imported and the workload's configs are parsed (median of 7 interpreters);
- ``cold_s``: from starting a fresh interpreter until its first whole pass
  ends, imports included and the output check excluded (median over at least
  3 processes; more, up to 9, while the cold passes so far took under S/2
  seconds);
- ``wall_s``: one pass in a warm process (median over the passes 3 worker
  processes fit in S seconds after their cold pass);
- ``peak_rss_mb``: ``ru_maxrss`` of a worker at the end of its cold pass,
  before any output is checked (median over those 3 workers).

The three times are speed-scaled seconds.  While a worker runs, it times a
fixed piece of work that uses no posgame code every 50 ms (``worker.py``'s
``Speedometer``).  Each interval loses the seconds those ticks took inside
it and is then multiplied by ``TICK_S / t``, where ``t`` is the mean tick
inside it.  The machine's speed swings by up to half within seconds and over
minutes: over ten runs of a workload with ``run_seconds`` 18, the unscaled
medians of wall_s spread by 0.07 to 0.20 of their value (q3 - q1 over the
median) and the scaled ones by 0.015 to 0.031.  A change to posgame moves the
interval, not the ticks, so it shows in full.  The unscaled medians (ticks
taken out, not scaled) are printed and kept in the run's record.

``--trace 1`` reports the per-layer metrics of ``tracing.py`` from one
worker: a warm-up pass, then pairs of an untraced and a traced pass for S
seconds.  Each per-layer value is the median over the traced passes;
``trace.overhead_s`` is the median over pairs of traced minus untraced
wall time.  The spans of the last traced pass are written to
``bench/traces/<workload>.spans.csv``; ``*.import_s`` come from
``python -X importtime``.  The metric names and units are those of
``BENCHMARK.json``.

Every operation's output is checked (``checks.py``); a failed check counts in
``failed`` and does not stop the run.  A record of the run, with a machine
and version block, is written to ``bench/results/``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKERS = 3  # processes with a cold pass and then warm passes
MAX_COLD = 9  # cold-only processes are added while cold passes took under S/2
SETUP_PER_WORKER = 2  # set-up samples before each worker, plus one at the end
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run must end within 180 s
# Scaled seconds are seconds at the speed at which the speedometer's tick
# takes 5 ms; on a 2-vCPU 2.1 GHz Xeon (Python 3.11, numpy 2.4) its mean over
# an interval ranged from about 4 to 6.5 ms.
TICK_S = 0.005

# Per-layer metrics named beside the seven layers' own, with the end-to-end
# metric and workload each should move, as printed beside their values.
SPOTLIGHT = {
    "oracle.nash_fixed_point.self_s": "wall_s on verify; 0 on figures and large_n",
    "oracle.banded_solves": "wall_s on verify; 0 on figures and large_n",
    "oracle.deviation_test.calls": "wall_s on verify; 0 on figures and large_n",
    "oracle.deviation_test.self_s": "wall_s on verify; 0 on figures and large_n",
    "equilibrium.governing_residuals.calls": "wall_s on verify (9090 per pass)",
    "equilibrium.governing_residuals.self_s": "wall_s on verify",
    "verification.simpson_cost.self_s": "wall_s on verify",
    "centralization.averaged_report.self_s": "wall_s on figures; 0 on verify and large_n",
    "centralization.naive_centralization_report.calls":
        "wall_s on figures; 0 on verify and large_n",
    "costs.cost_breakdown.self_s": "wall_s on large_n; small on figures",
    "core.validate_spec.calls": "wall_s on large_n; small on figures",
    "equilibrium.solve.self_s": "wall_s on large_n; small on figures",
    "core.ClosedFormStrategy.position.calls": "wall_s on large_n; small on figures",
    "cli.self_s": "wall_s on large_n and figures (config parsing, CSV formatting)",
    "cli.csv_bytes": "wall_s on large_n and figures",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Children:
    """Starts worker processes one at a time under the run's deadline."""

    def __init__(self, plan: Path):
        self.plan = plan
        self.deadline = now() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(self, args: list[str], python_flags=()) -> tuple[float, subprocess.CompletedProcess]:
        """Run a child to completion; return its start time and the completed process."""
        timeout = self.deadline - now()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        cmd = [sys.executable, *python_flags, *args]
        started = now()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {' '.join(args)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n"
                             f"{proc.stderr[-2000:]}")
        return started, proc

    def worker(self, mode: str, *args) -> tuple[float, dict]:
        """Run ``worker.py`` in ``mode``; return its start time and its JSON record."""
        started, proc = self.run([str(BENCH_DIR / "worker.py"), mode, str(self.plan),
                                  *map(str, args)])
        return started, json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


def warm_up(children: Children) -> None:
    """An untimed set-up: compiles bytecode, warms the file cache, checks the import path."""
    _, ready = children.worker("setup")
    posgame_file = Path(ready["posgame"]).resolve()
    if not posgame_file.is_relative_to(SRC.resolve()):
        raise BenchError(f"posgame was imported from {posgame_file}, not from {SRC}")


def timed_run(children: Children, out_root: Path, seconds: int) -> tuple[dict, list[dict]]:
    """End-to-end metrics, each as quartiles over its samples.

    Set-up samples are spread between the workers so that they see the same
    mix of machine states as the passes do.
    """
    warm_up(children)
    raw = {"wall_s": [], "cold_s": [], "setup_s": []}
    scaled = {name: [] for name in raw}
    rss, ticks, records = [], [], []

    def sample(name, seconds, ticked, tick):
        raw[name].append(seconds - ticked)
        scaled[name].append((seconds - ticked) * TICK_S / tick)
        ticks.append(tick)

    def setup_sample():
        started, ready = children.worker("setup")
        sample("setup_s", ready["ready"] - started, ready["ticked"], ready["tick"])

    def worker(k, budget):
        started, record = children.worker("passes", out_root / f"w{k}", budget)
        sample("cold_s", record["cold_end"] - started, record["cold_ticked"], record["cold_tick"])
        for wall, ticked, tick in record["warm"]:
            sample("wall_s", wall, ticked, tick)
        records.append(record)
        return record

    for k in range(WORKERS):
        for _ in range(SETUP_PER_WORKER):
            setup_sample()
        # warm passes share the S seconds
        budget = (seconds - sum(raw["wall_s"])) / (WORKERS - k)
        rss.append(worker(k, budget)["peak_rss_mb"])
    setup_sample()
    while sum(raw["cold_s"]) < seconds / 2 and len(raw["cold_s"]) < MAX_COLD:
        worker(len(raw["cold_s"]), 0.0)  # more cold samples while they are cheap
    metrics = {name: quartiles(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = quartiles(rss)
    for name, values in raw.items():
        metrics[name]["unscaled_median"] = statistics.median(values)
    metrics["median_tick_s"] = statistics.median(ticks)
    return metrics, records


def import_times(children: Children) -> dict:
    """Cumulative import seconds of each layer's module, median over fresh interpreters."""
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+posgame\.(\w+)$")
    for _ in range(IMPORT_SAMPLES):
        _, proc = children.run(["-c", "import posgame.cli"], python_flags=("-X", "importtime"))
        for line in proc.stderr.splitlines():
            match = pattern.match(line.strip())
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    missing = [layer for layer, values in samples.items() if len(values) != IMPORT_SAMPLES]
    if missing:
        raise BenchError(f"no import time for posgame.{', posgame.'.join(missing)}")
    return {f"{layer}.import_s": statistics.median(v) for layer, v in samples.items()}


def metric_units(trace: int) -> dict[str, str]:
    """Name and unit of every metric a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def traced_run(children: Children, out_root: Path, seconds: int, workload: str,
               names: list[str]) -> tuple[dict, list[dict]]:
    """Per-layer metrics: medians over traced passes, plus import times and overhead."""
    warm_up(children)
    metrics = import_times(children)
    spans_path = BENCH_DIR / "traces" / f"{workload}.spans.csv"
    spans_path.parent.mkdir(exist_ok=True)
    _, record = children.worker("trace", out_root / "trace", seconds, spans_path)
    metrics["cli.csv_bytes"] = record["csv_bytes"]
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(record["traced"], record["untraced"]))
    for name in names:
        if name not in metrics:
            metrics[name] = statistics.median(pass_.get(name, 0.0) for pass_ in record["layers"])
    return metrics, [record]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def report(args, units: dict, metrics: dict, attempted: int, failures: list[str],
           info: dict) -> None:
    print(f"posgame benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, unit in units.items():
        value = metrics[name]
        if isinstance(value, dict):
            unscaled = (f", unscaled {value['unscaled_median']:.6g}"
                        if "unscaled_median" in value else "")
            print(f"  {name:<14} {value['median']:12.6g} {unit:<6} median of "
                  f"{value['samples']:>3} (q1 {value['q1']:.6g}, q3 {value['q3']:.6g}"
                  f"{unscaled})")
        else:
            moves = SPOTLIGHT.get(name, "setup_s and cold_s" if name.endswith(".import_s") else "")
            print(f"  {name:<50} {value:14.6g} {unit:<6} {moves}")
    if "median_tick_s" in metrics:
        print(f"  speedometer tick: median {metrics['median_tick_s'] * 1e3:.4g} ms over the "
              f"intervals, scaled to {TICK_S * 1e3:g} ms")
    share = len(failures) / attempted
    print(f"  {'fail_share':<14} {share:12.6g} ratio  ({len(failures)} of {attempted} "
          "operations failed)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "posgame" / "cli.py").is_file():
        print(f"bench: no posgame package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    units = metric_units(args.trace)

    tmp_parent = BENCH_DIR / ".tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    try:
        children = Children(workloads.write_plan(args.workload, args.seed, tmp))
        if args.trace:
            metrics, records = traced_run(children, tmp / "out", args.seconds, args.workload,
                                          list(units))
        else:
            metrics, records = timed_run(children, tmp / "out", args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_parent.iterdir()):
            tmp_parent.rmdir()

    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    info = machine()
    report(args, units, metrics, attempted, failures, info)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name]["median"] if not args.trace else metrics[name],
                   "unit": unit}
            for name, unit in units.items()
        },
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "metrics": metrics,
              "fail_share": len(failures) / attempted, "failures": failures,
              "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
