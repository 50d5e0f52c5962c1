"""One fresh benchmark process; ``run.py`` starts it and reads its last line.

    worker.py setup PLAN              import posgame.cli, parse every config
    worker.py passes PLAN OUT BUDGET  one cold pass, then warm passes for BUDGET s
    worker.py trace PLAN OUT BUDGET SPANS
                                      a warm-up pass, then pairs of an untraced
                                      and a traced pass for BUDGET s

A pass runs every operation of the plan in this process, in order, through
``posgame.cli.main``.  Timestamps are CLOCK_MONOTONIC, which the parent
shares, so the parent can time from before it started this process.  Only
the standard library and numpy (which the speedometer needs) are imported
before the first pass, and all within the parent's timed interval, so the
cold pass and the set-up pay for every import the package needs.

While ``setup`` and ``passes`` run, a ``Speedometer`` times a fixed piece
of work every 50 ms.  For each timed interval the worker reports the
seconds the ticks took inside it and their mean time; ``run.py`` takes the
first out of the interval and scales the rest by the second.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_op(main, op: dict, out_root: Path) -> dict:
    """Run one posgame command in-process; return its exit code, output and error."""
    argv = [op["command"], "--config", op["config_path"],
            "--out", str(out_root / op["out"]), "--seed", str(op["seed"])]
    stdout, stderr = io.StringIO(), io.StringIO()
    code = error = None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception as exc:  # a raising command is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "error": error}


class Speedometer:
    """Times a fixed piece of work every ``PERIOD_S`` seconds, from SIGALRM.

    The work (``calibrate``) uses no posgame code; it resembles what posgame
    spends its time on: dict and arithmetic bytecode, float formatting, numpy
    calls on 201-point grids and a small dense solve.  Its ticks spread evenly
    over wall time, so their mean time over an interval tracks the machine's
    speed over that interval, and their sum is taken out of the interval.
    A tick runs in the main thread between bytecodes, so one falling inside a
    long C call waits for the call to return.
    """

    PERIOD_S = 0.05

    def __init__(self):
        import numpy as np

        self.np = np
        self.grid = np.linspace(0.0, 1.0, 201)
        self.matrix = np.random.default_rng(0).random((200, 200)) + 200.0 * np.eye(200)
        self.ticks: list[tuple[float, float]] = []  # (start, seconds)
        self.busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def calibrate(self) -> float:
        """Seconds for the fixed work; about 4 ms on a 2.1 GHz Xeon."""
        np, grid = self.np, self.grid
        start = now()
        table: dict[int, int] = {}
        acc = 0
        for i in range(6000):
            table[i & 255] = i
            acc += table[i & 127] * 3 % 7
        ",".join(repr(k * 0.1) for k in range(800))
        for i in range(300):
            (np.exp(-grid * (i % 7)) * 2.0 + grid).sum()
        np.linalg.solve(self.matrix, grid[:200])
        return now() - start

    def _tick(self) -> float:
        self.busy = True
        start = now()
        seconds = self.calibrate()
        self.ticks.append((start, seconds))
        self.busy = False
        return seconds

    def _on_alarm(self, signum, frame):
        if not self.busy:
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)  # one-shot: ticks never overlap

    def settle(self, start: float, end: float) -> tuple[float, float]:
        """Seconds of ticks inside [start, end] and the mean tick there.

        An interval too short to hold a tick gets one right after it.
        """
        inside = [seconds for at, seconds in self.ticks if start <= at < end]
        return sum(inside), statistics.fmean(inside or [self._tick()])

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Passes:
    """Runs and checks passes of one plan, counting operations and failures."""

    def __init__(self, plan: dict, out_root: Path):
        self.plan = plan
        self.out_root = out_root
        self.attempted = 0
        self.failures: list[str] = []
        self.csv_bytes = 0

    def run_ops(self) -> tuple[float, float, list[dict]]:
        """One pass, unchecked; returns its start and end times and each operation's result."""
        import posgame.cli as cli

        shutil.rmtree(self.out_root, ignore_errors=True)
        results = []
        start = now()
        for op in self.plan["ops"]:
            # cli.main is looked up per call so a traced run sees its wrapper.
            results.append(run_op(cli.main, op, self.out_root))
        return start, now(), results

    def run(self) -> float:
        """One pass; returns its wall time.  Outputs are checked after the clock stops."""
        start, end, results = self.run_ops()
        self.check(results)
        return end - start

    def check(self, results: list[dict]) -> None:
        import checks

        for op, result in zip(self.plan["ops"], results):
            self.attempted += 1
            reasons = checks.check_op(self.plan["workload"], op, self.out_root, result)
            if reasons:
                self.failures.append("; ".join(reasons))
        self.csv_bytes = sum(p.stat().st_size for p in self.out_root.rglob("*.csv"))

    def repeat(self, budget: float, speed: Speedometer) -> list[list[float]]:
        """Warm passes until the next one would end past ``budget`` seconds.

        Returns [wall, ticked, tick] per pass (see ``Speedometer.settle``).
        A positive budget buys at least one pass.
        """
        passes: list[list[float]] = []
        start = now()
        while budget > 0 and (not passes or now() - start + statistics.median(
                p[0] for p in passes) <= budget):
            begin, end, results = self.run_ops()
            passes.append([end - begin, *speed.settle(begin, end)])
            self.check(results)
        return passes

    def record(self, **extra) -> dict:
        return {"attempted": self.attempted, "failures": self.failures,
                "csv_bytes": self.csv_bytes, **extra}


def setup(plan: dict) -> dict:
    speed = Speedometer()
    import posgame.cli as cli

    for op in plan["ops"]:
        cli.parse_scenario(json.loads(Path(op["config_path"]).read_text()))
    ready = now()
    ticked, tick = speed.settle(0.0, ready)
    speed.stop()
    return {"ready": ready, "ticked": ticked, "tick": tick, "posgame": cli.__file__}


def passes(plan: dict, out_root: Path, budget: float) -> dict:
    """A cold pass, then warm passes.

    The cold pass's end time and the peak memory are read before its outputs
    are checked, so neither counts the checker.  Warm passes repeat the same
    work, so the cold pass's peak is the workload's.  The speedometer starts
    before posgame is imported; numpy, which it needs, is imported in the
    cold pass's time either way.
    """
    speed = Speedometer()
    runner = Passes(plan, out_root)
    _, cold_end, results = runner.run_ops()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cold_ticked, cold_tick = speed.settle(0.0, cold_end)
    runner.check(results)
    warm = runner.repeat(budget, speed)
    speed.stop()
    return runner.record(cold_end=cold_end, cold_ticked=cold_ticked, cold_tick=cold_tick,
                         peak_rss_mb=peak_kb / 1024.0, warm=warm)


def trace(plan: dict, out_root: Path, budget: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes, so each pair sees the same machine state."""
    import tracing

    runner = Passes(plan, out_root)
    runner.run()
    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    start = now()
    while not traced or now() - start + statistics.median(untraced) + statistics.median(
            traced) <= budget:
        untraced.append(runner.run())
        restore = tracing.install(tracer)
        traced.append(runner.run())
        restore()
        spans, counts = tracer.take()
        layers.append(tracing.summarize(spans, counts))
    tracing.write_spans(spans_path, spans)
    return runner.record(untraced=untraced, traced=traced, layers=layers)


def main(argv: list[str]) -> None:
    mode, plan_path, *rest = argv
    plan = json.loads(Path(plan_path).read_text())
    if mode == "setup":
        record = setup(plan)
    elif mode == "passes":
        record = passes(plan, Path(rest[0]), float(rest[1]))
    elif mode == "trace":
        record = trace(plan, Path(rest[0]), float(rest[1]), Path(rest[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
