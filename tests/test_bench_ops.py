"""Every benchmark operation, run and judged as the benchmark does it.

Each operation of the ``verify``, ``figures`` and ``large_n`` workloads at
seeds 0 and 1 runs in this process through ``bench/worker.py``'s
``run_op`` and is judged by ``bench/checks.py``'s ``check_op``, so an
output that the benchmark would count as failed (a wrong row count, a cell
off its reference or closed form, a non-zero exit) fails here first.  The
benchmark times seeds other than 0, so a second seed makes a break that
shows at one seed alone fail here too.  The files under bench/ are only
read; the outputs go to a temporary directory.
"""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import posgame as pg
import posgame.cli as cli
import posgame.verification as verification
from conftest import load_bench

workloads, checks, worker, tracing = (
    load_bench(name) for name in ("workloads", "checks", "worker", "tracing")
)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["verify", "figures", "large_n"])
def test_every_benchmark_operation_passes_its_checks(tmp_path, workload, seed):
    plan = json.loads(workloads.write_plan(workload, seed, tmp_path).read_text())
    out_root = tmp_path / "out"
    for op in plan["ops"]:
        result = worker.run_op(cli.main, op, out_root)
        assert checks.check_op(workload, op, out_root, result) == [], op["out"]


def test_the_tracer_sees_verify_call_the_public_checks():
    """bench/tracing.py wraps public names only, so verify's coefficient,
    Nash, residual, cost and oracle-cost rows show in its spans when they
    call the public functions: one call each per stack, 9 stacks on the
    bench verify config (3 n x 3 kappa, 3 draws a stack).  The convergence
    row adds 3 Nash points, each a nash_basis call, and one solve, which
    calls coefficients."""
    (op,) = workloads.verify_ops(0)
    cfg = op["config"]["verify"]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        verification.run_verification(tuple(cfg["n"]), tuple(map(float, cfg["kappa"])),
                                      cfg["draws"], cfg["n_steps"], seed=op["seed"])
    finally:
        restore()
    spans, _ = tracer.take()
    calls = Counter(span[0] for span in spans)
    assert calls["verification.run_verification"] == 1
    assert calls["equilibrium.governing_residuals"] == 9
    assert calls["equilibrium.coefficients"] == 9 + 1
    assert calls["oracle.discrete_cost"] == 9
    assert calls["oracle.nash_basis"] == 9 + 3
    assert calls["oracle.nash_fixed_point"] == 3
    assert calls["verification.quadrature_cost"] == 9
    # the package is as it was
    assert not hasattr(verification.governing_residuals, "__wrapped__")
    assert not hasattr(pg.EquilibriumSolution.positions, "__wrapped__")


def test_the_tracer_sees_the_cost_commands_call_the_public_costs(tmp_path):
    """poa prices its columns with aggregate_cost and price_of_anarchy, one
    call each per kappa (4 on the figures workload) and one aggregate_cost
    for each n = 2 base; costs prices each (n, kappa) cell with one
    cost_breakdown, which calls aggregate_cost and cost_shares once (one
    cell on a figures costs op)."""
    plan = json.loads(workloads.write_plan("figures", 0, tmp_path).read_text())
    poa = next(op for op in plan["ops"] if op["command"] == "poa")
    costs = next(op for op in plan["ops"] if op["command"] == "costs")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        results = [worker.run_op(cli.main, op, tmp_path / "out") for op in (poa, costs)]
    finally:
        restore()
    assert [r["code"] for r in results] == [0, 0], results
    spans, _ = tracer.take()
    calls = Counter(span[0] for span in spans)
    assert calls["costs.price_of_anarchy"] == 4
    assert calls["costs.aggregate_cost"] == 4 + 4 + 4 + 1  # columns, bases, poa's own, costs
    assert calls["costs.cost_shares"] == 1
    assert calls["costs.cost_breakdown"] == 1
    # the package is as it was
    assert not hasattr(cli.price_of_anarchy, "__wrapped__")
    assert not hasattr(cli.cost_breakdown, "__wrapped__")
    assert not hasattr(pg.aggregate_cost, "__wrapped__")


def test_a_fresh_cli_import_times_every_traced_layer():
    """bench/run.py reads each traced layer's cumulative import time from a
    fresh ``python -X importtime -c 'import posgame.cli'`` and fails the run
    without one, so a change that stops ``posgame.cli`` loading a layer fails
    here too, not only under ``bench/run.py --trace 1``."""
    src = str(Path(pg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import posgame.cli"],
                          env=env, capture_output=True, text=True, check=True)
    timed = re.findall(r"^import time:\s+\d+ \|\s+\d+ \|\s+posgame\.(\w+)$", proc.stderr, re.M)
    assert set(tracing.LAYERS) <= set(timed), proc.stderr
