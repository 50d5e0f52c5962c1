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

import pytest

import posgame.cli as cli
from conftest import load_bench

workloads, checks, worker = (load_bench(name) for name in ("workloads", "checks", "worker"))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["verify", "figures", "large_n"])
def test_every_benchmark_operation_passes_its_checks(tmp_path, workload, seed):
    plan = json.loads(workloads.write_plan(workload, seed, tmp_path).read_text())
    out_root = tmp_path / "out"
    for op in plan["ops"]:
        result = worker.run_op(cli.main, op, out_root)
        assert checks.check_op(workload, op, out_root, result) == [], op["out"]
