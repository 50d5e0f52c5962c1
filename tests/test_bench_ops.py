"""Every benchmark operation, run and judged as the benchmark does it.

Each operation of the ``verify``, ``figures`` and ``large_n`` workloads at
seed 0 runs in this process through ``bench/worker.py``'s ``run_op`` and is
judged by ``bench/checks.py``'s ``check_op``, so an output that the
benchmark would count as failed (a wrong row count, a cell off its
reference or closed form, a non-zero exit) fails here first.  The files
under bench/ are only read; the outputs go to a temporary directory.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import posgame.cli as cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, checks, worker = (_load(name) for name in ("workloads", "checks", "worker"))


@pytest.mark.parametrize("workload", ["verify", "figures", "large_n"])
def test_every_benchmark_operation_passes_its_checks(tmp_path, workload):
    plan = json.loads(workloads.write_plan(workload, 0, tmp_path).read_text())
    out_root = tmp_path / "out"
    for op in plan["ops"]:
        result = worker.run_op(cli.main, op, out_root)
        assert checks.check_op(workload, op, out_root, result) == [], op["out"]
