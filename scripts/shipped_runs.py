"""The shipped runs, defined once in bench/workloads.py.

Each script runs one of the benchmark's workloads at seed 0: every
operation is one ``posgame <command>`` call with the operation's config,
output directory and seed, so the scripts write exactly what the benchmark
times and checks.
"""

import importlib.util
import json
import tempfile
from pathlib import Path

from posgame.cli import main as posgame_main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def workload_ops(name: str) -> list[dict]:
    """The operations of the benchmark workload ``name`` at seed 0."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name](0)


def run(op: dict, out_dir: Path) -> int:
    """Run ``op`` through the CLI, writing into ``out_dir``; return its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(op["config"]))
        argv = [op["command"], "--config", str(cfg_path), "--out", str(out_dir),
                "--seed", str(op["seed"])]
        return posgame_main(argv)
