#!/usr/bin/env python3
"""Capture the reference CSVs that ``checks.py`` compares outputs against.

    PYTHONPATH=src python3 bench/capture_reference.py

Only seed-free outputs get a reference: every ``figures`` operation and the
``large_n`` cost sweep.  Recapture only for an output change that is
explained, and say what changed and why where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import posgame.cli as cli

from checks import REFERENCE_DIR
from worker import run_op
from workloads import write_plan

SEED_FREE = {"figures": None, "large_n": {"costs"}}  # workload -> op outputs (None: all)


def main() -> None:
    for workload, outs in SEED_FREE.items():
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            plan = json.loads(write_plan(workload, 0, tmp).read_text())
            for op in plan["ops"]:
                if outs is not None and op["out"] not in outs:
                    continue
                result = run_op(cli.main, op, tmp / "out")
                if result["code"] != 0:
                    raise SystemExit(f"{workload} {op['out']}: exit {result['code']}")
                target = REFERENCE_DIR / workload / op["out"]
                shutil.rmtree(target, ignore_errors=True)
                shutil.copytree(tmp / "out" / op["out"], target)
                print(f"captured {target.relative_to(REFERENCE_DIR.parent)}")


if __name__ == "__main__":
    main()
