#!/usr/bin/env python3
"""Run the full oracle verification suite and print one line per check.

Runs the benchmark's ``verify`` workload at seed 0, as bench/workloads.py
defines it, and writes verify_report.csv into the output directory.

Usage: python scripts/run_verification.py [OUT_DIR]
"""

import sys
from pathlib import Path

from shipped_runs import run, workload_ops


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("verification_out")
    (op,) = workload_ops("verify")
    return run(op, out)


if __name__ == "__main__":
    sys.exit(main())
