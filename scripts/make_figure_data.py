#!/usr/bin/env python3
"""Emit plot-ready CSV data for the standard analysis figures.

Runs the benchmark's ``figures`` workload at seed 0, as bench/workloads.py
defines it, and writes one subdirectory per figure family under the output
root:

    strategies/   three-trader equilibrium curves across impact levels
    shares/       fair-share deviation bars across target fractions
    curves/       strategic-centralization cost curves
    tables/       averaged centralization outcome tables
    anarchy/      aggregate-cost growth and price-of-anarchy ratios

Usage: python scripts/make_figure_data.py [OUT_DIR]
"""

import sys
from pathlib import Path

from shipped_runs import run, workload_ops


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figure_data")
    for op in workload_ops("figures"):
        code = run(op, root / op["out"])
        if code != 0:
            raise SystemExit(f"posgame {op['command']} failed with exit code {code}")
    print(f"figure data written under {root}/")


if __name__ == "__main__":
    main()
