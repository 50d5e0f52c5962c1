#!/usr/bin/env python3
"""Emit plot-ready CSV data for the standard analysis figures.

Writes one subdirectory per figure family under the output root:

    strategies/   three-trader equilibrium curves across impact levels
    shares/       fair-share deviation bars across target fractions
    curves/       strategic-centralization cost curves
    tables/       averaged centralization outcome tables
    anarchy/      aggregate-cost growth and price-of-anarchy ratios

Usage: python scripts/make_figure_data.py [OUT_DIR]
"""

import json
import sys
import tempfile
from pathlib import Path

from posgame.cli import main as posgame_main


def run(command: str, config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))
        code = posgame_main([command, "--config", str(cfg_path), "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"posgame {command} failed with exit code {code}")


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figure_data")

    # Three-trader equilibrium strategies, one file per impact level.
    for kappa in (1, 5, 10, 20):
        run(
            "equilibrium",
            {
                "game": {"n": 3, "lambdas": [0.2, 0.3, 0.5], "kappa": kappa},
                "grid": {"n_points": 201},
            },
            root / "strategies" / f"kappa_{kappa}",
        )

    # Fair-share deviation bars for several (n, kappa) panels.
    lam_grid = [0.01, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.88, 0.99]
    for n, kappa in ((2, 0.5), (2, 10), (5, 5), (8, 25)):
        run(
            "costs",
            {"sweep": {"n": [n], "kappa": [kappa], "lambda1": lam_grid}},
            root / "shares" / f"n_{n}_kappa_{kappa}",
        )

    # Strategic centralization curves: minority firm and majority firm.
    scenarios = [
        ("minority_n10", {"n": 10, "kappa": 1.0}, {"n1": 1, "lambda_firm": 0.1}),
        ("minority_n25", {"n": 25, "kappa": 1.0}, {"n1": 1, "lambda_firm": 0.1}),
        ("majority_n15", {"n": 15, "kappa": 1.0}, {"n1": 10, "lambda_firm": 0.666}),
        ("majority_k25", {"n": 15, "kappa": 25.0}, {"n1": 10, "lambda_firm": 0.666}),
    ]
    for name, game, central in scenarios:
        run(
            "centralize",
            {"game": game, "centralization": {**central, "delta_range": [1 - central["n1"], 40]}},
            root / "curves" / name,
        )

    # Averaged centralization tables (minority and majority firm grids).
    for name, n1_values in (("minority", [3, 4, 5]), ("majority", [14, 15, 16])):
        run(
            "centralize",
            {
                "game": {"n": 21, "kappa": 1.0},
                "centralization": {"n1": n1_values[1], "lambda_firm": 0.4},
                "table": {
                    "kappa": [1, 5, 25],
                    "rows": [0.07, 0.15, 0.40, 0.62, 0.82],
                    "n1": n1_values,
                },
            },
            root / "tables" / name,
        )

    # Aggregate-cost growth versus trader count and the anarchy ratio.
    run(
        "poa",
        {"sweep": {"n": list(range(2, 51)), "kappa": [1, 5, 10, 25]}},
        root / "anarchy",
    )

    print(f"figure data written under {root}/")


if __name__ == "__main__":
    main()
