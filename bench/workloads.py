"""The benchmark's workloads: the posgame commands one pass issues.

A workload is a list of operations, each one ``posgame <command>`` call with
its config and output subdirectory.  Everything is built from the seed alone,
so the same seed gives the same inputs.

- ``verify`` is the config of ``scripts/run_verification.py``; the seed is
  added to that script's default verification seed (20240901).
- ``figures`` is the 15 commands of ``scripts/make_figure_data.py`` with the
  same configs.  Their inputs carry no randomness, so the seed reaches only
  the CLI's ``--seed`` (it changes the CSV header hash, nothing else).
- ``large_n`` solves one 2000-trader game whose target fractions are a seeded
  Dirichlet(0.3) draw, plus a seed-free cost sweep at n in {1000, 2000}.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

VERIFY_SEED = 20240901
LAMBDA_FLOOR = 1e-6  # the smallest target fraction the library documents


def _op(command: str, config: dict, out: str, seed: int) -> dict:
    return {"command": command, "config": config, "out": out, "seed": seed}


def verify_ops(seed: int) -> list[dict]:
    config = {
        "verify": {"n": [2, 3, 5], "kappa": [1, 5, 25], "draws": 3, "n_steps": 2000},
        "output": {"seed": VERIFY_SEED},
    }
    return [_op("verify", config, "verify", VERIFY_SEED + seed)]


def figures_ops(seed: int) -> list[dict]:
    ops = []
    for kappa in (1, 5, 10, 20):
        config = {
            "game": {"n": 3, "lambdas": [0.2, 0.3, 0.5], "kappa": kappa},
            "grid": {"n_points": 201},
        }
        ops.append(_op("equilibrium", config, f"strategies/kappa_{kappa}", seed))

    lam_grid = [0.01, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.88, 0.99]
    for n, kappa in ((2, 0.5), (2, 10), (5, 5), (8, 25)):
        config = {"sweep": {"n": [n], "kappa": [kappa], "lambda1": lam_grid}}
        ops.append(_op("costs", config, f"shares/n_{n}_kappa_{kappa}", seed))

    scenarios = [
        ("minority_n10", {"n": 10, "kappa": 1.0}, {"n1": 1, "lambda_firm": 0.1}),
        ("minority_n25", {"n": 25, "kappa": 1.0}, {"n1": 1, "lambda_firm": 0.1}),
        ("majority_n15", {"n": 15, "kappa": 1.0}, {"n1": 10, "lambda_firm": 0.666}),
        ("majority_k25", {"n": 15, "kappa": 25.0}, {"n1": 10, "lambda_firm": 0.666}),
    ]
    for name, game, central in scenarios:
        config = {
            "game": game,
            "centralization": {**central, "delta_range": [1 - central["n1"], 40]},
        }
        ops.append(_op("centralize", config, f"curves/{name}", seed))

    for name, n1_values in (("minority", [3, 4, 5]), ("majority", [14, 15, 16])):
        config = {
            "game": {"n": 21, "kappa": 1.0},
            "centralization": {"n1": n1_values[1], "lambda_firm": 0.4},
            "table": {
                "kappa": [1, 5, 25],
                "rows": [0.07, 0.15, 0.40, 0.62, 0.82],
                "n1": n1_values,
            },
        }
        ops.append(_op("centralize", config, f"tables/{name}", seed))

    config = {"sweep": {"n": list(range(2, 51)), "kappa": [1, 5, 10, 25]}}
    ops.append(_op("poa", config, "anarchy", seed))
    return ops


def large_n_lambdas(seed: int, n: int = 2000) -> list[float]:
    """Seeded Dirichlet(0.3) fractions, floored at 1e-6 and renormalized."""
    raw = np.random.default_rng(seed).dirichlet(np.full(n, 0.3))
    lam = np.maximum(raw, LAMBDA_FLOOR)
    return (lam / lam.sum()).tolist()


def large_n_ops(seed: int) -> list[dict]:
    game = {"n": 2000, "lambdas": large_n_lambdas(seed), "kappa": 5.0}
    sweep = {"n": [1000, 2000], "kappa": [5], "lambda1": [0.01, 0.5]}
    return [
        _op("equilibrium", {"game": game, "grid": {"n_points": 201}}, "equilibrium", seed),
        _op("costs", {"sweep": sweep}, "costs", seed),
    ]


WORKLOADS = {"verify": verify_ops, "figures": figures_ops, "large_n": large_n_ops}


def write_plan(workload: str, seed: int, directory: Path) -> Path:
    """Write each op's config file and the plan that lists them; return the plan path."""
    ops = WORKLOADS[workload](seed)
    for k, op in enumerate(ops):
        path = directory / f"config_{k:02d}.json"
        path.write_text(json.dumps(op["config"]))
        op["config_path"] = str(path)
    plan = directory / "plan.json"
    plan.write_text(json.dumps({"workload": workload, "seed": seed, "ops": ops}))
    return plan

