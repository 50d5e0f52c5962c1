"""Output checks for one benchmark operation.

An operation fails if the command raises, exits non-zero, prints a FAIL
check, or writes CSVs that fail one of these checks:

- Reference CSVs under ``bench/reference/<workload>/`` were captured from
  the seed-free outputs at the commit that introduced the benchmark.  Every
  line but the ``#`` header (its config hash depends on the seed) must match
  token by token, numbers to a relative 1e-10: the CSVs carry 12 significant
  digits, so this admits a change in the last few digits and nothing more.
- Every ``equilibrium.csv`` and ``costs.csv`` is checked against the closed
  forms below, written independently of the package, and against the
  identities a_i(0) = 0, a_i(1) = 1, sum_i lambda_i a_i(t) = m(t), shares
  summing to one and per-trader costs summing to the aggregate.  This covers
  the seeded ``large_n`` game, which has no reference file.

Identity and closed-form tolerances are a relative 1e-9 of the largest term
involved: 12 printed digits put each cell within 5e-13 of its value, and the
closed forms lose at most three more digits to cancellation when lambda_i is
near its 1e-6 floor.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-10
IDENTITY_RTOL = 1e-9
_TOKEN = re.compile(r"[,\s=]+")


def _same_token(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= REFERENCE_RTOL * max(abs(x), abs(y))


def compare_to_reference(produced: Path, reference: Path) -> list[str]:
    """Differences between a produced CSV and its reference, header line skipped."""
    if not produced.is_file():
        return [f"{produced.name}: not written"]
    got = produced.read_text().splitlines()[1:]
    want = reference.read_text().splitlines()[1:]
    if len(got) != len(want):
        return [f"{produced.name}: {len(got) + 1} lines, reference has {len(want) + 1}"]
    for k, (g, w) in enumerate(zip(got, want), start=2):
        g_tok, w_tok = _TOKEN.split(g), _TOKEN.split(w)
        if len(g_tok) != len(w_tok) or not all(map(_same_token, g_tok, w_tok)):
            return [f"{produced.name}:{k}: differs from reference"]
    return []


def _rel_err(got, want) -> float:
    """Largest |got - want| relative to the largest |want|."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def closed_form(lambdas: np.ndarray, kappa: float, t: np.ndarray):
    """Positions a_i(t), market m(t), per-trader costs and aggregate (n >= 2, kappa > 0)."""
    n = lambdas.size
    alpha = kappa * (n - 1) / (n + 1)
    b = (lambdas * n - 1.0) / (lambdas * n * np.expm1(kappa))
    d = 1.0 / (lambdas * n * -np.expm1(-alpha))
    positions = b[:, None] * np.expm1(kappa * t) - d[:, None] * np.expm1(-alpha * t)
    market = np.expm1(-alpha * t) / np.expm1(-alpha)
    costs = (
        kappa * (lambdas * n - 1.0) / (n * -np.expm1(-kappa))
        + alpha / (n * np.expm1(alpha))
        + kappa / (n + 1)
    )
    aggregate = alpha / np.expm1(alpha) + kappa * n / (n + 1)
    return positions, market, costs, aggregate


def _read_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_equilibrium(path: Path, config: dict) -> list[str]:
    game = config["game"]
    lambdas = np.asarray(game["lambdas"], dtype=float)
    rows = _read_rows(path)
    curve = np.array([r for r in rows if r[0] not in ("cost", "share")], dtype=float)
    cost = np.array(next(r for r in rows if r[0] == "cost")[1:], dtype=float)
    share = np.array(next(r for r in rows if r[0] == "share")[1:-1], dtype=float)
    t, a, m = curve[:, 0], curve[:, 1:-1].T, curve[:, -1]
    want_a, want_m, want_cost, want_agg = closed_form(lambdas, game["kappa"], t)
    weighted = lambdas[:, None] * a
    errors = {
        "a_i(0) = 0": float(np.max(np.abs(a[:, 0]))),
        "a_i(1) = 1": float(np.max(np.abs(a[:, -1] - 1.0))),
        "sum lambda_i a_i = m": float(
            np.max(np.abs(weighted.sum(axis=0) - m) / np.abs(weighted).sum(axis=0).clip(1.0))
        ),
        "shares sum to 1": abs(math.fsum(share) - 1.0),
        "costs sum to aggregate": abs(math.fsum(cost[:-1]) - cost[-1])
        / max(np.abs(cost[:-1]).sum(), abs(cost[-1])),
        "a_i(t) closed form": _rel_err(a, want_a),
        "m(t) closed form": _rel_err(m, want_m),
        "cost closed form": _rel_err(cost, np.append(want_cost, want_agg)),
        "share closed form": _rel_err(share, want_cost / want_agg),
    }
    return [f"{path.name}: {name} off by {err:.3e}"
            for name, err in errors.items() if not err <= IDENTITY_RTOL]


def check_costs(path: Path, config: dict) -> list[str]:
    failures = []
    for row in _read_rows(path):
        n, kappa, lam1, cost, share, deviation, aggregate = map(float, row)
        n = int(n)
        lambdas = np.full(n, (1.0 - lam1) / (n - 1))
        lambdas[0] = lam1
        _, _, want_cost, want_agg = closed_form(lambdas, kappa, np.zeros(1))
        errors = {
            "share = cost / aggregate": abs(share - cost / aggregate) / abs(share),
            "deviation = share - lambda1": abs(deviation - (share - lam1)),
            "cost closed form": abs(cost - want_cost[0]) / abs(want_cost[0]),
            "aggregate closed form": abs(aggregate - want_agg) / want_agg,
        }
        failures += [f"{path.name} n={n} lambda1={lam1:g}: {name} off by {err:.3e}"
                     for name, err in errors.items() if not err <= IDENTITY_RTOL]
    return failures


def expected_verify_checks(config: dict) -> int:
    v = config["verify"]
    return 6 * len(v["n"]) * len(v["kappa"]) * v["draws"] + 1


def check_verify(out_dir: Path, stdout: str, config: dict) -> list[str]:
    expected = expected_verify_checks(config)
    lines = stdout.splitlines()
    passed = sum(ln.startswith("PASS ") for ln in lines)
    failures = [ln for ln in lines if ln.startswith("FAIL")]
    if passed != expected:
        failures.append(f"{passed} PASS lines, expected {expected}")
    report = out_dir / "verify_report.csv"
    if not report.is_file():
        failures.append("verify_report.csv: not written")
    else:
        status = [row[3] for row in _read_rows(report)]
        if status != ["PASS"] * expected:
            failures.append(f"verify_report.csv: {status.count('PASS')} of {len(status)} "
                            f"rows PASS, expected {expected}")
    return failures


def check_op(workload: str, op: dict, out_root: Path, result: dict) -> list[str]:
    """Every reason this operation failed; an empty list means it succeeded."""
    label = f"{op['command']} {op['out']}"
    if result["error"] is not None:
        return [f"{label}: raised {result['error']}"]
    failures = []
    if result["code"] != 0:
        failures.append(f"exit code {result['code']}: {result['stderr'].strip()[-200:]}")
    out_dir = out_root / op["out"]
    try:
        if op["command"] == "verify":
            failures += check_verify(out_dir, result["stdout"], op["config"])
        elif op["command"] == "equilibrium":
            failures += check_equilibrium(out_dir / "equilibrium.csv", op["config"])
        elif op["command"] == "costs":
            failures += check_costs(out_dir / "costs.csv", op["config"])
        reference = REFERENCE_DIR / workload / op["out"]
        if reference.is_dir():
            for ref in sorted(reference.glob("*.csv")):
                failures += compare_to_reference(out_dir / ref.name, ref)
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        failures.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return [f"{label}: {f}" for f in failures]
