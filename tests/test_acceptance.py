"""Acceptance suite: every criterion prints one PASS line when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

import posgame as pg
from posgame.cli import main as cli_main
from posgame.verification import draw_lambdas, run_verification

SEED = 20240901

# Averaged centralization reference rows, keyed by (fraction label, kappa):
# (pct firm, pct nonfirm, pct total, firm w/o, firm w/, nonfirm w/o, nonfirm w/).
REFERENCE_ROWS = {
    (0.07, 1.0): (1.6, -0.3, -0.1, 0.12, 0.12, 1.45, 1.45),
    (0.40, 1.0): (0.3, -0.4, -0.1, 0.63, 0.63, 0.94, 0.93),
    (0.82, 1.0): (0.1, -1.7, -0.1, 1.30, 1.30, 0.27, 0.26),
    (0.07, 5.0): (8.7, -1.3, -0.7, 0.34, 0.36, 4.49, 4.43),
    (0.40, 5.0): (1.4, -2.2, -0.7, 1.97, 2.00, 2.85, 2.79),
    (0.82, 5.0): (0.7, -10.1, -0.7, 4.11, 4.14, 0.71, 0.65),
    (0.07, 25.0): (9.5, -1.5, -0.8, 1.66, 1.80, 22.20, 21.88),
    (0.40, 25.0): (1.5, -2.4, -0.8, 9.78, 9.93, 14.08, 13.75),
    (0.82, 25.0): (0.7, -11.3, -0.8, 20.41, 20.55, 3.45, 3.13),
}


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def sweep_specs(draws=3, seed=SEED):
    rng = np.random.default_rng(seed)
    for n in (2, 3, 5):
        for kappa in (1.0, 5.0, 25.0):
            for _ in range(draws):
                yield pg.GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=kappa)


def test_criterion_1_closed_form_matches_oracle():
    start = time.monotonic()
    worst = 0.0
    for spec in sweep_specs():
        fp = pg.nash_fixed_point(spec, n_steps=2000)
        cf = pg.sampled_equilibrium(pg.solve(spec), 2000)
        worst = max(worst, float(np.max(np.abs(fp.paths - cf.paths))))
    elapsed = time.monotonic() - start
    assert worst < 2e-3
    assert elapsed < 30.0
    report("1", f"27 fixed points, worst sup-norm gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_cost_formula_matches_quadrature():
    worst = 0.0
    for spec in sweep_specs():
        sol = pg.solve(spec)
        t = np.linspace(0.0, 1.0, 10_001)
        lambdas = spec.lambdas_array()
        velocity = sol.velocities(t)
        m = lambdas @ sol.positions(t)
        m_dot = lambdas @ velocity
        per_trader = pg.cost_breakdown(spec).per_trader
        for i in range(spec.n):
            numeric = float(simpson((m_dot + spec.kappa * m) * lambdas[i] * velocity[i], x=t))
            formula = per_trader[i]
            rel = abs(formula - numeric) / max(abs(formula), 1e-9)
            worst = max(worst, rel)
    assert worst < 1e-6
    report("2", f"per-trader cost vs Simpson quadrature, worst relative error {worst:.2e}")


def test_criterion_3_aggregate_cost_independent_of_split():
    rng = np.random.default_rng(SEED)
    n, kappa = 5, 5.0
    totals = []
    for _ in range(1000):
        lam = tuple(float(x) for x in rng.dirichlet(np.ones(n)))
        spec = pg.GameSpec(n=n, lambdas=lam, kappa=kappa)
        totals.append(math.fsum(pg.cost_breakdown(spec).per_trader))
    spread = max(totals) - min(totals)
    gap = abs(totals[0] - pg.aggregate_cost(n, kappa))
    assert spread < 1e-9
    assert gap < 1e-9
    report("3", f"1000 target splits, aggregate spread {spread:.2e}, formula gap {gap:.2e}")


def test_criterion_4_market_wide_minimum():
    worst_line, worst_cost = 0.0, 0.0
    for kappa in (0.0, 1.0, 25.0):
        spec = pg.GameSpec(n=1, lambdas=(1.0,), kappa=kappa)
        grid = np.linspace(0.0, 1.0, 10_001)
        start = pg.DiscreteGame(spec, (grid**2)[None, :])
        response = pg.best_response(start, 0)
        worst_line = max(worst_line, float(np.max(np.abs(response - grid))))
        optimal = pg.DiscreteGame(spec, response[None, :])
        worst_cost = max(
            worst_cost, abs(pg.discrete_cost(optimal)[0] - pg.market_min_cost(kappa))
        )
    assert worst_line < 1e-10
    assert worst_cost < 1e-4
    report("4", f"straight line within {worst_line:.2e}, cost gap {worst_cost:.2e}")


def test_criterion_5_price_of_anarchy_bound():
    ns = np.unique(np.logspace(math.log10(2.0), 6.0, 50).astype(int))
    kappas = np.linspace(0.05, 50.0, 80)
    worst = 0.0
    for kappa in kappas:
        for n in ns:
            worst = max(worst, pg.price_of_anarchy(int(n), float(kappa)))
        worst = max(worst, pg.price_of_anarchy(math.inf, float(kappa)))
    limiting = pg.price_of_anarchy(math.inf, 1.0)
    assert worst < 2.0
    assert limiting == pytest.approx(1.0546, abs=1e-3)
    report("5", f"ratio < 2 across grid (max {worst:.4f}), limit at kappa=1 is {limiting:.4f}")


def test_criterion_6_cost_share_properties():
    rng = np.random.default_rng(SEED + 1)
    worst_sum = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        spec = pg.GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=float(rng.uniform(0.2, 25.0)))
        worst_sum = max(
            worst_sum, abs(math.fsum(pg.cost_breakdown(spec).shares) - 1.0)
        )
    assert worst_sum < 1e-9

    worst_cross = 0.0
    for n, kappa in ((2, 0.5), (3, 2.0), (5, 8.0), (8, 25.0)):
        lams, shares = (0.1, 0.4, 0.85), []
        for lam1 in lams:
            rest = (1.0 - lam1) / (n - 1)
            spec = pg.GameSpec(n=n, lambdas=(lam1,) + (rest,) * (n - 1), kappa=kappa)
            shares.append(pg.cost_breakdown(spec).shares[0])
        cross = (lams[2] - lams[0]) * (shares[1] - shares[0]) - (lams[1] - lams[0]) * (
            shares[2] - shares[0]
        )
        worst_cross = max(worst_cross, abs(cross))
    assert worst_cross < 1e-10

    for n in (2, 4, 7):
        spec = pg.GameSpec.symmetric(n, 6.0)
        assert pg.cost_breakdown(spec).shares == (1.0 / n,) * n
    report(
        "6",
        f"share sums off by {worst_sum:.2e}, collinearity defect {worst_cross:.2e}, "
        "symmetric shares exact",
    )


def test_criterion_7_centralization_table_reproduction():
    worst_pct, worst_cost = 0.0, 0.0
    for (label, kappa), expected in REFERENCE_ROWS.items():
        got = pg.averaged_report(kappa, pg.FRACTION_BANDS[label])
        mine_pct = (got.pct_change_firm, got.pct_change_nonfirm, got.pct_change_total)
        mine_cost = (
            got.firm_cost_no_central,
            got.firm_cost_central,
            got.nonfirm_cost_no_central,
            got.nonfirm_cost_central,
        )
        for a, b in zip(mine_pct, expected[:3]):
            worst_pct = max(worst_pct, abs(a - b))
        for a, b in zip(mine_cost, expected[3:]):
            worst_cost = max(worst_cost, abs(a - b) / abs(b))
    assert worst_pct <= 1.5
    assert worst_cost <= 0.05
    report(
        "7",
        f"9 table rows: percent columns within {worst_pct:.2f} points, "
        f"cost columns within {100 * worst_cost:.1f}%",
    )


def test_criterion_8_strategic_centralization_sweep():
    violations_approx = 0
    outside_exact = 0
    total = 0
    for n1 in range(1, 51):
        for n2 in range(1, 51):
            opt = -n1 + math.sqrt(n2 * (n2 + 1.0))
            allowed = (math.floor(opt), math.ceil(opt))
            for kappa in (0.5, 1.0, 5.0, 25.0):
                for lam in (0.1, 0.333, 0.666):
                    sc = pg.CentralizationScenario(
                        n1=n1, n2=n2, lambda_firm=lam, kappa=kappa
                    )
                    curve = pg.optimal_representation(sc)
                    total += 1
                    if curve.argmin_approx not in allowed:
                        violations_approx += 1
                    if abs(curve.argmin_exact - opt) > 1.0:
                        outside_exact += 1
    assert violations_approx == 0
    assert outside_exact <= 0.05 * total
    report(
        "8",
        f"{total} scenarios: approximate argmin always brackets the optimum, "
        f"exact argmin within +/-1 in {100 * (1 - outside_exact / total):.1f}%",
    )


def test_criterion_9_identities():
    worst_id, worst_part = 0.0, 0.0
    for n1, n2 in ((1, 1), (3, 9), (10, 5), (25, 40)):
        for kappa in (0.5, 1.0, 5.0, 25.0):
            for lam in (0.07, 0.4, 0.82):
                sc = pg.CentralizationScenario(n1=n1, n2=n2, lambda_firm=lam, kappa=kappa)
                rep = pg.naive_centralization_report(sc)
                curve = pg.optimal_representation(sc, (1 - n1, 0))
                worst_id = max(
                    worst_id,
                    abs(curve.exact_costs[-1] - rep.firm_cost_no_central),
                    abs(curve.exact_costs[0] - rep.firm_cost_central),
                )
                worst_part = max(
                    worst_part,
                    abs(rep.total_no_central - pg.aggregate_cost(sc.n, kappa)),
                    abs(rep.total_central - pg.aggregate_cost(n2 + 1, kappa)),
                )
    # the curve's ends and the report's firm quadrants are one kernel on the same inputs
    assert worst_id == 0.0
    assert worst_part <= 1e-9
    report("9", f"curve identities off by {worst_id:.2e}, partitions off by {worst_part:.2e}")


def test_criterion_10_governing_equation_residuals():
    rng = np.random.default_rng(SEED + 2)
    t = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        spec = pg.GameSpec(
            n=n, lambdas=draw_lambdas(rng, n), kappa=float(rng.uniform(0.05, 25.0))
        )
        sol = pg.solve(spec)
        residuals = pg.governing_residuals(sol, t)
        worst = max(worst, *(float(np.max(np.abs(r))) for r in residuals))
    assert worst < 1e-9
    report("10", f"three governing equations, 50 specs x 101 points, worst |residual| {worst:.2e}")


def test_figure_data_shape_and_sign_checks(tmp_path):
    # share deviations: dominant traders overpay, tiny traders underpay
    dev_dominant = pg.cost_breakdown(pg.GameSpec(2, (0.99, 0.01), 10.0)).fair_share_deviation[0]
    assert dev_dominant > 0.20
    dev_wide = pg.cost_breakdown(pg.GameSpec(8, (0.99,) + (0.01 / 7,) * 7, 25.0))
    assert dev_wide.fair_share_deviation[0] > 0.04
    dev_tiny = pg.cost_breakdown(pg.GameSpec(2, (0.01, 0.99), 0.5)).fair_share_deviation[0]
    assert -0.009 < dev_tiny < -0.005

    # aggregate-cost growth with trader count at high impact
    base = pg.aggregate_cost(2, 25.0)
    increase = 100.0 * (pg.aggregate_cost(25, 25.0) - base) / base
    assert 40.0 <= increase <= 55.0

    # strategy shapes across impact levels: small trader most eager, overbuying
    for kappa in (1.0, 5.0, 10.0, 20.0):
        sol = pg.solve(pg.GameSpec(3, (0.2, 0.3, 0.5), kappa))
        t = np.linspace(0.0, 1.0, 401)
        curves = sol.positions(t)
        assert curves[0][100] > curves[1][100] > curves[2][100]
        if kappa == 20.0:
            assert np.max(curves[0]) > 1.0

    # strategic curves: splitting helps a minority firm, consolidation a majority
    minority = pg.CentralizationScenario(n1=1, n2=9, lambda_firm=0.1, kappa=1.0)
    costs = pg.optimal_representation(minority, (0, 5)).exact_costs
    assert costs[-1] < costs[0]
    majority = pg.CentralizationScenario(n1=10, n2=5, lambda_firm=0.66, kappa=1.0)
    costs = pg.optimal_representation(majority, (-4, 0)).exact_costs
    assert costs[0] < costs[-1]

    # the CLI emits the corresponding plot-data CSVs
    cfg = tmp_path / "fig.json"
    cfg.write_text(
        json.dumps(
            {
                "game": {"n": 3, "lambdas": [0.2, 0.3, 0.5], "kappa": 20.0},
                "grid": {"n_points": 201},
            }
        )
    )
    assert cli_main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "fig")]) == 0
    body = (tmp_path / "fig" / "equilibrium.csv").read_text().splitlines()
    assert body[1].split(",")[0] == "t"
    assert len(body) == 1 + 1 + 201 + 2  # comment, header, grid rows, cost + share footers
    report("figures", "share, growth, shape and centralization sign checks hold; CSVs emitted")


def test_default_verification_suite_passes():
    suite = run_verification(
        n_values=(2, 3, 5),
        kappa_values=(1.0, 5.0, 25.0),
        draws=1,
        n_steps=2000,
        seed=SEED,
    )
    failed = [c.name for c in suite.checks if not c.passed]
    assert not failed, f"failed checks: {failed}"
    ratio_check = next(c for c in suite.checks if "convergence order" in c.name)
    assert ratio_check.value >= 1.7
    report(
        "verify",
        f"{len(suite.checks)} oracle checks pass; doubling ratio {ratio_check.value:.2f} "
        "(second-order discretization)",
    )
