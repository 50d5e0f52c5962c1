"""End-to-end verification: closed forms versus the discretized oracle.

Each check pairs a measured quantity with its threshold so the CLI can emit
one pass/fail line per check.  The ``bug_scale`` knob multiplies the D
coefficients of the closed-form solution before comparison; setting it to
1.01 demonstrates that the suite actually detects a wrong solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import EquilibriumSolution, GameSpec
from .costs import aggregate_cost, group_cost
from .equilibrium import governing_residuals, solve
from .oracle import (
    deviation_expansion,
    discrete_cost,
    nash_fixed_point,
    sampled_equilibrium,
    standard_bumps,
)


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f" ({c.detail})" if c.detail else ""
            out.append(
                f"{status} {c.name}: measured {c.value:.3e} vs threshold {c.threshold:.3e}{extra}"
            )
        return out


def _at_most(name: str, value: float, threshold: float, detail: str = "") -> Check:
    """A check that passes when ``value`` is at most ``threshold``."""
    return Check(name, value, threshold, value <= threshold, detail)


def _at_least(name: str, value: float, threshold: float, detail: str = "") -> Check:
    """A check that passes when ``value`` is at least ``threshold``."""
    return Check(name, value, threshold, value >= threshold, detail)


def draw_lambdas(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """Seeded simplex draw kept away from the boundary (lambda_i >= 0.1/n),
    so fixed tolerances apply uniformly across draws."""
    raw = rng.dirichlet(np.ones(n))
    lam = 0.9 * raw + 0.1 / n
    return tuple(float(x) for x in lam)


def _buggy_solution(spec: GameSpec, bug_scale: float):
    sol = solve(spec)
    return replace(sol, d=sol.d * bug_scale)


def simpson_cost(solution: EquilibriumSolution, intervals: int = 10_000) -> np.ndarray:
    """Every trader's cost by composite Simpson quadrature of the cost
    integrand on the solution's curves over an even number of ``intervals``,
    using analytic rates; independent of the cost formula being checked.
    Returns one cost per trader."""
    if intervals < 2 or intervals % 2:
        raise ValueError(f"need an even number of intervals, got {intervals}")
    spec = solution.spec
    t = np.linspace(0.0, 1.0, intervals + 1)
    lambdas = spec.lambdas_array()
    velocities = solution.velocities(t)
    m_dot = lambdas @ velocities
    m = lambdas @ solution.positions(t)
    # The integrand overwrites the rates, so one (n, len(t)) array stays alive.
    integrand = velocities
    integrand *= np.multiply.outer(lambdas, m_dot + spec.kappa * m)
    odd = integrand[:, 1:-1:2].sum(axis=1)
    even = integrand[:, 2:-1:2].sum(axis=1)
    return (integrand[:, 0] + 4.0 * odd + 2.0 * even + integrand[:, -1]) / (3.0 * intervals)


def run_verification(
    n_values: tuple[int, ...] = (2, 3, 5),
    kappa_values: tuple[float, ...] = (1.0, 5.0, 25.0),
    draws: int = 3,
    n_steps: int = 2000,
    seed: int = 0,
    bug_scale: float = 1.0,
) -> VerificationReport:
    """Run the full suite over a (n, kappa) grid with seeded target draws.

    The fixed-point gap threshold is 5 / n_steps, loose against the
    second-order discretization error.  ``seed`` draws the target fractions
    and the random deviation bumps.  ``draws`` must be at least 1 and both
    value tuples non-empty, so that a passing report always holds per-draw
    checks.
    """
    if draws < 1:
        raise ValueError(f"need draws >= 1, got {draws}")
    if not n_values or not kappa_values:
        raise ValueError(
            f"need non-empty n_values and kappa_values, got {n_values} and {kappa_values}"
        )
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    gap_threshold = 5.0 / n_steps
    bumps = standard_bumps(n_steps, seed=seed)

    for n in n_values:
        for kappa in kappa_values:
            for rep in range(draws):
                spec = GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=kappa)
                label = f"n={n} kappa={kappa:g} draw={rep}"

                fp = nash_fixed_point(spec, n_steps=n_steps)
                sol = _buggy_solution(spec, bug_scale)
                cf = sampled_equilibrium(spec, n_steps, solution=sol)
                gap = float(np.max(np.abs(fp.paths - cf.paths)))
                checks.append(_at_most(f"fixed-point gap [{label}]", gap, gap_threshold))

                res = max(
                    float(np.max(np.abs(r)))
                    for r in governing_residuals(sol, np.linspace(0.0, 1.0, 101))
                )
                checks.append(_at_most(f"governing residuals [{label}]", res, 1e-9))

                end_err = float(np.max(np.abs(sol.positions(1.0) - 1.0)))
                checks.append(_at_most(f"endpoint a_i(1)=1 [{label}]", end_err, 1e-10))

                costs = group_cost(n, 1, spec.lambdas_array(), kappa)
                rel = float(np.max(np.abs(costs - simpson_cost(sol)) / np.abs(costs)))
                checks.append(_at_most(f"cost formula vs quadrature [{label}]", rel, 1e-6))

                worst_dev = float(np.min(deviation_expansion(spec, bumps, eps=0.01, base=cf)))
                checks.append(
                    _at_least(f"deviation non-negativity [{label}]", worst_dev, -1e-9)
                )

                total_discrete = float(sum(discrete_cost(fp)))
                agg_err = abs(total_discrete - aggregate_cost(n, kappa))
                checks.append(_at_most(f"aggregate vs oracle sum [{label}]", agg_err, 1e-3))

    checks.append(convergence_order_check())
    return VerificationReport(checks=tuple(checks))


def convergence_order_check() -> Check:
    """Gap to the closed form under grid doubling, on a two-trader game.

    The midpoint-averaged discretization is second-order: the measured gap
    ratio per doubling is ~4.  The check requires at least first-order decay
    (every ratio >= 1.7) and reports the measured ratios.
    """
    spec = GameSpec(n=2, lambdas=(0.3, 0.7), kappa=5.0)
    gaps = []
    for n_steps in (500, 1000, 2000):
        fp = nash_fixed_point(spec, n_steps=n_steps)
        cf = sampled_equilibrium(spec, n_steps)
        gaps.append(float(np.max(np.abs(fp.paths - cf.paths))))
    ratios = [gaps[k] / gaps[k + 1] for k in range(len(gaps) - 1)]
    detail = "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
    return _at_least("convergence order under grid doubling", min(ratios), 1.7, detail)
