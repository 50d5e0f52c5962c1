"""End-to-end verification: closed forms versus the discretized oracle.

Each check pairs a measured quantity with its threshold so the CLI can emit
one pass/fail line per check.  The cost row ("cost formula vs quadrature")
holds the per-trader cost formula to :func:`quadrature_cost`, composite
64-point Gauss-Legendre quadrature of the cost integrand on the closed-form
curves, with the package's one set of nodes.  ``inject_bug`` scales every
trader's d coefficient of the closed-form solution by 1.01 before the
comparison, which demonstrates that the suite detects a wrong solution.
The suite's rules on its settings are written here once, and the CLI
reports them at their config keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _KAPPA_FLOOR, EquilibriumSolution, GameSpec, _check_kappa, _check_size, _gauss_legendre_64
)
from .costs import aggregate_cost, group_cost
from .equilibrium import governing_residuals, solve
from .oracle import (
    _bump_terms,
    _check_grid,
    _expansion,
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


def _check_suite_n(n_values) -> None:
    """ValueError unless ``n_values`` is non-empty, then the size rule on
    every entry: an integer n >= 2.  At n = 1 every strategy is the straight
    line (b = d = 0), which an injected bug (it scales d) cannot move, and
    the cost row reads 0 / 0."""
    if not n_values:
        raise ValueError(f"need a non-empty n_values, got {n_values}")
    for k, n in enumerate(n_values):
        _check_size(f"n_values[{k}]", n, 2)


def _check_suite_kappa(kappa_values) -> None:
    """ValueError unless ``kappa_values`` is non-empty and every kappa is
    finite and at least 1e-300: a smaller kappa counts as 0, where every
    strategy is the straight line too."""
    for kappa in kappa_values:
        _check_kappa(kappa)
    if not kappa_values or min(kappa_values) < _KAPPA_FLOOR:
        raise ValueError(
            f"need a non-empty kappa_values with every kappa >= {_KAPPA_FLOOR:g}, "
            f"got {kappa_values}"
        )


def quadrature_cost(solution: EquilibriumSolution) -> np.ndarray:
    """Every trader's cost by quadrature of the cost integrand
    (m' + kappa m) lambda_i a_i' on the solution's curves, with analytic
    rates; independent of the cost formula being checked.  Returns one cost
    per trader.

    The rule is composite 64-point Gauss-Legendre on
    P = max(1, ceil(kappa / 64)) equal panels of [0, 1], so kappa / P <= 64.
    The integrand's fastest terms are e^{kappa t} and e^{-2 alpha t}
    (alpha < kappa).  With n = 1000 and lambda_min = 1e-6, one panel reads
    at the rounding floor (about 4e-9 there) up to kappa / P = 275, 2.4e-8
    at 300 and 9.7e-7 at 350, so the rule keeps a factor of four below where
    the error leaves the floor.  P is at most 12 for every kappa < 710,
    where the curves are finite, and memory is a few (n, 64 P) arrays.
    """
    spec = solution.spec
    nodes, weights = _gauss_legendre_64()
    panels = max(1, math.ceil(spec.kappa / 64.0))
    t = ((np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) / panels).ravel()
    lambdas = spec.lambdas_array()
    m = lambdas @ solution.positions(t)
    velocities = solution.velocities(t)
    pressure = lambdas @ velocities + spec.kappa * m
    return lambdas * (velocities @ (pressure * np.tile(weights, panels))) / (2.0 * panels)


def _cost_check(solution: EquilibriumSolution, label: str) -> Check:
    """The cost row: the worst trader's relative gap between the cost
    formula and :func:`quadrature_cost` on ``solution``'s curves."""
    spec = solution.spec
    costs = group_cost(spec.n, 1, spec.lambdas_array(), spec.kappa)
    rel = float(np.max(np.abs(costs - quadrature_cost(solution)) / np.abs(costs)))
    return _at_most(f"cost formula vs quadrature [{label}]", rel, 1e-6)


def run_verification(
    n_values: tuple[int, ...],
    kappa_values: tuple[float, ...],
    draws: int,
    n_steps: int,
    seed: int = 0,
    inject_bug: bool = False,
) -> VerificationReport:
    """Run the full suite over a (n, kappa) grid with seeded target draws.

    The fixed-point gap threshold is 5 / n_steps, loose against the
    second-order discretization error.  ``seed`` draws the target fractions
    and the random deviation bumps; ``inject_bug`` checks a closed form
    whose d coefficients are 1 % off, which the suite must fail.  Before any
    check runs, NonIntegerCount unless every n, ``draws``, ``seed`` and
    ``n_steps`` is an integer (not a bool or a float), ValueError unless
    every n >= 2, every kappa is finite and at least 1e-300, both value
    tuples are non-empty, draws >= 1 (so that a passing report holds
    per-draw checks), seed >= 0 and n_steps >= 2, and GridMismatch unless
    n_steps > max(kappa_values) / 2, the grids the oracle solves on.

    The deviation row prices each draw as ``deviation_expansion`` does, from
    bump terms that depend only on the bumps, kappa and N: they are built
    once per run, the increments once and the (K, N) pressure once per
    distinct kappa, so the run holds 1 + len(set(kappa_values)) arrays of
    shape (K, N), and a draw costs a (K, N) @ (N, n) and a (K, N) @ (N,)
    product.
    """
    _check_suite_n(n_values)
    _check_suite_kappa(kappa_values)
    _check_size("draws", draws, 1)
    _check_size("seed", seed, 0)
    _check_grid(max(kappa_values), n_steps)
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    gap_threshold = 5.0 / n_steps
    bumps = standard_bumps(n_steps, seed=seed)
    steps = np.diff(bumps)
    bump_terms = {kappa: _bump_terms(bumps, steps, kappa, 1.0 / n_steps) for kappa in kappa_values}
    del bumps  # a draw reads only the increments and its kappa's terms

    for n in n_values:
        for kappa in kappa_values:
            for rep in range(draws):
                spec = GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=kappa)
                label = f"n={n} kappa={kappa:g} draw={rep}"

                fp = nash_fixed_point(spec, n_steps=n_steps)
                sol = solve(spec)
                if inject_bug:
                    sol = replace(sol, d=sol.d * 1.01)
                cf = sampled_equilibrium(sol, n_steps)
                gap = float(np.max(np.abs(fp.paths - cf.paths)))
                checks.append(_at_most(f"fixed-point gap [{label}]", gap, gap_threshold))

                res = max(
                    float(np.max(np.abs(r)))
                    for r in governing_residuals(sol, np.linspace(0.0, 1.0, 101))
                )
                checks.append(_at_most(f"governing residuals [{label}]", res, 1e-9))

                end_err = float(np.max(np.abs(sol.positions(1.0) - 1.0)))
                checks.append(_at_most(f"endpoint a_i(1)=1 [{label}]", end_err, 1e-10))

                checks.append(_cost_check(sol, label))

                deviations = _expansion(cf, steps, *bump_terms[kappa], eps=0.01)
                worst_dev = float(np.min(deviations))
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
    solution = solve(GameSpec(n=2, lambdas=(0.3, 0.7), kappa=5.0))
    gaps = []
    for n_steps in (500, 1000, 2000):
        fp = nash_fixed_point(solution.spec, n_steps=n_steps)
        cf = sampled_equilibrium(solution, n_steps)
        gaps.append(float(np.max(np.abs(fp.paths - cf.paths))))
    ratios = [gaps[k] / gaps[k + 1] for k in range(len(gaps) - 1)]
    detail = "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
    return _at_least("convergence order under grid doubling", min(ratios), 1.7, detail)
