"""End-to-end verification: closed forms versus the discretized oracle.

Each check pairs a measured quantity with its threshold and the rule that
compares them, so the CLI can emit one pass/fail line per check.  The cost
row holds the per-trader cost formula to :func:`quadrature_cost`.
``inject_bug`` scales every trader's d coefficient of the closed-form
solution by 1.01 before the comparison, which demonstrates that the suite
detects a wrong solution.  The suite's rules on its settings are written
here once, and the CLI reports them at their config keys.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    _KAPPA_FLOOR, EquilibriumSolution, GameSpec, _alpha, _check_kappa, _check_size, _curve,
    _gauss_legendre_64,
)
from .costs import aggregate_cost, group_cost
from .equilibrium import _coefficients, _market_residuals, _trader_residuals, solve
from .oracle import (
    _STACK_CELLS, _bump_terms, _check_grid, _check_pinned, _discrete_costs, _expansion,
    _nash_factors, _nash_profile, _sampled_paths, nash_fixed_point, sampled_equilibrium,
    standard_bumps,
)


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    @property
    def status(self) -> str:
        """PASS or FAIL, as the report's lines and CSV spell the outcome."""
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{c.status} {c.name}: measured {c.value:.3e} vs threshold {c.threshold:.3e}"
            + (f" ({c.detail})" if c.detail else "")
            for c in self.checks
        ]


def _at_most(name: str, value: float, threshold: float, detail: str = "") -> Check:
    """A check that passes when ``value`` is at most ``threshold``."""
    return Check(name, value, threshold, value <= threshold, detail)


def _at_least(name: str, value: float, threshold: float, detail: str = "") -> Check:
    """A check that passes when ``value`` is at least ``threshold``."""
    return Check(name, value, threshold, value >= threshold, detail)


def draw_lambda_stack(rng: np.random.Generator, n: int, draws: int) -> np.ndarray:
    """``draws`` seeded simplex draws as a (draws, n) array, kept away from
    the boundary (lambda_i >= 0.1/n), so fixed tolerances apply uniformly
    across draws.  One Dirichlet call gives the bits of ``draws`` calls of
    :func:`draw_lambdas` and leaves ``rng`` in the same state."""
    return 0.9 * rng.dirichlet(np.ones(n), size=draws) + 0.1 / n


def draw_lambdas(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """One draw of :func:`draw_lambda_stack`, as a tuple."""
    return tuple(draw_lambda_stack(rng, n, 1)[0].tolist())


def _check_suite_n(n_values) -> None:
    """ValueError unless ``n_values`` is non-empty, then the size rule on
    every entry: an integer 2 <= n <= sys.maxsize.  At n = 1 every strategy is the straight
    line (b = d = 0), which an injected bug (it scales d) cannot move, and
    the cost row reads 0 / 0."""
    if not n_values:
        raise ValueError(f"need a non-empty n_values, got {n_values}")
    for k, n in enumerate(n_values):
        _check_size(f"n_values[{k}]", n, 2, sys.maxsize)


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
    return _quadrature_costs(
        spec.lambdas_array(), solution.b, solution.d, spec.kappa, solution.alpha
    )


def _quadrature_costs(lambdas, b, d, kappa: float, alpha: float) -> np.ndarray:
    """:func:`quadrature_cost` of the curves with coefficients ``b`` and
    ``d`` and target fractions ``lambdas``, each of shape (..., n): one cost
    per trader, shape (..., n).  A stack of D games of one size and kappa is
    priced with (D, 1, n) @ (D, n, T) and (D, n, T) @ (D, T, 1) products,
    which keep every game's bits."""
    nodes, weights = _gauss_legendre_64()
    panels = max(1, math.ceil(kappa / 64.0))
    t = ((np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) / panels).ravel()
    row, b, d = lambdas[..., None, :], b[..., None], d[..., None]
    m = row @ _curve(b, d, kappa, alpha, t, 0)
    velocities = _curve(b, d, kappa, alpha, t, 1)
    pressure = row @ velocities + kappa * m  # (..., 1, T)
    weighted = np.swapaxes(pressure * np.tile(weights, panels), -1, -2)
    return lambdas * (velocities @ weighted)[..., 0] / (2.0 * panels)


def _cost_gaps(lambdas, b, d, kappa: float, alpha: float) -> np.ndarray:
    """The cost row's reading of each game of a stack, shape (D,): the worst
    trader's relative gap between the cost formula and :func:`_quadrature_costs`
    on the curves of target fractions ``lambdas`` and coefficients ``b`` and
    ``d``, each of shape (D, n)."""
    costs = group_cost(lambdas.shape[-1], 1, lambdas, kappa)
    quadrature = _quadrature_costs(lambdas, b, d, kappa, alpha)
    return np.max(np.abs(costs - quadrature) / np.abs(costs), axis=-1)


def run_verification(
    n_values: tuple[int, ...],
    kappa_values: tuple[float, ...],
    draws: int,
    n_steps: int,
    seed: int = 0,
    inject_bug: bool = False,
) -> VerificationReport:
    """Run the full suite over a (n, kappa) grid with seeded target draws.

    Every draw gets six rows, in this order, each a reading and its rule:

    - fixed-point gap: max |closed form - oracle Nash profile| on the grid
      <= 5 / n_steps, loose against the second-order discretization error;
    - governing residuals: the traders' and the market's on 101 times <= 1e-9;
    - endpoint a_i(1)=1: max |a_i(1) - 1| <= 1e-10;
    - cost formula vs quadrature: the worst trader's relative gap to
      :func:`quadrature_cost` <= 1e-6;
    - deviation non-negativity: the least cost change of the oracle's
      bumped deviations >= -1e-9;
    - aggregate vs oracle sum: |oracle cost sum - aggregate cost| <= 1e-3.

    The report ends with :func:`convergence_order_check`.  ``seed`` draws the
    target fractions and the random deviation bumps; ``inject_bug`` checks a
    closed form whose d coefficients are 1 % off, which the suite must fail.
    Before any check runs, NonIntegerCount unless every n, ``draws``,
    ``seed`` and ``n_steps`` is an integer (not a bool or a float),
    ValueError unless every n >= 2, every kappa is finite and at least
    1e-300, both value tuples are non-empty, draws >= 1 (so that a passing
    report holds per-draw checks), seed >= 0 and n_steps >= 2, and
    GridMismatch unless n_steps > max(kappa_values) / 2, the grids the
    oracle solves on.

    Cost.  The bump increments are built once per run, each kappa's bump
    pressure once, and the oracle's unit paths, the market's residuals and
    the aggregate cost once per (n, kappa) cell.  A cell's draws are one
    (D, n) stack, its coefficients from ``solve``'s kernel in one call
    (KappaTooLarge where the closed form overflows), every product a batched
    matmul that keeps the public routes' bits on each draw.  A stack holds
    at most ``_STACK_CELLS`` path cells (draws * n * (N + 1)): memory grows
    like n N, not draws n N.  The kernels work in place or through
    ``out=``, so at most three arrays of a stack's size are held at once:
    the sampled closed form, the Nash paths (the previous stack's, until
    the new ones replace them) and one temporary or increment array.  Keeping
    the previous Nash paths keeps the heap a cell grew in use for the next
    one: on the bench verify config a warm pass in a worker-like process takes
    about 260 minor page faults (about 550 with them dropped early, 720-750
    with the former kernels), and this function about 0.87 of its former
    time (2-vCPU Xeon, numpy 2.4.6).
    """
    _check_suite_n(n_values)
    _check_suite_kappa(kappa_values)
    _check_size("draws", draws, 1)
    _check_size("seed", seed, 0)
    _check_grid(max(kappa_values), n_steps)
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    bumps = standard_bumps(n_steps, seed=seed)
    steps = bumps[:, 1:] - bumps[:, :-1]
    bump_terms = {kappa: _bump_terms(bumps, steps, kappa, 1.0 / n_steps) for kappa in kappa_values}
    del bumps  # a draw reads only the increments and its kappa's terms
    t = np.linspace(0.0, 1.0, 101)

    for n in n_values:
        stack = max(1, _STACK_CELLS // (n * (n_steps + 1)))
        for kappa in kappa_values:
            own, market = _nash_factors(n, kappa, n_steps)
            alpha = _alpha(n, kappa)
            pressure, r2, r3 = _market_residuals(n, kappa, alpha, t)
            market_res = max(np.max(np.abs(r2)), np.max(np.abs(r3)))
            aggregate = aggregate_cost(n, kappa)
            for first in range(0, draws, stack):
                labels = [f"n={n} kappa={kappa:g} draw={rep}"
                          for rep in range(first, min(draws, first + stack))]
                lam = draw_lambda_stack(rng, n, len(labels))  # (D, n)
                b, d = _coefficients(lam, kappa, alpha)
                if inject_bug:
                    d = d * 1.01
                b_col, d_col = b[..., None], d[..., None]  # (D, n, 1), against time

                r1 = _trader_residuals(b_col, d_col, lam[..., None], kappa, alpha, t, pressure)
                residuals = np.maximum(np.abs(r1, out=r1).max(axis=(-2, -1)), market_res)
                end_errs = np.abs(_curve(b, d, kappa, alpha, 1.0, 0) - 1.0).max(axis=-1)
                # cf is dropped once its gap is read, fp once the next stack's
                # replaces it (see the Cost paragraph)
                cf = _sampled_paths(b_col, d_col, kappa, alpha, n_steps)
                deviations = _expansion(cf, lam, kappa, steps, *bump_terms[kappa], eps=0.01)
                fp = _nash_profile(lam, own, market)  # (D, n, N + 1)
                _check_pinned(fp)
                cf -= fp
                gaps = np.abs(cf, out=cf).max(axis=(-2, -1))
                del cf
                # summed in trader order: np.sum pairs terms and moves the last digits
                oracle_sums = np.add.accumulate(_discrete_costs(fp, lam, kappa), axis=-1)[:, -1]

                rows = (  # (name, rule, (D,) readings, threshold), in report order
                    ("fixed-point gap", _at_most, gaps, 5.0 / n_steps),
                    ("governing residuals", _at_most, residuals, 1e-9),
                    ("endpoint a_i(1)=1", _at_most, end_errs, 1e-10),
                    ("cost formula vs quadrature", _at_most,
                     _cost_gaps(lam, b, d, kappa, alpha), 1e-6),
                    ("deviation non-negativity", _at_least,
                     deviations.min(axis=(-2, -1)), -1e-9),
                    ("aggregate vs oracle sum", _at_most, np.abs(oracle_sums - aggregate), 1e-3),
                )
                checks += [rule(f"{name} [{label}]", float(readings[k]), threshold)
                           for k, label in enumerate(labels)
                           for name, rule, readings, threshold in rows]

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
