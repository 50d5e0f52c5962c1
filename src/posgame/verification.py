"""End-to-end verification: closed forms versus the discretized oracle.

Each check pairs a measured quantity with its threshold and the direction
of its bound, so the CLI can emit one pass/fail line per check.  The cost
row holds the per-trader cost formula to :func:`quadrature_cost`.
``inject_bug`` scales every trader's d coefficient of the closed-form
solution by 1.01 before the comparison, which demonstrates that the suite
detects a wrong solution.  The suite's rules on its settings live in
:mod:`posgame.rules`, and the CLI reports them at their config keys.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .core import GameSpec, _gauss_legendre_64
from .costs import aggregate_cost, group_cost
from .equilibrium import (
    EquilibriumSolution, _alpha, _coefficients, _curve, governing_residuals, solve,
)
from .oracle import _bump_terms, _expansion, discrete_cost, nash_fixed_point, standard_bumps
from .rules import check_curves, check_grid, check_size, check_suite_kappa, check_suite_n

# A block of paths holds at most this many cells, 1 MiB of float64: each
# stack of draws (draws * n * (N + 1) cells) and each block of rows that
# _sampled_paths fills.  (_g12.CHUNK_CELLS is much smaller, to keep each CSV
# chunk, built once per chunk of a file, off glibc's mmap path.)
_STACK_CELLS = 1 << 17


@dataclass(frozen=True)
class Check:
    """A measured ``value`` held to its ``threshold``: at most it, or at
    least it where ``at_least``.  The verdict is read off these three, so a
    NaN reading fails either way; ``detail`` annotates the report line."""

    name: str
    value: float
    threshold: float
    _: KW_ONLY
    at_least: bool = False
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Whether ``value`` lies within its bound (a NaN reading does not)."""
        if self.at_least:
            return self.value >= self.threshold
        return self.value <= self.threshold

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


def draw_lambda_stack(rng: np.random.Generator, n: int, draws: int) -> np.ndarray:
    """``draws`` seeded simplex draws as a (draws, n) array, kept away from
    the boundary (lambda_i >= 0.1/n), so fixed tolerances apply uniformly
    across draws.  One Dirichlet call gives the bits of ``draws`` one-row
    calls and leaves ``rng`` in the same state."""
    return 0.9 * rng.dirichlet(np.ones(n), size=draws) + 0.1 / n


def sampled_equilibrium(solution: EquilibriumSolution, n_steps: int) -> np.ndarray:
    """``solution``'s strategies sampled on the oracle grid of ``n_steps``
    intervals, shape (n, N + 1), with the ends pinned to 0 and 1 as the
    oracle's paths are (for comparisons).  NonIntegerCount unless
    ``n_steps`` is an integer, ValueError unless it is at least 1."""
    check_size("n_steps", n_steps, 1)
    b, d = solution.b[:, None], solution.d[:, None]
    return _sampled_paths(b, d, solution.spec.kappa, solution.alpha, n_steps)


def _sampled_paths(b, d, kappa: float, alpha: float, n_steps: int) -> np.ndarray:
    """The curves of coefficients ``b`` and ``d`` on the grid of ``n_steps``
    intervals, shape (..., N + 1), with the ends pinned to 0 and 1 as the
    oracle's are: (n, 1) columns give one game, (D, n, 1) stacks D games on
    one grid.  Beyond ``_STACK_CELLS`` cells the result is filled a block
    of rows of at most that many cells at a time, so ``_curve``'s two
    products never reach the result's size; each cell keeps its bits."""
    t = np.linspace(0.0, 1.0, n_steps + 1)
    block = max(1, _STACK_CELLS // t.size)
    if np.size(b) <= block:  # one block: _curve's own result, no fresh copy
        paths = _curve(b, d, kappa, alpha, t, 0)
    else:
        paths = np.empty(np.shape(b)[:-1] + t.shape)
        rows, b, d = paths.reshape(-1, t.size), np.reshape(b, (-1, 1)), np.reshape(d, (-1, 1))
        for first in range(0, len(rows), block):
            part = slice(first, first + block)
            rows[part] = _curve(b[part], d[part], kappa, alpha, t, 0)
    paths[..., 0] = 0.0
    paths[..., -1] = 1.0
    return paths


def quadrature_cost(lambdas, b, d, kappa: float) -> np.ndarray:
    """Every trader's cost by quadrature of the cost integrand
    (m' + kappa m) lambda_i a_i' on the curves of :func:`governing_residuals`
    (its arguments, its checks), shape (..., n), with analytic rates;
    independent of the cost formula being checked.

    The rule is composite 64-point Gauss-Legendre on
    P = max(1, ceil(kappa / 64)) equal panels of [0, 1], so kappa / P <= 64.
    The integrand's fastest terms are e^{kappa t} and e^{-2 alpha t}
    (alpha < kappa).  With n = 1000 and lambda_min = 1e-6, one panel reads
    at the rounding floor (about 4e-9 there) up to kappa / P = 275, 2.4e-8
    at 300 and 9.7e-7 at 350, so the rule keeps a factor of four below where
    the error leaves the floor.  P is at most 12 for every kappa up to
    ln(DBL_MAX) = 709.78, beyond which the curves of n >= 2 traders overflow
    (KappaTooLarge), and memory is a few (..., n, 64 P) arrays.  Where
    alpha = 0 (n = 1, or kappa below the floor) the curves are straight
    lines, whose linear integrand one panel integrates exactly at any kappa.
    A stack's batched products keep every game's bits.
    """
    lambdas, b, d = check_curves(lambdas, b, d, kappa)
    alpha = _alpha(lambdas.shape[-1], kappa)
    nodes, weights = _gauss_legendre_64()
    panels = max(1, math.ceil(kappa / 64.0)) if alpha else 1
    t = ((np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) / panels).ravel()
    row, b, d = lambdas[..., None, :], b[..., None], d[..., None]
    m = row @ _curve(b, d, kappa, alpha, t, 0)
    velocities = _curve(b, d, kappa, alpha, t, 1)
    pressure = row @ velocities + kappa * m  # (..., 1, T)
    weighted = np.swapaxes(pressure * np.tile(weights, panels), -1, -2)
    return lambdas * (velocities @ weighted)[..., 0] / (2.0 * panels)


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
    pressure once, and the aggregate cost once per (n, kappa) cell.  A
    cell's draws are one (D, n) stack, its coefficients from ``solve``'s
    kernel in one call (KappaTooLarge where the closed form overflows), its
    Nash paths, residuals and costs from one call each of the public
    functions, every product a batched matmul that keeps the bits of each
    draw's own call.  A stack holds at most ``_STACK_CELLS`` path cells
    (draws * n * (N + 1)): memory grows like n N, not draws n N.  The
    kernels work in place or through ``out=``, so at most three arrays of a
    stack's size are held at once: the sampled closed form, the Nash paths
    (the previous stack's, until the new ones replace them) and one
    temporary or increment array.  Keeping the previous Nash paths keeps the
    heap a cell grew in use for the next one: on the bench verify config a
    warm pass in a worker-like process takes about 260 minor page faults
    (about 550 with them dropped early; 2-vCPU Xeon, numpy 2.4.6).
    """
    check_suite_n(n_values)
    check_suite_kappa(kappa_values)
    check_size("draws", draws, 1)
    check_size("seed", seed, 0)
    check_grid(max(kappa_values), n_steps)
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
            alpha = _alpha(n, kappa)
            aggregate = aggregate_cost(n, kappa)
            for first in range(0, draws, stack):
                labels = [f"n={n} kappa={kappa:g} draw={rep}"
                          for rep in range(first, min(draws, first + stack))]
                lam = draw_lambda_stack(rng, n, len(labels))  # (D, n)
                b, d = _coefficients(lam, kappa, alpha)
                if inject_bug:
                    d = d * 1.01

                r1, r2, r3 = governing_residuals(lam, b, d, kappa, t)  # r1: (D, n, 101)
                market_res = max(np.max(np.abs(r2)), np.max(np.abs(r3)))
                residuals = np.maximum(np.abs(r1, out=r1).max(axis=(-2, -1)), market_res)
                end_errs = np.abs(_curve(b, d, kappa, alpha, 1.0, 0) - 1.0).max(axis=-1)
                # cf is dropped once its gap is read, fp once the next stack's
                # replaces it (see the Cost paragraph)
                cf = _sampled_paths(b[..., None], d[..., None], kappa, alpha, n_steps)
                deviations = _expansion(cf, lam, kappa, steps, *bump_terms[kappa], eps=0.01)
                fp = nash_fixed_point(lam, kappa, n_steps)  # (D, n, N + 1)
                cf -= fp
                gaps = np.abs(cf, out=cf).max(axis=(-2, -1))
                del cf
                # summed in trader order: np.sum pairs terms and moves the last digits
                oracle_sums = np.add.accumulate(discrete_cost(fp, lam, kappa), axis=-1)[:, -1]
                costs = group_cost(n, 1, lam, kappa)
                cost_gaps = np.abs(costs - quadrature_cost(lam, b, d, kappa)) / np.abs(costs)

                rows = (  # (name, (D,) readings, threshold, at_least), in report order
                    ("fixed-point gap", gaps, 5.0 / n_steps, False),
                    ("governing residuals", residuals, 1e-9, False),
                    ("endpoint a_i(1)=1", end_errs, 1e-10, False),
                    ("cost formula vs quadrature", cost_gaps.max(axis=-1), 1e-6, False),
                    ("deviation non-negativity", deviations.min(axis=(-2, -1)), -1e-9, True),
                    ("aggregate vs oracle sum", np.abs(oracle_sums - aggregate), 1e-3, False),
                )
                checks += [Check(f"{name} [{label}]", float(readings[k]), threshold,
                                 at_least=at_least)
                           for k, label in enumerate(labels)
                           for name, readings, threshold, at_least in rows]

    checks.append(convergence_order_check())
    return VerificationReport(checks=tuple(checks))


def convergence_order_check() -> Check:
    """Gap to the closed form under grid doubling, on a two-trader game.

    The midpoint-averaged discretization is second-order: the measured gap
    ratio per doubling is ~4.  The check requires at least first-order decay
    (every ratio >= 1.7) and reports the measured ratios.
    """
    spec = GameSpec(n=2, lambdas=(0.3, 0.7), kappa=5.0)
    solution = solve(spec)
    gaps = []
    for n_steps in (500, 1000, 2000):
        fp = nash_fixed_point(spec.lambdas_array(), spec.kappa, n_steps)
        gaps.append(float(np.max(np.abs(fp - sampled_equilibrium(solution, n_steps)))))
    ratios = [gaps[k] / gaps[k + 1] for k in range(len(gaps) - 1)]
    detail = "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
    return Check("convergence order under grid doubling", min(ratios), 1.7, at_least=True,
                 detail=detail)
