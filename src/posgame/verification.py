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
    EquilibriumSolution, coefficients, curve, decay_rate, governing_residuals, solve,
)
from .oracle import (
    _deviation_pricer, basis_profile, discrete_cost, nash_basis, nash_fixed_point, standard_bumps,
)
from .rules import (
    check_curves, check_grid, check_size, check_suite_kappa, check_suite_n, sized_by,
)

# A stack of draws sizes its draws by this many path cells (draws * n * (N + 1)),
# and the gap row reads at most this many at once: 1 MiB of float64.
# (_g12.CHUNK_CELLS is much smaller, to keep each CSV chunk off glibc's mmap path.)
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
    oracle's paths are (for comparisons): the :func:`basis_profile` of the
    weights (b_i, d_i, 1) on :func:`_sampled_basis`.  NonIntegerCount unless
    ``n_steps`` is an integer, ValueError unless it is at least 1."""
    check_size("n_steps", n_steps, 1)
    weights = np.stack((solution.b, solution.d, np.ones(solution.spec.n)), axis=-1)
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    return basis_profile(weights, _sampled_basis(solution.spec.n, solution.spec.kappa, grid))


def _sampled_basis(n: int, kappa: float, grid: np.ndarray) -> np.ndarray:
    """The curves g, h, z of ``n`` traders at ``kappa`` on the oracle grid
    ``grid``, shape (3, N + 1): z of the coefficients (0, 0), g and h of
    (1, 0) and (0, 1) less z, so b_i g + d_i h + z has the bits of trader
    i's :func:`curve`.  Their ends are pinned, g and h to 0 and z to 0 and
    1, so each combination with weights (b_i, d_i, 1) is too."""
    units = np.eye(3)[:2, :, None]  # the b and d columns of (1, 0), (0, 1) and (0, 0)
    basis = curve(*units, kappa, decay_rate(n, kappa), grid, 0)
    basis[:2] -= basis[2]
    basis[:, 0] = basis[:, -1] = 0.0
    basis[2, -1] = 1.0
    return basis


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
    alpha = decay_rate(lambdas.shape[-1], kappa)
    nodes, weights = _gauss_legendre_64()
    panels = max(1, math.ceil(kappa / 64.0)) if alpha else 1
    t = ((np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) / panels).ravel()
    row, b, d = lambdas[..., None, :], b[..., None], d[..., None]
    m = row @ curve(b, d, kappa, alpha, t, 0)
    velocities = curve(b, d, kappa, alpha, t, 1)
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

    Cost.  The bumps and their terms are built once per run and the
    aggregate cost once per (n, kappa) cell.  A cell's draws are one (D, n)
    stack in basis form, the closed form the weights (b_i, d_i, 1) on
    :func:`_sampled_basis` and the Nash point :func:`nash_basis`; a row is
    one call of its public function on the stack, and every product keeps
    the bits of each draw's own call.  Only the gap row reads every cell, a
    block of trader rows at a time, so memory grows like n + N plus one
    block.  A MemoryError, or numpy's "array is too big", raises
    ArrayTooLarge naming ``n_steps`` for the grid's arrays and ``n`` for
    the traders'.  On the bench verify config a warm pass takes no minor
    page fault (2-vCPU Xeon, numpy 2.4.6).
    """
    check_suite_n(n_values)
    check_suite_kappa(kappa_values)
    check_size("draws", draws, 1)
    check_size("seed", seed, 0)
    check_grid(max(kappa_values), n_steps)
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    with sized_by("n_steps"):
        deviations_at = _deviation_pricer(standard_bumps(n_steps, seed=seed))
        scratch = np.empty((max(2, _STACK_CELLS // (n_steps - 1)) + 1, n_steps - 1))
    t, grid = np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, n_steps + 1)

    for n in n_values:
        stack = max(1, _STACK_CELLS // (n * (n_steps + 1)))
        for kappa in kappa_values:
            alpha, aggregate = decay_rate(n, kappa), aggregate_cost(n, kappa)
            for first in range(0, draws, stack):
                labels = [f"n={n} kappa={kappa:g} draw={rep}"
                          for rep in range(first, min(draws, first + stack))]
                with sized_by("n"):
                    lam = draw_lambda_stack(rng, n, len(labels))  # (D, n)
                    b, d = coefficients(lam, kappa)  # KappaTooLarge before the basis overflows
                    if inject_bug:
                        d = d * 1.01
                    closed = np.ones(b.shape + (3,))  # (D, n, 3): the weights (b_i, d_i, 1)
                    closed[..., 0], closed[..., 1] = b, d
                    basis = _sampled_basis(n, kappa, grid)

                    r1, r2, r3 = governing_residuals(lam, b, d, kappa, t)  # r1: (D, n, 101)
                    market_res = max(np.max(np.abs(r2)), np.max(np.abs(r3)))
                    residuals = np.maximum(np.abs(r1, out=r1).max(axis=(-2, -1)), market_res)
                    del r1  # the stack's largest array: the next stack's must not meet it
                    end_errs = np.abs(curve(b, d, kappa, alpha, 1.0, 0) - 1.0).max(axis=-1)
                    deviations = deviations_at(basis, lam, kappa, 0.01, closed)
                    nash, nash_paths = nash_basis(lam, kappa, n_steps)  # (D, n, 2), (2, N + 1)
                    gaps = _gaps(closed, basis, nash, nash_paths, scratch)
                    # summed in trader order: np.sum pairs terms and moves the last digits
                    oracle_costs = discrete_cost(nash_paths, lam, kappa, nash)
                    oracle_sums = np.add.accumulate(oracle_costs, axis=-1)[:, -1]
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


def _gaps(closed, closed_basis, nash, nash_paths, scratch) -> np.ndarray:
    """max |sampled closed form - Nash point| of every game of a stack,
    shape (D,).  Both are pinned, so only the interior is read: the weights
    (b_i, d_i, -c_i, -1) on g, h, v - u, v, one matrix product into
    ``scratch`` per block of two trader rows or more (numpy forms a one-row
    product as a matrix-vector one, which rounds otherwise)."""
    weights = np.concatenate((closed[..., :2], -nash), axis=-1).reshape(-1, 4)
    basis = np.concatenate((closed_basis[:2, 1:-1], nash_paths[:, 1:-1]))
    rows, block = len(weights), len(scratch) - 1  # a block may take one row more
    gaps, first = np.empty(rows), 0
    while first < rows:
        last = rows if rows - first - block < 2 else first + block
        gap = np.matmul(weights[first:last], basis, out=scratch[:last - first])
        gaps[first:last] = np.abs(gap, out=gap).max(axis=-1)
        first = last
    return gaps.reshape(closed.shape[:-2] + (-1,)).max(axis=-1)


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
