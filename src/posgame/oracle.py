"""Independent numerical verification of the closed forms.

The implementation-cost functional for trader i,

    Cost_i = integral of (m' + kappa m) lambda_i a_i' dt,   m = sum_j lambda_j a_j,

is discretized on the uniform grid t_j = j / N, j = 0..N, with forward
differences for the rates and midpoint averaging for m on each interval; a
profile is a :class:`DiscreteGame`, an (n, N + 1) array of paths whose width
gives N.  The functional is then strictly convex in trader i's interior
values (the permanent-impact self-term telescopes away, leaving the
quadratic lambda_i^2 sum((a_i')^2) dt), so each best response is one
symmetric positive-definite tridiagonal solve.

The discrete Nash point is the profile at which every trader's best-response
rows hold at once.  With h = 1/N, c = kappa h / 2, the second difference
D2 x[j] = x[j-1] - 2 x[j] + x[j+1] and the central difference
D1 x[j] = x[j+1] - x[j-1], trader i's rows read

    lambda_i (D2 - c D1) a_i = -(D2 + c D1) m.

Summing them over i (the left sides add up to (D2 - c D1) m) leaves a
single tridiagonal equation for the market path,

    (n + 1) D2 m + (n - 1) c D1 m = 0,   m(0) = 0,   m(1) = sum_i lambda_i,

and, given m, every trader solves the same tridiagonal matrix (D2 - c D1)
with its own right-hand side.  So the Nash point costs two banded solves.
Both systems are nonsingular for every c >= 0, and the per-trader solutions
reproduce m as their lambda-weighted sum, so the profile satisfies each
trader's own best-response rows exactly, to rounding.

Trader i's cost is bilinear in m and a_i, and moving a_i alone by eps b
moves m by eps lambda_i b, so the cost change along a deviation is an exact
quadratic in eps whose coefficients are cost sums of the base paths and the
bump.  :func:`deviation_expansion` prices every trader's deviations that way,
from the cost functional alone.

Everything here deliberately avoids the closed-form solution: the only
shared inputs are the cost functional and the boundary conditions.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

from .core import (
    BadBump,
    EquilibriumSolution,
    GameSpec,
    GridMismatch,
)
from .equilibrium import solve


class _Deferred:
    """A scipy.linalg routine imported on its first call, not with this module.

    scipy.linalg takes about 0.26 s and 25 MiB to import (2-vCPU Xeon,
    scipy 1.17), and only the oracle's solves use it, so every other command
    runs on numpy alone.  Each call forwards its arguments unchanged to the
    real routine.
    """

    def __init__(self, name: str):
        self._name = name
        self._fn = None

    def __call__(self, *args, **kwargs):
        if self._fn is None:
            self._fn = getattr(importlib.import_module("scipy.linalg"), self._name)
        return self._fn(*args, **kwargs)

    def __repr__(self):
        return f"<scipy.linalg.{self._name}, imported on first call>"


solve_banded = _Deferred("solve_banded")
solveh_banded = _Deferred("solveh_banded")


@dataclass(frozen=True)
class DiscreteGame:
    """Sampled strategy profile: ``paths[i]`` is trader i's path on the
    uniform grid j / N, j = 0..N, pinned to 0 and 1 at the ends."""

    spec: GameSpec
    paths: np.ndarray  # shape (n, N + 1)

    def __post_init__(self):
        paths = np.array(self.paths, dtype=float)
        if paths.ndim != 2 or paths.shape[0] != self.spec.n or paths.shape[1] < 2:
            raise GridMismatch(f"paths shape {paths.shape} is not ({self.spec.n}, N + 1), N >= 1")
        if np.any(paths[:, 0] != 0.0) or np.any(paths[:, -1] != 1.0):
            raise GridMismatch("path endpoints must be pinned to 0 and 1")
        paths.flags.writeable = False
        object.__setattr__(self, "paths", paths)

    @property
    def n_steps(self) -> int:
        """N, the number of grid intervals."""
        return self.paths.shape[1] - 1


def sampled_equilibrium(
    spec: GameSpec, n_steps: int, solution: EquilibriumSolution | None = None
) -> DiscreteGame:
    """Closed-form strategies sampled on the oracle grid (for comparisons).

    ``solution`` defaults to ``solve(spec)``; pass one to sample a modified
    solution instead.
    """
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    sol = solution if solution is not None else solve(spec)
    paths = sol.positions(grid)
    paths[:, 0] = 0.0
    paths[:, -1] = 1.0
    return DiscreteGame(spec, paths)


def _pressure(x: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """Per-interval price pressure of a path along the last axis: its
    forward-difference rate plus kappa times its midpoint level.  Linear in
    ``x``; leading axes broadcast."""
    return np.diff(x) / h + kappa * 0.5 * (x[..., :-1] + x[..., 1:])


def _cost_sum(m: np.ndarray, lam, a: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """The discrete cost sum over the last axis: the price pressure of the
    aggregate path ``m`` times ``lam`` times the own path's increments.
    Leading axes broadcast: one call prices every trader or every profile of
    a stack."""
    return np.sum(_pressure(m, kappa, h) * lam * np.diff(a), axis=-1)


def discrete_cost(game: DiscreteGame) -> np.ndarray:
    """Discretized implementation cost of every trader, shape (n,)."""
    lambdas = game.spec.lambdas_array()
    m = lambdas @ game.paths
    return _cost_sum(m, lambdas[:, None], game.paths, game.spec.kappa, 1.0 / game.n_steps)


def _best_response_rhs(game: DiscreteGame) -> np.ndarray:
    """Right-hand sides D2 r_i + (kappa h / 2) D1 r_i of every trader's
    best-response rows, shape (n, N - 1), with r_i the opponents' aggregate."""
    lambdas = game.spec.lambdas_array()[:, None]
    c = 0.5 * game.spec.kappa / game.n_steps
    r = lambdas.T @ game.paths - lambdas * game.paths
    return (r[:, :-2] - 2.0 * r[:, 1:-1] + r[:, 2:]) + c * (r[:, 2:] - r[:, :-2])


def best_response(game: DiscreteGame, i: int) -> np.ndarray:
    """Minimizer of trader i's discrete cost with the others fixed: its path
    on the game's grid, shape (N + 1,), pinned to 0 and 1 at the ends.

    Stationarity at interior node j reads

        2 lambda_i (a[j-1] - 2 a[j] + a[j+1])
            = -( r[j-1] - 2 r[j] + r[j+1] + (kappa h / 2)(r[j+1] - r[j-1]) )

    with r the opponents' aggregate, a tridiagonal SPD system.
    """
    lam = game.spec.lambdas_array()[i]
    rhs = _best_response_rhs(game)[i]
    rhs[-1] += 2.0 * lam  # a[N] = 1 moves to the right-hand side
    # SPD lower banded form: diagonal 4 lam, off-diagonal -2 lam.
    ab = np.repeat([[4.0 * lam], [-2.0 * lam]], game.n_steps - 1, axis=1)
    return np.concatenate(([0.0], solveh_banded(ab, rhs, lower=True), [1.0]))


def nash_fixed_point(spec: GameSpec, n_steps: int) -> DiscreteGame:
    """Discrete Nash point: every trader's best-response rows hold at once.

    One banded solve of the summed rows gives the market path m, a second
    one with a right-hand side per trader gives every path (see the module
    docstring).  The paths match the sampled closed forms to the
    second-order discretization error.
    """
    if n_steps < 2:
        raise ValueError(f"need n_steps >= 2, got {n_steps}")
    lambdas = spec.lambdas_array()
    n = spec.n
    # Round c and (n - 1) c so that 1 +- c and (n + 1) +- (n - 1) c are exact:
    # each row then annihilates constants exactly, as D2 and D1 do.  A rounded
    # row sum acts as a zeroth-order term that the O(N^2) condition number of
    # D2 amplifies, costing about 1e-9 in the paths at N = 2000.
    c = (1.0 + 0.5 * spec.kappa / n_steps) - 1.0
    q = ((n + 1) + (n - 1) * c) - (n + 1)
    # solve_banded's (1, 1) layout: super-, main and sub-diagonal rows.
    ab = np.repeat([[(n + 1) + q], [-2.0 * (n + 1)], [(n + 1) - q]], n_steps - 1, axis=1)
    m_end = lambdas.sum()
    rhs = np.zeros(n_steps - 1)
    rhs[-1] = -((n + 1) + q) * m_end  # m[N] moves to the right-hand side
    m = np.concatenate(([0.0], solve_banded((1, 1), ab, rhs), [m_end]))

    pressure = (m[:-2] - 2.0 * m[1:-1] + m[2:]) + c * (m[2:] - m[:-2])
    rhs = np.multiply.outer(pressure, -1.0 / lambdas)
    rhs[-1] -= 1.0 - c  # a_i[N] = 1 moves to the right-hand side
    ab = np.repeat([[1.0 - c], [-2.0], [1.0 + c]], n_steps - 1, axis=1)
    paths = np.zeros((n, n_steps + 1))
    paths[:, -1] = 1.0
    paths[:, 1:-1] = solve_banded((1, 1), ab, rhs).T
    return DiscreteGame(spec, paths)


def stationarity_residual(game: DiscreteGame) -> np.ndarray:
    """Relative residual of every trader's best-response rows, shape (n,).

    For trader i's rows A_i a_i = g_i (the system :func:`best_response`
    solves) this is the normwise backward error
    max|A_i a_i - g_i| / (||A_i|| max|a_i| + max|g_i|), ||A_i|| = 8 lambda_i;
    it is at rounding level exactly when every trader is best-responding.
    """
    lambdas = game.spec.lambdas_array()[:, None]
    a = game.paths
    g = _best_response_rhs(game)
    resid = -2.0 * lambdas * (a[:, :-2] - 2.0 * a[:, 1:-1] + a[:, 2:]) - g
    scale = 8.0 * lambdas[:, 0] * np.max(np.abs(a), axis=1) + np.max(np.abs(g), axis=1)
    return np.max(np.abs(resid), axis=1) / scale


def deviation_expansion(
    spec: GameSpec,
    bumps: np.ndarray,
    eps: float,
    base: DiscreteGame | None = None,
) -> np.ndarray:
    """Cost changes when each trader alone deviates by eps * bump, shape (n, K).

    ``bumps`` holds K endpoint-vanishing directions on the oracle grid, shape
    (K, N + 1): GridMismatch if they do not fit the grid and BadBump if one
    does not vanish at both endpoints.  All traders sit at the sampled
    closed-form equilibrium (or at ``base``); entry (i, k) is trader i's
    discrete cost with its path moved to a_i + eps * bumps[k] minus its cost
    at the base, non-negative (to rounding) because the discrete cost is
    convex in the own path and stationary at its minimum.

    The change comes from the exact expansion of the discrete cost in the
    own path.  With p(x) the price pressure of :func:`_cost_sum` (linear in
    x), moving trader i alone by eps * b moves the market by
    eps * lambda_i * b, so its cost changes by exactly

        eps lambda_i [sum p(m) db + lambda_i sum p(b) da_i]
            + eps^2 lambda_i^2 sum p(b) db,

    d the increments along the grid.  The sums over every trader and bump
    are one (K, N) @ (N, n) product plus two length-K sums, so memory grows
    like (n + K) N and no perturbed profile is built.
    """
    bumps = np.asarray(bumps, dtype=float)
    base = base if base is not None else sampled_equilibrium(spec, bumps.shape[-1] - 1)
    if bumps.ndim != 2 or bumps.shape[1] != base.paths.shape[1]:
        raise GridMismatch(f"bumps shape {bumps.shape} is not (K, {base.paths.shape[1]})")
    if np.any(bumps[:, [0, -1]] != 0.0):
        raise BadBump("bump must vanish at both endpoints")
    lambdas = spec.lambdas_array()
    kappa, h = spec.kappa, 1.0 / base.n_steps
    bump_pressure = _pressure(bumps, kappa, h)
    bump_steps = np.diff(bumps)
    market_term = bump_steps @ _pressure(lambdas @ base.paths, kappa, h)  # (K,)
    own_term = bump_pressure @ np.diff(base.paths).T  # (K, n)
    curvature = np.sum(bump_pressure * bump_steps, axis=-1)  # (K,)
    lam = lambdas[:, None]
    return eps * lam * (market_term + lam * own_term.T) + eps**2 * lam**2 * curvature


def standard_bumps(
    n_steps: int, modes: int = 5, n_random: int = 5, seed: int = 0
) -> np.ndarray:
    """Deviation directions, shape (modes + n_random, n_steps + 1): sine
    modes k = 1..modes plus seeded random endpoint-vanishing vectors scaled
    into [-1, 1] (smooth and rough perturbations)."""
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    sines = np.sin(np.multiply.outer(np.arange(1, modes + 1) * np.pi, grid))
    rough = np.random.default_rng(seed).standard_normal((n_random, n_steps + 1))
    bumps = np.concatenate((sines, rough))
    bumps[:, [0, -1]] = 0.0
    bumps[modes:] /= np.maximum(1.0, np.max(np.abs(bumps[modes:]), axis=1, keepdims=True))
    return bumps
