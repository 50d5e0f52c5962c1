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
single equation for the market path,

    (n + 1) D2 m + (n - 1) c D1 m = 0,   m(0) = 0,   m(1) = M = sum_i lambda_i.

Both are linear recurrences with constant coefficients, so their solutions
are sums of powers of the roots of their characteristic polynomials, and no
linear system is solved.  With q = (n - 1) c, the market's polynomial
(n + 1 + q) x^2 - 2 (n + 1) x + (n + 1 - q) has the roots 1 and
rho = (n + 1 - q) / (n + 1 + q), so

    m = M u,   u[j] = (rho^j - 1) / (rho^N - 1),

u being the unit path through 1 and rho^j, pinned to 0 and 1.  The
polynomial of trader i's left side, (1 - c) x^2 - 2 x + (1 + c), has the
roots 1 and sigma = (1 + c) / (1 - c), with the unit path
v[j] = (sigma^j - 1) / (sigma^N - 1).  On rho^j the left side and the
right-hand side's operator act as multiplication by P-(rho) / rho and
P+(rho) / rho, P-+(x) = (x - 1)^2 -+ c (x^2 - 1), whose ratio at this rho
is (q - c (n + 1)) / (q + c (n + 1)) = -1/n.  Adding v's multiple that pins
a_i[N] = 1 to the particular solution gives

    a_i = v - M / (n lambda_i) (v - u),

whose lambda-weighted sum over the traders is m.

So 1, rho and sigma come from the discrete rows alone, never from the
continuous closed form, and a_i[0] = 0 and a_i[N] = 1 hold exactly.
Written as u = expm1(j ln rho) / expm1(N ln rho) (rho < 1) and
v = sigma^(j - N) expm1(-j ln sigma) / expm1(-N ln sigma) (sigma > 1), no
term overflows at any kappa; at c = 0 both unit paths are the straight line
j / N, and at q = 0 (n = 1) u is.  sigma is positive only while c < 1, so
the grid needs N > kappa / 2.  The cost is O(n N).  The profile has rank 2
in (trader, time): :func:`_nash_factors` returns the unit paths v and u,
which depend on n, kappa and N alone, and :func:`_nash_profile` turns any
stack of target fractions into its traders' paths, so ``run_verification``
builds the factors once per (n, kappa) cell and prices the cell's draws as
one stack.
:func:`stationarity_residual` is the run-time certificate: it evaluates
every trader's best-response rows on the computed profile directly, and it
reads at rounding level exactly at the Nash point.

Trader i's cost is bilinear in m and a_i, and moving a_i alone by eps b
moves m by eps lambda_i b, so the cost change along a deviation is an exact
quadratic in eps whose coefficients are cost sums of the base paths and the
bump.  :func:`deviation_expansion` prices every trader's deviations that way,
from the cost functional alone.

Everything here deliberately avoids the closed-form solution: the only
shared inputs are the cost functional and the boundary conditions.  The
module imports no solver; :func:`sampled_equilibrium` samples a solution
that its caller solved, and every function reads the spec off the game or
solution it is given, or takes lambda and kappa beside the paths.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from .core import EquilibriumSolution, GameSpec, _curve
from .rules import BadBump, GridMismatch, check_grid, check_kappa, check_size

# A block of paths holds at most this many cells, 1 MiB of float64: verify
# builds each stack of draws (draws * n * (N + 1) cells) to this size, so its
# memory grows like n N, not draws n N, and _sampled_paths fills a larger
# result a block of rows at a time, so its temporaries stay one block each.
# (_g12.CHUNK_CELLS is much smaller, to keep each CSV chunk, built once per
# chunk of a file, off glibc's mmap path.)
_STACK_CELLS = 1 << 17


class _Deferred:
    """A scipy.linalg routine imported on its first call, not with this module.

    scipy.linalg takes about 0.26 s and 25 MiB to import (2-vCPU Xeon,
    scipy 1.17), and only :func:`best_response` uses it, so every command,
    ``verify`` included, runs on numpy alone.  Each call forwards its
    arguments unchanged to the real routine.
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


solveh_banded = _Deferred("solveh_banded")


@dataclass(frozen=True)
class DiscreteGame:
    """Sampled strategy profile: ``paths[i]`` is trader i's path on the
    uniform grid j / N, j = 0..N, pinned to 0 and 1 at the ends."""

    spec: GameSpec
    paths: np.ndarray  # shape (n, N + 1)

    def __post_init__(self):
        # a copy, so that the caller's array is never frozen behind its back
        object.__setattr__(self, "paths", np.array(self.paths, dtype=float))
        self._check_and_freeze()

    @classmethod
    def _adopt(cls, spec: GameSpec, paths: np.ndarray) -> "DiscreteGame":
        """The game on ``paths``, a fresh float array that no caller holds,
        kept as it is instead of copied: the oracle's own results."""
        game = cls.__new__(cls)
        object.__setattr__(game, "spec", spec)
        object.__setattr__(game, "paths", paths)
        game._check_and_freeze()
        return game

    def _check_and_freeze(self) -> None:
        _check_paths(self.paths, (self.spec.n,))
        self.paths.flags.writeable = False

    @property
    def n_steps(self) -> int:
        """N, the number of grid intervals."""
        return self.paths.shape[1] - 1


def _check_paths(paths: np.ndarray, shape: tuple) -> None:
    """GridMismatch unless ``paths`` has shape ``shape + (N + 1,)``, N >= 1,
    ``shape`` the target fractions', and every path runs from 0 to 1."""
    if not shape or paths.shape[:-1] != shape or paths.shape[-1] < 2:
        raise GridMismatch(f"paths shape {paths.shape} is not {shape} + (N + 1,), N >= 1")
    if np.any(paths[..., 0] != 0.0) or np.any(paths[..., -1] != 1.0):
        raise GridMismatch("path endpoints must be pinned to 0 and 1")


def sampled_equilibrium(solution: EquilibriumSolution, n_steps: int) -> DiscreteGame:
    """``solution``'s strategies sampled on the oracle grid of ``n_steps``
    intervals, as a game of ``solution.spec`` (for comparisons).
    NonIntegerCount unless ``n_steps`` is an integer, ValueError unless it is
    at least 1."""
    check_size("n_steps", n_steps, 1)
    b, d = solution.b[:, None], solution.d[:, None]
    paths = _sampled_paths(b, d, solution.spec.kappa, solution.alpha, n_steps)
    return DiscreteGame._adopt(solution.spec, paths)


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


def _pressure(x: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """Per-interval price pressure of a path along the last axis: its
    forward-difference rate plus kappa times its midpoint level.  Linear in
    ``x``; leading axes broadcast.  Besides the result only the midpoint
    sums are made."""
    pressure = x[..., 1:] - x[..., :-1]
    pressure /= h
    level = x[..., :-1] + x[..., 1:]
    level *= kappa * 0.5
    pressure += level
    return pressure


def _cost_sum(m: np.ndarray, lam, a: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """The discrete cost sum over the last axis: the price pressure of the
    aggregate path ``m`` times ``lam`` times the own path's increments.
    Leading axes broadcast into the own path ``a``'s shape: one call prices
    every trader or every profile of a stack.  The increments are weighted
    in place, so besides them only the pressure times ``lam`` is made."""
    terms = a[..., 1:] - a[..., :-1]
    terms *= _pressure(m, kappa, h) * lam
    return terms.sum(axis=-1)


def discrete_cost(paths, lambdas, kappa: float) -> np.ndarray:
    """Discretized implementation cost of every trader of the profiles
    ``paths``, shape (..., n, N + 1), with target fractions ``lambdas``,
    shape (..., n): one cost per trader, shape (..., n), so a stack prices D
    games on one grid at once.  GridMismatch unless the paths fit as a
    DiscreteGame's do; NegativeKappa or NonFiniteKappa unless 0 <= kappa < inf."""
    paths, lambdas = np.asarray(paths, dtype=float), np.asarray(lambdas, dtype=float)
    _check_paths(paths, lambdas.shape)
    check_kappa(kappa)
    m = lambdas[..., None, :] @ paths
    return _cost_sum(m, lambdas[..., None], paths, kappa, 1.0 / (paths.shape[-1] - 1))


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


def _unit_path(log_root: float, n_steps: int) -> np.ndarray:
    """x[j] = (r^j - 1) / (r^N - 1), j = 0..N, with r = exp(log_root): the
    path through the constants and r^j pinned to x[0] = 0 and x[N] = 1, and
    the straight line j / N at r = 1.  Powers of r are taken relative to the
    end where they are largest, so no term overflows."""
    j = np.arange(n_steps + 1.0)
    if log_root == 0.0:
        return j / n_steps
    if log_root < 0.0:
        return np.expm1(j * log_root) / np.expm1(n_steps * log_root)
    scale = np.exp((j - n_steps) * log_root)
    return scale * (np.expm1(-j * log_root) / np.expm1(-n_steps * log_root))


def nash_fixed_point(spec: GameSpec, n_steps: int) -> DiscreteGame:
    """Discrete Nash point: every trader's best-response rows hold at once.

    The market path and every trader's path are the explicit solutions of
    the summed and the per-trader rows (see the module docstring).  The
    paths match the sampled closed forms to the second-order discretization
    error.  Raises NonIntegerCount unless n_steps is an integer, ValueError
    unless n_steps >= 2 and GridMismatch unless n_steps > kappa / 2: on
    coarser grids the rows' root sigma is not positive.
    """
    check_grid(spec.kappa, n_steps)
    own, market = _nash_factors(spec.n, spec.kappa, n_steps)
    return DiscreteGame._adopt(spec, _nash_profile(spec.lambdas_array(), own, market))


def _nash_factors(n: int, kappa: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The two unit paths of the n-trader Nash point at ``kappa`` on the grid
    of ``n_steps`` intervals, shape (N + 1,) each: ``own`` through sigma^j
    and ``market`` through rho^j (see the module docstring).  They depend on
    n, kappa and N alone; :func:`_nash_profile` builds the traders' paths
    from them.  The caller checks the grid (:func:`check_grid`)."""
    # c is rounded so that 1 +- c are exact, as a banded solve of the same
    # rows needs, and so that it is 0 (straight lines) where kappa / (2 N)
    # is below half an ulp of 1; it stays below 1 where kappa / (2 N) rounds
    # up to it.  q = (n - 1) c is left unrounded, so the summed rows stay the
    # sum of the traders' rows: a q rounded to a multiple of ulp(n + 1)
    # amplifies the rounding of v - u in the traders' sum up to tenfold.
    c = min((1.0 + 0.5 * kappa / n_steps) - 1.0, 1.0 - 2.0**-52)
    q = (n - 1) * c
    market = _unit_path(math.log1p(-2.0 * q / ((n + 1) + q)), n_steps)  # ln rho
    own = _unit_path(math.log1p(2.0 * c / (1.0 - c)), n_steps)  # ln sigma
    return own, market


def _nash_profile(lambdas: np.ndarray, own: np.ndarray, market: np.ndarray) -> np.ndarray:
    """The Nash paths a_i = v - M / (n lambda_i) (v - u) of target fractions
    ``lambdas``, shape (..., n), from the :func:`_nash_factors` v = ``own``
    and u = ``market``: shape (..., n, N + 1), a stack of D games at once."""
    coef = -lambdas.sum(axis=-1, keepdims=True) / (lambdas.shape[-1] * lambdas)
    paths = coef[..., None] * (own - market)
    paths += own
    return paths


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


def _bump_terms(
    bumps: np.ndarray, steps: np.ndarray, kappa: float, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """The bumps' price pressure p(b), shape (K, N), and curvatures
    sum p(b) db, shape (K,), at ``kappa`` on the grid of step ``h``: the
    terms of :func:`deviation_expansion` that no base enters.  ``steps`` is
    the bumps' increments along the grid."""
    pressure = _pressure(bumps, kappa, h)
    return pressure, (pressure * steps).sum(axis=-1)


def _expansion(
    paths: np.ndarray,
    lambdas: np.ndarray,
    kappa: float,
    steps: np.ndarray,
    pressure: np.ndarray,
    curvature: np.ndarray,
    eps: float,
) -> np.ndarray:
    """:func:`deviation_expansion` on the profiles ``paths``, shape
    (..., n, N + 1), with target fractions ``lambdas``, shape (..., n), from
    the bump increments ``steps`` and the :func:`_bump_terms` ``pressure``
    and ``curvature``, which must be built on the profiles' grid and at
    ``kappa``: shape (..., n, K).  Each profile costs a (K, N) @ (N, n) and
    a (K, N) @ (N, 1) product; a stack of profiles makes them as one batched
    matmul each, which keeps every profile's bits."""
    market = _pressure(lambdas[..., None, :] @ paths, kappa, 1.0 / (paths.shape[-1] - 1))
    market_term = np.swapaxes(steps @ np.swapaxes(market, -1, -2), -1, -2)  # (..., 1, K)
    increments = np.swapaxes(paths[..., 1:] - paths[..., :-1], -1, -2)
    own_term = np.swapaxes(pressure @ increments, -1, -2)
    lam = lambdas[..., None]
    return eps * lam * (market_term + lam * own_term) + eps**2 * lam**2 * curvature


def deviation_expansion(base: DiscreteGame, bumps: np.ndarray, eps: float) -> np.ndarray:
    """Cost changes when each trader alone deviates by eps * bump, shape (n, K).

    ``bumps`` holds K endpoint-vanishing directions on ``base``'s grid, shape
    (K, N + 1): GridMismatch if they do not fit the grid and BadBump if one
    does not vanish at both endpoints.  All traders sit at ``base``, whose
    spec gives lambda and kappa; entry (i, k) is trader i's discrete cost
    with its path moved to a_i + eps * bumps[k] minus its cost at the base,
    non-negative (to rounding) at an equilibrium because the discrete cost
    is convex in the own path and stationary at its minimum.

    The change comes from the exact expansion of the discrete cost in the
    own path.  With p(x) the price pressure of :func:`_cost_sum` (linear in
    x), moving trader i alone by eps * b moves the market by
    eps * lambda_i * b, so its cost changes by exactly

        eps lambda_i [sum p(m) db + lambda_i sum p(b) da_i]
            + eps^2 lambda_i^2 sum p(b) db,

    d the increments along the grid.  The bump terms db, p(b) and
    sum p(b) db depend on the bumps, kappa and N alone; the base enters
    through one (K, N) @ (N, n) and one (K, N) @ (N,) product, so memory
    grows like (n + K) N and no perturbed profile is built.  A caller that
    prices many bases on one grid (``run_verification``) builds the bump
    terms once per kappa and pays only the two products per base.
    """
    bumps = np.asarray(bumps, dtype=float)
    if bumps.ndim != 2 or bumps.shape[1] != base.paths.shape[1]:
        raise GridMismatch(f"bumps shape {bumps.shape} is not (K, {base.paths.shape[1]})")
    if np.any(bumps[:, [0, -1]] != 0.0):
        raise BadBump("bump must vanish at both endpoints")
    steps = bumps[:, 1:] - bumps[:, :-1]
    kappa = base.spec.kappa
    terms = _bump_terms(bumps, steps, kappa, 1.0 / base.n_steps)
    return _expansion(base.paths, base.spec.lambdas_array(), kappa, steps, *terms, eps)


def standard_bumps(n_steps: int, seed: int = 0) -> np.ndarray:
    """Deviation directions, shape (10, n_steps + 1): the smooth sine modes
    k = 1..5 and 5 rough seeded random vectors scaled into [-1, 1], all
    vanishing at both ends.  NonIntegerCount unless ``n_steps`` and ``seed``
    are integers, ValueError unless ``n_steps >= 1`` and ``seed >= 0``."""
    check_size("n_steps", n_steps, 1)
    check_size("seed", seed, 0)
    bumps = np.empty((10, n_steps + 1))  # each kind is built in its rows
    sines, rough = bumps[:5], bumps[5:]
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    np.sin(np.multiply.outer(np.arange(1, 6) * np.pi, grid, out=sines), out=sines)
    np.random.default_rng(seed).standard_normal(out=rough)
    bumps[:, 0] = bumps[:, -1] = 0.0
    # max |x| of a row, read as its max and its negated min, with no |x| array
    rough /= np.maximum(1.0, np.maximum(rough.max(axis=1), -rough.min(axis=1)))[:, None]
    return bumps
