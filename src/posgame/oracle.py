"""Independent numerical verification of the closed forms.

The implementation-cost functional for trader i,

    Cost_i = integral of (m' + kappa m) lambda_i a_i' dt,   m = sum_j lambda_j a_j,

is discretized on the uniform grid t_j = j / N, j = 0..N, with forward
differences for the rates and midpoint averaging for m on each interval; a
profile is an (n, N + 1) array of paths, a stack of them (D, n, N + 1).
The functional is then strictly convex in trader i's interior values (the
permanent-impact self-term telescopes away, leaving the quadratic
lambda_i^2 sum((a_i')^2) dt), so each best response is one symmetric
positive-definite tridiagonal solve.

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
in (trader, time): the unit paths v and u depend on n, kappa and N alone,
so :func:`nash_fixed_point` builds them once per call and solves a stack
of games on them.
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
module imports no package module but :mod:`posgame.rules`, and every
function takes the target fractions and kappa as arrays and numbers beside
the paths, which it checks itself.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

from .rules import BadBump, GridMismatch, check_fractions, check_grid, check_kappa, check_size


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


def _check_paths(paths, lambdas, kappa: float, least: int = 1):
    """``paths`` and ``lambdas`` as float arrays, checked: GridMismatch unless
    ``paths`` has shape ``lambdas.shape + (N + 1,)``, ``lambdas`` of shape
    (..., n), with N >= ``least`` (2 where the best-response rows need an
    interior node), every path runs from 0 to 1 and every value is finite;
    NegativeKappa or NonFiniteKappa unless 0 <= kappa < inf."""
    paths, lambdas = np.asarray(paths, dtype=float), np.asarray(lambdas, dtype=float)
    shape = lambdas.shape
    if not shape or paths.shape[:-1] != shape or paths.shape[-1] < 2:
        raise GridMismatch(f"paths shape {paths.shape} is not {shape} + (N + 1,), N >= 1")
    if paths.shape[-1] <= least:
        raise GridMismatch(f"need n_steps >= {least}, got {paths.shape[-1] - 1}: "
                           "a one-interval grid has no interior node")
    if np.any(paths[..., 0] != 0.0) or np.any(paths[..., -1] != 1.0):
        raise GridMismatch("path endpoints must be pinned to 0 and 1")
    if not np.isfinite(paths).all():
        raise GridMismatch("paths must be finite")
    check_kappa(kappa)
    return paths, lambdas


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


def discrete_cost(paths, lambdas, kappa: float) -> np.ndarray:
    """Discretized implementation cost of every trader of the profiles
    ``paths``, shape (..., n, N + 1), with target fractions ``lambdas``,
    shape (..., n): one cost per trader, shape (..., n), so a stack prices D
    games on one grid at once.  GridMismatch unless the paths fit the
    fractions, N >= 1, are pinned to 0 and 1 and are finite; NegativeKappa or
    NonFiniteKappa unless 0 <= kappa < inf.

    Trader i's cost is the sum over the intervals of the market's price
    pressure times lambda_i times the own path's increment.  The increments
    are weighted in place, so besides them only the pressure times the
    fractions is made."""
    paths, lambdas = _check_paths(paths, lambdas, kappa)
    m = lambdas[..., None, :] @ paths
    terms = paths[..., 1:] - paths[..., :-1]
    terms *= _pressure(m, kappa, 1.0 / (paths.shape[-1] - 1)) * lambdas[..., None]
    return terms.sum(axis=-1)


def _best_response_rhs(paths: np.ndarray, lambdas: np.ndarray, kappa: float) -> np.ndarray:
    """Right-hand sides D2 r_i + (kappa h / 2) D1 r_i of every trader's
    best-response rows, shape (..., n, N - 1), with r_i the opponents'
    aggregate, for checked ``paths`` and ``lambdas`` (:func:`_check_paths`)."""
    c = 0.5 * kappa / (paths.shape[-1] - 1)
    r = lambdas[..., None, :] @ paths - lambdas[..., None] * paths
    return (r[..., :-2] - 2.0 * r[..., 1:-1] + r[..., 2:]) + c * (r[..., 2:] - r[..., :-2])


def best_response(paths, lambdas, kappa: float, i: int) -> np.ndarray:
    """Minimizer of trader i's discrete cost with the others fixed at the
    profile ``paths``, shape (n, N + 1), fractions ``lambdas``, shape (n,):
    its path, shape (N + 1,), pinned to 0 and 1.  Raises what
    :func:`stationarity_residual` raises, GridMismatch for a stack, and
    NonIntegerCount unless ``i`` is an integer, ValueError unless 0 <= i < n.

    Stationarity at interior node j reads

        2 lambda_i (a[j-1] - 2 a[j] + a[j+1])
            = -( r[j-1] - 2 r[j] + r[j+1] + (kappa h / 2)(r[j+1] - r[j-1]) )

    with r the opponents' aggregate, a tridiagonal SPD system.
    """
    paths, lambdas = _check_paths(paths, lambdas, kappa, least=2)
    if lambdas.ndim != 1:
        raise GridMismatch(f"paths shape {paths.shape} is not (n, N + 1): one profile")
    check_size("i", i, 0, len(lambdas) - 1)
    lam = lambdas[i]
    rhs = _best_response_rhs(paths, lambdas, kappa)[i]
    rhs[-1] += 2.0 * lam  # a[N] = 1 moves to the right-hand side
    # SPD lower banded form: diagonal 4 lam, off-diagonal -2 lam.
    ab = np.repeat([[4.0 * lam], [-2.0 * lam]], paths.shape[-1] - 2, axis=1)
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


def nash_fixed_point(lambdas, kappa: float, n_steps: int) -> np.ndarray:
    """Discrete Nash point of target fractions ``lambdas``, shape (..., n),
    at ``kappa`` on the grid of ``n_steps`` intervals: the paths, shape
    (..., n, N + 1), on which every trader's best-response rows hold at
    once.  A (D, n) stack solves D games, each with the bits of its own call.

    The market path and every trader's path are the explicit solutions of
    the summed and the per-trader rows (see the module docstring).  The
    paths match the sampled closed forms to the second-order discretization
    error.  Raises what :func:`check_fractions` and :func:`check_kappa`
    raise, NonIntegerCount unless n_steps is an integer, ValueError unless
    n_steps >= 2 and GridMismatch unless n_steps > kappa / 2: on coarser
    grids the rows' root sigma is not positive.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    check_fractions(lambdas)
    check_kappa(kappa)
    check_grid(kappa, n_steps)
    n = lambdas.shape[-1]
    # c is rounded so that 1 +- c are exact, as a banded solve of the same
    # rows needs, and so that it is 0 (straight lines) where kappa / (2 N)
    # is below half an ulp of 1; it stays below 1 where kappa / (2 N) rounds
    # up to it.  q = (n - 1) c is left unrounded, so the summed rows stay the
    # sum of the traders' rows: a q rounded to a multiple of ulp(n + 1)
    # amplifies the rounding of v - u in the traders' sum up to tenfold.
    c = min((1.0 + 0.5 * kappa / n_steps) - 1.0, 1.0 - 2.0**-52)
    q = (n - 1) * c
    market = _unit_path(math.log1p(-2.0 * q / ((n + 1) + q)), n_steps)  # u, through rho^j
    own = _unit_path(math.log1p(2.0 * c / (1.0 - c)), n_steps)  # v, through sigma^j
    # a_i = v - M / (n lambda_i) (v - u), every game of the stack at once
    coef = -lambdas.sum(axis=-1, keepdims=True) / (n * lambdas)
    paths = coef[..., None] * (own - market)
    paths += own
    return paths


def stationarity_residual(paths, lambdas, kappa: float) -> np.ndarray:
    """Relative residual of every trader's best-response rows, shape
    (..., n), on the profiles ``paths`` with fractions ``lambdas`` as
    :func:`discrete_cost` takes and checks them; GridMismatch also for N < 2.

    For trader i's rows A_i a_i = g_i (the system :func:`best_response`
    solves) this is the normwise backward error
    max|A_i a_i - g_i| / (||A_i|| max|a_i| + max|g_i|), ||A_i|| = 8 lambda_i;
    it is at rounding level exactly when every trader is best-responding.
    """
    a, lambdas = _check_paths(paths, lambdas, kappa, least=2)
    g = _best_response_rhs(a, lambdas, kappa)
    resid = -2.0 * lambdas[..., None] * (a[..., :-2] - 2.0 * a[..., 1:-1] + a[..., 2:]) - g
    scale = 8.0 * lambdas * np.max(np.abs(a), axis=-1) + np.max(np.abs(g), axis=-1)
    return np.max(np.abs(resid), axis=-1) / scale


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


def deviation_expansion(paths, lambdas, kappa: float, bumps, eps: float) -> np.ndarray:
    """Cost changes when each trader alone deviates by eps * bump from the
    base profiles ``paths`` with fractions ``lambdas``, as
    :func:`discrete_cost` takes and checks them: shape (..., n, K).

    ``bumps`` holds K endpoint-vanishing directions on the base's grid,
    shape (K, N + 1): GridMismatch if they do not fit the grid or are not
    finite and BadBump if one does not vanish at both endpoints; ValueError
    unless ``eps`` is finite.  All traders sit at the base; entry (i, k) is
    trader i's discrete cost with its path moved to a_i + eps * bumps[k]
    minus its cost at the base, non-negative (to rounding) at an equilibrium
    because the discrete cost is convex in the own path and stationary at
    its minimum.

    The change comes from the exact expansion of the discrete cost in the
    own path.  With p(x) the price pressure of :func:`_pressure` (linear in
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
    paths, lambdas = _check_paths(paths, lambdas, kappa)
    bumps = np.asarray(bumps, dtype=float)
    if bumps.ndim != 2 or bumps.shape[1] != paths.shape[-1]:
        raise GridMismatch(f"bumps shape {bumps.shape} is not (K, {paths.shape[-1]})")
    if np.any(bumps[:, [0, -1]] != 0.0):
        raise BadBump("bump must vanish at both endpoints")
    if not np.isfinite(bumps).all():  # the paths' test: a NaN would be priced as NaN
        raise GridMismatch("bumps must be finite")
    if not math.isfinite(eps):
        raise ValueError(f"eps = {eps} must be finite")
    steps = bumps[:, 1:] - bumps[:, :-1]
    terms = _bump_terms(bumps, steps, kappa, 1.0 / (paths.shape[-1] - 1))
    return _expansion(paths, lambdas, kappa, steps, *terms, eps)


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
