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
the grid needs N > kappa / 2.  The profile has rank 2: :func:`nash_basis`
returns the basis v - u, v and each trader's two weights in O(N + n), which
:func:`discrete_cost` and :func:`deviation_expansion` price as they are; a
full profile is the case where the basis is the paths themselves.
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


def _check_paths(paths, lambdas, kappa: float, least: int = 1, weights=None):
    """``paths``, ``lambdas`` and ``weights`` as float arrays, checked: the
    profile is ``paths``, shape lambdas.shape + (N + 1,), or with
    ``weights``, shape lambdas.shape + (R,), the :func:`basis_profile` of
    the basis ``paths``, shape (R, N + 1).  GridMismatch unless the shapes
    fit, N >= ``least`` (2 where the best-response rows need an interior
    node), the profile's paths run from 0 to 1 and every value is finite;
    NegativeKappa or NonFiniteKappa unless 0 <= kappa < inf."""
    paths, lambdas = np.asarray(paths, dtype=float), np.asarray(lambdas, dtype=float)
    shape = lambdas.shape
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if not shape or weights.shape != shape + paths.shape[:1] or paths.ndim != 2:
            raise GridMismatch(f"weights shape {weights.shape} and basis shape {paths.shape} "
                               f"are not {shape} + (R,) and (R, N + 1)")
        if not np.isfinite(weights).all():
            raise GridMismatch("weights must be finite")
        shape = paths.shape[:-1]
    if not shape or paths.shape[:-1] != shape or paths.shape[-1] < 2:
        raise GridMismatch(f"paths shape {paths.shape} is not {shape} + (N + 1,), N >= 1")
    if paths.shape[-1] <= least:
        raise GridMismatch(f"need n_steps >= {least}, got {paths.shape[-1] - 1}: "
                           "a one-interval grid has no interior node")
    ends = paths[..., [0, -1]] if weights is None else basis_profile(weights, paths[:, [0, -1]])
    if (ends != (0.0, 1.0)).any():
        raise GridMismatch("path endpoints must be pinned to 0 and 1")
    if not np.isfinite(paths).all():
        raise GridMismatch("paths must be finite")
    check_kappa(kappa)
    return paths, lambdas, weights


def basis_profile(weights, basis) -> np.ndarray:
    """The profile whose trader i path is sum_r weights[..., i, r] basis[r],
    shape (..., n, N + 1), for ``weights`` of shape (..., n, R) and the basis
    ``basis`` of shape (R, N + 1): each cell the sum of its rounded products
    in the order of r, so no path's bits depend on how many are formed."""
    return np.einsum("...r,rj->...j", weights, basis)


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


def _pricing_terms(paths, lambdas, kappa: float, weights):
    """For checked arguments, the market path's pressure, shape (..., 1, N),
    formed from the basis (the fractions combine the weights first), and
    the paths' increments with the weights.  Each basis path's increments
    are scaled by a power of 2 to a largest magnitude in [1/2, 1) and its
    weights by the inverse: exact, so no product's bits move, and no sum
    overflows on a path near DBL_MAX (e^{kappa t} - 1 at kappa near 709)."""
    row = lambdas[..., None, :] if weights is None else lambdas[..., None, :] @ weights
    market = _pressure(row @ paths, kappa, 1.0 / (paths.shape[-1] - 1))
    increments = paths[..., 1:] - paths[..., :-1]
    if weights is None:
        return market, increments, weights
    _, scale = np.frexp(np.abs(increments).max(axis=-1))
    return market, np.ldexp(increments, -scale[:, None]), np.ldexp(weights, scale)


def discrete_cost(paths, lambdas, kappa: float, weights=None) -> np.ndarray:
    """Discretized implementation cost of every trader of the profiles
    ``paths``, shape (..., n, N + 1), with target fractions ``lambdas``,
    shape (..., n), or with ``weights``, shape (..., n, R), of their
    :func:`basis_profile` on the basis ``paths``, shape (R, N + 1): one cost
    per trader, shape (..., n), so a stack prices D games on one grid at
    once.  GridMismatch unless the shapes fit, N >= 1 and the paths are
    pinned to 0 and 1 and finite; NegativeKappa or NonFiniteKappa unless
    0 <= kappa < inf.  Trader i's cost is lambda_i times the sum over the
    intervals of the market's price pressure times the own increment, a sum
    made once per basis path: O(R N + n R)."""
    paths, lambdas, weights = _check_paths(paths, lambdas, kappa, weights=weights)
    market, terms, weights = _pricing_terms(paths, lambdas, kappa, weights)
    own = (terms * market).sum(axis=-1)
    return lambdas * (own if weights is None else (weights @ own[..., None])[..., 0])


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
    paths, lambdas, _ = _check_paths(paths, lambdas, kappa, least=2)
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


def nash_basis(lambdas, kappa: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Nash point of target fractions ``lambdas``, shape (..., n),
    at ``kappa`` on the grid of ``n_steps`` intervals in basis form: every
    trader's weights (-M / (n lambda_i), 1), shape (..., n, 2), on the basis
    v - u, v of the unit paths, shape (2, N + 1), which a stack of games
    shares.  Raises what :func:`check_fractions` and :func:`check_kappa`
    raise, NonIntegerCount unless n_steps is an integer, ValueError unless
    n_steps >= 2 and GridMismatch unless n_steps > kappa / 2: on coarser
    grids the rows' root sigma is not positive."""
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
    weights = np.ones(lambdas.shape + (2,))
    weights[..., 0] = -lambdas.sum(axis=-1, keepdims=True) / (n * lambdas)
    return weights, np.array((own - market, own))


def nash_fixed_point(lambdas, kappa: float, n_steps: int) -> np.ndarray:
    """The paths, shape (..., n, N + 1), on which every trader's
    best-response rows hold at once: the :func:`basis_profile` of
    :func:`nash_basis`, whose arguments and errors it takes; a (D, n) stack
    gives each game the bits of its own call.  They match the sampled closed
    forms to the second-order discretization error."""
    return basis_profile(*nash_basis(lambdas, kappa, n_steps))


def stationarity_residual(paths, lambdas, kappa: float) -> np.ndarray:
    """Relative residual of every trader's best-response rows, shape
    (..., n), on the profiles ``paths`` with fractions ``lambdas`` as
    :func:`discrete_cost` takes and checks them; GridMismatch also for N < 2.

    For trader i's rows A_i a_i = g_i (the system :func:`best_response`
    solves) this is the normwise backward error
    max|A_i a_i - g_i| / (||A_i|| max|a_i| + max|g_i|), ||A_i|| = 8 lambda_i;
    it is at rounding level exactly when every trader is best-responding.
    """
    a, lambdas, _ = _check_paths(paths, lambdas, kappa, least=2)
    g = _best_response_rhs(a, lambdas, kappa)
    resid = -2.0 * lambdas[..., None] * (a[..., :-2] - 2.0 * a[..., 1:-1] + a[..., 2:]) - g
    scale = 8.0 * lambdas * np.max(np.abs(a), axis=-1) + np.max(np.abs(g), axis=-1)
    return np.max(np.abs(resid), axis=-1) / scale


def deviation_expansion(paths, lambdas, kappa: float, bumps, eps: float,
                        weights=None) -> np.ndarray:
    """Cost changes when each trader alone deviates by eps * bump from the
    base profiles ``paths`` with fractions ``lambdas`` and ``weights``, as
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

    d the increments along the grid.  The base enters through one
    (K, N) @ (N, R) product with its paths' increments, which each trader's
    weights combine in O(R K), and one with the market's pressure: no
    perturbed profile is built.
    """
    paths, lambdas, weights = _check_paths(paths, lambdas, kappa, weights=weights)
    bumps = np.asarray(bumps, dtype=float)
    if bumps.ndim != 2 or bumps.shape[1] != paths.shape[-1]:
        raise GridMismatch(f"bumps shape {bumps.shape} is not (K, {paths.shape[-1]})")
    if bumps[:, 0].any() or bumps[:, -1].any():
        raise BadBump("bump must vanish at both endpoints")
    if not np.isfinite(bumps).all():  # the paths' test: a NaN would be priced as NaN
        raise GridMismatch("bumps must be finite")
    if not math.isfinite(eps):
        raise ValueError(f"eps = {eps} must be finite")
    return _deviation_pricer(bumps)(paths, lambdas, kappa, eps, weights)


def _deviation_pricer(bumps: np.ndarray):
    """:func:`deviation_expansion` along the checked ``bumps``, as a function
    of checked (paths, lambdas, kappa, eps, weights).  p(b) = db / h +
    kappa / 2 (b_j + b_{j+1}) = (1 / h + kappa / 2) db + kappa b_j, so the
    own term is two products and the kappa part of sum p(b) db telescopes
    to 0: the bump terms are made here once, for every kappa and base."""
    h, steps = 1.0 / (bumps.shape[1] - 1), bumps[:, 1:] - bumps[:, :-1]
    curvature = np.einsum("kj,kj->k", steps, steps) / h

    def price(paths, lambdas, kappa, eps, weights):
        market, increments, weights = _pricing_terms(paths, lambdas, kappa, weights)
        market_term = market @ steps.T  # (..., 1, K)
        own_term = (1.0 / h + 0.5 * kappa) * (increments @ steps.T)
        own_term += kappa * (increments @ bumps[:, :-1].T)  # (..., R, K)
        if weights is not None:
            own_term = weights @ own_term
        lam = lambdas[..., None]
        return eps * lam * (market_term + lam * own_term) + eps**2 * lam**2 * curvature

    return price


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
