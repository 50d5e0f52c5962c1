"""Closed-form Nash equilibrium strategies for position-building in competition.

With n >= 2 traders and kappa > 0 the unique equilibrium unit strategies are

    a_i(t) = B_i (e^{kappa t} - 1) + D_i (1 - e^{-alpha t})

    B_i = (lambda_i n - 1) / (lambda_i n (e^kappa - 1))
    D_i = 1 / (lambda_i n (1 - e^{-alpha}))
    alpha = kappa (n - 1) / (n + 1)

and the aggregate (market) strategy is m(t) = (1 - e^{-alpha t}) / (1 - e^{-alpha}).
The degenerate cases kappa = 0 or n = 1 collapse to the risk-neutral straight
line a_i(t) = m(t) = t and are handled by a dedicated limit branch rather than
by nudging kappa, so both branches stay exactly testable.

Coefficients grow like 1/lambda_i; double precision keeps the curves accurate
for lambda_i >= 1e-6.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Alpha,
    ClosedFormStrategy,
    DegenerateAlpha,
    EquilibriumSolution,
    GameSpec,
    GridTooSmall,
    SampledPath,
    _float_if_scalar,
    validate_spec,
)


def compute_alpha(n: int, kappa: float) -> Alpha:
    """Decay rate of the market strategy: kappa * (n - 1) / (n + 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if kappa < 0.0:
        raise ValueError(f"need kappa >= 0, got {kappa}")
    return Alpha(kappa * (n - 1) / (n + 1))


def solve_equilibrium(spec: GameSpec) -> EquilibriumSolution:
    """Construct the equilibrium strategies for a generic spec (n >= 2, kappa > 0).

    Raises DegenerateAlpha when alpha = 0; use :func:`solve_equilibrium_limit`
    for those specs.
    """
    validate_spec(spec)
    alpha = compute_alpha(spec.n, spec.kappa)
    if alpha.value == 0.0:
        raise DegenerateAlpha(
            f"alpha = 0 for n={spec.n}, kappa={spec.kappa}; use solve_equilibrium_limit"
        )
    n, kappa, a = spec.n, spec.kappa, alpha.value
    ek = np.expm1(kappa)        # e^kappa - 1
    ea = -np.expm1(-a)          # 1 - e^{-alpha}
    strategies = tuple(
        ClosedFormStrategy(
            b=(lam * n - 1.0) / (lam * n * ek),
            d=1.0 / (lam * n * ea),
            kappa=kappa,
            alpha=a,
            lam=lam,
        )
        for lam in spec.lambdas
    )
    return EquilibriumSolution(spec=spec, strategies=strategies, alpha=alpha)


def solve_equilibrium_limit(spec: GameSpec) -> EquilibriumSolution:
    """Degenerate branch: kappa = 0 or n = 1, where every strategy is a(t) = t.

    With kappa = 0 the traders decouple and each minimizes its own quadratic
    rate cost; with a single trader the aggregate-cost minimizer applies.
    Either way the optimal curve has zero acceleration.
    """
    validate_spec(spec)
    if spec.kappa != 0.0 and spec.n != 1:
        raise ValueError(
            f"limit branch needs kappa = 0 or n = 1, got n={spec.n}, kappa={spec.kappa}"
        )
    strategies = tuple(
        ClosedFormStrategy(b=0.0, d=0.0, kappa=spec.kappa, alpha=0.0, lam=lam)
        for lam in spec.lambdas
    )
    return EquilibriumSolution(spec=spec, strategies=strategies, alpha=Alpha(0.0))


def solve(spec: GameSpec) -> EquilibriumSolution:
    """Dispatch to the generic or the limit branch."""
    if spec.kappa == 0.0 or spec.n == 1:
        return solve_equilibrium_limit(spec)
    return solve_equilibrium(spec)


def sample_strategy(strategy: ClosedFormStrategy, n_points: int) -> SampledPath:
    """Sample a strategy on a uniform grid of ``n_points`` over [0, 1]."""
    if n_points < 2:
        raise GridTooSmall(f"need at least 2 points, got {n_points}")
    grid = np.linspace(0.0, 1.0, n_points)
    return SampledPath(grid=grid, values=strategy.position(grid))


def governing_residuals(solution: EquilibriumSolution, t):
    """Residuals of the three coupled stationarity equations at time(s) t.

    1. a_i'' - kappa a_i' + (1/lambda_i)(m'' + kappa m'), every trader i
    2. m'' + kappa m' - (2 kappa / (n + 1)) m'
    3. m'' + alpha m'

    r1 has shape (n,) + shape of t, row i for trader i; r2 and r3 are
    floats for a scalar t and arrays shaped like t otherwise.  Trader i's
    own stationarity equation a_i'' - kappa a_i' + (2 kappa / (n + 1)) m' /
    lambda_i = 0 is r1[i] - r2 / lambda_i.  Derivatives are analytic.
    """
    t = np.asarray(t, dtype=float)
    n, kappa = solution.spec.n, solution.spec.kappa
    lam = solution.spec.lambdas_array().reshape((-1,) + (1,) * t.ndim)
    mdd = solution.market_acceleration(t)
    md = solution.market_velocity(t)
    r1 = solution.accelerations(t) - kappa * solution.velocities(t) + (mdd + kappa * md) / lam
    r2 = mdd + kappa * md - (2.0 * kappa / (n + 1)) * md
    r3 = mdd + solution.alpha.value * md
    return r1, _float_if_scalar(r2), _float_if_scalar(r3)
