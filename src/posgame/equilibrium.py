"""Closed-form Nash equilibrium strategies for position-building in competition.

With n >= 2 traders and kappa > 0 the unique equilibrium unit strategies are

    a_i(t) = B_i (e^{kappa t} - 1) + D_i (1 - e^{-alpha t})

    B_i = (lambda_i n - 1) / (lambda_i n (e^kappa - 1))
    D_i = 1 / (lambda_i n (1 - e^{-alpha}))
    alpha = kappa (n - 1) / (n + 1)

and the aggregate (market) strategy is m(t) = (1 - e^{-alpha t}) / (1 - e^{-alpha}).
The degenerate cases kappa = 0 or n = 1 collapse to the risk-neutral straight
line a_i(t) = m(t) = t.  :func:`solve` takes that branch exactly where alpha
is 0 (n = 1, or kappa below the floor 1e-300, which counts as 0), rather
than nudging kappa, so both branches stay exactly testable, and returns the
coefficients as two arrays over all traders.

Coefficients grow like 1/lambda_i; double precision keeps the curves accurate
for lambda_i >= 1e-6.  B_i's denominator lambda_i n (e^kappa - 1) overflows
once kappa > ln(DBL_MAX / (lambda_i n)), about 709.78 - ln(lambda_i n); B_i
would then read 0 and the curves be wrong, so :func:`solve` raises
KappaTooLarge there instead.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import (
    EquilibriumSolution, GameSpec, _alpha, _curve, _float_if_scalar, _market_curve,
)
from .rules import KappaTooLarge, check_curves


def solve(spec: GameSpec) -> EquilibriumSolution:
    """The closed-form equilibrium of ``spec``, every trader at once.

    Where alpha = 0 (n = 1, or kappa below the floor 1e-300, which counts
    as 0) the formulas are singular and every strategy is the straight line
    a(t) = t, with b = d = 0: with kappa = 0 the traders decouple and each
    minimizes its own quadratic rate cost; a single trader minimizes the
    aggregate cost.  Either way the optimal curve has zero acceleration.

    Raises KappaTooLarge where lambda_i n (e^kappa - 1) overflows for some
    trader, which holds from kappa = 709.79 on for every game.
    """
    n, kappa = spec.n, spec.kappa
    alpha = _alpha(n, kappa)
    if alpha == 0.0:
        return EquilibriumSolution(spec, b=np.zeros(n), d=np.zeros(n))
    b, d = _coefficients(spec.lambdas_array(), kappa, alpha)
    return EquilibriumSolution(spec, b=b, d=d)


def _coefficients(lambdas, kappa: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """B_i and D_i of the target fractions ``lambdas``, shape (..., n) (a
    (D, n) stack gives D games of one size and kappa), for alpha > 0: two
    arrays shaped like ``lambdas``, each entry the bits of its game's
    :func:`solve`.  KappaTooLarge where lambda_i n (e^kappa - 1) overflows."""
    lam_n = lambdas * lambdas.shape[-1]
    with np.errstate(over="ignore"):
        growth = lam_n * np.expm1(kappa)
    if not np.isfinite(growth).all():
        bound = math.log(sys.float_info.max / lam_n.max())
        raise KappaTooLarge(
            f"kappa = {kappa} is too large: lambda_i n (e^kappa - 1) overflows; "
            f"this game's limit is about kappa = {bound:.6g}"
        )
    return (lam_n - 1.0) / growth, 1.0 / (lam_n * -np.expm1(-alpha))


def governing_residuals(lambdas, b, d, kappa: float, t):
    """Residuals of the three coupled stationarity equations at time(s) t on
    the curves of coefficients ``b``, ``d`` and target fractions ``lambdas``,
    arrays of one shape (..., n): one game, or a (D, n) stack of D games.

    1. a_i'' - kappa a_i' + (1/lambda_i)(m'' + kappa m'), every trader i
    2. m'' + kappa m' - (2 kappa / (n + 1)) m'
    3. m'' + alpha m'

    r1 has shape (..., n) + shape of t; r2 and r3 are floats for a scalar t
    and arrays shaped like t otherwise.  Trader i's own stationarity
    equation a_i'' - kappa a_i' + (2 kappa / (n + 1)) m' / lambda_i = 0 is
    r1[..., i] - r2 / lambda_i.  Derivatives are analytic.  A solution
    ``sol`` of ``spec`` is ``(spec.lambdas_array(), sol.b, sol.d, spec.kappa)``.
    ValueError unless the arrays share one shape, n >= 1; NegativeKappa or
    NonFiniteKappa for a kappa outside [0, inf).
    """
    lambdas, b, d = check_curves(lambdas, b, d, kappa)
    t = np.asarray(t, dtype=float)
    n = lambdas.shape[-1]
    alpha = _alpha(n, kappa)
    mdd = _market_curve(alpha, t, 2)
    md = _market_curve(alpha, t, 1)
    pressure = mdd + kappa * md
    column = (1,) * t.ndim
    b, d, lambdas = (x.reshape(x.shape + column) for x in (b, d, lambdas))
    accel = _curve(b, d, kappa, alpha, t, 2)
    r1 = accel - kappa * _curve(b, d, kappa, alpha, t, 1) + pressure / lambdas
    r2 = pressure - (2.0 * kappa / (n + 1)) * md
    return r1, _float_if_scalar(r2), _float_if_scalar(mdd + alpha * md)
