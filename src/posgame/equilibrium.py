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

``decay_rate``, ``curve`` and ``_market_curve`` are the one copy each of the
decay-rate, curve and market-curve formulas, as numpy kernels over arrays.
Equilibrium objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import GameSpec
from .rules import KAPPA_FLOOR, KappaTooLarge, check_curves, check_fractions, check_kappa


def decay_rate(n, kappa: float):
    """Decay rate of the market strategy, kappa (n - 1) / (n + 1), for a
    scalar kappa and a count ``n`` that may be an array.  It is 0 for n = 1
    and for every kappa below ``KAPPA_FLOOR``; the closed forms are singular
    there and :func:`posgame.solve` takes the straight line."""
    if kappa < KAPPA_FLOOR:
        return 0.0 * n
    return kappa * (n - 1) / (n + 1)


def curve(b, d, kappa: float, alpha: float, t, order: int) -> np.ndarray:
    """The ``order``-th time derivative (0, 1 or 2) of the equilibrium curve
    b (e^{kappa t} - 1) + d (1 - e^{-alpha t}); alpha == 0 is the straight
    line a(t) = t.

    The one copy of the curve formula.  ``b`` and ``d`` are scalars or
    arrays that broadcast against ``t`` (an (n, 1, ...) column of
    coefficients gives every trader's curve at once); each entry is computed
    exactly as for scalar coefficients.  A kernel: it checks nothing, and
    its callers pass what :func:`coefficients` or :func:`check_curves` admit.
    """
    t = np.asarray(t, dtype=float)
    if alpha == 0.0:
        shape = np.broadcast_shapes(np.shape(b), t.shape)
        if order == 0:
            return np.broadcast_to(t, shape).copy()
        return np.full(shape, 1.0 if order == 1 else 0.0)
    if order == 0:  # the decay term is subtracted in place: one temporary, not two
        values = b * np.expm1(kappa * t)
        values -= d * np.expm1(-alpha * t)
        return values
    if order == 1:
        return kappa * b * np.exp(kappa * t) + alpha * d * np.exp(-alpha * t)
    return kappa**2 * b * np.exp(kappa * t) - alpha**2 * d * np.exp(-alpha * t)


def _market_curve(alpha: float, t, order: int) -> np.ndarray:
    """The ``order``-th time derivative of the market strategy
    (1 - e^{-alpha t}) / (1 - e^{-alpha}), an array shaped like ``t``: the
    curve with b = 0, d = 1 / (1 - e^{-alpha}) and kappa = 0 (a spec's kappa
    would make 0 * expm1(kappa t) NaN from kappa = 710 on)."""
    d = 1.0 / -math.expm1(-alpha) if alpha else 0.0
    return curve(0.0, d, 0.0, alpha, t, order)


def _float_if_scalar(values):
    """Curve-method return convention: a float for scalar t, else the array."""
    return values if np.ndim(values) else float(values)


@dataclass(frozen=True)
class EquilibriumSolution:
    """The closed-form equilibrium: trader i's strategy is
    a_i(t) = b[i] (e^{kappa t} - 1) + d[i] (1 - e^{-alpha t}).

    ``b`` and ``d`` are read-only float arrays of shape (n,), so the two
    coefficient arrays describe every trader; ``alpha`` is read off the
    spec.  The market strategy m(t) = sum_i lambda_i a_i(t) has the closed
    form (1 - e^{-alpha t}) / (1 - e^{-alpha}) and is concave (eager)
    whenever alpha > 0; the degenerate branch alpha == 0 gives the straight
    line a_i(t) = m(t) = t.
    """

    spec: GameSpec
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("b", "d"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def alpha(self) -> float:
        """The decay rate of the spec, by the one rule of :func:`decay_rate`."""
        return decay_rate(self.spec.n, self.spec.kappa)

    def positions(self, t) -> np.ndarray:
        """Every trader's position at time(s) t: shape (n,) + shape of t."""
        return self._curves(t, 0)

    def velocities(self, t) -> np.ndarray:
        """Every trader's trading rate at time(s) t, shaped as :meth:`positions`."""
        return self._curves(t, 1)

    def accelerations(self, t) -> np.ndarray:
        """Every trader's second derivative at time(s) t, shaped as :meth:`positions`."""
        return self._curves(t, 2)

    def _curves(self, t, order: int) -> np.ndarray:
        """Shape (n,) + t.shape, computed with the longer axis innermost
        (a transposed view if that is the traders'); the same bits either way."""
        t = np.asarray(t, dtype=float)
        b, d, kappa, alpha = self.b, self.d, self.spec.kappa, self.alpha
        if t.size < b.size:
            return curve(b, d, kappa, alpha, t[..., None], order).transpose(t.ndim, *range(t.ndim))
        column = (-1,) + (1,) * t.ndim
        return curve(b.reshape(column), d.reshape(column), kappa, alpha, t, order)

    def market(self, t):
        return self._market(t, 0)

    def market_velocity(self, t):
        return self._market(t, 1)

    def market_acceleration(self, t):
        return self._market(t, 2)

    def _market(self, t, order: int):
        return _float_if_scalar(_market_curve(self.alpha, t, order))


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
    b, d = coefficients(spec.lambdas_array(), spec.kappa)
    return EquilibriumSolution(spec, b=b, d=d)


def coefficients(lambdas, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """B_i and D_i of the target fractions ``lambdas``, shape (..., n), at
    ``kappa`` (a (D, n) stack gives D games of one size and kappa): two
    arrays shaped like ``lambdas``, each entry the bits of its game's
    :func:`solve`, and zeros where alpha = 0.  Raises what
    :func:`check_fractions` and :func:`check_kappa` raise, and KappaTooLarge
    where lambda_i n (e^kappa - 1) overflows."""
    lambdas = np.asarray(lambdas, dtype=float)
    check_fractions(lambdas)
    check_kappa(kappa)
    alpha = decay_rate(lambdas.shape[-1], kappa)
    if alpha == 0.0:
        return np.zeros_like(lambdas), np.zeros_like(lambdas)
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
    NonFiniteKappa for a kappa outside [0, inf); KappaTooLarge for n >= 2
    and kappa > ln(DBL_MAX) = 709.78, where e^kappa overflows.
    """
    lambdas, b, d = check_curves(lambdas, b, d, kappa)
    t = np.asarray(t, dtype=float)
    n = lambdas.shape[-1]
    alpha = decay_rate(n, kappa)
    mdd = _market_curve(alpha, t, 2)
    md = _market_curve(alpha, t, 1)
    pressure = mdd + kappa * md
    column = (1,) * t.ndim
    b, d, lambdas = (x.reshape(x.shape + column) for x in (b, d, lambdas))
    accel = curve(b, d, kappa, alpha, t, 2)
    r1 = accel - kappa * curve(b, d, kappa, alpha, t, 1) + pressure / lambdas
    r2 = pressure - (2.0 * kappa / (n + 1)) * md
    return r1, _float_if_scalar(r2), _float_if_scalar(mdd + alpha * md)
