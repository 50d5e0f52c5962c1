"""Closed-form implementation costs in equilibrium.

All costs are in scaled units: total quantity 1, horizon [0, 1], temporary
impact coefficient normalized to 1.  Trader i's equilibrium cost is

    Cost_i = kappa (lambda_i n - 1) / (n (1 - e^{-kappa}))
           + alpha / (n (e^alpha - 1)) + kappa / (n + 1)

which sums over traders to an aggregate that is independent of how the target
quantity is split:

    Aggregate = alpha / (e^alpha - 1) + kappa n / (n + 1)

The centrally coordinated market-wide minimum is 1 + kappa/2 (straight-line
trading), so the price of anarchy stays below 2 for every n and kappa.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    _KAPPA_FLOOR,
    CostBreakdown,
    GameSpec,
    _alpha,
    _check_count,
    _check_kappa,
    _check_traders,
)

_EXP_KAPPA = 600.0  # n e^kappa overflows only above it, or for more than 1e47 traders


def group_cost(total, count, lam, kappa, decay=None):
    """Aggregate equilibrium cost of ``count`` of ``total`` traders who hold
    the fraction ``lam`` of the quantity between them.

    Every cost in the package is this formula: one trader is ``count=1``,
    the whole market ``count=total, lam=1``, and the centralization analytics
    pass firm and non-firm groups.  ``decay`` is the market decay rate,
    alpha = kappa (total - 1) / (total + 1) by default; the frozen-decay
    approximation passes ``decay=kappa``.  ``kappa`` is a scalar; the other
    arguments are scalars or numpy arrays that broadcast together.  A kappa
    below the floor 1e-300 counts as 0 (:func:`_alpha`'s rule),
    and there each group pays its fraction ``lam``, the kappa -> 0 limit.
    The caller rules out the degenerate total = 1.
    """
    if kappa < _KAPPA_FLOOR:
        return lam + np.zeros(np.broadcast_shapes(np.shape(total), np.shape(count)))
    alpha = _alpha(total, kappa) if decay is None else decay
    if kappa > _EXP_KAPPA:  # total (e^alpha - 1) may overflow to inf, where the term is 0
        with np.errstate(over="ignore"):
            grown = total * np.expm1(alpha)
    else:
        grown = total * np.expm1(alpha)
    return (
        kappa * (lam * total - count) / (total * -np.expm1(-kappa))
        + alpha * count / grown
        + count * kappa / (total + 1.0)
    )


def _shares(n: int, kappa: float, lam):
    """Cost shares 1/n + T (1/n - lam), affine in the target fraction(s) lam.

    T = (n + 1)(e^alpha - 1) / ((1 - e^{-kappa})(1 - n e^alpha)); the affine
    form keeps an equal split at exactly 1/n.  1 - n e^alpha < 0 for every
    n >= 2 and alpha > 0, so the shares are well defined.  T tends to -1 as
    kappa -> 0, so below the kappa floor the shares are the fractions lam, and
    to -(n + 1) / (n (1 - e^{-kappa})) as kappa grows, where e^alpha overflows.
    """
    if kappa < _KAPPA_FLOOR:
        return lam
    alpha = _alpha(n, kappa)
    if kappa <= _EXP_KAPPA:
        t_slope = (n + 1) * math.expm1(alpha) / (-math.expm1(-kappa) * (1.0 - n * math.exp(alpha)))
    else:  # numerator and denominator times e^-alpha, as e^alpha may overflow
        t_slope = (n + 1) * -math.expm1(-alpha) / (-math.expm1(-kappa) * (math.exp(-alpha) - n))
    return 1.0 / n + t_slope * (1.0 / n - lam)


def aggregate_cost(n: int, kappa: float) -> float:
    """Total implementation cost over all traders; independent of the lambdas.

    A single trader pays the market-wide minimum 1 + kappa/2, and below the
    kappa floor of :func:`group_cost` the aggregate is the kappa -> 0 limit 1.
    """
    _check_kappa(kappa)
    _check_traders(n)
    if n == 1:
        return market_min_cost(kappa)
    return float(group_cost(n, n, 1.0, kappa))


def aggregate_cost_limit(kappa: float) -> float:
    """Aggregate cost in the many-trader limit: kappa / (1 - e^{-kappa})."""
    _check_kappa(kappa)
    if kappa < _KAPPA_FLOOR:
        return 1.0
    return kappa / -math.expm1(-kappa)


def market_min_cost(kappa: float) -> float:
    """Cost of the centrally minimized market-wide strategy m(t) = t."""
    _check_kappa(kappa)
    return 1.0 + kappa / 2.0


def price_of_anarchy(n, kappa: float) -> float:
    """Ratio of the non-cooperative aggregate cost to the market-wide minimum.

    ``n`` may be ``math.inf`` for the limiting ratio
    (kappa / (1 - e^{-kappa})) / (1 + kappa/2), which approaches 2 from below
    as kappa grows.  Any other ``n`` must be a whole number
    (NonIntegerCount otherwise).
    """
    _check_kappa(kappa)
    if n == math.inf:
        return aggregate_cost_limit(kappa) / market_min_cost(kappa)
    _check_count("n", n)
    return aggregate_cost(int(n), kappa) / market_min_cost(kappa)


def cost_breakdown(spec: GameSpec) -> CostBreakdown:
    """Per-trader costs, aggregate, shares and fair-share deviations.

    Degenerate specs take the continuous limits of the closed forms: a
    single trader pays the market-wide minimum 1 + kappa/2, and below the
    kappa floor (kappa counts as 0; :func:`posgame.solve`'s rule) trader i
    pays lambda_i and the aggregate is 1.
    """
    n, kappa = spec.n, spec.kappa
    aggregate = aggregate_cost(n, kappa)
    if n == 1:
        return CostBreakdown(
            per_trader=(aggregate,),
            aggregate=aggregate,
            shares=(1.0,),
            fair_share_deviation=(0.0,),
        )
    lam = spec.lambdas_array()
    shares = _shares(n, kappa, lam)
    return CostBreakdown(
        per_trader=tuple(group_cost(n, 1, lam, kappa).tolist()),
        aggregate=aggregate,
        shares=tuple(shares.tolist()),
        fair_share_deviation=tuple((shares - lam).tolist()),
    )
