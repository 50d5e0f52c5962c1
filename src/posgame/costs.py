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
from dataclasses import dataclass

import numpy as np

from .equilibrium import decay_rate
from .rules import (
    KAPPA_FLOOR, KappaTooLarge, check_count, check_fractions, check_kappa, check_traders,
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
    below the floor 1e-300 counts as 0 (:func:`decay_rate`'s rule),
    and there each group pays its fraction ``lam``, the kappa -> 0 limit.
    The caller rules out the degenerate total = 1.  NegativeKappa or
    NonFiniteKappa unless 0 <= kappa < inf; the other arguments are not
    checked.  Raises KappaTooLarge where kappa is so close to DBL_MAX that a
    product of kappa and a count overflows (kappa near 1e308 for a dozen
    traders); that check is one comparison below kappa = 600.
    """
    check_kappa(kappa)
    if kappa < KAPPA_FLOOR:
        return lam + np.zeros(np.broadcast_shapes(np.shape(total), np.shape(count)))
    if kappa <= _EXP_KAPPA:
        return _group_cost(total, count, lam, kappa, decay)
    # total (e^alpha - 1) may overflow to inf, where its term is 0; near
    # DBL_MAX kappa (total - 1), kappa (lam total - count) or count kappa
    # overflows too, and then the cost is no longer finite
    with np.errstate(over="ignore", invalid="ignore"):
        cost = _group_cost(total, count, lam, kappa, decay)
    if not np.isfinite(cost).all():
        raise KappaTooLarge(
            f"kappa = {kappa} is too large: a product of kappa and a trader count "
            f"overflows in the cost formula"
        )
    return cost


def _group_cost(total, count, lam, kappa, decay):
    """The formula of :func:`group_cost` for kappa at or above the floor."""
    alpha = decay_rate(total, kappa) if decay is None else decay
    return (
        kappa * (lam * total - count) / (total * -np.expm1(-kappa))
        + alpha * count / (total * np.expm1(alpha))
        + count * kappa / (total + 1.0)
    )


def _counts(n, limit: bool = False) -> np.ndarray:
    """Whole counts from 1 up (and +inf where ``limit``) as an array, ints beyond
    int64 as doubles; NonIntegerCount or EmptyGame (below 1) otherwise."""
    check_count("n", n, limit)
    n = np.asarray(n)
    check_traders(n)
    return n.astype(float) if n.dtype == object else n


def _libm(f, x) -> np.ndarray:
    """``f`` of :mod:`math` per entry of ``x``: libm's e^alpha, not numpy's (an ulp apart)."""
    return np.asarray(np.frompyfunc(f, 1, 1)(x), dtype=float)


def aggregate_cost(n, kappa: float):
    """Total implementation cost over all traders, independent of the lambdas, for
    a count ``n`` from 1 up, ``math.inf`` or an array of them (a float for a
    scalar).  One trader pays the market minimum 1 + kappa/2 and n = inf is the
    limit kappa / (1 - e^{-kappa}); below the kappa floor every aggregate is 1.
    KappaTooLarge where :func:`group_cost` raises for an entry from 2 up."""
    check_kappa(kappa)
    n = _counts(n, limit=True)
    limit = 1.0 if kappa < KAPPA_FLOOR else kappa / -math.expm1(-kappa)
    cost = np.where(n == 1, market_min_cost(kappa), limit)
    many = (n != 1) & (n != math.inf)
    cost[many] = group_cost(n[many], n[many], 1.0, kappa)
    return cost if cost.ndim else float(cost)


def cost_shares(n, kappa: float, lam):
    """The share 1/n + T (1/n - lam) of the aggregate that a trader with target
    fraction ``lam`` pays: 1 for n = 1, and for n >= 2 T = (n + 1)(e^alpha - 1)
    / ((1 - e^{-kappa})(1 - n e^alpha)) < 0, whose affine form keeps an equal
    split at exactly 1/n.  ``n`` (finite counts as for :func:`aggregate_cost`)
    and ``lam`` broadcast; a scalar pair gives a float.  T tends to -1 as
    kappa -> 0, so below the kappa floor the shares are the fractions lam, and
    to -(n + 1) / (n (1 - e^{-kappa})) as kappa grows, where e^alpha overflows.
    NonPositiveLambda unless every fraction is positive and finite."""
    check_kappa(kappa)
    n = _counts(n)
    check_fractions(np.atleast_1d(lam))
    if kappa < KAPPA_FLOOR:
        shares = lam
    else:
        # n = 1's 0 / 0 is replaced below; overflows to inf give T's limit
        with np.errstate(all="ignore"):
            alpha, scale = decay_rate(n, kappa), -math.expm1(-kappa)
            if kappa <= _EXP_KAPPA:
                growth, e_alpha = _libm(math.expm1, alpha), _libm(math.exp, alpha)
                t_slope = (n + 1) * growth / (scale * (1.0 - n * e_alpha))
            else:  # numerator and denominator times e^-alpha, as e^alpha may overflow
                decay, e_minus = _libm(math.expm1, -alpha), _libm(math.exp, -alpha)
                t_slope = (n + 1) * -decay / (scale * (e_minus - n))
            shares = 1.0 / n + t_slope * (1.0 / n - lam)
    shares = np.where(n == 1, 1.0, shares)
    return shares if shares.ndim else float(shares)


def market_min_cost(kappa: float) -> float:
    """Cost of the centrally minimized market-wide strategy m(t) = t."""
    check_kappa(kappa)
    return 1.0 + kappa / 2.0


def price_of_anarchy(n, kappa: float):
    """Ratio of the non-cooperative aggregate cost to the market-wide minimum,
    ``aggregate_cost(n, kappa) / market_min_cost(kappa)``; the limit n = inf
    approaches 2 from below as kappa grows."""
    return aggregate_cost(n, kappa) / market_min_cost(kappa)


@dataclass(frozen=True, eq=False)
class CostBreakdown:
    """:func:`cost_breakdown`'s costs and shares: read-only float arrays
    shaped like its ``lam``, and the float ``aggregate``.
    ``fair_share_deviation`` is ``shares - lam``: positive means the trader
    pays more than its share of the total quantity would suggest.
    """

    per_trader: np.ndarray
    aggregate: float
    shares: np.ndarray
    fair_share_deviation: np.ndarray

    def __post_init__(self):
        for name in ("per_trader", "shares", "fair_share_deviation"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)


def cost_breakdown(n, kappa: float, lam) -> CostBreakdown:
    """Costs, aggregate, shares and fair-share deviations of traders with
    target fractions ``lam`` (a scalar or an array) among ``n`` traders, a
    whole count: a spec's are ``cost_breakdown(spec.n, spec.kappa,
    spec.lambdas_array())``.  A single trader pays 1 + kappa/2; below the
    kappa floor a trader pays its fraction and the aggregate is 1.  ValueError
    for an array of counts."""
    if np.ndim(n):
        raise ValueError(f"n must be one trader count, got an array of shape {np.shape(n)}")
    aggregate = aggregate_cost(n, kappa)
    shares = cost_shares(n, kappa, lam)
    lam = np.asarray(lam, dtype=float)
    return CostBreakdown(
        per_trader=np.full(lam.shape, aggregate) if n == 1 else group_cost(n, 1, lam, kappa),
        aggregate=aggregate,
        shares=shares,
        fair_share_deviation=shares - lam,
    )
