"""Firm versus non-firm cost analysis under trade centralization.

A firm employing ``n1`` of the ``n = n1 + n2`` traders can merge its order
flow.  Naive centralization turns the competition into an ``n2 + 1``-trader
game; strategic centralization additionally misrepresents the firm's trader
count as ``n1 + delta``, turning it into an ``(n + delta)``-trader game while
the firm's target fraction stays fixed.  Every cost here is a group aggregate
built from the per-trader equilibrium cost formula, so the firm/non-firm
split always partitions the corresponding aggregate cost exactly.

The strategic cost curve E(delta) is minimized near the continuous optimum

    delta* = -n1 + sqrt(n2 (n2 + 1))

i.e. the optimal represented trader count is about the number of outside
traders, independent of both kappa and the firm's target fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import RepresentationTooSmall, _check_count, _check_kappa
from .costs import aggregate_cost_limit, group_cost


@dataclass(frozen=True)
class CentralizationScenario:
    """Firm split of a competition: firm/non-firm trader counts and fractions."""

    n1: int
    n2: int
    lambda_firm: float
    kappa: float

    def __post_init__(self):
        _check_split(self.n1, self.n2, self.lambda_firm, self.kappa)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def lambda_nonfirm(self) -> float:
        return 1.0 - self.lambda_firm


def _check_split(n1, n2, lambda_firm, kappa) -> None:
    """Raise ValueError unless every firm split is valid; counts and
    fractions may be arrays of splits.  Counts that are not whole numbers
    raise NonIntegerCount."""
    n1, n2, lam = np.broadcast_arrays(n1, n2, lambda_firm)
    bad = (n1 < 1) | (n2 < 1)
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(f"need n1 >= 1 and n2 >= 1, got n1={n1.flat[k]}, n2={n2.flat[k]}")
    _check_count("n1", n1)
    _check_count("n2", n2)
    bad = ~((0.0 < lam) & (lam < 1.0))
    if bad.any():
        raise ValueError(f"need 0 < lambda_firm < 1, got {lam.flat[np.argmax(bad)]}")
    _check_kappa(kappa)


@dataclass(frozen=True)
class CentralizationReport:
    """The four cost quadrants plus percent changes (in percent, not fractions).

    Percent changes are 100 * (central - no_central) / no_central, computed
    for the firm, the non-firm aggregate, and the total.
    """

    firm_cost_no_central: float
    nonfirm_cost_no_central: float
    firm_cost_central: float
    nonfirm_cost_central: float
    pct_change_firm: float
    pct_change_nonfirm: float
    pct_change_total: float

    @property
    def total_no_central(self) -> float:
        return self.firm_cost_no_central + self.nonfirm_cost_no_central

    @property
    def total_central(self) -> float:
        return self.firm_cost_central + self.nonfirm_cost_central


@dataclass(frozen=True)
class StrategicCurve:
    """Strategic-centralization cost curve over integer represented-count offsets.

    ``deltas`` holds the offsets, ``exact_costs`` the curve with the decay
    rate recomputed at each represented count, ``approx_costs`` the curve
    with the decay rate frozen at kappa.  ``continuous_opt`` is
    -n1 + sqrt(n2 (n2 + 1)); the integer argmin of the approximate curve is
    one of its two neighbors.
    """

    deltas: np.ndarray
    exact_costs: np.ndarray
    approx_costs: np.ndarray
    argmin_exact: int
    argmin_approx: int
    continuous_opt: float


def firm_cost_no_centralization(sc: CentralizationScenario) -> float:
    """Aggregate cost of the n1 firm traders when everyone trades independently."""
    return float(group_cost(sc.n, sc.n1, sc.lambda_firm, sc.kappa))


def nonfirm_cost_no_centralization(sc: CentralizationScenario) -> float:
    """Aggregate cost of the n2 outside traders without centralization."""
    return float(group_cost(sc.n, sc.n2, sc.lambda_nonfirm, sc.kappa))


def firm_cost_centralized(sc: CentralizationScenario) -> float:
    """Firm cost after merging its flow into one trader of an (n2+1)-trader game."""
    return float(group_cost(sc.n2 + 1, 1, sc.lambda_firm, sc.kappa))


def nonfirm_cost_centralized(sc: CentralizationScenario) -> float:
    """Outside traders' aggregate cost after the firm centralizes."""
    return float(group_cost(sc.n2 + 1, sc.n2, sc.lambda_nonfirm, sc.kappa))


def _report_columns(n1, n2, lambda_firm, kappa) -> tuple:
    """The seven :class:`CentralizationReport` fields, broadcast over
    arrays of firm splits (the quadrant functions above, in one pass)."""
    f0 = group_cost(n1 + n2, n1, lambda_firm, kappa)
    nf0 = group_cost(n1 + n2, n2, 1.0 - lambda_firm, kappa)
    f1 = group_cost(n2 + 1, 1, lambda_firm, kappa)
    nf1 = group_cost(n2 + 1, n2, 1.0 - lambda_firm, kappa)
    return (
        f0,
        nf0,
        f1,
        nf1,
        100.0 * (f1 - f0) / f0,
        100.0 * (nf1 - nf0) / nf0,
        100.0 * ((f1 + nf1) - (f0 + nf0)) / (f0 + nf0),
    )


def naive_centralization_report(sc: CentralizationScenario) -> CentralizationReport:
    """All four cost quadrants with percent changes from centralizing."""
    columns = _report_columns(sc.n1, sc.n2, sc.lambda_firm, sc.kappa)
    return CentralizationReport(*(float(c) for c in columns))


def _check_delta(sc: CentralizationScenario, delta) -> None:
    """Raise NonIntegerCount for a fractional delta and RepresentationTooSmall
    when n1 + delta falls below one."""
    _check_count("delta", delta)
    if sc.n1 + delta < 1:
        raise RepresentationTooSmall(f"n1 + delta = {sc.n1 + delta} must be at least 1")


def strategic_cost(sc: CentralizationScenario, delta: int) -> float:
    """Firm cost when centralizing and representing n1 + delta traders.

    delta = 0 recovers the independent-trading firm cost exactly, and
    delta = 1 - n1 recovers naive centralization exactly (same code path).
    As delta -> infinity the cost tends to kappa lambda_firm / (1 - e^{-kappa}).
    """
    _check_delta(sc, delta)
    return float(group_cost(sc.n + delta, sc.n1 + delta, sc.lambda_firm, sc.kappa))


def strategic_cost_approx(sc: CentralizationScenario, delta: int) -> float:
    """Frozen-decay approximation of :func:`strategic_cost` (accurate for
    large represented counts, where the decay rate is close to kappa)."""
    _check_delta(sc, delta)
    return float(
        group_cost(sc.n + delta, sc.n1 + delta, sc.lambda_firm, sc.kappa, decay=sc.kappa)
    )


def continuous_optimal_delta(sc: CentralizationScenario) -> float:
    """Continuous minimizer of the approximate curve: -n1 + sqrt(n2 (n2 + 1))."""
    return -sc.n1 + math.sqrt(sc.n2 * (sc.n2 + 1.0))


def optimal_representation(
    sc: CentralizationScenario, delta_range: tuple[int, int] | None = None
) -> StrategicCurve:
    """Evaluate both strategic curves over a delta window and locate argmins.

    The default window runs from full consolidation (delta = 1 - n1) to well
    past the continuous optimum.
    """
    opt = continuous_optimal_delta(sc)
    if delta_range is None:
        lo = 1 - sc.n1
        hi = max(math.ceil(opt) + 50, lo + 10)
    else:
        lo, hi = delta_range
        if sc.n1 + lo < 1:
            raise RepresentationTooSmall(
                f"delta_range start {lo} gives n1 + delta = {sc.n1 + lo} < 1"
            )
        if hi < lo:
            raise ValueError(f"empty delta_range {delta_range}")
    deltas = np.arange(lo, hi + 1, dtype=int)
    exact = group_cost(sc.n + deltas, sc.n1 + deltas, sc.lambda_firm, sc.kappa)
    approx = group_cost(sc.n + deltas, sc.n1 + deltas, sc.lambda_firm, sc.kappa, decay=sc.kappa)
    return StrategicCurve(
        deltas=deltas,
        exact_costs=exact,
        approx_costs=approx,
        argmin_exact=int(deltas[int(np.argmin(exact))]),
        argmin_approx=int(deltas[int(np.argmin(approx))]),
        continuous_opt=opt,
    )


def limiting_costs(sc: CentralizationScenario) -> tuple[float, float]:
    """Limits of firm and non-firm costs as the represented count grows without
    bound: each group pays its fraction of the many-trader aggregate."""
    total = aggregate_cost_limit(sc.kappa)
    return sc.lambda_firm * total, sc.lambda_nonfirm * total


# Reference rows of averaged centralization outcomes are labelled by the mean
# firm fraction of a uniform band of scenarios; these are the bands behind the
# standard row labels (label = band mean, shown to two decimals).
FRACTION_BANDS: dict[float, tuple[float, float]] = {
    0.07: (0.05, 0.10),
    0.15: (0.10, 0.20),
    0.40: (0.30, 0.50),
    0.62: (0.50, 0.75),
    0.82: (0.75, 0.90),
}


def _mean_report(n1, n2, lambda_firm, kappa, weights) -> CentralizationReport:
    """Weighted mean of the naive report over arrays of firm splits."""
    _check_split(n1, n2, lambda_firm, kappa)
    columns = _report_columns(n1, n2, lambda_firm, kappa)
    total = weights.sum()
    return CentralizationReport(*(float(np.dot(weights, c) / total) for c in columns))


@cache
def _gauss_legendre_64() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    and shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def averaged_report(
    kappa: float,
    lambda_band: tuple[float, float],
    n_values: tuple[int, ...] = (20, 21, 22),
    n1_values: tuple[int, ...] = (3, 4, 5),
) -> CentralizationReport:
    """Deterministic scenario-grid average of centralization outcomes.

    Averages the report over every (n, n1) combination and over a uniform
    band of firm fractions, integrated by 64-point Gauss-Legendre quadrature
    so no RNG is involved.  Cost columns are affine in the firm fraction, so
    they equal the point value at the band mean; the percent columns are not,
    and the band average is what tabulated values reflect.
    """
    lo, hi = lambda_band
    nodes, weights = _gauss_legendre_64()
    lams = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
    n, n1, lam = np.meshgrid(n_values, n1_values, lams, indexing="ij")
    w = np.broadcast_to(weights, lam.shape)
    return _mean_report(n1.ravel(), (n - n1).ravel(), lam.ravel(), kappa, w.ravel())


def sampled_report(
    kappa: float,
    lambda_band: tuple[float, float],
    n_values: tuple[int, ...] = (20, 21, 22),
    n1_values: tuple[int, ...] = (3, 4, 5),
    draws: int = 2000,
    rng: np.random.Generator | None = None,
) -> CentralizationReport:
    """Seeded-RNG variant of :func:`averaged_report` drawing (n, n1, fraction)
    uniformly; provided for fidelity to randomized reference runs."""
    if rng is None:
        rng = np.random.default_rng(0)
    lo, hi = lambda_band
    samples = np.empty((3, draws))
    for k in range(draws):  # one draw at a time keeps the generator's stream order
        samples[:, k] = rng.choice(n_values), rng.choice(n1_values), rng.uniform(lo, hi)
    n, n1, lam = samples
    return _mean_report(n1, n - n1, lam, kappa, np.ones(draws))
