"""Firm versus non-firm cost analysis under trade centralization.

A firm employing ``n1`` of the ``n = n1 + n2`` traders can merge its order
flow.  Naive centralization turns the competition into an ``n2 + 1``-trader
game; strategic centralization additionally misrepresents the firm's trader
count as ``n1 + delta``, turning it into an ``(n + delta)``-trader game while
the firm's target fraction stays fixed.  Every cost here is a group aggregate
built from the per-trader equilibrium cost formula, so the firm/non-firm
split always partitions the corresponding aggregate cost exactly.
:func:`naive_centralization_report` gives the four cost quadrants and
:func:`optimal_representation` the strategic cost curve over a window of
whole-number offsets delta, each as one broadcast of the cost kernel.

The strategic cost curve E(delta) is minimized near the continuous optimum

    delta* = -n1 + sqrt(n2 (n2 + 1))

i.e. the optimal represented trader count is about the number of outside
traders, independent of both kappa and the firm's target fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _gauss_legendre_64, percent_change
from .costs import group_cost
from .rules import check_counts, check_kappa, check_window


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
    fractions may be arrays of splits."""
    check_counts(n1, n2)
    lam = np.asarray(lambda_firm)
    bad = ~((0.0 < lam) & (lam < 1.0))
    if bad.any():
        raise ValueError(f"need 0 < lambda_firm < 1, got {lam.flat[np.argmax(bad)]}")
    check_kappa(kappa)


@dataclass(frozen=True)
class CentralizationReport:
    """The four cost quadrants plus percent changes (in percent, not fractions).

    Percent changes are 100 * ((central - no_central) / no_central), computed
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
    with the decay rate frozen at kappa.  The exact entry at delta = 0 is
    the independent-trading firm cost and the one at delta = 1 - n1 the
    naive-centralization firm cost, bit for bit (same kernel, same inputs);
    as delta grows the cost tends to kappa lambda_firm / (1 - e^{-kappa}).
    ``continuous_opt`` is -n1 + sqrt(n2 (n2 + 1)); the integer argmin of the
    approximate curve is one of its two neighbors.  The three arrays are
    read-only copies, so the argmins always describe them.
    """

    deltas: np.ndarray
    exact_costs: np.ndarray
    approx_costs: np.ndarray
    argmin_exact: int
    argmin_approx: int
    continuous_opt: float

    def __post_init__(self):
        for name in ("deltas", "exact_costs", "approx_costs"):
            values = np.array(getattr(self, name))
            values.flags.writeable = False
            object.__setattr__(self, name, values)


def _report_columns(n1, n2, lambda_firm, kappa) -> tuple:
    """The seven :class:`CentralizationReport` fields, broadcast over
    arrays of firm splits: firm and non-firm group costs in the n-trader
    game, then in the (n2 + 1)-trader game where the firm is one trader."""
    f0 = group_cost(n1 + n2, n1, lambda_firm, kappa)
    nf0 = group_cost(n1 + n2, n2, 1.0 - lambda_firm, kappa)
    f1 = group_cost(n2 + 1, 1, lambda_firm, kappa)
    nf1 = group_cost(n2 + 1, n2, 1.0 - lambda_firm, kappa)
    return (f0, nf0, f1, nf1, percent_change(f1, f0), percent_change(nf1, nf0),
            percent_change(f1 + nf1, f0 + nf0))


def naive_centralization_report(sc: CentralizationScenario) -> CentralizationReport:
    """All four cost quadrants with percent changes from centralizing;
    ZeroBaseCost where a cost before centralizing is exactly 0."""
    columns = _report_columns(sc.n1, sc.n2, sc.lambda_firm, sc.kappa)
    return CentralizationReport(*(float(c) for c in columns))


def continuous_optimal_delta(sc: CentralizationScenario) -> float:
    """Continuous minimizer of the approximate curve: -n1 + sqrt(n2 (n2 + 1))."""
    return -sc.n1 + math.sqrt(sc.n2 * (sc.n2 + 1.0))


def optimal_representation(
    sc: CentralizationScenario, delta_range: tuple[int, int] | None = None
) -> StrategicCurve:
    """Evaluate both strategic curves over a delta window and locate argmins.

    The default window runs from full consolidation (delta = 1 - n1) to well
    past the continuous optimum.  An explicit ``(lo, hi)`` must be a pair
    (ValueError otherwise) of whole numbers (NonIntegerCount otherwise) with
    n1 + lo >= 1 (RepresentationTooSmall) and hi >= lo.
    """
    opt = continuous_optimal_delta(sc)
    if delta_range is None:
        lo = 1 - sc.n1
        hi = max(math.ceil(opt) + 50, lo + 10)
    else:
        check_window(sc.n1, delta_range)
        lo, hi = delta_range
    # sized from the exact count: arange's float length wraps to 0 within
    # 512 of sys.maxsize, which a window's exact ends can reach
    deltas = np.empty(int(hi - lo) + 1, dtype=int)
    deltas[:] = np.arange(lo, hi + 1, dtype=int)
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

# The (n, n1) grid an averaged table runs over unless it is given one.
TABLE_N = (20, 21, 22)
TABLE_N1 = (3, 4, 5)


def averaged_report(
    kappa: float,
    lambda_band: tuple[float, float] | np.ndarray,
    n_values: tuple[int, ...] = TABLE_N,
    n1_values: tuple[int, ...] = TABLE_N1,
) -> CentralizationReport:
    """Deterministic scenario-grid average of centralization outcomes.

    Averages the report over every (n, n1) combination and over a uniform
    band of firm fractions, integrated by 64-point Gauss-Legendre quadrature
    so no RNG is involved.  Cost columns are affine in the firm fraction, so
    they equal the point value at the band mean; the percent columns are not,
    and the band average is what tabulated values reflect.  An (m, 2) array
    of bands gives (m,) array fields, row k bit for bit band k's report.
    ZeroBaseCost where a cost before centralizing is exactly 0 at some node.
    """
    lo, hi = np.moveaxis(np.asarray(lambda_band, dtype=float)[..., None], -2, 0)
    nodes, weights = _gauss_legendre_64()
    lam = (0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes)[..., None, :]
    n, n1 = (a.reshape(-1, 1) for a in np.meshgrid(n_values, n1_values, indexing="ij"))
    _check_split(n1, n - n1, lam, kappa)
    w = np.broadcast_to(weights, (n.size, weights.size)).ravel()
    total = w.sum()
    columns = (c.reshape(-1, w.size) for c in _report_columns(n1, n - n1, lam, kappa))
    means = (np.array([np.dot(w, r) for r in c]).reshape(lo.shape[:-1]) / total for c in columns)
    return CentralizationReport(*(m if m.ndim else float(m) for m in means))
