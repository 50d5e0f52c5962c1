"""Closed-form Nash equilibria for position-building in competition.

The package computes equilibrium trading strategies under temporary and
permanent (alpha-decay) market impact, their implementation costs and cost
shares, the price of anarchy, and the economics of naive and strategic trade
centralization.  Every closed form is cross-checked by an independent
discretized best-response oracle (:mod:`posgame.oracle`).
"""

__version__ = "0.1.0"

from .rules import (
    BadBump,
    EmptyGame,
    GameSpecError,
    GridMismatch,
    KappaTooLarge,
    LambdaCountMismatch,
    LambdaSumMismatch,
    NegativeKappa,
    NonFiniteKappa,
    NonIntegerCount,
    NonPositiveLambda,
    RepresentationTooSmall,
    ZeroBaseCost,
)
from .core import GameSpec, renormalize_lambdas
from .equilibrium import EquilibriumSolution, governing_residuals, solve
from .costs import (
    CostBreakdown,
    aggregate_cost,
    cost_breakdown,
    cost_shares,
    group_cost,
    market_min_cost,
    price_of_anarchy,
)
from .centralization import (
    FRACTION_BANDS,
    CentralizationReport,
    CentralizationScenario,
    StrategicCurve,
    averaged_report,
    continuous_optimal_delta,
    naive_centralization_report,
    optimal_representation,
)
from .oracle import (
    basis_profile,
    best_response,
    deviation_expansion,
    discrete_cost,
    nash_basis,
    nash_fixed_point,
    standard_bumps,
    stationarity_residual,
)
from .verification import sampled_equilibrium

__all__ = [
    "__version__",
    "BadBump",
    "CentralizationReport",
    "CentralizationScenario",
    "CostBreakdown",
    "EmptyGame",
    "EquilibriumSolution",
    "FRACTION_BANDS",
    "GameSpec",
    "GameSpecError",
    "GridMismatch",
    "KappaTooLarge",
    "LambdaCountMismatch",
    "LambdaSumMismatch",
    "NegativeKappa",
    "NonFiniteKappa",
    "NonIntegerCount",
    "NonPositiveLambda",
    "RepresentationTooSmall",
    "StrategicCurve",
    "ZeroBaseCost",
    "aggregate_cost",
    "averaged_report",
    "basis_profile",
    "best_response",
    "continuous_optimal_delta",
    "cost_breakdown",
    "cost_shares",
    "deviation_expansion",
    "discrete_cost",
    "governing_residuals",
    "group_cost",
    "market_min_cost",
    "naive_centralization_report",
    "nash_basis",
    "nash_fixed_point",
    "optimal_representation",
    "price_of_anarchy",
    "renormalize_lambdas",
    "sampled_equilibrium",
    "solve",
    "standard_bumps",
    "stationarity_residual",
]
