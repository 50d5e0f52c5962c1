"""Closed-form Nash equilibria for position-building in competition.

The package computes equilibrium trading strategies under temporary and
permanent (alpha-decay) market impact, their implementation costs and cost
shares, the price of anarchy, and the economics of naive and strategic trade
centralization.  Every closed form is cross-checked by an independent
discretized best-response oracle (:mod:`posgame.oracle`).
"""

__version__ = "0.1.0"

from .core import (
    BadBump,
    CostBreakdown,
    DegenerateAlpha,
    EmptyGame,
    EquilibriumSolution,
    GameSpec,
    GameSpecError,
    GridMismatch,
    LambdaCountMismatch,
    LambdaSumMismatch,
    NegativeKappa,
    NonFiniteKappa,
    NonIntegerCount,
    NonPositiveLambda,
    RepresentationTooSmall,
    renormalize_lambdas,
    validate_spec,
)
from .equilibrium import governing_residuals, solve
from .costs import (
    aggregate_cost,
    aggregate_cost_limit,
    cost_breakdown,
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
    limiting_costs,
    naive_centralization_report,
    optimal_representation,
    sampled_report,
)
from .oracle import (
    DiscreteGame,
    best_response,
    deviation_expansion,
    deviation_test,
    discrete_cost,
    nash_fixed_point,
    sampled_equilibrium,
    standard_bumps,
    stationarity_residual,
)

__all__ = [
    "__version__",
    "BadBump",
    "CentralizationReport",
    "CentralizationScenario",
    "CostBreakdown",
    "DegenerateAlpha",
    "DiscreteGame",
    "EmptyGame",
    "EquilibriumSolution",
    "FRACTION_BANDS",
    "GameSpec",
    "GameSpecError",
    "GridMismatch",
    "LambdaCountMismatch",
    "LambdaSumMismatch",
    "NegativeKappa",
    "NonFiniteKappa",
    "NonIntegerCount",
    "NonPositiveLambda",
    "RepresentationTooSmall",
    "StrategicCurve",
    "aggregate_cost",
    "aggregate_cost_limit",
    "averaged_report",
    "best_response",
    "continuous_optimal_delta",
    "cost_breakdown",
    "deviation_expansion",
    "deviation_test",
    "discrete_cost",
    "governing_residuals",
    "group_cost",
    "limiting_costs",
    "market_min_cost",
    "naive_centralization_report",
    "nash_fixed_point",
    "optimal_representation",
    "price_of_anarchy",
    "renormalize_lambdas",
    "sampled_equilibrium",
    "sampled_report",
    "solve",
    "standard_bumps",
    "stationarity_residual",
    "validate_spec",
]
