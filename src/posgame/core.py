"""Domain types shared across the package.

A competition instance is a :class:`GameSpec`: ``n`` traders, fractional
target quantities ``lambdas`` summing to one, and a permanent-impact
(alpha-decay) parameter ``kappa``.  Equilibrium objects built from a spec
are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LAMBDA_SUM_TOL = 1e-12


class GameSpecError(ValueError):
    """Invalid competition instance."""


class EmptyGame(GameSpecError):
    """Trader count below one or no target quantities."""


class LambdaCountMismatch(GameSpecError):
    """Number of target quantities differs from the trader count."""


class NonPositiveLambda(GameSpecError):
    """A fractional target quantity is zero or negative."""


class LambdaSumMismatch(GameSpecError):
    """Fractional target quantities do not sum to one."""


class NegativeKappa(GameSpecError):
    """Impact parameter must be non-negative."""


class NonFiniteKappa(GameSpecError):
    """Impact parameter is NaN or infinite."""


class NonIntegerCount(GameSpecError):
    """A trader count (or a change of one) is NaN, infinite or fractional."""


class DegenerateAlpha(ValueError):
    """Closed forms are singular at alpha = 0 (n = 1 or kappa = 0).

    Callers must use the dedicated limit branch instead.
    """


class GridTooSmall(ValueError):
    """Sampling grid needs at least two points."""


class GridMismatch(ValueError):
    """Paths in a discrete game do not share one grid."""


class BadBump(ValueError):
    """Deviation bump does not vanish at both endpoints."""


class RepresentationTooSmall(ValueError):
    """Represented trader count n1 + delta fell below one."""


@dataclass(frozen=True)
class GameSpec:
    """Competition instance: trader count, target fractions, impact parameter.

    ``lambdas[i]`` is trader ``i``'s share of the total quantity; the shares
    are dimensionless and must sum to one.  ``kappa`` is the alpha-decay
    parameter per unit of scaled trading time.
    """

    n: int
    lambdas: tuple[float, ...]
    kappa: float

    @classmethod
    def symmetric(cls, n: int, kappa: float) -> "GameSpec":
        return cls(n=n, lambdas=(1.0 / n,) * n, kappa=kappa)

    def lambdas_array(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=float)


def validate_spec(spec: GameSpec) -> GameSpec:
    """Check all :class:`GameSpec` invariants, returning the spec unchanged.

    Raises:
        EmptyGame: n < 1 or no target quantities.
        LambdaCountMismatch: len(lambdas) != n.
        NonPositiveLambda: some lambda_i <= 0.
        LambdaSumMismatch: |sum(lambdas) - 1| > 1e-12.
        NegativeKappa: kappa < 0.
        NonFiniteKappa: kappa is NaN or +inf.
    """
    if spec.n < 1 or len(spec.lambdas) == 0:
        raise EmptyGame(f"need at least one trader, got n={spec.n}")
    if len(spec.lambdas) != spec.n:
        raise LambdaCountMismatch(
            f"got {len(spec.lambdas)} target quantities for n={spec.n} traders"
        )
    for i, lam in enumerate(spec.lambdas):
        if not lam > 0.0:
            raise NonPositiveLambda(f"lambda_{i + 1} = {lam} must be positive")
    total = math.fsum(spec.lambdas)
    if abs(total - 1.0) > LAMBDA_SUM_TOL:
        raise LambdaSumMismatch(f"sum of lambdas is {total!r}, expected 1")
    _check_kappa(spec.kappa)
    return spec


def _check_kappa(kappa: float) -> None:
    """Raise NegativeKappa for kappa < 0 and NonFiniteKappa for NaN or +inf."""
    if kappa < 0.0:
        raise NegativeKappa(f"kappa = {kappa} must be non-negative")
    if not math.isfinite(kappa):
        raise NonFiniteKappa(f"kappa = {kappa} must be finite")


def _check_count(name: str, value) -> None:
    """Raise NonIntegerCount unless ``value`` (a number or an array of them)
    holds only finite whole numbers."""
    value = np.asarray(value)
    if value.dtype.kind in "biu":
        return
    as_float = value.astype(float)  # object arrays: ints beyond int64, fractions
    bad = ~(np.isfinite(as_float) & (as_float == np.round(as_float)))
    if bad.any():
        raise NonIntegerCount(f"{name} = {value.flat[np.argmax(bad)]} must be a whole number")


def renormalize_lambdas(spec: GameSpec) -> GameSpec:
    """Rescale target fractions to sum to one.

    Never applied implicitly: inputs that fail the sum check are rejected
    unless the caller explicitly asks for renormalization.
    """
    if spec.n < 1 or len(spec.lambdas) != spec.n:
        validate_spec(spec)  # raise the structural error
    total = math.fsum(spec.lambdas)
    if total <= 0.0:
        raise NonPositiveLambda("cannot renormalize a non-positive total")
    return GameSpec(
        n=spec.n,
        lambdas=tuple(lam / total for lam in spec.lambdas),
        kappa=spec.kappa,
    )


@dataclass(frozen=True)
class Alpha:
    """Decay rate of the aggregate strategy, kappa * (n - 1) / (n + 1)."""

    value: float


@dataclass(frozen=True)
class ClosedFormStrategy:
    """One trader's equilibrium curve a(t) = b (e^{kt} - 1) + d (1 - e^{-at}).

    ``b`` and ``d`` are the curve coefficients, ``kappa`` and ``alpha`` the
    exponential rates, ``lam`` the trader's target fraction.  ``alpha == 0``
    marks the degenerate (single-trader or zero-impact) branch where the
    curve is the straight line a(t) = t.
    """

    b: float
    d: float
    kappa: float
    alpha: float
    lam: float

    def position(self, t):
        """Cumulative position at scaled time t in [0, 1]."""
        return _float_if_scalar(_curve(self.b, self.d, self.kappa, self.alpha, t, 0))

    def velocity(self, t):
        """Trading rate da/dt."""
        return _float_if_scalar(_curve(self.b, self.d, self.kappa, self.alpha, t, 1))

    def acceleration(self, t):
        """Second derivative d2a/dt2."""
        return _float_if_scalar(_curve(self.b, self.d, self.kappa, self.alpha, t, 2))


def _curve(b, d, kappa: float, alpha: float, t, order: int) -> np.ndarray:
    """The ``order``-th time derivative (0, 1 or 2) of the equilibrium curve
    b (e^{kappa t} - 1) + d (1 - e^{-alpha t}); alpha == 0 is the straight
    line a(t) = t.

    The one copy of the curve formula.  ``b`` and ``d`` are scalars or
    arrays that broadcast against ``t`` (an (n, 1, ...) column of
    coefficients gives every trader's curve at once); each entry is computed
    exactly as for scalar coefficients.
    """
    t = np.asarray(t, dtype=float)
    if alpha == 0.0:
        shape = np.broadcast_shapes(np.shape(b), t.shape)
        if order == 0:
            return np.broadcast_to(t, shape).copy()
        return np.full(shape, 1.0 if order == 1 else 0.0)
    if order == 0:
        return b * np.expm1(kappa * t) - d * np.expm1(-alpha * t)
    if order == 1:
        return kappa * b * np.exp(kappa * t) + alpha * d * np.exp(-alpha * t)
    return kappa**2 * b * np.exp(kappa * t) - alpha**2 * d * np.exp(-alpha * t)


def _float_if_scalar(values):
    """Curve-method return convention: a float for scalar t, else the array."""
    return values if np.ndim(values) else float(values)


@dataclass(frozen=True)
class SampledPath:
    """A path sampled on a strictly increasing grid over [0, 1]."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise GridTooSmall(f"grid needs >= 2 points, got shape {grid.shape}")
        if values.shape != grid.shape:
            raise GridMismatch(f"values shape {values.shape} != grid shape {grid.shape}")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise GridMismatch("grid must start at 0 and end at 1")
        if np.any(np.diff(grid) <= 0.0):
            raise GridMismatch("grid must be strictly increasing")
        grid = grid.copy()
        values = values.copy()
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class EquilibriumSolution:
    """All traders' closed-form strategies plus the aggregate market strategy.

    The market strategy m(t) = sum_i lambda_i a_i(t) has the closed form
    (1 - e^{-alpha t}) / (1 - e^{-alpha}) and is concave (eager) whenever
    alpha > 0; the degenerate branch alpha == 0 gives m(t) = t.
    """

    spec: GameSpec
    strategies: tuple[ClosedFormStrategy, ...]
    alpha: Alpha

    def positions(self, t) -> np.ndarray:
        """Every trader's position at time(s) t: shape (n,) + shape of t,
        row i equal to ``strategies[i].position(t)``."""
        return self._curves(t, 0)

    def velocities(self, t) -> np.ndarray:
        """Every trader's trading rate at time(s) t, shaped as :meth:`positions`."""
        return self._curves(t, 1)

    def accelerations(self, t) -> np.ndarray:
        """Every trader's second derivative at time(s) t, shaped as :meth:`positions`."""
        return self._curves(t, 2)

    def _curves(self, t, order: int) -> np.ndarray:
        # b and d come from the strategies, so a solution with modified
        # coefficients samples what its strategies hold.
        t = np.asarray(t, dtype=float)
        column = (-1,) + (1,) * t.ndim
        b = np.array([s.b for s in self.strategies]).reshape(column)
        d = np.array([s.d for s in self.strategies]).reshape(column)
        return _curve(b, d, self.spec.kappa, self.alpha.value, t, order)

    def market(self, t):
        t = np.asarray(t, dtype=float)
        a = self.alpha.value
        if a == 0.0:
            return _float_if_scalar(t.copy())
        return _float_if_scalar(np.expm1(-a * t) / np.expm1(-a))

    def market_velocity(self, t):
        t = np.asarray(t, dtype=float)
        a = self.alpha.value
        if a == 0.0:
            return _float_if_scalar(np.ones_like(t))
        return _float_if_scalar(a * np.exp(-a * t) / (-np.expm1(-a)))

    def market_acceleration(self, t):
        t = np.asarray(t, dtype=float)
        a = self.alpha.value
        if a == 0.0:
            return _float_if_scalar(np.zeros_like(t))
        return _float_if_scalar(-(a**2) * np.exp(-a * t) / (-np.expm1(-a)))


@dataclass(frozen=True)
class CostBreakdown:
    """Per-trader implementation costs with shares of the aggregate.

    ``fair_share_deviation[i]`` is ``shares[i] - lambdas[i]``: positive means
    trader i pays more than its share of the total quantity would suggest.
    """

    per_trader: tuple[float, ...]
    aggregate: float
    shares: tuple[float, ...]
    fair_share_deviation: tuple[float, ...] = field(default=())
