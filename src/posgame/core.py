"""Domain types shared across the package.

A competition instance is a :class:`GameSpec`: ``n`` traders, fractional
target quantities ``lambdas`` summing to one, and a permanent-impact
(alpha-decay) parameter ``kappa``.  An :class:`EquilibriumSolution` holds a
solved spec as two coefficient arrays; ``_alpha``, ``_curve`` and
``_market_curve`` are the one copy each of the decay-rate, curve and market
curve formulas, as numpy kernels over arrays, ``_percent_change`` the one
percent-change rule, ``_KAPPA_FLOOR`` the one kappa -> 0 rule and
``_gauss_legendre_64`` the one quadrature rule.
Equilibrium objects are immutable (their arrays read-only) and safe to share across
threads.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

LAMBDA_SUM_TOL = 1e-12

# A kappa below 1e-300 counts as 0.  From the floor up, lambda_i n alpha stays
# a normal double for every documented lambda_i >= 1e-6 and n >= 2, so the
# coefficient 1 / (lambda_i n (1 - e^{-alpha})) stays finite; just above the
# smallest normal double (2.2e-308) it overflows.  Below the floor the
# kappa -> 0 limit is exact to double precision, as it is up to about 1e-16.
_KAPPA_FLOOR = 1e-300


class GameSpecError(ValueError):
    """Invalid competition instance."""


class EmptyGame(GameSpecError):
    """Trader count below one."""


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


class KappaTooLarge(GameSpecError):
    """Impact parameter so large that a closed-form coefficient overflows."""


class NonIntegerCount(GameSpecError):
    """A trader count (or a change of one) is NaN, infinite or fractional,
    or a size (a grid's step count, a draw count, a seed) is no integer."""


class GridMismatch(ValueError):
    """Paths or bumps do not fit the oracle grid (shape or pinned endpoints)."""


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

    def __post_init__(self):
        """Check every invariant, so that no invalid spec exists.

        Raises:
            NonIntegerCount: n is a bool or no integer.
            EmptyGame: n < 1.
            LambdaCountMismatch: len(lambdas) != n.
            NonPositiveLambda: some lambda_i <= 0.
            LambdaSumMismatch: |sum(lambdas) - 1| > 1e-12.
            NegativeKappa: kappa < 0.
            NonFiniteKappa: kappa is NaN or +inf.
        """
        _check_integer("n", self.n)
        _check_traders(self.n)
        if len(self.lambdas) != self.n:
            raise LambdaCountMismatch(
                f"got {len(self.lambdas)} target quantities for n={self.n} traders"
            )
        for i, lam in enumerate(self.lambdas):
            if not lam > 0.0:
                raise NonPositiveLambda(f"lambda_{i + 1} = {lam} must be positive")
        total = math.fsum(self.lambdas)
        if abs(total - 1.0) > LAMBDA_SUM_TOL:
            raise LambdaSumMismatch(f"sum of lambdas is {total!r}, expected 1")
        _check_kappa(self.kappa)

    @classmethod
    def symmetric(cls, n: int, kappa: float) -> "GameSpec":
        """``n`` traders with equal fractions; NonIntegerCount unless n is a
        whole number, EmptyGame if n < 1, ValueError if n > sys.maxsize (no
        tuple holds more fractions)."""
        _check_count("n", n)
        _check_traders(n)
        n = int(n)
        _check_size("n", n, 1, sys.maxsize)
        return cls(n=n, lambdas=(1.0 / n,) * n, kappa=kappa)

    def lambdas_array(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=float)


def _check_kappa(kappa: float) -> None:
    """Raise NegativeKappa for kappa < 0 and NonFiniteKappa for NaN or +inf."""
    if kappa < 0.0:
        raise NegativeKappa(f"kappa = {kappa} must be non-negative")
    if not math.isfinite(kappa):
        raise NonFiniteKappa(f"kappa = {kappa} must be finite")


def _check_traders(n) -> None:
    """Raise EmptyGame unless there is at least one trader (n >= 1)."""
    if n < 1:
        raise EmptyGame(f"need at least one trader, got n={n}")


def _check_count(name: str, value) -> None:
    """Raise NonIntegerCount unless ``value`` (a number or an array of them)
    holds only finite whole numbers, and GameSpecError for an integer beyond
    the largest double."""
    value = np.asarray(value)
    if value.dtype.kind in "biu":
        return
    try:
        as_float = value.astype(float)  # object arrays: ints beyond int64, fractions
    except OverflowError as exc:
        raise GameSpecError(f"{name}: {exc}") from None
    bad = ~(np.isfinite(as_float) & (as_float == np.round(as_float)))
    if bad.any():
        raise NonIntegerCount(f"{name} = {value.flat[np.argmax(bad)]} must be a whole number")


def _check_integer(name: str, value) -> None:
    """NonIntegerCount unless ``value`` is an integer other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise NonIntegerCount(f"{name} = {value!r} must be an integer")


def _check_size(name: str, value, least: int, most: int | None = None) -> None:
    """NonIntegerCount unless ``value`` is an integer other than a bool (a
    float, even a whole one, sizes no grid, draw set or seed), then
    ValueError unless ``value >= least`` and, if given, ``value <= most``.
    The one rule for sizes; trader counts take :func:`_check_count`, which
    accepts whole floats.  A size that sets an array's length takes
    ``most``: no array is longer than ``sys.maxsize``."""
    _check_integer(name, value)
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"need {name} <= {most}, got {value}")


def renormalize_lambdas(lambdas) -> tuple[float, ...]:
    """Target fractions rescaled to sum to one.

    Never applied implicitly: a :class:`GameSpec` whose fractions fail the
    sum check is rejected, so a caller that wants them rescaled passes them
    through here before building the spec.
    """
    total = math.fsum(lambdas)
    if total <= 0.0:
        raise NonPositiveLambda("cannot renormalize a non-positive total")
    return tuple(lam / total for lam in lambdas)


def _alpha(n, kappa: float):
    """Decay rate of the market strategy, kappa (n - 1) / (n + 1), for a
    scalar kappa and a count ``n`` that may be an array.  It is 0 for n = 1
    and for every kappa below ``_KAPPA_FLOOR``; the closed forms are singular
    there and :func:`posgame.solve` takes the straight line."""
    if kappa < _KAPPA_FLOOR:
        return 0.0 * n
    return kappa * (n - 1) / (n + 1)


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
    if order == 0:  # the decay term is subtracted in place: one temporary, not two
        curve = b * np.expm1(kappa * t)
        curve -= d * np.expm1(-alpha * t)
        return curve
    if order == 1:
        return kappa * b * np.exp(kappa * t) + alpha * d * np.exp(-alpha * t)
    return kappa**2 * b * np.exp(kappa * t) - alpha**2 * d * np.exp(-alpha * t)


def _market_curve(alpha: float, t, order: int) -> np.ndarray:
    """The ``order``-th time derivative of the market strategy
    (1 - e^{-alpha t}) / (1 - e^{-alpha}), an array shaped like ``t``: the
    curve with b = 0, d = 1 / (1 - e^{-alpha}) and kappa = 0 (a spec's kappa
    would make 0 * expm1(kappa t) NaN from kappa = 710 on)."""
    d = 1.0 / -math.expm1(-alpha) if alpha else 0.0
    return _curve(0.0, d, 0.0, alpha, t, order)


def _percent_change(value, base):
    """100 (value - base) / base, for scalars or arrays that broadcast.  The
    gap is divided before it is scaled, so a percentage that is finite stays
    finite where 100 (value - base) would overflow."""
    return 100.0 * ((value - base) / base)


# The 64-point Gauss-Legendre rule on [-1, 1] as a fixed table: the 32
# positive nodes in increasing order and their weights, the exact doubles of
# numpy.polynomial.legendre.leggauss(64) on x86-64 with numpy 2.4.  leggauss
# symmetrizes its result, so the negative half mirrors these to the bit.  The
# table keeps the rule's bits off the LAPACK build and spares each process
# the numpy.polynomial import and the 64 x 64 eigen-solve.
_GL64_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_GL64_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
    0.04799938859645842, 0.04754016571483042, 0.046968182816210076,
    0.04628479658131447, 0.045491627927418184, 0.044590558163756566,
    0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554,
    0.028339672614259535, 0.02637746971505491, 0.0243527025687112, 0.02227017380838297,
    0.020134823153530088, 0.017951715775697284, 0.01572603047602503,
    0.01346304789671786, 0.011168139460131028, 0.008846759826363397,
    0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)


@cache
def _gauss_legendre_64() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre nodes (increasing) and weights on [-1, 1],
    mirrored out of the fixed half table once and shared read-only."""
    half_nodes, half_weights = np.array(_GL64_NODES), np.array(_GL64_WEIGHTS)
    nodes = np.concatenate((-half_nodes[::-1], half_nodes))
    weights = np.concatenate((half_weights[::-1], half_weights))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
        """The decay rate of the spec, by the one rule of :func:`_alpha`."""
        return _alpha(self.spec.n, self.spec.kappa)

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
        t = np.asarray(t, dtype=float)
        column = (-1,) + (1,) * t.ndim
        return _curve(
            self.b.reshape(column), self.d.reshape(column), self.spec.kappa, self.alpha, t, order
        )

    def market(self, t):
        return self._market(t, 0)

    def market_velocity(self, t):
        return self._market(t, 1)

    def market_acceleration(self, t):
        return self._market(t, 2)

    def _market(self, t, order: int):
        return _float_if_scalar(_market_curve(self.alpha, t, order))


@dataclass(frozen=True)
class CostBreakdown:
    """Per-trader implementation costs with shares of the aggregate.

    ``fair_share_deviation[i]`` is ``shares[i] - lambdas[i]``: positive means
    trader i pays more than its share of the total quantity would suggest.
    """

    per_trader: tuple[float, ...]
    aggregate: float
    shares: tuple[float, ...]
    fair_share_deviation: tuple[float, ...]
