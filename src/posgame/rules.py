"""The input domain: the typed errors of an invalid input, the kappa floor,
and every admission rule that more than one module calls.

The library's constructors and functions and the CLI's config checks call
these same rules, so an input is admitted or refused by one rule wherever
it enters.  A rule that one module alone calls stays private there.  This
module imports only the standard library and numpy, so every layer can
import it.
"""

from __future__ import annotations

import math
import numbers
import sys
from contextlib import contextmanager

import numpy as np

# A kappa below 1e-300 counts as 0.  From the floor up, lambda_i n alpha stays
# a normal double for every documented lambda_i >= 1e-6 and n >= 2, so the
# coefficient 1 / (lambda_i n (1 - e^{-alpha})) stays finite; just above the
# smallest normal double (2.2e-308) it overflows.  Below the floor the
# kappa -> 0 limit is exact to double precision, as it is up to about 1e-16.
KAPPA_FLOOR = 1e-300

_LOG_DBL_MAX = math.log(sys.float_info.max)  # 709.78: e^kappa is finite up to it


class GameSpecError(ValueError):
    """Invalid competition instance."""


class EmptyGame(GameSpecError):
    """Trader count below one."""


class LambdaCountMismatch(GameSpecError):
    """Number of target quantities differs from the trader count."""


class NonPositiveLambda(GameSpecError):
    """A fractional target quantity is not positive and finite."""


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


class ZeroBaseCost(GameSpecError):
    """A percent change's base cost is exactly 0, so the change has no value."""


class GridMismatch(ValueError):
    """Paths or bumps do not fit the oracle grid (shape, pinned endpoints or
    finite values)."""


class BadBump(ValueError):
    """Deviation bump does not vanish at both endpoints."""


class RepresentationTooSmall(ValueError):
    """Represented trader count n1 + delta fell below one."""


class ArrayTooLarge(MemoryError):
    """An array that the size ``setting`` asks for does not fit in memory."""

    def __init__(self, setting: str, reason: str):
        super().__init__(reason)
        self.setting = setting


@contextmanager
def sized_by(setting: str):
    """ArrayTooLarge naming ``setting`` for a MemoryError, or numpy's "array
    is too big" ValueError, raised in the block, unless it is one already."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ArrayTooLarge) or not (
                isinstance(exc, MemoryError) or str(exc).startswith("array is too big")):
            raise
        raise ArrayTooLarge(setting, str(exc) or "out of memory") from exc


def check_kappa(kappa: float) -> None:
    """Raise NegativeKappa for kappa < 0 and NonFiniteKappa for NaN or +inf."""
    if kappa < 0.0:
        raise NegativeKappa(f"kappa = {kappa} must be non-negative")
    if not math.isfinite(kappa):
        raise NonFiniteKappa(f"kappa = {kappa} must be finite")


def check_traders(n) -> None:
    """Raise EmptyGame unless every count ``n`` (a number or array) is >= 1."""
    few = np.less(n, 1)
    if few.any():
        raise EmptyGame(f"need at least one trader, got n={np.ravel(n)[np.argmax(few)]}")


def check_fractions(lambdas) -> None:
    """Raise EmptyGame unless the target fractions ``lambdas`` (a sequence or
    an array) have shape (..., n), n >= 1, and NonPositiveLambda unless each
    is positive and finite, naming the first other one by its trader."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim == 0 or lambdas.shape[-1] == 0:
        raise EmptyGame(f"need target fractions of shape (..., n), n >= 1, got {lambdas.shape}")
    good = (lambdas > 0.0) & (lambdas < math.inf)
    if not good.all():
        k = np.argmin(good)
        raise NonPositiveLambda(f"lambda_{k % lambdas.shape[-1] + 1} = {lambdas.flat[k]} "
                                "must be positive and finite")


def check_count(name: str, value, limit: bool = False) -> None:
    """Raise NonIntegerCount unless ``value`` (a number or an array of them) holds only
    whole numbers, finite or +inf where ``limit``, and no bool, not even in a list that
    numpy makes ints of; GameSpecError for an integer beyond the largest double.  A
    plain int within the doubles' range, or a numpy integer, passes at once."""
    if type(value) is int and abs(value) <= sys.float_info.max or isinstance(value, np.integer):
        return
    items = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    if items.dtype.kind in "bO" and any(isinstance(v, (bool, np.bool_)) for v in items.flat):
        raise NonIntegerCount(f"{name} = {value} must be a whole number, not a bool")
    value = np.asarray(value)
    if value.dtype.kind in "iu":
        return
    try:
        as_float = value.astype(float)  # object arrays: ints beyond int64, fractions
    except OverflowError as exc:
        raise GameSpecError(f"{name}: {exc}") from None
    whole = np.isfinite(as_float) & (as_float == np.rint(as_float)) | limit & (as_float == math.inf)
    if not whole.all():
        raise NonIntegerCount(f"{name} = {value.flat[np.argmin(whole)]} must be a whole number")


def check_integer(name: str, value) -> None:
    """NonIntegerCount unless ``value`` is an integer other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise NonIntegerCount(f"{name} = {value!r} must be an integer")


def check_size(name: str, value, least: int, most: int | None = None) -> None:
    """NonIntegerCount unless ``value`` is an integer other than a bool (a
    float, even a whole one, sizes no grid, draw set or seed), then
    ValueError unless ``value >= least`` and, if given, ``value <= most``.
    The one rule for sizes; trader counts take :func:`check_count`, which
    accepts whole floats.  A size that sets an array's length takes
    ``most``: no array is longer than ``sys.maxsize``."""
    check_integer(name, value)
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"need {name} <= {most}, got {value}")


def check_counts(n1, n2) -> None:
    """Raise ValueError unless every firm has n1 >= 1 traders and n2 >= 1
    outside it, and NonIntegerCount unless the counts are whole numbers;
    n1 and n2 may be arrays that broadcast together."""
    n1, n2 = np.broadcast_arrays(n1, n2)
    bad = (n1 < 1) | (n2 < 1)
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(f"need n1 >= 1 and n2 >= 1, got n1={n1.flat[k]}, n2={n2.flat[k]}")
    check_count("n1", n1)
    check_count("n2", n2)


def check_window(n1: int, delta_range) -> None:
    """Raise unless ``delta_range`` is a pair (lo, hi) (ValueError otherwise)
    of whole numbers (NonIntegerCount otherwise) with n1 + lo >= 1
    (RepresentationTooSmall), hi >= lo and at most sys.maxsize deltas in
    the window, the most an array holds (ValueError otherwise)."""
    try:
        lo, hi = delta_range
    except (TypeError, ValueError):  # not an iterable of two items
        raise ValueError(f"need a delta_range pair (lo, hi), got {delta_range!r}") from None
    check_count("delta_range", (lo, hi))
    if n1 + lo < 1:
        raise RepresentationTooSmall(f"delta_range start {lo} gives n1 + delta = {n1 + lo} < 1")
    if hi < lo:
        raise ValueError(f"empty delta_range {delta_range}")
    if hi - lo >= sys.maxsize:
        raise ValueError(f"delta_range {delta_range} holds more than {sys.maxsize} deltas")


def check_grid(kappa: float, n_steps: int) -> None:
    """NonIntegerCount unless n_steps is an integer, then ValueError unless
    n_steps >= 2, so that every trader has an interior node, and the grid's
    n_steps + 1 nodes fit an array, then GridMismatch unless
    n_steps > kappa / 2, the grids on which the Nash rows' root
    sigma = (1 + c) / (1 - c) is positive (c = kappa / (2 N) < 1)."""
    check_size("n_steps", n_steps, 2, sys.maxsize - 1)
    if 2 * n_steps <= kappa:
        raise GridMismatch(
            f"n_steps={n_steps} is too coarse for kappa={kappa:g}: "
            f"need n_steps > kappa / 2, at least {math.floor(0.5 * kappa) + 1}"
        )


def check_curves(lambdas, b, d, kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lambdas``, ``b`` and ``d`` as float arrays, checked as
    :func:`posgame.governing_residuals` states."""
    lambdas, b, d = (np.asarray(x, dtype=float) for x in (lambdas, b, d))
    if lambdas.ndim == 0 or lambdas.shape[-1] == 0 or not lambdas.shape == b.shape == d.shape:
        raise ValueError(f"lambdas, b and d must share one shape (..., n), n >= 1; got "
                         f"{lambdas.shape}, {b.shape} and {d.shape}")
    check_kappa(kappa)
    # e^kappa overflows beyond ln(DBL_MAX), and solve refuses every game of
    # n >= 2 before it; at n = 1 the curves are straight lines at any kappa
    if lambdas.shape[-1] >= 2 and kappa > _LOG_DBL_MAX:
        raise KappaTooLarge(f"kappa = {kappa} is too large: e^kappa overflows beyond "
                            f"kappa = {_LOG_DBL_MAX:.2f} for n >= 2 traders")
    return lambdas, b, d


def check_suite_n(n_values) -> None:
    """ValueError unless ``n_values`` is non-empty, then the size rule on
    every entry: an integer 2 <= n <= sys.maxsize.  At n = 1 every strategy is the straight
    line (b = d = 0), which an injected bug (it scales d) cannot move, and
    the cost row reads 0 / 0."""
    if not n_values:
        raise ValueError(f"need a non-empty n_values, got {n_values}")
    for k, n in enumerate(n_values):
        check_size(f"n_values[{k}]", n, 2, sys.maxsize)


def check_suite_kappa(kappa_values) -> None:
    """ValueError unless ``kappa_values`` is non-empty and every kappa is
    finite and at least 1e-300: a smaller kappa counts as 0, where every
    strategy is the straight line too."""
    for kappa in kappa_values:
        check_kappa(kappa)
    if not kappa_values or min(kappa_values) < KAPPA_FLOOR:
        raise ValueError(
            f"need a non-empty kappa_values with every kappa >= {KAPPA_FLOOR:g}, "
            f"got {kappa_values}"
        )
