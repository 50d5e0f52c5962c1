"""The competition instance, and the percent-change and quadrature rules.

A competition instance is a :class:`GameSpec`: ``n`` traders, fractional
target quantities ``lambdas`` summing to one, and a permanent-impact
(alpha-decay) parameter ``kappa``.  ``renormalize_lambdas`` rescales
fractions to build one from, ``percent_change`` is the one percent-change
rule and ``_gauss_legendre_64`` the one quadrature rule.  The closed form
(the decay rate, the curves and :class:`posgame.EquilibriumSolution`) lives
in :mod:`posgame.equilibrium`.  The input errors, the kappa floor and the
shared admission rules live in :mod:`posgame.rules`, the one module of the
package that this one imports; it re-exports none of them.
A spec is immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .rules import (
    LambdaCountMismatch, LambdaSumMismatch, ZeroBaseCost, check_count, check_fractions,
    check_integer, check_kappa, check_size, check_traders,
)

LAMBDA_SUM_TOL = 1e-12


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
            NonPositiveLambda: some lambda_i is not positive and finite.
            LambdaSumMismatch: |sum(lambdas) - 1| > 1e-12.
            NegativeKappa: kappa < 0.
            NonFiniteKappa: kappa is NaN or +inf.
        """
        check_integer("n", self.n)
        check_traders(self.n)
        if len(self.lambdas) != self.n:
            raise LambdaCountMismatch(
                f"got {len(self.lambdas)} target quantities for n={self.n} traders"
            )
        check_fractions(self.lambdas)
        try:
            total = math.fsum(self.lambdas)
        except OverflowError:  # finite fractions whose sum no double holds
            total = math.inf
        if abs(total - 1.0) > LAMBDA_SUM_TOL:
            raise LambdaSumMismatch(f"sum of lambdas is {total!r}, expected 1")
        check_kappa(self.kappa)

    @classmethod
    def symmetric(cls, n: int, kappa: float) -> "GameSpec":
        """``n`` traders with equal fractions; NonIntegerCount unless n is a
        whole number, EmptyGame if n < 1, ValueError if n > sys.maxsize (no
        tuple holds more fractions)."""
        check_count("n", n)
        check_traders(n)
        n = int(n)
        check_size("n", n, 1, sys.maxsize)
        return cls(n=n, lambdas=(1.0 / n,) * n, kappa=kappa)

    def lambdas_array(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=float)


def renormalize_lambdas(lambdas) -> tuple[float, ...]:
    """Target fractions rescaled to sum to one.

    Never applied implicitly: a :class:`GameSpec` whose fractions fail the
    sum check is rejected, so a caller that wants them rescaled passes them
    through here before building the spec.  Raises what
    :func:`posgame.rules.check_fractions` raises, on the values given.
    """
    check_fractions(lambdas)
    try:
        total = math.fsum(lambdas)
    except OverflowError:  # finite fractions: a power of two brings them in range exactly
        lambdas = [math.ldexp(lam, -64) for lam in lambdas]
        total = math.fsum(lambdas)
    return tuple(lam / total for lam in lambdas)


def percent_change(value, base):
    """100 (value - base) / base, for scalars or arrays that broadcast: every
    percent column of the reports and the CLI.  The gap is divided before it
    is scaled, so a percentage that is finite stays finite where
    100 (value - base) would overflow.  ZeroBaseCost where a base is 0."""
    if np.count_nonzero(base) < np.size(base):  # 1 us; np.all takes 4-5 us
        raise ZeroBaseCost("a percent change needs a non-zero base cost, got exactly 0")
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
