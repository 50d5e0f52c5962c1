import importlib.util
import math
import sys
from pathlib import Path

from hypothesis import strategies as st

import posgame as pg
from posgame import GameSpec
from posgame.verification import draw_lambda_stack, quadrature_cost

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """bench/<name>.py as a module (bench/ is no package); the file is only read."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def draw_lambdas(rng, n):
    """One game's target fractions: a one-row ``draw_lambda_stack``, as a tuple."""
    return tuple(draw_lambda_stack(rng, n, 1)[0].tolist())


# The per-game calls of the stacked public checks, as README gives them
def residuals_of(sol, t):
    """``pg.governing_residuals`` on one solution's curves."""
    spec = sol.spec
    return pg.governing_residuals(spec.lambdas_array(), sol.b, sol.d, spec.kappa, t)


def breakdown_of(spec):
    """``pg.cost_breakdown`` of one spec's traders, one entry per trader."""
    return pg.cost_breakdown(spec.n, spec.kappa, spec.lambdas_array())


def quadrature_of(sol):
    """``quadrature_cost`` of one solution's curves, one cost per trader."""
    spec = sol.spec
    return quadrature_cost(spec.lambdas_array(), sol.b, sol.d, spec.kappa)


def nash_of(spec, n_steps):
    """``pg.nash_fixed_point`` of one spec's game, shape (n, N + 1)."""
    return pg.nash_fixed_point(spec.lambdas_array(), spec.kappa, n_steps)


def game_costs(spec, paths):
    """``pg.discrete_cost`` of one spec's profile ``paths``, one cost per trader."""
    return pg.discrete_cost(paths, spec.lambdas_array(), spec.kappa)


def stationarity_of(spec, paths):
    """``pg.stationarity_residual`` of one spec's profile ``paths``, one per trader."""
    return pg.stationarity_residual(paths, spec.lambdas_array(), spec.kappa)


# kappas that count as 0 (below the floor 1e-300): kappa = 0, subnormals from
# the smallest up to the largest (2.2e-308 (1 - 2^-52)), and normal doubles
# just above 2.2e-308, where the closed-form coefficients would overflow
BELOW_KAPPA_FLOOR = (0.0, 5e-324, 1e-310, sys.float_info.min * (1.0 - 2.0**-52), 3e-308, 1e-303)


@st.composite
def game_specs(draw, min_n=2, max_n=10, min_kappa=1e-3, max_kappa=25.0, kappas=None):
    """Random valid competition instances with targets away from the simplex
    boundary (closed-form coefficients scale like 1/lambda_i, so boundary
    draws would need looser tolerances).  ``kappas`` replaces the uniform
    kappa draw on [min_kappa, max_kappa] with another strategy."""
    n = draw(st.integers(min_n, max_n))
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    total = math.fsum(weights)
    lambdas = tuple(w / total for w in weights)
    if kappas is None:
        kappas = st.floats(min_kappa, max_kappa, allow_nan=False, allow_infinity=False)
    kappa = draw(kappas)
    return GameSpec(n=n, lambdas=lambdas, kappa=kappa)
