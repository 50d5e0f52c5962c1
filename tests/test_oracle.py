import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posgame as pg
import posgame.oracle as oracle
import posgame.verification as verification
from conftest import game_specs
from posgame.core import _curve
from posgame.costs import group_cost
from posgame.equilibrium import _coefficients
from posgame.verification import (
    Check,
    draw_lambda_stack,
    draw_lambdas,
    quadrature_cost,
    run_verification,
)


def deviation_test(base, bumps, eps):
    """Cost changes when each trader alone deviates by eps * bump, shape (n, K),
    from re-pricing every perturbed profile: the direct reference that
    ``deviation_expansion`` is held to.

    ``bumps`` holds K endpoint-vanishing directions on ``base``'s grid, shape
    (K, N + 1).  All traders sit at ``base``; entry (i, k) is trader i's
    discrete cost with its path moved to a_i + eps * bumps[k] minus its cost
    at the base.  Each trader's K perturbed profiles are priced as one
    (K, n, N + 1) stack, so time and memory grow like n^2 K N.  Raises what
    ``deviation_expansion`` raises.
    """
    bumps = np.asarray(bumps, dtype=float)
    if bumps.ndim != 2 or bumps.shape[1] != base.paths.shape[1]:
        raise pg.GridMismatch(f"bumps shape {bumps.shape} is not (K, {base.paths.shape[1]})")
    if np.any(bumps[:, [0, -1]] != 0.0):
        raise pg.BadBump("bump must vanish at both endpoints")
    spec = base.spec
    lambdas = spec.lambdas_array()
    kappa, h = spec.kappa, 1.0 / base.n_steps
    base_costs = oracle._cost_sum(lambdas @ base.paths, lambdas[:, None], base.paths, kappa, h)
    changes = np.empty((spec.n, len(bumps)))
    for i in range(spec.n):
        stack = np.repeat(base.paths[None], len(bumps), axis=0)
        stack[:, i] += eps * bumps
        costs = oracle._cost_sum(lambdas @ stack, lambdas[i], stack[:, i], kappa, h)
        changes[i] = costs - base_costs[i]
    return changes


def curved_start(spec, n_steps):
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    paths = np.tile(grid**2, (spec.n, 1))
    return pg.DiscreteGame(spec, paths)


class TestDiscreteCost:
    def test_single_trader_straight_line_is_exact(self):
        # midpoint averaging integrates the linear aggregate exactly
        spec = pg.GameSpec(n=1, lambdas=(1.0,), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 101)
        game = pg.DiscreteGame(spec, grid[None, :])
        assert pg.discrete_cost(game).shape == (1,)
        assert pg.discrete_cost(game)[0] == pytest.approx(1.5, abs=1e-12)

    def test_zero_kappa_total_bounded_below_by_one(self):
        rng = np.random.default_rng(5)
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0)
        grid = np.linspace(0.0, 1.0, 201)
        for _ in range(5):
            paths = np.vstack([np.sort(rng.uniform(size=199)) for _ in range(3)])
            paths = np.hstack([np.zeros((3, 1)), paths, np.ones((3, 1))])
            game = pg.DiscreteGame(spec, paths)
            total = sum(pg.discrete_cost(game))
            assert total >= 1.0 - 1e-12
        straight = pg.DiscreteGame(spec, np.tile(grid, (3, 1)))
        total = sum(pg.discrete_cost(straight))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_closed_form_cost(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        costs = pg.discrete_cost(pg.sampled_equilibrium(pg.solve(spec), 10_000))
        per_trader = pg.cost_breakdown(spec).per_trader
        for i in range(2):
            assert costs[i] == pytest.approx(per_trader[i], abs=1e-4)


class TestBestResponse:
    def test_single_trader_returns_straight_line(self):
        grid = np.linspace(0.0, 1.0, 501)
        for kappa in (0.0, 1.0, 25.0):
            spec = pg.GameSpec(n=1, lambdas=(1.0,), kappa=kappa)
            start = curved_start(spec, 500)
            response = pg.best_response(start, 0)
            assert response.shape == grid.shape
            assert np.max(np.abs(response - grid)) < 1e-10

    def test_closed_form_is_a_fixed_point(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        game = pg.sampled_equilibrium(pg.solve(spec), 2000)
        response = pg.best_response(game, 0)
        assert np.max(np.abs(response - game.paths[0])) < 1e-3

    def test_front_runs_an_eager_opponent(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=5.0)
        grid = np.linspace(0.0, 1.0, 801)
        eager = 1.0 - (1.0 - grid) ** 3
        paths = np.vstack([grid, eager])
        response = pg.best_response(pg.DiscreteGame(spec, paths), 0)
        quarter = np.searchsorted(grid, 0.25)
        assert response[quarter] > 0.25


class TestNashFixedPoint:
    STRONG = pg.GameSpec(n=5, lambdas=(0.02, 0.08, 0.2, 0.3, 0.4), kappa=25.0)

    def test_two_trader_gap(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        fp = pg.nash_fixed_point(spec, 2000)
        cf = pg.sampled_equilibrium(pg.solve(spec), 2000)
        assert np.max(np.abs(fp.paths - cf.paths)) < 1e-3

    def test_three_trader_gap_and_concavity(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0)
        fp = pg.nash_fixed_point(spec, 2000)
        cf = pg.sampled_equilibrium(pg.solve(spec), 2000)
        assert np.max(np.abs(fp.paths - cf.paths)) < 2e-3
        market = spec.lambdas_array() @ fp.paths
        assert np.all(np.diff(market, 2) < 1e-9)

    def test_strong_coupling_solves_every_best_response(self):
        fp = pg.nash_fixed_point(self.STRONG, 1000)
        assert np.all(pg.stationarity_residual(fp) <= 1e-10)
        cf = pg.sampled_equilibrium(pg.solve(self.STRONG), 1000)
        assert np.max(np.abs(fp.paths - cf.paths)) < 2e-3

    def test_each_best_response_reproduces_the_solution(self):
        fp = pg.nash_fixed_point(self.STRONG, 1000)
        for i in range(fp.spec.n):
            response = pg.best_response(fp, i)
            assert np.max(np.abs(response - fp.paths[i])) <= 1e-8

    def test_fine_grid_best_responses_stay_consistent(self):
        # D2's O(N^2) condition number magnifies any error in the Nash rows: a
        # banded solve reads ~6e-10 here (~2e-8 with 1 +- c rounded), the
        # explicit form ~4e-11
        spec = pg.GameSpec(n=5, lambdas=(0.02, 0.08, 0.2, 0.3, 0.4), kappa=1.0)
        fp = pg.nash_fixed_point(spec, 10_000)
        for i in range(spec.n):
            response = pg.best_response(fp, i)
            assert np.max(np.abs(response - fp.paths[i])) <= 5e-9

    def test_residual_flags_a_profile_off_the_nash_point(self):
        # the sampled closed form carries the O(h^2) discretization error
        cf = pg.sampled_equilibrium(pg.solve(self.STRONG), 1000)
        assert np.max(pg.stationarity_residual(cf)) > 1e-10

    def test_zero_kappa_gives_straight_lines(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0)
        fp = pg.nash_fixed_point(spec, 500)
        grid = np.linspace(0.0, 1.0, 501)
        np.testing.assert_allclose(fp.paths, np.tile(grid, (3, 1)), atol=1e-12)

    def test_total_discrete_cost_matches_aggregate(self):
        spec = pg.GameSpec(n=3, lambdas=(0.25, 0.35, 0.4), kappa=5.0)
        fp = pg.nash_fixed_point(spec, 10_000)
        total = sum(pg.discrete_cost(fp))
        assert total == pytest.approx(pg.aggregate_cost(3, 5.0), abs=1e-3)


def lapack_tridiagonal(sub, diag, sup, rhs):
    """scipy's banded LU solve of sub x[j-1] + diag x[j] + sup x[j+1] = rhs[j]."""
    from scipy.linalg import solve_banded

    return solve_banded((1, 1), np.repeat([[sup], [diag], [sub]], len(rhs), axis=1), rhs)


def thomas_tridiagonal(sub, diag, sup, rhs):
    """The same rows by elimination without pivoting, in rhs's dtype.  Every
    system here is diagonally dominant (|diag| = |sub| + |sup|), so the
    elimination is stable."""
    sweep = np.empty(len(rhs), rhs.dtype)
    x = np.array(rhs)
    sweep[0], x[0] = sup / diag, rhs[0] / diag
    for j in range(1, len(rhs)):
        pivot = diag - sub * sweep[j - 1]
        sweep[j], x[j] = sup / pivot, (rhs[j] - sub * x[j - 1]) / pivot
    for j in range(len(rhs) - 2, -1, -1):
        x[j] -= sweep[j] * x[j + 1]
    return x


def banded_nash_point(spec, n_steps, tridiagonal, dtype=np.float64):
    """The discrete Nash point as two tridiagonal solves in ``dtype``: the
    summed rows (n + 1) D2 m + q D1 m = 0 for the market path, then every
    trader's rows lambda_i (D2 - c D1) a_i = -(D2 + c D1) m, with the rounded
    c of ``nash_fixed_point``.  q = (n - 1) c is rounded so that
    (n + 1) +- q are exact in ``dtype``, which keeps a double-precision solve
    accurate at N = 2000 (these are the rows of the banded solve the explicit
    form replaced); in long double it is exact.  Returns the (n, N + 1) paths."""
    n = spec.n
    c = dtype(min((1.0 + 0.5 * spec.kappa / n_steps) - 1.0, 1.0 - 2.0**-52))
    q = ((n + 1) + (n - 1) * c) - (n + 1)
    lambdas = spec.lambdas_array().astype(dtype)
    rhs = np.zeros(n_steps - 1, dtype)
    rhs[-1] = -((n + 1) + q) * lambdas.sum()  # m[N] moves to the right-hand side
    m = np.zeros(n_steps + 1, dtype)
    m[1:-1] = tridiagonal((n + 1) - q, dtype(-2 * (n + 1)), (n + 1) + q, rhs)
    m[-1] = lambdas.sum()
    pressure = (m[:-2] - 2 * m[1:-1] + m[2:]) + c * (m[2:] - m[:-2])
    rhs = np.multiply.outer(pressure, -1 / lambdas)
    rhs[-1] -= 1 - c  # a_i[N] = 1 moves to the right-hand side
    paths = np.zeros((n, n_steps + 1), dtype)
    paths[:, 1:-1] = tridiagonal(1 + c, dtype(-2), 1 - c, rhs).T
    paths[:, -1] = 1
    return paths


def reference_cases():
    """The 27 default verify draws on their grid, plus kappa from 1e-9 to 700
    on N = 2000 and on the coarsest grid the oracle accepts (c just below 1
    for kappa >= 2)."""
    cases = [(spec, 2000) for spec in default_verify_draws()[0]]
    rng = np.random.default_rng(7)
    for kappa in (1e-9, 1e-3, 1.0, 25.0, 700.0):
        for n in (2, 5):
            spec = pg.GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=kappa)
            cases += [(spec, 2000), (spec, max(2, math.floor(kappa / 2) + 1))]
    return cases


class TestExplicitNashPoint:
    def test_matches_lapack_and_a_long_double_solve_of_the_same_rows(self):
        eps = np.finfo(float).eps
        for spec, n_steps in reference_cases():
            explicit = pg.nash_fixed_point(spec, n_steps)
            lapack = pg.DiscreteGame(spec, banded_nash_point(spec, n_steps, lapack_tridiagonal))
            exact = banded_nash_point(spec, n_steps, thomas_tridiagonal, np.longdouble)
            err = float(np.max(np.abs(explicit.paths - exact)))
            lapack_err = float(np.max(np.abs(lapack.paths - exact)))
            assert err <= min(lapack_err, 1e-13), (spec, n_steps)
            # LAPACK's own error reaches 2.2e-11 on these cases
            assert np.max(np.abs(explicit.paths - lapack.paths)) <= 5e-11
            # never worse than LAPACK's residual by more than one rounding
            residual = np.max(pg.stationarity_residual(explicit))
            assert residual <= np.max(pg.stationarity_residual(lapack)) + eps, (spec, n_steps)

    def test_thousands_of_traders_solve_their_rows_to_rounding(self):
        # LAPACK's two banded solves leave a residual of 1.3e-10 here
        spec = pg.GameSpec(2000, draw_lambdas(np.random.default_rng(0), 2000), 25.0)
        assert np.max(pg.stationarity_residual(pg.nash_fixed_point(spec, 2000))) <= 1e-11

    def test_result_is_kept_not_copied(self):
        # copying the (n, N + 1) result into the game doubled the peak: 61 MiB here
        spec = pg.GameSpec(2000, draw_lambdas(np.random.default_rng(0), 2000), 25.0)
        tracemalloc.start()
        try:
            game = pg.nash_fixed_point(spec, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 30.7 MiB for a 30.5 MiB result
        assert peak < 1.5 * game.paths.nbytes
        assert not game.paths.flags.writeable

    def test_sampled_paths_fill_their_result_in_bounded_blocks(self):
        # one _curve call over every row held its two full (n, N + 1)
        # products beside the result: a 61 MiB peak for a 30.5 MiB result
        spec = pg.GameSpec(2000, draw_lambdas(np.random.default_rng(0), 2000), 25.0)
        sol = pg.solve(spec)
        b, d = sol.b[:, None], sol.d[:, None]
        expected = _curve(b, d, spec.kappa, sol.alpha, np.linspace(0.0, 1.0, 2001), 0)
        expected[:, 0], expected[:, -1] = 0.0, 1.0
        tracemalloc.start()
        try:
            paths = oracle._sampled_paths(b, d, spec.kappa, sol.alpha, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(paths, expected)
        # measured: 32.7 MiB for a 30.5 MiB result
        assert peak <= 1.25 * paths.nbytes

    @pytest.mark.parametrize("n_steps", [2, 10, 1000])
    def test_kappa_at_twice_the_grid_is_a_grid_mismatch(self, n_steps):
        # c = kappa / (2 N) = 1 makes the rows' root sigma = (1 + c) / (1 - c) infinite
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=2.0 * n_steps)
        with pytest.raises(pg.GridMismatch, match=f"at least {n_steps + 1}$"):
            pg.nash_fixed_point(spec, n_steps)
        assert np.max(pg.stationarity_residual(pg.nash_fixed_point(spec, n_steps + 1))) <= 1e-12

    def test_kappa_just_below_twice_the_grid_solves(self):
        # kappa / (2 N) = 1 - 2^-53 rounds c up to 1; the oracle keeps c below it
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=2.0 * math.nextafter(1023.0, 0.0))
        assert (1.0 + 0.5 * spec.kappa / 1023) - 1.0 == 1.0
        assert np.max(pg.stationarity_residual(pg.nash_fixed_point(spec, 1023))) <= 1e-12


@st.composite
def nash_grids(draw):
    """A grid of 2..4000 intervals and a game of 1..50 traders with
    c = kappa / (2 N) < 1, kappa down to the subnormals."""
    n_steps = draw(st.integers(2, 4000))
    kappas = st.one_of(
        st.floats(0.0, 2.0 * n_steps, exclude_max=True), st.floats(0.0, 1e-12)
    )
    return draw(game_specs(min_n=1, max_n=50, kappas=kappas)), n_steps


@settings(max_examples=200, deadline=None)
@given(case=nash_grids())
def test_nash_point_is_finite_pinned_and_stationary(case):
    game = pg.nash_fixed_point(*case)
    assert np.all(np.isfinite(game.paths))
    assert np.all(game.paths[:, 0] == 0.0) and np.all(game.paths[:, -1] == 1.0)
    assert np.max(pg.stationarity_residual(game)) <= 1e-12


def test_run_verification_rejects_a_grid_too_coarse_for_kappa(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid is checked before any check runs")

    for name in ("nash_fixed_point", "_nash_factors", "_nash_profile"):
        monkeypatch.setattr(verification, name, unreachable)
    with pytest.raises(pg.GridMismatch, match="kappa=25: .* at least 13$"):
        run_verification(n_values=(2,), kappa_values=(1.0, 25.0), draws=1, n_steps=12)


@pytest.mark.parametrize(
    "setting,error,message",
    [
        ({"draws": 2.5}, pg.NonIntegerCount, "draws = 2.5 must be an integer"),
        ({"draws": True}, pg.NonIntegerCount, "draws = True must be an integer"),
        ({"draws": 0}, ValueError, "need draws >= 1, got 0"),
        ({"n_values": (2.0,)}, pg.NonIntegerCount, r"n_values\[0\] = 2.0 must be an integer"),
        ({"n_values": (3, 1)}, ValueError, r"need n_values\[1\] >= 2, got 1"),
        ({"n_values": ()}, ValueError, "need a non-empty n_values"),
        ({"seed": 1.5}, pg.NonIntegerCount, "seed = 1.5 must be an integer"),
        ({"seed": True}, pg.NonIntegerCount, "seed = True must be an integer"),
        ({"seed": -1}, ValueError, "need seed >= 0, got -1"),
    ],
    ids=["draws=2.5", "draws=True", "draws=0", "n=2.0", "n=1", "n-empty",
         "seed=1.5", "seed=True", "seed=-1"],
)
def test_run_verification_checks_its_sizes_before_the_oracle_runs(
    monkeypatch, setting, error, message
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the settings are checked before the oracle runs")

    for name in (
        "nash_fixed_point", "_nash_factors", "_nash_profile", "standard_bumps", "_bump_terms",
        "solve", "_coefficients",
    ):
        monkeypatch.setattr(verification, name, unreachable)
    settings = {"n_values": (2,), "kappa_values": (1.0,), "draws": 1, "n_steps": 40, **setting}
    with pytest.raises(error, match=message) as raised:
        run_verification(**settings)
    assert type(raised.value) is error


@pytest.mark.parametrize("n_steps", [10.5, 10.0, np.float64(10.0), True, "10"])
@pytest.mark.parametrize(
    "entry", ["nash_fixed_point", "sampled_equilibrium", "standard_bumps", "run_verification"]
)
def test_a_non_integer_step_count_is_rejected_at_every_entry_point(entry, n_steps):
    spec = pg.GameSpec(n=2, lambdas=(0.4, 0.6), kappa=1.0)
    calls = {
        "nash_fixed_point": lambda steps: pg.nash_fixed_point(spec, steps),
        "sampled_equilibrium": lambda steps: pg.sampled_equilibrium(pg.solve(spec), steps),
        "standard_bumps": lambda steps: pg.standard_bumps(steps),
        "run_verification": lambda steps: run_verification((2,), (1.0,), 1, steps),
    }
    with pytest.raises(pg.NonIntegerCount, match="n_steps = .* must be an integer"):
        calls[entry](n_steps)
    calls[entry](np.int64(10))  # numpy integers size a grid


SOLUTION = pg.solve(pg.GameSpec(n=2, lambdas=(0.4, 0.6), kappa=1.0))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: pg.standard_bumps(0), ValueError, "need n_steps >= 1, got 0"),
        (lambda: pg.standard_bumps(-2), ValueError, "need n_steps >= 1, got -2"),
        (lambda: pg.standard_bumps(5, seed=-1), ValueError, "need seed >= 0, got -1"),
        (lambda: pg.standard_bumps(5, seed=1.5), pg.NonIntegerCount, "seed = 1.5 must be"),
        (lambda: pg.standard_bumps(5, seed=True), pg.NonIntegerCount, "seed = True must be"),
        (lambda: pg.sampled_equilibrium(SOLUTION, 0), ValueError, "need n_steps >= 1, got 0"),
        (lambda: pg.sampled_equilibrium(SOLUTION, -3), ValueError, "need n_steps >= 1, got -3"),
    ],
    ids=["bumps-n0", "bumps-n-2", "bumps-seed-1", "bumps-seed-float", "bumps-seed-bool",
         "sampled-n0", "sampled-n-3"],
)
def test_counts_that_make_no_grid_or_no_bump_set_are_rejected(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error  # not a GridMismatch about path shapes
    # the smallest valid counts still work
    assert pg.standard_bumps(1).shape == (10, 2)
    assert pg.sampled_equilibrium(SOLUTION, 1).n_steps == 1


def test_grid_doubling_convergence_order():
    solution = pg.solve(pg.GameSpec(n=2, lambdas=(0.3, 0.7), kappa=5.0))
    gaps = []
    for n_steps in (250, 500, 1000):
        fp = pg.nash_fixed_point(solution.spec, n_steps)
        cf = pg.sampled_equilibrium(solution, n_steps)
        gaps.append(float(np.max(np.abs(fp.paths - cf.paths))))
    ratios = [gaps[k] / gaps[k + 1] for k in range(2)]
    # midpoint averaging makes the stationarity system second order: the gap
    # quarters per doubling
    assert all(3.2 < r < 4.8 for r in ratios)


def test_market_path_grid_doubling():
    spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0)
    market = pg.solve(spec).market
    gaps = []
    for n_steps in (500, 1000, 2000):
        fp = pg.nash_fixed_point(spec, n_steps)
        grid = np.linspace(0.0, 1.0, n_steps + 1)
        gaps.append(float(np.max(np.abs(spec.lambdas_array() @ fp.paths - market(grid)))))
    ratios = [gaps[k] / gaps[k + 1] for k in range(2)]
    # the summed stationarity rows are a second-order scheme for m'' + alpha m' = 0
    assert all(3.2 < r < 4.8 for r in ratios)


class TestDeviation:
    def test_zero_bump_changes_nothing(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(pg.solve(spec), 200)
        changes = deviation_test(base, np.zeros((1, 201)), eps=0.01)
        assert changes.shape == (2, 1)
        assert np.all(changes == 0.0)

    def test_smooth_bump_costs_order_eps_squared(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(pg.solve(spec), 400)
        grid = np.linspace(0.0, 1.0, 401)
        bump = np.sin(np.pi * grid)
        bump[0] = bump[-1] = 0.0
        small = deviation_test(base, bump[None], eps=0.01)[0, 0]
        large = deviation_test(base, bump[None], eps=0.02)[0, 0]
        assert small > 0.0
        assert large / small == pytest.approx(4.0, rel=0.05)

    def test_sign_flip_also_costs(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0)
        base = pg.sampled_equilibrium(pg.solve(spec), 300)
        bumps = pg.standard_bumps(300, seed=2)
        assert np.all(deviation_test(base, bumps, eps=0.01) >= -1e-9)
        assert np.all(deviation_test(base, -bumps, eps=0.01) >= -1e-9)

    def test_rejects_nonvanishing_bump(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(pg.solve(spec), 100)
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(pg.BadBump):
            deviation_test(base, grid[None], eps=0.01)

    def test_rejects_bumps_off_the_oracle_grid(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(pg.solve(spec), 100)
        with pytest.raises(pg.GridMismatch):
            deviation_test(base, pg.standard_bumps(50), eps=0.01)
        with pytest.raises(pg.GridMismatch):
            deviation_test(base, pg.standard_bumps(100)[0], eps=0.01)

    def test_hundred_random_bumps_never_profit(self):
        n_steps = 500
        rng = np.random.default_rng(17)
        configs = [
            pg.GameSpec(n=2, lambdas=(0.3, 0.7), kappa=1.0),
            pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0),
            pg.GameSpec(n=5, lambdas=(0.1, 0.15, 0.2, 0.25, 0.3), kappa=25.0),
        ]
        for spec in configs:
            base = pg.sampled_equilibrium(pg.solve(spec), n_steps)
            bumps = np.empty((100, n_steps + 1))
            for k in range(100):  # the bump and its trader index interleave in the stream
                values = rng.standard_normal(n_steps + 1)
                values[0] = values[-1] = 0.0
                bumps[k] = values / np.max(np.abs(values))
                rng.integers(spec.n)
            # every trader against every bump, not only the drawn trader
            assert np.all(deviation_test(base, bumps, eps=0.01) >= -1e-9)


def _single_trader_cost(game, i):
    """Trader i's discrete cost computed alone, as the oracle did one trader
    at a time: the reference the all-trader kernel must reproduce bit for bit."""
    lambdas = game.spec.lambdas_array()
    h = 1.0 / game.n_steps
    m = lambdas @ game.paths
    pressure = np.diff(m) / h + game.spec.kappa * 0.5 * (m[:-1] + m[1:])
    return float(np.sum(pressure * lambdas[i] * np.diff(game.paths[i])))


class TestAllTraderKernelsMatchSingleTraderRoute:
    CASES = [
        pg.GameSpec(n=1, lambdas=(1.0,), kappa=3.0),
        pg.GameSpec(n=2, lambdas=(0.3, 0.7), kappa=1.0),
        pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0),
        pg.GameSpec(n=5, lambdas=(0.02, 0.08, 0.2, 0.3, 0.4), kappa=25.0),
        pg.GameSpec(n=8, lambdas=(0.05, 0.1, 0.15, 0.1, 0.2, 0.1, 0.2, 0.1), kappa=5.0),
    ]

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: f"n{s.n}-k{s.kappa:g}")
    def test_discrete_cost(self, spec):
        rng = np.random.default_rng(spec.n)
        rough = np.cumsum(rng.uniform(size=(spec.n, 300)), axis=1)
        rough = np.hstack([np.zeros((spec.n, 1)), rough / rough[:, -1:]])
        for game in (
            pg.nash_fixed_point(spec, 400),
            pg.sampled_equilibrium(pg.solve(spec), 257),
            pg.DiscreteGame(spec, rough),
        ):
            costs = pg.discrete_cost(game)
            assert costs.shape == (spec.n,)
            for i in range(spec.n):
                assert costs[i] == _single_trader_cost(game, i)

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: f"n{s.n}-k{s.kappa:g}")
    def test_deviation_test(self, spec):
        n_steps, eps = 300, 0.01
        base = pg.sampled_equilibrium(pg.solve(spec), n_steps)
        bumps = pg.standard_bumps(n_steps, seed=3)
        changes = deviation_test(base, bumps, eps=eps)
        assert changes.shape == (spec.n, len(bumps))
        for i in range(spec.n):
            base_cost = _single_trader_cost(base, i)
            for k, bump in enumerate(bumps):
                perturbed = base.paths.copy()
                perturbed[i] = perturbed[i] + eps * bump
                game = pg.DiscreteGame(spec, perturbed)
                assert changes[i, k] == _single_trader_cost(game, i) - base_cost


# Largest |deviation_expansion - deviation_test| measured over the cases below
# is 9.9e-14 (the 27 default verify draws, N = 2000; 3.3e-15 over the CASES at
# N = 300).  Both routes round: against a long-double evaluation of the same
# expansion the direct route is off by up to 8.2e-14 on those draws, the
# expansion by up to 4.9e-14.
EXPANSION_ABS = 2e-13


def default_verify_draws():
    """The 27 specs and the bumps of run_verification's default suite."""
    rng = np.random.default_rng(0)
    specs = [
        pg.GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=kappa)
        for n in (2, 3, 5)
        for kappa in (1.0, 5.0, 25.0)
        for _ in range(3)
    ]
    return specs, pg.standard_bumps(2000, seed=0)


class TestDeviationExpansion:
    @pytest.mark.parametrize(
        "spec", TestAllTraderKernelsMatchSingleTraderRoute.CASES,
        ids=lambda s: f"n{s.n}-k{s.kappa:g}",
    )
    def test_matches_the_direct_route(self, spec):
        base = pg.sampled_equilibrium(pg.solve(spec), 300)
        bumps = pg.standard_bumps(300, seed=3)
        for signed in (bumps, -bumps):
            direct = deviation_test(base, signed, eps=0.01)
            expansion = pg.deviation_expansion(base, signed, eps=0.01)
            assert expansion.shape == (spec.n, len(bumps))
            assert np.max(np.abs(expansion - direct)) <= EXPANSION_ABS

    def test_matches_the_direct_route_on_the_default_verify_draws(self):
        specs, bumps = default_verify_draws()
        assert len(specs) == 27
        for spec in specs:
            base = pg.sampled_equilibrium(pg.solve(spec), 2000)
            for signed in (bumps, -bumps):
                direct = deviation_test(base, signed, eps=0.01)
                expansion = pg.deviation_expansion(base, signed, eps=0.01)
                assert np.max(np.abs(expansion - direct)) <= EXPANSION_ABS

    def test_zero_bump_changes_nothing(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(pg.solve(spec), 200)
        changes = pg.deviation_expansion(base, np.zeros((1, 201)), eps=0.01)
        assert changes.shape == (2, 1)
        assert np.all(changes == 0.0)

    def test_rejects_what_the_direct_route_rejects(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(pg.solve(spec), 100)
        cases = [
            (pg.BadBump, np.linspace(0.0, 1.0, 101)[None]),
            (pg.GridMismatch, pg.standard_bumps(50)),
            (pg.GridMismatch, pg.standard_bumps(100)[0]),
        ]
        for error, bumps in cases:
            for route in (deviation_test, pg.deviation_expansion):
                with pytest.raises(error):
                    route(base, bumps, eps=0.01)

    def test_memory_is_linear_in_the_trader_count(self):
        # the direct route would hold a (K, n, N + 1) stack: 160 MB here
        n, n_steps = 1000, 2000
        spec = pg.GameSpec(
            n=n, lambdas=draw_lambdas(np.random.default_rng(0), n), kappa=25.0
        )
        bumps = pg.standard_bumps(n_steps)
        assert len(bumps) == 10
        solution = pg.solve(spec)
        base = pg.sampled_equilibrium(solution, n_steps)
        bound = 3 * n * (n_steps + 1) * 8  # three profiles' worth of floats
        tracemalloc.start()
        try:
            given = pg.deviation_expansion(base, bumps, eps=0.01)
            peak_given = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            game = pg.sampled_equilibrium(solution, n_steps)
            sampled = pg.deviation_expansion(game, bumps, eps=0.01)
            peak_sampled = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 16.5 MB with the base given, 32.5 MB sampling it, bound 48 MB
        assert peak_given < bound and peak_sampled < bound
        assert np.array_equal(given, sampled)


def test_standard_bumps_match_one_draw_per_bump():
    def one_at_a_time(n_steps, seed):
        grid = np.linspace(0.0, 1.0, n_steps + 1)
        rows = []
        for k in range(1, 6):
            values = np.sin(k * np.pi * grid)
            values[0] = values[-1] = 0.0
            rows.append(values)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            values = rng.standard_normal(n_steps + 1)
            values[0] = values[-1] = 0.0
            rows.append(values / max(1.0, float(np.max(np.abs(values)))))
        return np.array(rows)

    for n_steps, seed in ((2000, 20240901), (7, 0), (500, 9), (1, 3)):
        bumps = pg.standard_bumps(n_steps, seed)
        assert bumps.shape == (10, n_steps + 1)
        assert np.array_equal(bumps, one_at_a_time(n_steps, seed))


def test_lambda_stack_matches_one_draw_at_a_time():
    """One Dirichlet call of D rows gives the bits of D one-row draws, and
    leaves the generator where they leave it."""
    for seed in range(10):
        for n in (2, 3, 5, 17, 300):
            for draws in (1, 3, 4):
                one_by_one, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
                rows = [0.9 * one_by_one.dirichlet(np.ones(n)) + 0.1 / n for _ in range(draws)]
                assert np.array_equal(draw_lambda_stack(stacked, n, draws), np.array(rows))
                assert stacked.bit_generator.state == one_by_one.bit_generator.state
        one = draw_lambda_stack(np.random.default_rng(seed), 5, 1)[0]
        assert draw_lambdas(np.random.default_rng(seed), 5) == tuple(one)


class TestDiscreteGameInvariants:
    def test_endpoints_must_be_pinned(self):
        spec = pg.GameSpec(n=1, lambdas=(1.0,), kappa=1.0)
        for bad in (np.linspace(0.1, 1.0, 11), np.linspace(0.0, 0.9, 11)):
            with pytest.raises(pg.GridMismatch):
                pg.DiscreteGame(spec, bad[None, :])

    def test_shape_checked_against_spec(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 11)
        for bad in (grid[None, :], np.tile(grid, (3, 1)), grid, np.tile(grid, (2, 1, 1)),
                    np.zeros((2, 0)), np.zeros((2, 1))):
            with pytest.raises(pg.GridMismatch):
                pg.DiscreteGame(spec, bad)

    def test_n_steps_is_read_off_the_paths(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        paths = np.tile(np.linspace(0.0, 1.0, 11), (2, 1))
        game = pg.DiscreteGame(spec, paths)
        assert game.n_steps == 10
        assert pg.nash_fixed_point(spec, 40).n_steps == 40
        assert pg.sampled_equilibrium(pg.solve(spec), 7).n_steps == 7
        # the game keeps its own read-only copy
        paths[0, 5] = 9.0
        assert game.paths[0, 5] == 0.5 and not game.paths.flags.writeable
        with pytest.raises(AttributeError):
            game.n_steps = 20


class TestDeferredScipy:
    # the benchmark's tracer patches this name on the module, and wraps
    # every plain public function of it as a span
    @pytest.mark.parametrize("name", ["solveh_banded"])
    def test_module_level_names_are_not_plain_functions(self, name):
        assert name in vars(oracle)
        assert not inspect.isfunction(vars(oracle)[name])

    def test_solveh_banded_matches_scipy_bit_for_bit(self):
        from scipy.linalg import solveh_banded

        rng = np.random.default_rng(4)
        ab = np.vstack([rng.uniform(2.5, 4.0, 9), rng.uniform(-1.0, 1.0, 9)])
        rhs = rng.uniform(-1.0, 1.0, 9)
        assert np.array_equal(
            oracle.solveh_banded(ab, rhs, lower=True), solveh_banded(ab, rhs, lower=True)
        )


def test_oracle_holds_no_closed_form_solver():
    # the oracle shares only the cost functional and the boundary conditions
    # with the closed forms: it samples a solution, it never solves one
    assert "solve" not in vars(oracle)


@pytest.mark.parametrize(
    "setting",
    [
        {"draws": 0}, {"draws": -1}, {"n_values": ()}, {"kappa_values": ()},
        {"n_values": (1,)}, {"kappa_values": (0.0,)}, {"kappa_values": (1e-301,)},
    ],
    ids=["0", "-1", "no-n", "no-kappa", "n-1", "kappa-0", "kappa-below-floor"],
)
def test_run_verification_rejects_an_empty_suite(setting):
    kwargs = {"n_values": (2,), "kappa_values": (1.0,), "draws": 1, "n_steps": 40, **setting}
    with pytest.raises(ValueError, match=next(iter(setting))):
        run_verification(**kwargs)


@pytest.mark.parametrize("inject_bug", [False, True], ids=["correct", "injected-bug"])
def test_verify_deviation_rows_read_the_public_route(inject_bug):
    # the run builds the bump terms once per kappa; every row must still read
    # exactly what deviation_expansion reads on that draw, so a pressure
    # paired with another kappa's draws shows
    n_values, kappa_values, draws, n_steps, seed = (2, 5), (1.0, 25.0, 300.0), 2, 1000, 7
    report = run_verification(
        n_values, kappa_values, draws, n_steps, seed=seed, inject_bug=inject_bug
    )
    rows = {c.name: c.value for c in report.checks if c.name.startswith("deviation")}
    rng = np.random.default_rng(seed)
    bumps = pg.standard_bumps(n_steps, seed=seed)
    expected = {}
    for n in n_values:
        for kappa in kappa_values:
            for rep in range(draws):
                solution = pg.solve(pg.GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=kappa))
                if inject_bug:
                    solution = dataclasses.replace(solution, d=solution.d * 1.01)
                base = pg.sampled_equilibrium(solution, n_steps)
                name = f"deviation non-negativity [n={n} kappa={kappa:g} draw={rep}]"
                expected[name] = float(np.min(pg.deviation_expansion(base, bumps, eps=0.01)))
    assert rows == expected


def test_verification_at_a_thousand_traders():
    # deviation_test would build a (10, 1000, 2001) stack per trader here
    kwargs = {"n_values": (1000,), "kappa_values": (25.0,), "draws": 1, "n_steps": 2000}
    report = run_verification(**kwargs)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert not run_verification(**kwargs, inject_bug=True).passed


def per_draw_checks(n_values, kappa_values, draws, n_steps, seed, inject_bug):
    """``run_verification``'s checks built one draw at a time from the public
    routes, as the suite built them before it priced a cell's draws as one
    stack: the reference the stacked route is held to, bit for bit."""
    rng = np.random.default_rng(seed)
    bumps = pg.standard_bumps(n_steps, seed=seed)
    gap_threshold = 5.0 / n_steps
    checks = []
    for n in n_values:
        for kappa in kappa_values:
            for rep in range(draws):
                spec = pg.GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=kappa)
                label = f"n={n} kappa={kappa:g} draw={rep}"
                fp = pg.nash_fixed_point(spec, n_steps)
                sol = pg.solve(spec)
                if inject_bug:
                    sol = dataclasses.replace(sol, d=sol.d * 1.01)
                cf = pg.sampled_equilibrium(sol, n_steps)
                gap = float(np.max(np.abs(fp.paths - cf.paths)))
                t = np.linspace(0.0, 1.0, 101)
                res = max(float(np.max(np.abs(r))) for r in pg.governing_residuals(sol, t))
                end_err = float(np.max(np.abs(sol.positions(1.0) - 1.0)))
                costs = group_cost(n, 1, spec.lambdas_array(), kappa)
                rel = float(np.max(np.abs(costs - quadrature_cost(sol)) / np.abs(costs)))
                worst = float(np.min(pg.deviation_expansion(cf, bumps, eps=0.01)))
                agg = abs(float(sum(pg.discrete_cost(fp))) - pg.aggregate_cost(n, kappa))
                rows = [
                    ("fixed-point gap", gap, gap_threshold),
                    ("governing residuals", res, 1e-9),
                    ("endpoint a_i(1)=1", end_err, 1e-10),
                    ("cost formula vs quadrature", rel, 1e-6),
                    ("deviation non-negativity", worst, -1e-9),
                    ("aggregate vs oracle sum", agg, 1e-3),
                ]
                for name, value, threshold in rows:
                    at_least = name.startswith("deviation")
                    passed = value >= threshold if at_least else value <= threshold
                    checks.append(Check(f"{name} [{label}]", value, threshold, passed))
    checks.append(verification.convergence_order_check())
    return tuple(checks)


@pytest.mark.parametrize("inject_bug", [False, True], ids=["correct", "injected-bug"])
@pytest.mark.parametrize("draws", [1, 4])
def test_stacked_draws_match_the_per_draw_routes_bit_for_bit(draws, inject_bug):
    # kappa = 300 and 700 integrate over 5 and 11 quadrature panels; at
    # n = 40 a stack holds 3 draws of N = 1000, so draws = 4 takes two stacks
    settings = ((2, 7, 40), (1e-300, 1.0, 25.0, 300.0, 700.0), draws, 1000, 11, inject_bug)
    report = run_verification(*settings)
    assert report.checks == per_draw_checks(*settings)
    assert all(type(c.value) is float for c in report.checks)


@pytest.mark.parametrize("n", [1, 2, 5, 2000])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 25.0, 700.0])
def test_nash_point_keeps_its_bits_through_the_factors(n, kappa):
    # the one-expression Nash point that _nash_factors and _nash_profile split
    spec = pg.GameSpec(n, draw_lambdas(np.random.default_rng(n), n), kappa)
    n_steps = 2000
    c = min((1.0 + 0.5 * kappa / n_steps) - 1.0, 1.0 - 2.0**-52)
    q = (n - 1) * c
    market = oracle._unit_path(math.log1p(-2.0 * q / ((n + 1) + q)), n_steps)
    own = oracle._unit_path(math.log1p(2.0 * c / (1.0 - c)), n_steps)
    lambdas = spec.lambdas_array()
    expected = np.multiply.outer(-lambdas.sum() / (n * lambdas), own - market)
    expected += own
    assert np.array_equal(pg.nash_fixed_point(spec, n_steps).paths, expected)


def plain_pressure(x, kappa, h):
    return np.diff(x) / h + kappa * 0.5 * (x[..., :-1] + x[..., 1:])


def lean_kernel_cases():
    """(lambdas, b, d, kappa, alpha) for one game, shape (n,), and for a
    stack of D games, shape (D, n): at kappa = 0 (straight lines), a small and
    a large kappa, and a 40-trader stack whose sampled paths take
    ``_sampled_paths``' blocked route at N = 2000."""
    rng = np.random.default_rng(31)
    for n, draws, kappa in ((3, None, 0.0), (2, None, 1.0), (5, 3, 25.0), (4, 2, 0.0),
                            (40, 3, 5.0)):
        lam = draw_lambda_stack(rng, n, draws or 1)
        lam = lam if draws else lam[0]
        if kappa == 0.0:
            yield lam, np.zeros_like(lam), np.zeros_like(lam), kappa, 0.0
        else:
            alpha = kappa * (n - 1) / (n + 1)
            yield lam, *_coefficients(lam, kappa, alpha), kappa, alpha


@pytest.mark.parametrize("n_steps", [2000, 13])
def test_lean_kernels_keep_the_bits_of_their_plain_expressions(n_steps):
    # every kernel verify calls works in place or through out=; each must
    # still give the bits of the expression it was written as
    h = 1.0 / n_steps
    t = np.linspace(0.0, 1.0, n_steps + 1)
    bumps = pg.standard_bumps(n_steps, seed=5)
    plain_bumps = np.concatenate((np.sin(np.multiply.outer(np.arange(1, 6) * np.pi, t)),
                                  np.random.default_rng(5).standard_normal((5, n_steps + 1))))
    plain_bumps[:, [0, -1]] = 0.0
    plain_bumps[5:] /= np.maximum(1.0, np.max(np.abs(plain_bumps[5:]), axis=1, keepdims=True))
    assert np.array_equal(bumps, plain_bumps)
    steps = np.diff(bumps)
    blocked = False
    for lam, b, d, kappa, alpha in lean_kernel_cases():
        b_col, d_col = b[..., None], d[..., None]
        if alpha == 0.0:
            plain_cf = np.broadcast_to(t, b_col.shape[:-1] + t.shape).copy()
        else:
            plain_cf = b_col * np.expm1(kappa * t) - d_col * np.expm1(-alpha * t)
        plain_cf[..., 0], plain_cf[..., -1] = 0.0, 1.0
        cf = oracle._sampled_paths(b_col, d_col, kappa, alpha, n_steps)
        assert np.array_equal(cf, plain_cf)
        blocked |= b.size * (n_steps + 1) > oracle._STACK_CELLS

        own, market = oracle._nash_factors(lam.shape[-1], kappa, n_steps)
        coef = -lam.sum(axis=-1, keepdims=True) / (lam.shape[-1] * lam)
        fp = oracle._nash_profile(lam, own, market)
        assert np.array_equal(fp, coef[..., None] * (own - market) + own)

        for x in (fp, fp[..., 0, :], bumps):
            assert np.array_equal(oracle._pressure(x, kappa, h), plain_pressure(x, kappa, h))
        m = lam[..., None, :] @ fp
        plain_costs = np.sum(plain_pressure(m, kappa, h) * lam[..., None] * np.diff(fp), axis=-1)
        assert np.array_equal(oracle._discrete_costs(fp, lam, kappa), plain_costs)

        pressure, curvature = oracle._bump_terms(bumps, steps, kappa, h)
        plain_pressure_b = plain_pressure(bumps, kappa, h)
        assert np.array_equal(pressure, plain_pressure_b)
        assert np.array_equal(curvature, np.sum(plain_pressure_b * steps, axis=-1))
        market_p = plain_pressure(lam[..., None, :] @ cf, kappa, h)
        market_term = np.swapaxes(steps @ np.swapaxes(market_p, -1, -2), -1, -2)
        own_term = np.swapaxes(pressure @ np.swapaxes(np.diff(cf), -1, -2), -1, -2)
        w = lam[..., None]
        plain_expansion = 0.01 * w * (market_term + w * own_term) + 0.01**2 * w**2 * curvature
        assert np.array_equal(
            oracle._expansion(cf, lam, kappa, steps, pressure, curvature, 0.01), plain_expansion
        )
    assert blocked == (n_steps == 2000)


def test_run_verification_memory_does_not_grow_with_draws():
    # a (1000, 2001) profile is 16 MiB, more than a stack holds: each draw
    # runs alone, so a second draw must not raise the peak
    peaks = []
    for draws in (1, 2):
        tracemalloc.start()
        try:
            run_verification((1000,), (25.0,), draws, 2000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_run_verification_solves_only_its_convergence_row(monkeypatch):
    # the 27 drawn games of the bench verify config are priced from their
    # (D, n) stacks of fractions: no draw builds a GameSpec, calls solve or
    # holds an EquilibriumSolution; the convergence row's one game does
    built = {"solve": 0, "GameSpec": 0, "EquilibriumSolution": 0}

    def counted(name, route):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return route(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verification, "solve", counted("solve", verification.solve))
    for cls in (pg.GameSpec, pg.EquilibriumSolution):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    report = run_verification((2, 3, 5), (1.0, 5.0, 25.0), draws=3, n_steps=2000)
    assert len(report.checks) == 27 * 6 + 1 and report.passed
    assert built == {"solve": 1, "GameSpec": 1, "EquilibriumSolution": 1}
