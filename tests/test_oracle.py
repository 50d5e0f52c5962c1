import inspect
import math

import numpy as np
import pytest

import posgame as pg
import posgame.oracle as oracle
from posgame.oracle import game_from_paths
from posgame.verification import run_verification


def curved_start(spec, n_steps):
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    paths = np.tile(grid**2, (spec.n, 1))
    return game_from_paths(spec, paths)


class TestDiscreteCost:
    def test_single_trader_straight_line_is_exact(self):
        # midpoint averaging integrates the linear aggregate exactly
        spec = pg.GameSpec(n=1, lambdas=(1.0,), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 101)
        game = game_from_paths(spec, grid[None, :])
        assert pg.discrete_cost(game).shape == (1,)
        assert pg.discrete_cost(game)[0] == pytest.approx(1.5, abs=1e-12)

    def test_zero_kappa_total_bounded_below_by_one(self):
        rng = np.random.default_rng(5)
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0)
        grid = np.linspace(0.0, 1.0, 201)
        for _ in range(5):
            paths = np.vstack([np.sort(rng.uniform(size=199)) for _ in range(3)])
            paths = np.hstack([np.zeros((3, 1)), paths, np.ones((3, 1))])
            game = game_from_paths(spec, paths)
            total = sum(pg.discrete_cost(game))
            assert total >= 1.0 - 1e-12
        straight = game_from_paths(spec, np.tile(grid, (3, 1)))
        total = sum(pg.discrete_cost(straight))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_closed_form_cost(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        costs = pg.discrete_cost(pg.sampled_equilibrium(spec, 10_000))
        for i in range(2):
            assert costs[i] == pytest.approx(pg.trader_cost(spec, i), abs=1e-4)


class TestBestResponse:
    def test_single_trader_returns_straight_line(self):
        for kappa in (0.0, 1.0, 25.0):
            spec = pg.GameSpec(n=1, lambdas=(1.0,), kappa=kappa)
            response = pg.best_response(curved_start(spec, 500), 0)
            assert np.max(np.abs(response.values - response.grid)) < 1e-10

    def test_closed_form_is_a_fixed_point(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        game = pg.sampled_equilibrium(spec, 2000)
        response = pg.best_response(game, 0)
        assert np.max(np.abs(response.values - game.paths[0])) < 1e-3

    def test_front_runs_an_eager_opponent(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=5.0)
        grid = np.linspace(0.0, 1.0, 801)
        eager = 1.0 - (1.0 - grid) ** 3
        paths = np.vstack([grid, eager])
        response = pg.best_response(game_from_paths(spec, paths), 0)
        quarter = np.searchsorted(grid, 0.25)
        assert response.values[quarter] > 0.25


class TestNashFixedPoint:
    STRONG = pg.GameSpec(n=5, lambdas=(0.02, 0.08, 0.2, 0.3, 0.4), kappa=25.0)

    def test_two_trader_gap(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        fp = pg.nash_fixed_point(spec, 2000)
        cf = pg.sampled_equilibrium(spec, 2000)
        assert np.max(np.abs(fp.paths - cf.paths)) < 1e-3

    def test_three_trader_gap_and_concavity(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0)
        fp = pg.nash_fixed_point(spec, 2000)
        cf = pg.sampled_equilibrium(spec, 2000)
        assert np.max(np.abs(fp.paths - cf.paths)) < 2e-3
        market = spec.lambdas_array() @ fp.paths
        assert np.all(np.diff(market, 2) < 1e-9)

    def test_strong_coupling_solves_every_best_response(self):
        fp = pg.nash_fixed_point(self.STRONG, 1000)
        assert np.all(pg.stationarity_residual(fp) <= 1e-10)
        cf = pg.sampled_equilibrium(self.STRONG, 1000)
        assert np.max(np.abs(fp.paths - cf.paths)) < 2e-3

    def test_each_best_response_reproduces_the_solution(self):
        fp = pg.nash_fixed_point(self.STRONG, 1000)
        for i in range(fp.spec.n):
            response = pg.best_response(fp, i)
            assert np.max(np.abs(response.values - fp.paths[i])) <= 1e-8

    def test_fine_grid_best_responses_stay_consistent(self):
        # 1 +- c must be exact: a rounded coefficient leaves a row-sum error that
        # D2's O(N^2) condition number turns into ~2e-8 here; exact ones give ~6e-10
        spec = pg.GameSpec(n=5, lambdas=(0.02, 0.08, 0.2, 0.3, 0.4), kappa=1.0)
        fp = pg.nash_fixed_point(spec, 10_000)
        for i in range(spec.n):
            response = pg.best_response(fp, i)
            assert np.max(np.abs(response.values - fp.paths[i])) <= 5e-9

    def test_residual_flags_a_profile_off_the_nash_point(self):
        # the sampled closed form carries the O(h^2) discretization error
        cf = pg.sampled_equilibrium(self.STRONG, 1000)
        assert np.max(pg.stationarity_residual(cf)) > 1e-10

    def test_zero_kappa_gives_straight_lines(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0)
        fp = pg.nash_fixed_point(spec, 500)
        np.testing.assert_allclose(fp.paths, np.tile(fp.grid, (3, 1)), atol=1e-12)

    def test_total_discrete_cost_matches_aggregate(self):
        spec = pg.GameSpec(n=3, lambdas=(0.25, 0.35, 0.4), kappa=5.0)
        fp = pg.nash_fixed_point(spec, 10_000)
        total = sum(pg.discrete_cost(fp))
        assert total == pytest.approx(pg.aggregate_cost(3, 5.0), abs=1e-3)


def test_grid_doubling_convergence_order():
    spec = pg.GameSpec(n=2, lambdas=(0.3, 0.7), kappa=5.0)
    gaps = []
    for n_steps in (250, 500, 1000):
        fp = pg.nash_fixed_point(spec, n_steps)
        cf = pg.sampled_equilibrium(spec, n_steps)
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
        gaps.append(float(np.max(np.abs(spec.lambdas_array() @ fp.paths - market(fp.grid)))))
    ratios = [gaps[k] / gaps[k + 1] for k in range(2)]
    # the summed stationarity rows are a second-order scheme for m'' + alpha m' = 0
    assert all(3.2 < r < 4.8 for r in ratios)


class TestDeviation:
    def test_zero_bump_changes_nothing(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        changes = pg.deviation_test(spec, np.zeros((1, 201)), eps=0.01)
        assert changes.shape == (2, 1)
        assert np.all(changes == 0.0)

    def test_smooth_bump_costs_order_eps_squared(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 401)
        bump = np.sin(np.pi * grid)
        bump[0] = bump[-1] = 0.0
        small = pg.deviation_test(spec, bump[None], eps=0.01)[0, 0]
        large = pg.deviation_test(spec, bump[None], eps=0.02)[0, 0]
        assert small > 0.0
        assert large / small == pytest.approx(4.0, rel=0.05)

    def test_sign_flip_also_costs(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0)
        bumps = pg.standard_bumps(300, seed=2)
        assert np.all(pg.deviation_test(spec, bumps, eps=0.01) >= -1e-9)
        assert np.all(pg.deviation_test(spec, -bumps, eps=0.01) >= -1e-9)

    def test_rejects_nonvanishing_bump(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(pg.BadBump):
            pg.deviation_test(spec, grid[None], eps=0.01)

    def test_rejects_bumps_off_the_oracle_grid(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(spec, 100)
        with pytest.raises(pg.GridMismatch):
            pg.deviation_test(spec, pg.standard_bumps(50), eps=0.01, base=base)
        with pytest.raises(pg.GridMismatch):
            pg.deviation_test(spec, pg.standard_bumps(100)[0], eps=0.01, base=base)

    def test_hundred_random_bumps_never_profit(self):
        n_steps = 500
        rng = np.random.default_rng(17)
        configs = [
            pg.GameSpec(n=2, lambdas=(0.3, 0.7), kappa=1.0),
            pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0),
            pg.GameSpec(n=5, lambdas=(0.1, 0.15, 0.2, 0.25, 0.3), kappa=25.0),
        ]
        for spec in configs:
            base = pg.sampled_equilibrium(spec, n_steps)
            bumps = np.empty((100, n_steps + 1))
            for k in range(100):  # the bump and its trader index interleave in the stream
                values = rng.standard_normal(n_steps + 1)
                values[0] = values[-1] = 0.0
                bumps[k] = values / np.max(np.abs(values))
                rng.integers(spec.n)
            # every trader against every bump, not only the drawn trader
            assert np.all(pg.deviation_test(spec, bumps, eps=0.01, base=base) >= -1e-9)


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
            pg.sampled_equilibrium(spec, 257),
            game_from_paths(spec, rough),
        ):
            costs = pg.discrete_cost(game)
            assert costs.shape == (spec.n,)
            for i in range(spec.n):
                assert costs[i] == _single_trader_cost(game, i)

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: f"n{s.n}-k{s.kappa:g}")
    def test_deviation_test(self, spec):
        n_steps, eps = 300, 0.01
        base = pg.sampled_equilibrium(spec, n_steps)
        bumps = pg.standard_bumps(n_steps, seed=3)
        changes = pg.deviation_test(spec, bumps, eps=eps, base=base)
        assert changes.shape == (spec.n, len(bumps))
        for i in range(spec.n):
            base_cost = _single_trader_cost(base, i)
            for k, bump in enumerate(bumps):
                perturbed = base.paths.copy()
                perturbed[i] = perturbed[i] + eps * bump
                game = pg.DiscreteGame(spec=spec, n_steps=n_steps, grid=base.grid, paths=perturbed)
                assert changes[i, k] == _single_trader_cost(game, i) - base_cost
        assert np.array_equal(pg.deviation_test(spec, bumps, eps=eps), changes)


def test_standard_bumps_match_one_draw_per_bump():
    def one_at_a_time(n_steps, modes, n_random, seed):
        grid = np.linspace(0.0, 1.0, n_steps + 1)
        rows = []
        for k in range(1, modes + 1):
            values = np.sin(k * np.pi * grid)
            values[0] = values[-1] = 0.0
            rows.append(values)
        rng = np.random.default_rng(seed)
        for _ in range(n_random):
            values = rng.standard_normal(n_steps + 1)
            values[0] = values[-1] = 0.0
            rows.append(values / max(1.0, float(np.max(np.abs(values)))))
        return np.array(rows)

    for n_steps, modes, n_random, seed in ((2000, 5, 5, 20240901), (7, 3, 2, 0), (500, 0, 4, 9)):
        bumps = pg.standard_bumps(n_steps, modes, n_random, seed)
        assert bumps.shape == (modes + n_random, n_steps + 1)
        assert np.array_equal(bumps, one_at_a_time(n_steps, modes, n_random, seed))


class TestDiscreteGameInvariants:
    def test_endpoints_must_be_pinned(self):
        spec = pg.GameSpec(n=1, lambdas=(1.0,), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 11)
        bad = np.linspace(0.1, 1.0, 11)[None, :]
        with pytest.raises(pg.GridMismatch):
            pg.DiscreteGame(spec=spec, n_steps=10, grid=grid, paths=bad)

    def test_shape_checked_against_spec(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 11)
        one_path = np.linspace(0.0, 1.0, 11)[None, :]
        with pytest.raises(pg.GridMismatch):
            pg.DiscreteGame(spec=spec, n_steps=10, grid=grid, paths=one_path)

    def test_sampled_path_accessor(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        game = pg.sampled_equilibrium(spec, 50)
        path = game.sampled_path(1)
        assert path.values[0] == 0.0 and path.values[-1] == 1.0


class TestDeferredScipy:
    # the benchmark's tracer patches these names on the module, and wraps
    # every plain public function of it as a span
    @pytest.mark.parametrize("name", ["solve_banded", "solveh_banded"])
    def test_module_level_names_are_not_plain_functions(self, name):
        assert name in vars(oracle)
        assert not inspect.isfunction(vars(oracle)[name])

    def test_solve_banded_matches_scipy_bit_for_bit(self):
        from scipy.linalg import solve_banded

        rng = np.random.default_rng(3)
        ab = rng.uniform(-1.0, 1.0, (3, 9))
        ab[1] += 4.0
        rhs = rng.uniform(-1.0, 1.0, (9, 2))
        assert np.array_equal(oracle.solve_banded((1, 1), ab, rhs), solve_banded((1, 1), ab, rhs))

    def test_solveh_banded_matches_scipy_bit_for_bit(self):
        from scipy.linalg import solveh_banded

        rng = np.random.default_rng(4)
        ab = np.vstack([rng.uniform(2.5, 4.0, 9), rng.uniform(-1.0, 1.0, 9)])
        rhs = rng.uniform(-1.0, 1.0, 9)
        assert np.array_equal(
            oracle.solveh_banded(ab, rhs, lower=True), solveh_banded(ab, rhs, lower=True)
        )


@pytest.mark.parametrize("draws", [0, -1])
def test_run_verification_rejects_an_empty_suite(draws):
    with pytest.raises(ValueError, match="draws"):
        run_verification(n_values=(2,), kappa_values=(1.0,), draws=draws, n_steps=40)
