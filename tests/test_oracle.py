import inspect
import math
import tracemalloc

import numpy as np
import pytest

import posgame as pg
import posgame.oracle as oracle
from posgame.verification import draw_lambdas, run_verification


def deviation_test(spec, bumps, eps, base=None):
    """Cost changes when each trader alone deviates by eps * bump, shape (n, K),
    from re-pricing every perturbed profile: the direct reference that
    ``deviation_expansion`` is held to.

    ``bumps`` holds K endpoint-vanishing directions on the oracle grid, shape
    (K, N + 1).  All traders sit at the sampled closed-form equilibrium (or
    at ``base``); entry (i, k) is trader i's discrete cost with its path
    moved to a_i + eps * bumps[k] minus its cost at the base.  Each trader's
    K perturbed profiles are priced as one (K, n, N + 1) stack, so time and
    memory grow like n^2 K N.  Raises what ``deviation_expansion`` raises.
    """
    bumps = np.asarray(bumps, dtype=float)
    base = base if base is not None else pg.sampled_equilibrium(spec, bumps.shape[-1] - 1)
    if bumps.ndim != 2 or bumps.shape[1] != base.paths.shape[1]:
        raise pg.GridMismatch(f"bumps shape {bumps.shape} is not (K, {base.paths.shape[1]})")
    if np.any(bumps[:, [0, -1]] != 0.0):
        raise pg.BadBump("bump must vanish at both endpoints")
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
        costs = pg.discrete_cost(pg.sampled_equilibrium(spec, 10_000))
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
        game = pg.sampled_equilibrium(spec, 2000)
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
            assert np.max(np.abs(response - fp.paths[i])) <= 1e-8

    def test_fine_grid_best_responses_stay_consistent(self):
        # 1 +- c must be exact: a rounded coefficient leaves a row-sum error that
        # D2's O(N^2) condition number turns into ~2e-8 here; exact ones give ~6e-10
        spec = pg.GameSpec(n=5, lambdas=(0.02, 0.08, 0.2, 0.3, 0.4), kappa=1.0)
        fp = pg.nash_fixed_point(spec, 10_000)
        for i in range(spec.n):
            response = pg.best_response(fp, i)
            assert np.max(np.abs(response - fp.paths[i])) <= 5e-9

    def test_residual_flags_a_profile_off_the_nash_point(self):
        # the sampled closed form carries the O(h^2) discretization error
        cf = pg.sampled_equilibrium(self.STRONG, 1000)
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
        grid = np.linspace(0.0, 1.0, n_steps + 1)
        gaps.append(float(np.max(np.abs(spec.lambdas_array() @ fp.paths - market(grid)))))
    ratios = [gaps[k] / gaps[k + 1] for k in range(2)]
    # the summed stationarity rows are a second-order scheme for m'' + alpha m' = 0
    assert all(3.2 < r < 4.8 for r in ratios)


class TestDeviation:
    def test_zero_bump_changes_nothing(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        changes = deviation_test(spec, np.zeros((1, 201)), eps=0.01)
        assert changes.shape == (2, 1)
        assert np.all(changes == 0.0)

    def test_smooth_bump_costs_order_eps_squared(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 401)
        bump = np.sin(np.pi * grid)
        bump[0] = bump[-1] = 0.0
        small = deviation_test(spec, bump[None], eps=0.01)[0, 0]
        large = deviation_test(spec, bump[None], eps=0.02)[0, 0]
        assert small > 0.0
        assert large / small == pytest.approx(4.0, rel=0.05)

    def test_sign_flip_also_costs(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0)
        bumps = pg.standard_bumps(300, seed=2)
        assert np.all(deviation_test(spec, bumps, eps=0.01) >= -1e-9)
        assert np.all(deviation_test(spec, -bumps, eps=0.01) >= -1e-9)

    def test_rejects_nonvanishing_bump(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(pg.BadBump):
            deviation_test(spec, grid[None], eps=0.01)

    def test_rejects_bumps_off_the_oracle_grid(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(spec, 100)
        with pytest.raises(pg.GridMismatch):
            deviation_test(spec, pg.standard_bumps(50), eps=0.01, base=base)
        with pytest.raises(pg.GridMismatch):
            deviation_test(spec, pg.standard_bumps(100)[0], eps=0.01, base=base)

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
            assert np.all(deviation_test(spec, bumps, eps=0.01, base=base) >= -1e-9)


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
            pg.DiscreteGame(spec, rough),
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
        changes = deviation_test(spec, bumps, eps=eps, base=base)
        assert changes.shape == (spec.n, len(bumps))
        for i in range(spec.n):
            base_cost = _single_trader_cost(base, i)
            for k, bump in enumerate(bumps):
                perturbed = base.paths.copy()
                perturbed[i] = perturbed[i] + eps * bump
                game = pg.DiscreteGame(spec, perturbed)
                assert changes[i, k] == _single_trader_cost(game, i) - base_cost
        assert np.array_equal(deviation_test(spec, bumps, eps=eps), changes)


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
        bumps = pg.standard_bumps(300, seed=3)
        for signed in (bumps, -bumps):
            direct = deviation_test(spec, signed, eps=0.01)
            expansion = pg.deviation_expansion(spec, signed, eps=0.01)
            assert expansion.shape == (spec.n, len(bumps))
            assert np.max(np.abs(expansion - direct)) <= EXPANSION_ABS

    def test_matches_the_direct_route_on_the_default_verify_draws(self):
        specs, bumps = default_verify_draws()
        assert len(specs) == 27
        for spec in specs:
            base = pg.sampled_equilibrium(spec, 2000)
            for signed in (bumps, -bumps):
                direct = deviation_test(spec, signed, eps=0.01, base=base)
                expansion = pg.deviation_expansion(spec, signed, eps=0.01, base=base)
                assert np.max(np.abs(expansion - direct)) <= EXPANSION_ABS

    def test_zero_bump_changes_nothing(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        changes = pg.deviation_expansion(spec, np.zeros((1, 201)), eps=0.01)
        assert changes.shape == (2, 1)
        assert np.all(changes == 0.0)

    def test_rejects_what_the_direct_route_rejects(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        base = pg.sampled_equilibrium(spec, 100)
        cases = [
            (pg.BadBump, np.linspace(0.0, 1.0, 101)[None], None),
            (pg.GridMismatch, pg.standard_bumps(50), base),
            (pg.GridMismatch, pg.standard_bumps(100)[0], base),
            (pg.GridMismatch, pg.standard_bumps(100)[0], None),
        ]
        for error, bumps, at in cases:
            for route in (deviation_test, pg.deviation_expansion):
                with pytest.raises(error):
                    route(spec, bumps, eps=0.01, base=at)

    def test_memory_is_linear_in_the_trader_count(self):
        # the direct route would hold a (K, n, N + 1) stack: 160 MB here
        n, n_steps = 1000, 2000
        spec = pg.GameSpec(
            n=n, lambdas=draw_lambdas(np.random.default_rng(0), n), kappa=25.0
        )
        bumps = pg.standard_bumps(n_steps)
        assert len(bumps) == 10
        base = pg.sampled_equilibrium(spec, n_steps)
        bound = 3 * n * (n_steps + 1) * 8  # three profiles' worth of floats
        tracemalloc.start()
        try:
            given = pg.deviation_expansion(spec, bumps, eps=0.01, base=base)
            peak_given = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sampled = pg.deviation_expansion(spec, bumps, eps=0.01)
            peak_sampled = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 16.5 MB with the base given, 32.5 MB sampling it, bound 48 MB
        assert peak_given < bound and peak_sampled < bound
        assert np.array_equal(given, sampled)


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
        assert pg.sampled_equilibrium(spec, 7).n_steps == 7
        # the game keeps its own read-only copy
        paths[0, 5] = 9.0
        assert game.paths[0, 5] == 0.5 and not game.paths.flags.writeable
        with pytest.raises(AttributeError):
            game.n_steps = 20


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


@pytest.mark.parametrize(
    "setting",
    [{"draws": 0}, {"draws": -1}, {"n_values": ()}, {"kappa_values": ()}],
    ids=["0", "-1", "no-n", "no-kappa"],
)
def test_run_verification_rejects_an_empty_suite(setting):
    kwargs = {"n_values": (2,), "kappa_values": (1.0,), "draws": 1, "n_steps": 40, **setting}
    with pytest.raises(ValueError, match=next(iter(setting))):
        run_verification(**kwargs)


def test_verification_at_a_thousand_traders():
    # deviation_test would build a (10, 1000, 2001) stack per trader here
    kwargs = {"n_values": (1000,), "kappa_values": (25.0,), "draws": 1, "n_steps": 2000}
    report = run_verification(**kwargs)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert not run_verification(**kwargs, bug_scale=1.01).passed
