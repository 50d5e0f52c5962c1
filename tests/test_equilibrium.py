import math

import numpy as np
import pytest
from hypothesis import given, settings

import posgame as pg
from conftest import game_specs


class TestComputeAlpha:
    def test_two_traders(self):
        assert pg.compute_alpha(2, 1.0).value == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_single_trader_is_zero(self):
        assert pg.compute_alpha(1, 5.0).value == 0.0

    def test_monotone_to_kappa_from_below(self):
        kappa = 5.0
        values = [pg.compute_alpha(n, kappa).value for n in (2, 5, 20, 100, 10_000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < kappa for v in values)
        assert values[-1] == pytest.approx(kappa, rel=1e-3)


class TestSolveEquilibrium:
    def test_symmetric_traders_follow_the_market(self):
        spec = pg.GameSpec.symmetric(4, 3.0)
        sol = pg.solve_equilibrium(spec)
        t = np.linspace(0.0, 1.0, 200)
        for s in sol.strategies:
            assert s.b == 0.0
            np.testing.assert_allclose(s.position(t), sol.market(t), atol=1e-12)

    def test_midpoint_value_two_traders(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))
        expected = math.expm1(-1.0 / 6.0) / math.expm1(-1.0 / 3.0)
        assert sol.strategies[0].position(0.5) == pytest.approx(expected, abs=1e-14)

    def test_smallest_target_trades_most_eagerly(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=1.0))
        for t in (0.25, 0.5, 0.75):
            a = [s.position(t) for s in sol.strategies]
            assert a[0] > a[1] > a[2]

    def test_degenerate_alpha_raises(self):
        with pytest.raises(pg.DegenerateAlpha):
            pg.solve_equilibrium(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0))
        with pytest.raises(pg.DegenerateAlpha):
            pg.solve_equilibrium(pg.GameSpec(n=1, lambdas=(1.0,), kappa=2.0))


class TestLimitBranch:
    def test_zero_kappa_gives_straight_lines(self):
        sol = pg.solve_equilibrium_limit(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0))
        t = np.linspace(0.0, 1.0, 50)
        for s in sol.strategies:
            np.testing.assert_array_equal(s.position(t), t)
        np.testing.assert_array_equal(sol.market(t), t)

    def test_single_trader_is_risk_neutral(self):
        sol = pg.solve_equilibrium_limit(pg.GameSpec(n=1, lambdas=(1.0,), kappa=2.0))
        t = np.linspace(0.0, 1.0, 50)
        np.testing.assert_array_equal(sol.strategies[0].position(t), t)
        np.testing.assert_array_equal(sol.market(t), t)

    def test_rejects_generic_specs(self):
        with pytest.raises(ValueError):
            pg.solve_equilibrium_limit(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))

    def test_tiny_kappa_is_continuous_with_the_limit(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1e-9))
        t = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(sol.strategies[0].position(t) - t)) < 1e-6


def test_solve_dispatches_between_branches():
    assert pg.solve(pg.GameSpec(n=1, lambdas=(1.0,), kappa=3.0)).alpha.value == 0.0
    assert pg.solve(pg.GameSpec.symmetric(3, 0.0)).alpha.value == 0.0
    assert pg.solve(pg.GameSpec.symmetric(3, 2.0)).alpha.value > 0.0


class TestSampleStrategy:
    def test_three_point_symmetric_sample(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))
        path = pg.sample_strategy(sol.strategies[0], 3)
        mid = math.expm1(-1.0 / 6.0) / math.expm1(-1.0 / 3.0)
        np.testing.assert_allclose(path.values, [0.0, mid, 1.0], atol=1e-12)

    def test_endpoints_only(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=2, lambdas=(0.4, 0.6), kappa=2.0))
        path = pg.sample_strategy(sol.strategies[1], 2)
        assert path.values[0] == 0.0
        assert path.values[1] == pytest.approx(1.0, abs=1e-10)

    def test_grid_too_small(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))
        with pytest.raises(pg.GridTooSmall):
            pg.sample_strategy(sol.strategies[0], 1)

    def test_small_trader_overbuys_at_high_impact(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=20.0))
        path = pg.sample_strategy(sol.strategies[0], 2001)
        assert np.max(path.values) > 1.0


class TestResiduals:
    def test_vanish_on_equilibrium(self):
        # trader i's own stationarity equation is r1[i] - r2 / lambda_i
        sol = pg.solve_equilibrium(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0))
        for t in np.linspace(0.0, 1.0, 11):
            r1, r2, _ = pg.governing_residuals(sol, t)
            for i, lam in enumerate(sol.spec.lambdas):
                assert abs(r1[i] - r2 / lam) < 1e-9

    def test_market_residual_vanishes(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=4, lambdas=(0.1, 0.2, 0.3, 0.4), kappa=7.0))
        for t in np.linspace(0.0, 1.0, 11):
            assert abs(pg.governing_residuals(sol, t)[2]) < 1e-9

    def test_perturbed_coefficient_is_detected(self):
        from dataclasses import replace

        sol = pg.solve_equilibrium(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))
        bad = replace(sol.strategies[0], d=sol.strategies[0].d * 1.01)
        perturbed = replace(sol, strategies=(bad, sol.strategies[1]))
        r1, r2, _ = pg.governing_residuals(perturbed, 0.0)
        assert abs(r1[0] - r2 / 0.5) > 1e-4

    def test_all_three_equations(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=5, lambdas=(0.1, 0.15, 0.2, 0.25, 0.3), kappa=12.0))
        for tk in np.linspace(0.0, 1.0, 101):
            r1, r2, r3 = pg.governing_residuals(sol, tk)
            assert np.all(np.abs(r1) < 1e-9)
            assert abs(r2) < 1e-9
            assert abs(r3) < 1e-9

    def test_array_time_matches_scalar_calls(self):
        sol = pg.solve_equilibrium(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
        t = np.linspace(0.0, 1.0, 11)
        r1, r2, r3 = pg.governing_residuals(sol, t)
        assert r1.shape == (3,) + t.shape
        assert r2.shape == r3.shape == t.shape
        for k, tk in enumerate(t):
            s1, s2, s3 = pg.governing_residuals(sol, tk)
            assert s1.shape == (3,)
            assert isinstance(s2, float) and isinstance(s3, float)
            np.testing.assert_allclose(r1[:, k], s1, rtol=0, atol=1e-12)
            np.testing.assert_allclose([r2[k], r3[k]], [s2, s3], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 4.0])
    def test_rows_equal_the_single_trader_formula(self, kappa):
        from dataclasses import replace

        sol = pg.solve(pg.GameSpec(n=4, lambdas=(0.1, 0.2, 0.3, 0.4), kappa=kappa))
        bumped = replace(sol, strategies=tuple(replace(s, d=s.d * 1.01) for s in sol.strategies))
        t = np.linspace(0.0, 1.0, 101)
        for solution in (sol, bumped):
            r1, r2, r3 = pg.governing_residuals(solution, t)
            for i in range(solution.spec.n):
                e1, e2, e3 = _vector_residuals(solution, i, t)
                assert np.array_equal(r1[i], e1)
                assert np.array_equal(r2, e2) and np.array_equal(r3, e3)


def test_market_is_strictly_concave_for_positive_alpha():
    sol = pg.solve_equilibrium(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
    t = np.linspace(0.0, 1.0, 101)
    assert np.all(sol.market_acceleration(t) < 0.0)
    # eager shape: above the straight line on the interior
    assert np.all(sol.market(t[1:-1]) > t[1:-1])


@settings(max_examples=25, deadline=None)
@given(spec=game_specs())
def test_residuals_vanish_for_random_specs(spec):
    sol = pg.solve_equilibrium(spec)
    t = np.linspace(0.0, 1.0, 101)
    for i in range(spec.n):
        r1, r2, r3 = (np.max(np.abs(r)) for r in _vector_residuals(sol, i, t))
        assert r1 < 1e-9 and r2 < 1e-9 and r3 < 1e-9


def _vector_residuals(sol, i, t):
    s = sol.strategies[i]
    n = sol.spec.n
    kappa = s.kappa
    mdd = sol.market_acceleration(t)
    md = sol.market_velocity(t)
    r1 = s.acceleration(t) - kappa * s.velocity(t) + (mdd + kappa * md) / s.lam
    r2 = mdd + kappa * md - (2.0 * kappa / (n + 1)) * md
    r3 = mdd + sol.alpha.value * md
    return r1, r2, r3


@settings(max_examples=20, deadline=None)
@given(spec=game_specs(max_kappa=20.0))
def test_solutions_are_continuous_in_kappa(spec):
    nudged = pg.GameSpec(n=spec.n, lambdas=spec.lambdas, kappa=spec.kappa + 1e-8)
    t = np.linspace(0.0, 1.0, 1001)
    a = pg.solve_equilibrium(spec)
    b = pg.solve_equilibrium(nudged)
    for sa, sb in zip(a.strategies, b.strategies):
        assert np.max(np.abs(sa.position(t) - sb.position(t))) < 1e-6


class TestCurveMatrix:
    """positions/velocities/accelerations give exactly the per-strategy
    curves, row by row."""

    T = np.linspace(0.0, 1.0, 37)

    def assert_rows_match(self, sol):
        positions, velocities = sol.positions(self.T), sol.velocities(self.T)
        assert positions.shape == velocities.shape == (sol.spec.n, self.T.size)
        for i, s in enumerate(sol.strategies):
            assert np.array_equal(positions[i], s.position(self.T))
            assert np.array_equal(velocities[i], s.velocity(self.T))
            assert np.array_equal(sol.accelerations(self.T)[i], s.acceleration(self.T))

    def test_generic_branch(self):
        self.assert_rows_match(pg.solve(pg.GameSpec(n=4, lambdas=(0.1, 0.2, 0.3, 0.4), kappa=7.0)))

    @pytest.mark.parametrize(
        "spec",
        [pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0), pg.GameSpec(n=1, lambdas=(1.0,), kappa=3.0)],
    )
    def test_straight_line_branch(self, spec):
        sol = pg.solve(spec)
        self.assert_rows_match(sol)
        assert np.array_equal(sol.positions(self.T), np.tile(self.T, (spec.n, 1)))
        assert np.array_equal(sol.velocities(self.T), np.ones((spec.n, self.T.size)))

    def test_modified_coefficients(self):
        from dataclasses import replace

        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
        bumped = replace(sol, strategies=tuple(replace(s, d=s.d * 1.01) for s in sol.strategies))
        self.assert_rows_match(bumped)
        assert not np.array_equal(bumped.positions(self.T), sol.positions(self.T))

    def test_scalar_time_gives_one_value_per_trader(self):
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
        values = sol.positions(0.5)
        assert values.shape == (3,)
        assert values.tolist() == [s.position(0.5) for s in sol.strategies]
