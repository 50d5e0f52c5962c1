import math

import numpy as np
import pytest
from hypothesis import given, settings

import posgame as pg
from conftest import game_specs
from posgame.core import _alpha


def trader_curve(sol, i, t, order):
    """Trader i's curve (order 0, 1 or 2) from its own scalar coefficients:
    the per-trader reference the batched curves must equal."""
    b, d, kappa, alpha = float(sol.b[i]), float(sol.d[i]), sol.spec.kappa, sol.alpha
    t = np.asarray(t, dtype=float)
    if alpha == 0.0:
        return (t.copy(), np.ones_like(t), np.zeros_like(t))[order]
    if order == 0:
        return b * np.expm1(kappa * t) - d * np.expm1(-alpha * t)
    if order == 1:
        return kappa * b * np.exp(kappa * t) + alpha * d * np.exp(-alpha * t)
    return kappa**2 * b * np.exp(kappa * t) - alpha**2 * d * np.exp(-alpha * t)


class TestComputeAlpha:
    def test_two_traders(self):
        assert _alpha(2, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_single_trader_is_zero(self):
        assert _alpha(1, 5.0) == 0.0

    def test_monotone_to_kappa_from_below(self):
        kappa = 5.0
        values = _alpha(np.array([2, 5, 20, 100, 10_000]), kappa).tolist()
        assert values == [_alpha(n, kappa) for n in (2, 5, 20, 100, 10_000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < kappa for v in values)
        assert values[-1] == pytest.approx(kappa, rel=1e-3)


class TestSolveEquilibrium:
    def test_symmetric_traders_follow_the_market(self):
        spec = pg.GameSpec.symmetric(4, 3.0)
        sol = pg.solve(spec)
        t = np.linspace(0.0, 1.0, 200)
        assert np.all(sol.b == 0.0)
        for row in sol.positions(t):
            np.testing.assert_allclose(row, sol.market(t), atol=1e-12)

    def test_midpoint_value_two_traders(self):
        sol = pg.solve(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))
        expected = math.expm1(-1.0 / 6.0) / math.expm1(-1.0 / 3.0)
        assert sol.positions(0.5)[0] == pytest.approx(expected, abs=1e-14)

    def test_smallest_target_trades_most_eagerly(self):
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=1.0))
        for t in (0.25, 0.5, 0.75):
            a = sol.positions(t)
            assert a[0] > a[1] > a[2]


class TestLimitBranch:
    def test_zero_kappa_gives_straight_lines(self):
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0))
        t = np.linspace(0.0, 1.0, 50)
        for row in sol.positions(t):
            np.testing.assert_array_equal(row, t)
        np.testing.assert_array_equal(sol.market(t), t)

    def test_single_trader_is_risk_neutral(self):
        sol = pg.solve(pg.GameSpec(n=1, lambdas=(1.0,), kappa=2.0))
        t = np.linspace(0.0, 1.0, 50)
        np.testing.assert_array_equal(sol.positions(t)[0], t)
        np.testing.assert_array_equal(sol.market(t), t)

    @pytest.mark.parametrize("kappa", [1e-310, 1e-320])
    def test_subnormal_kappa_gives_straight_lines(self, kappa):
        # below the smallest normal double kappa counts as 0
        sol = pg.solve(pg.GameSpec(n=2, lambdas=(0.2, 0.8), kappa=kappa))
        t = np.linspace(0.0, 1.0, 50)
        assert sol.alpha == 0.0
        assert np.all(sol.b == 0.0) and np.all(sol.d == 0.0)
        for row in sol.positions(t):
            np.testing.assert_array_equal(row, t)

    def test_tiny_kappa_is_continuous_with_the_limit(self):
        sol = pg.solve(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1e-9))
        t = np.linspace(0.0, 1.0, 1001)
        assert sol.alpha > 0.0
        assert np.max(np.abs(sol.positions(t)[0] - t)) < 1e-6


def test_solve_dispatches_between_branches():
    assert pg.solve(pg.GameSpec(n=1, lambdas=(1.0,), kappa=3.0)).alpha == 0.0
    assert pg.solve(pg.GameSpec.symmetric(3, 0.0)).alpha == 0.0
    assert pg.solve(pg.GameSpec.symmetric(3, 2.0)).alpha > 0.0


class TestSampleStrategy:
    """Strategies sampled on uniform grids of the unit interval."""

    def test_three_point_symmetric_sample(self):
        sol = pg.solve(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))
        mid = math.expm1(-1.0 / 6.0) / math.expm1(-1.0 / 3.0)
        path = sol.positions(np.linspace(0.0, 1.0, 3))[0]
        np.testing.assert_allclose(path, [0.0, mid, 1.0], atol=1e-12)

    def test_endpoints_only(self):
        sol = pg.solve(pg.GameSpec(n=2, lambdas=(0.4, 0.6), kappa=2.0))
        path = sol.positions(np.linspace(0.0, 1.0, 2))[1]
        assert path[0] == 0.0
        assert path[1] == pytest.approx(1.0, abs=1e-10)

    def test_small_trader_overbuys_at_high_impact(self):
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=20.0))
        assert np.max(sol.positions(np.linspace(0.0, 1.0, 2001))[0]) > 1.0


class TestResiduals:
    def test_vanish_on_equilibrium(self):
        # trader i's own stationarity equation is r1[i] - r2 / lambda_i
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=5.0))
        for t in np.linspace(0.0, 1.0, 11):
            r1, r2, _ = pg.governing_residuals(sol, t)
            for i, lam in enumerate(sol.spec.lambdas):
                assert abs(r1[i] - r2 / lam) < 1e-9

    def test_market_residual_vanishes(self):
        sol = pg.solve(pg.GameSpec(n=4, lambdas=(0.1, 0.2, 0.3, 0.4), kappa=7.0))
        for t in np.linspace(0.0, 1.0, 11):
            assert abs(pg.governing_residuals(sol, t)[2]) < 1e-9

    def test_perturbed_coefficient_is_detected(self):
        from dataclasses import replace

        sol = pg.solve(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))
        perturbed = replace(sol, d=sol.d * [1.01, 1.0])
        r1, r2, _ = pg.governing_residuals(perturbed, 0.0)
        assert abs(r1[0] - r2 / 0.5) > 1e-4

    def test_all_three_equations(self):
        sol = pg.solve(pg.GameSpec(n=5, lambdas=(0.1, 0.15, 0.2, 0.25, 0.3), kappa=12.0))
        for tk in np.linspace(0.0, 1.0, 101):
            r1, r2, r3 = pg.governing_residuals(sol, tk)
            assert np.all(np.abs(r1) < 1e-9)
            assert abs(r2) < 1e-9
            assert abs(r3) < 1e-9

    def test_array_time_matches_scalar_calls(self):
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
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
        bumped = replace(sol, d=sol.d * 1.01)
        t = np.linspace(0.0, 1.0, 101)
        for solution in (sol, bumped):
            r1, r2, r3 = pg.governing_residuals(solution, t)
            for i in range(solution.spec.n):
                e1, e2, e3 = _vector_residuals(solution, i, t)
                assert np.array_equal(r1[i], e1)
                assert np.array_equal(r2, e2) and np.array_equal(r3, e3)


def test_market_is_strictly_concave_for_positive_alpha():
    sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
    t = np.linspace(0.0, 1.0, 101)
    assert np.all(sol.market_acceleration(t) < 0.0)
    # eager shape: above the straight line on the interior
    assert np.all(sol.market(t[1:-1]) > t[1:-1])


def test_market_curves_stay_finite_where_e_kappa_overflows():
    # e^kappa overflows from kappa = 710 on, and the traders' positions read
    # NaN there; the market curve has no e^{kappa t} term
    with np.errstate(over="ignore"):
        sol = pg.solve(pg.GameSpec(n=2, lambdas=(0.3, 0.7), kappa=720.0))
    t = np.linspace(0.0, 1.0, 101)
    for curve in (sol.market, sol.market_velocity, sol.market_acceleration):
        assert np.all(np.isfinite(curve(t)))


@settings(max_examples=25, deadline=None)
@given(spec=game_specs())
def test_residuals_vanish_for_random_specs(spec):
    sol = pg.solve(spec)
    t = np.linspace(0.0, 1.0, 101)
    for i in range(spec.n):
        r1, r2, r3 = (np.max(np.abs(r)) for r in _vector_residuals(sol, i, t))
        assert r1 < 1e-9 and r2 < 1e-9 and r3 < 1e-9


def _vector_residuals(sol, i, t):
    n, kappa, lam = sol.spec.n, sol.spec.kappa, sol.spec.lambdas[i]
    mdd = sol.market_acceleration(t)
    md = sol.market_velocity(t)
    r1 = trader_curve(sol, i, t, 2) - kappa * trader_curve(sol, i, t, 1) + (mdd + kappa * md) / lam
    r2 = mdd + kappa * md - (2.0 * kappa / (n + 1)) * md
    r3 = mdd + sol.alpha * md
    return r1, r2, r3


@settings(max_examples=20, deadline=None)
@given(spec=game_specs(max_kappa=20.0))
def test_solutions_are_continuous_in_kappa(spec):
    nudged = pg.GameSpec(n=spec.n, lambdas=spec.lambdas, kappa=spec.kappa + 1e-8)
    t = np.linspace(0.0, 1.0, 1001)
    a = pg.solve(spec)
    b = pg.solve(nudged)
    assert np.max(np.abs(a.positions(t) - b.positions(t))) < 1e-6


class TestCurveMatrix:
    """positions/velocities/accelerations give exactly the per-trader
    scalar curves, row by row."""

    T = np.linspace(0.0, 1.0, 37)

    def assert_rows_match(self, sol):
        positions, velocities = sol.positions(self.T), sol.velocities(self.T)
        assert positions.shape == velocities.shape == (sol.spec.n, self.T.size)
        for i in range(sol.spec.n):
            assert np.array_equal(positions[i], trader_curve(sol, i, self.T, 0))
            assert np.array_equal(velocities[i], trader_curve(sol, i, self.T, 1))
            assert np.array_equal(sol.accelerations(self.T)[i], trader_curve(sol, i, self.T, 2))

    def test_generic_branch(self):
        self.assert_rows_match(pg.solve(pg.GameSpec(n=4, lambdas=(0.1, 0.2, 0.3, 0.4), kappa=7.0)))

    @pytest.mark.parametrize(
        "spec",
        [
            pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=0.0),
            pg.GameSpec(n=1, lambdas=(1.0,), kappa=3.0),
            pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=5e-324),  # alpha underflows to 0
        ],
    )
    def test_straight_line_branch(self, spec):
        sol = pg.solve(spec)
        self.assert_rows_match(sol)
        assert np.array_equal(sol.positions(self.T), np.tile(self.T, (spec.n, 1)))
        assert np.array_equal(sol.velocities(self.T), np.ones((spec.n, self.T.size)))

    def test_modified_coefficients(self):
        from dataclasses import replace

        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
        bumped = replace(sol, d=sol.d * 1.01)
        self.assert_rows_match(bumped)
        assert not np.array_equal(bumped.positions(self.T), sol.positions(self.T))
        with pytest.raises(ValueError):  # the coefficient arrays are read-only
            bumped.d[0] = 0.0

    def test_scalar_time_gives_one_value_per_trader(self):
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
        values = sol.positions(0.5)
        assert values.shape == (3,)
        assert values.tolist() == [float(trader_curve(sol, i, 0.5, 0)) for i in range(3)]
