import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings

import posgame as pg
from conftest import draw_lambdas, game_specs, quadrature_of, residuals_of
from posgame.equilibrium import decay_rate, coefficients
from posgame.verification import draw_lambda_stack, quadrature_cost


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
        assert decay_rate(2, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_single_trader_is_zero(self):
        assert decay_rate(1, 5.0) == 0.0

    def test_monotone_to_kappa_from_below(self):
        kappa = 5.0
        values = decay_rate(np.array([2, 5, 20, 100, 10_000]), kappa).tolist()
        assert values == [decay_rate(n, kappa) for n in (2, 5, 20, 100, 10_000)]
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
            r1, r2, _ = residuals_of(sol, t)
            for i, lam in enumerate(sol.spec.lambdas):
                assert abs(r1[i] - r2 / lam) < 1e-9

    def test_market_residual_vanishes(self):
        sol = pg.solve(pg.GameSpec(n=4, lambdas=(0.1, 0.2, 0.3, 0.4), kappa=7.0))
        for t in np.linspace(0.0, 1.0, 11):
            assert abs(residuals_of(sol, t)[2]) < 1e-9

    def test_perturbed_coefficient_is_detected(self):
        from dataclasses import replace

        sol = pg.solve(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0))
        perturbed = replace(sol, d=sol.d * [1.01, 1.0])
        r1, r2, _ = residuals_of(perturbed, 0.0)
        assert abs(r1[0] - r2 / 0.5) > 1e-4

    def test_all_three_equations(self):
        sol = pg.solve(pg.GameSpec(n=5, lambdas=(0.1, 0.15, 0.2, 0.25, 0.3), kappa=12.0))
        for tk in np.linspace(0.0, 1.0, 101):
            r1, r2, r3 = residuals_of(sol, tk)
            assert np.all(np.abs(r1) < 1e-9)
            assert abs(r2) < 1e-9
            assert abs(r3) < 1e-9

    def test_array_time_matches_scalar_calls(self):
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
        t = np.linspace(0.0, 1.0, 11)
        r1, r2, r3 = residuals_of(sol, t)
        assert r1.shape == (3,) + t.shape
        assert r2.shape == r3.shape == t.shape
        for k, tk in enumerate(t):
            s1, s2, s3 = residuals_of(sol, tk)
            assert s1.shape == (3,)
            assert isinstance(s2, float) and isinstance(s3, float)
            np.testing.assert_allclose(r1[:, k], s1, rtol=0, atol=1e-12)
            np.testing.assert_allclose([r2[k], r3[k]], [s2, s3], rtol=0, atol=1e-12)

    def test_a_stack_gives_each_games_own_bits(self):
        # a (D, n) stack, the shape verify passes, reads like D calls of one game
        lam = draw_lambda_stack(np.random.default_rng(3), 4, 3)
        sols = [pg.solve(pg.GameSpec(4, tuple(row), 6.0)) for row in lam.tolist()]
        b, d = np.array([s.b for s in sols]), np.array([s.d for s in sols])
        t = np.linspace(0.0, 1.0, 11)
        r1, r2, r3 = pg.governing_residuals(lam, b, d, 6.0, t)
        assert r1.shape == (3, 4, 11) and r2.shape == r3.shape == t.shape
        quadrature = quadrature_cost(lam, b, d, 6.0)
        assert quadrature.shape == (3, 4)
        for k, sol in enumerate(sols):
            s1, s2, s3 = residuals_of(sol, t)
            assert np.array_equal(r1[k], s1)
            assert np.array_equal(r2, s2) and np.array_equal(r3, s3)
            assert np.array_equal(quadrature[k], quadrature_cost(lam[k], b[k], d[k], 6.0))

    @pytest.mark.parametrize("shapes", [((3,), (3,), (2,)), ((2, 3), (3,), (3,)),
                                        ((), (), ()), ((0,), (0,), (0,))],
                             ids=["ragged", "unstacked-b", "scalars", "no-traders"])
    def test_arrays_of_other_shapes_are_rejected(self, shapes):
        lam, b, d = (np.full(shape, 0.5) for shape in shapes)
        with pytest.raises(ValueError, match="must share one shape"):
            pg.governing_residuals(lam, b, d, 1.0, 0.5)
        with pytest.raises(ValueError, match="must share one shape"):
            quadrature_cost(lam, b, d, 1.0)

    @pytest.mark.parametrize("kappa,error", [(-1.0, pg.NegativeKappa),
                                             (math.inf, pg.NonFiniteKappa),
                                             (math.nan, pg.NonFiniteKappa)])
    def test_invalid_kappa_is_rejected(self, kappa, error):
        lam = np.array([0.4, 0.6])
        with pytest.raises(error):
            pg.governing_residuals(lam, lam, lam, kappa, 0.5)
        with pytest.raises(error):
            quadrature_cost(lam, lam, lam, kappa)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [800.0, 1e300])
    def test_kappa_beyond_ln_dbl_max_is_too_large_for_two_traders(self, kappa):
        # e^kappa overflows; at 1e300 the panel count would exceed any array
        lam = np.array([0.4, 0.6])
        message = re.escape(f"kappa = {kappa} is too large")
        with pytest.raises(pg.KappaTooLarge, match=message):
            pg.governing_residuals(lam, lam, lam, kappa, 0.5)
        with pytest.raises(pg.KappaTooLarge, match=message):
            quadrature_cost(lam, lam, lam, kappa)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [800.0, 1e300])
    def test_one_trader_is_priced_at_any_kappa(self, kappa):
        # the straight line's linear integrand: one panel, exact
        sol = pg.solve(pg.GameSpec(n=1, lambdas=(1.0,), kappa=kappa))
        r1, r2, r3 = residuals_of(sol, np.linspace(0.0, 1.0, 5))
        assert not r1.any() and not r2.any() and not r3.any()
        assert quadrature_of(sol) == pytest.approx([1.0 + kappa / 2], rel=1e-15)

    @pytest.mark.parametrize("kappa", [0.0, 4.0])
    def test_rows_equal_the_single_trader_formula(self, kappa):
        from dataclasses import replace

        sol = pg.solve(pg.GameSpec(n=4, lambdas=(0.1, 0.2, 0.3, 0.4), kappa=kappa))
        bumped = replace(sol, d=sol.d * 1.01)
        t = np.linspace(0.0, 1.0, 101)
        for solution in (sol, bumped):
            r1, r2, r3 = residuals_of(solution, t)
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
    # e^kappa overflows from kappa = 710 on, where solve raises KappaTooLarge;
    # the market curve has no e^{kappa t} term, so it stays finite on any
    # solution of such a game
    spec = pg.GameSpec(n=2, lambdas=(0.3, 0.7), kappa=720.0)
    sol = pg.EquilibriumSolution(spec, b=np.zeros(2), d=np.zeros(2))
    t = np.linspace(0.0, 1.0, 101)
    for curve in (sol.market, sol.market_velocity, sol.market_acceleration):
        assert np.all(np.isfinite(curve(t)))


def _one_large_trader(n, lam):
    return (lam,) + ((1.0 - lam) / (n - 1),) * (n - 1)


@pytest.mark.parametrize("kappa", [709.0, 709.5, 709.78, 720.0, 1000.0])
@pytest.mark.parametrize(
    "lambdas",
    [(0.2, 0.3, 0.5), (0.01, 0.99), (0.5, 0.5), _one_large_trader(10, 0.22),
     _one_large_trader(40, 0.5)],
    ids=["n3-max1.5", "n2-max1.98", "n2-max1", "n10-max2.2", "n40-max20"],
)
def test_large_kappa_raises_or_solves_accurately(kappa, lambdas):
    # lambda_i n (e^kappa - 1) overflows exactly where
    # kappa + ln(max lambda_i n) > ln(DBL_MAX); no case lies within 1e-3 of it
    spec = pg.GameSpec(n=len(lambdas), lambdas=lambdas, kappa=kappa)
    headroom = math.log(sys.float_info.max) - kappa - math.log(max(lambdas) * len(lambdas))
    assert abs(headroom) > 1e-3
    if headroom < 0.0:
        with pytest.raises(pg.KappaTooLarge, match=f"kappa = {kappa} is too large"):
            pg.solve(spec)
        return
    positions = pg.solve(spec).positions(np.linspace(0.0, 1.0, 101))
    assert np.all(np.isfinite(positions))
    assert np.max(np.abs(positions[:, -1] - 1.0)) <= 1e-10


@pytest.mark.parametrize("kappa", [1.0, 25.0, 300.0, 700.0])
def test_kappa_up_to_700_solves_with_lambda_n_up_to_ten_thousand(kappa):
    # 10^4 (e^700 - 1) = 1.0e308 < DBL_MAX = 1.8e308
    n = 20_000
    spec = pg.GameSpec(n=n, lambdas=_one_large_trader(n, 0.5), kappa=kappa)
    positions = pg.solve(spec).positions(np.linspace(0.0, 1.0, 11))
    assert np.all(np.isfinite(positions))
    assert np.max(np.abs(positions[:, -1] - 1.0)) <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 1000])
@pytest.mark.parametrize("kappa", [1e-300, 1.0, 25.0, 700.0])
def test_coefficients_of_a_stack_are_solve_row_by_row(n, kappa):
    rng = np.random.default_rng(n)
    lambdas = np.array([draw_lambdas(rng, n) for _ in range(3)])  # (D, n)
    b, d = coefficients(lambdas, kappa)
    assert b.shape == d.shape == lambdas.shape
    for row, b_row, d_row in zip(lambdas, b, d):
        sol = pg.solve(pg.GameSpec(n, tuple(row.tolist()), kappa))
        assert np.array_equal(b_row, sol.b) and np.array_equal(d_row, sol.d)


def test_coefficients_raise_where_one_row_of_a_stack_overflows():
    # lambda n = 1.5 puts the limit at 709.78 - ln 1.5 = 709.38, below 709.5;
    # lambda n = 1 keeps the other row inside it
    kappa, overflowing = 709.5, (0.2, 0.3, 0.5)
    with pytest.raises(pg.KappaTooLarge) as expected:
        pg.solve(pg.GameSpec(3, overflowing, kappa))
    lambdas = np.array([(1 / 3, 1 / 3, 1 / 3), overflowing])
    with pytest.raises(pg.KappaTooLarge) as raised:
        coefficients(lambdas, kappa)
    assert str(raised.value) == str(expected.value)


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

    @pytest.mark.parametrize("kappa", [0.0, 7.0])
    @pytest.mark.parametrize("shape", [(), (2,), (3, 4)])
    def test_fewer_times_than_traders_keep_every_cells_bits(self, kappa, shape):
        # 60 traders and at most 12 times: the curves are computed time-major
        # and returned transposed, each cell the per-trader curve's bits
        n = 60
        sol = pg.solve(pg.GameSpec(n, draw_lambdas(np.random.default_rng(n), n), kappa))
        t = np.random.default_rng(1).uniform(size=shape)
        for order, curves in enumerate((sol.positions(t), sol.velocities(t),
                                        sol.accelerations(t))):
            assert curves.shape == (n,) + shape
            for i in range(n):
                assert np.array_equal(curves[i], trader_curve(sol, i, t, order))

    def test_scalar_time_gives_one_value_per_trader(self):
        sol = pg.solve(pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=4.0))
        values = sol.positions(0.5)
        assert values.shape == (3,)
        assert values.tolist() == [float(trader_curve(sol, i, 0.5, 0)) for i in range(3)]
