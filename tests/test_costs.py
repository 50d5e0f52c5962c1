import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import posgame as pg
from conftest import BELOW_KAPPA_FLOOR, breakdown_of, draw_lambdas, game_specs, quadrature_of
from posgame.costs import group_cost
from posgame.verification import Check


def integral_cost(spec, i, intervals=10_000):
    """Quadrature of the cost integrand on the closed forms; independent of
    the closed-form cost expression under test."""
    sol = pg.solve(spec)
    t = np.linspace(0.0, 1.0, intervals + 1)
    lambdas = spec.lambdas_array()
    velocity = sol.velocities(t)
    position = sol.positions(t)
    m_dot = lambdas @ velocity
    m = lambdas @ position
    return float(simpson((m_dot + spec.kappa * m) * lambdas[i] * velocity[i], x=t))


class TestTraderCost:
    def test_equal_split_drops_the_linear_term(self):
        n, kappa = 4, 3.0
        alpha = kappa * (n - 1) / (n + 1)
        expected = alpha / (n * math.expm1(alpha)) + kappa / (n + 1)
        spec = pg.GameSpec.symmetric(n, kappa)
        for cost in breakdown_of(spec).per_trader:
            assert cost == pytest.approx(expected, abs=1e-15)

    def test_two_trader_unit_kappa_value(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        cost = breakdown_of(spec).per_trader[0]
        assert cost == pytest.approx(0.7546, abs=1e-4)
        assert cost == pytest.approx(integral_cost(spec, 0), rel=1e-6)

    def test_dominant_trader_pays_more_than_the_total(self):
        costs = breakdown_of(pg.GameSpec(n=2, lambdas=(0.99, 0.01), kappa=10.0)).per_trader
        assert costs[0] > pg.aggregate_cost(2, 10.0)
        # the counterpart earns a profit
        assert costs[1] < 0.0


class TestAggregateCost:
    def test_two_trader_unit_kappa(self):
        expected = (1.0 / 3.0) / math.expm1(1.0 / 3.0) + 2.0 / 3.0
        assert pg.aggregate_cost(2, 1.0) == pytest.approx(expected, abs=1e-15)
        assert pg.aggregate_cost(2, 1.0) == pytest.approx(1.5092, abs=1e-4)

    def test_matches_sum_of_trader_costs(self):
        spec = pg.GameSpec(n=3, lambdas=(0.6, 0.3, 0.1), kappa=7.0)
        total = sum(breakdown_of(spec).per_trader)
        assert total == pytest.approx(pg.aggregate_cost(3, 7.0), abs=1e-12)

    def test_matches_market_integral(self):
        # aggregate = integral of (m' + kappa m) m' on the closed-form market
        spec = pg.GameSpec(n=3, lambdas=(0.6, 0.3, 0.1), kappa=7.0)
        total = sum(integral_cost(spec, i) for i in range(3))
        assert pg.aggregate_cost(3, 7.0) == pytest.approx(total, rel=1e-9)

    def test_many_trader_limit(self):
        limit = pg.aggregate_cost(math.inf, 1.0)
        assert limit == pytest.approx(1.0 / -math.expm1(-1.0), abs=1e-15)
        assert limit == pytest.approx(1.5820, abs=1e-4)
        assert pg.aggregate_cost(10_000_000, 1.0) == pytest.approx(limit, rel=1e-6)

    def test_strictly_increasing_in_trader_count(self):
        for kappa in (0.5, 5.0, 25.0):
            values = [pg.aggregate_cost(n, kappa) for n in range(2, 51)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_kappa_is_the_unit_limit(self):
        assert pg.aggregate_cost(3, 0.0) == 1.0
        assert pg.aggregate_cost(1, 0.0) == 1.0
        assert pg.aggregate_cost(math.inf, 0.0) == 1.0
        for n in (2, 3, 50, math.inf):
            assert pg.price_of_anarchy(n, 0.0) == 1.0
        assert pg.aggregate_cost(5, 1e-10) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_underflowing_alpha_takes_the_zero_kappa_limit(self, n):
        # below the smallest normal double kappa counts as 0, as in cost_breakdown
        kappa = 5e-324
        assert pg.aggregate_cost(n, kappa) == 1.0
        assert pg.price_of_anarchy(n, kappa) == 1.0 / (1.0 + kappa / 2.0)

    def test_no_trader_is_an_empty_game(self):
        with pytest.raises(pg.EmptyGame):
            pg.aggregate_cost(0, 1.0)


class TestMarketMinCost:
    @pytest.mark.parametrize("kappa,expected", [(1.0, 1.5), (0.0, 1.0), (25.0, 13.5)])
    def test_values(self, kappa, expected):
        assert pg.market_min_cost(kappa) == expected


class TestPriceOfAnarchy:
    def test_limiting_ratio_at_unit_kappa(self):
        assert pg.price_of_anarchy(math.inf, 1.0) == pytest.approx(1.0546, abs=1e-3)

    def test_approaches_two_from_below(self):
        values = [pg.price_of_anarchy(math.inf, k) for k in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 2.0 for v in values)
        assert values[-1] == pytest.approx(2.0, abs=5e-3)

    def test_finite_n_below_the_limit(self):
        for kappa in np.linspace(0.25, 50.0, 40):
            assert pg.price_of_anarchy(2, kappa) < pg.price_of_anarchy(math.inf, kappa)

    def test_always_below_two(self):
        ns = np.unique(np.logspace(math.log10(2), 6, 40).astype(int))
        for kappa in np.linspace(0.05, 50.0, 60):
            for n in ns:
                assert pg.price_of_anarchy(int(n), float(kappa)) < 2.0


class TestCostShare:
    def test_equal_split_shares_are_exact(self):
        assert breakdown_of(pg.GameSpec.symmetric(4, 9.0)).shares.tolist() == [0.25] * 4

    def test_shares_sum_to_one(self):
        spec = pg.GameSpec(n=3, lambdas=(0.6, 0.3, 0.1), kappa=2.5)
        assert sum(breakdown_of(spec).shares) == pytest.approx(1.0, abs=1e-12)

    def test_affine_in_lambda(self):
        n, kappa = 5, 8.0
        shares = []
        for lam1 in (0.1, 0.45, 0.8):
            rest = (1.0 - lam1) / (n - 1)
            spec = pg.GameSpec(n=n, lambdas=(lam1,) + (rest,) * (n - 1), kappa=kappa)
            shares.append(breakdown_of(spec).shares[0])
        lams = (0.1, 0.45, 0.8)
        cross = (lams[2] - lams[0]) * (shares[1] - shares[0]) - (
            lams[1] - lams[0]
        ) * (shares[2] - shares[0])
        assert abs(cross) < 1e-10

    def test_dominant_trader_share_deviation(self):
        spec = pg.GameSpec(n=2, lambdas=(0.99, 0.01), kappa=10.0)
        assert breakdown_of(spec).shares[0] - 0.99 > 0.20

    def test_matches_cost_ratio(self):
        spec = pg.GameSpec(n=4, lambdas=(0.4, 0.3, 0.2, 0.1), kappa=6.0)
        agg = pg.aggregate_cost(4, 6.0)
        bd = breakdown_of(spec)
        for i in range(4):
            assert bd.shares[i] == pytest.approx(bd.per_trader[i] / agg, abs=1e-12)


    @pytest.mark.parametrize("kappa", [737.0, 800.0, 1e4])
    def test_shares_stay_finite_where_e_alpha_overflows(self, kappa):
        # alpha = 708.1 at kappa 737: (n + 1)(e^alpha - 1) overflows, and from
        # 709.78 on e^alpha itself; T tends to -(n + 1) / (n (1 - e^-kappa))
        n = 50
        lam = np.linspace(1.0, 3.0, n)
        spec = pg.GameSpec(n=n, lambdas=tuple(lam / lam.sum()), kappa=kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bd = breakdown_of(spec)
        shares = np.array(bd.shares)
        assert np.isfinite(shares).all() and np.isfinite(bd.per_trader).all()
        assert math.fsum(shares) == pytest.approx(1.0, abs=1e-12)
        t_limit = -(n + 1) / (n * -math.expm1(-kappa))
        limit = 1.0 / n + t_limit * (1.0 / n - np.array(spec.lambdas))
        assert shares == pytest.approx(limit, rel=1e-12, abs=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kappa,total,count,lam,finite",
    [
        (1e307, 12, 1, 0.2, True),  # kappa (total - 1) = 1.1e308
        (1e307, 12, 12, 1.0, True),
        (1e307, np.arange(2.0, 51.0), np.arange(2.0, 51.0), 1.0, False),  # 4.9e308 at 50
        (1e308, 12, 1, 0.2, False),
        (1e308, 2, 2, 1.0, False),  # count kappa = 2e308
        (sys.float_info.max, 2, 1, 0.5, True),  # every product stays at most kappa
        (sys.float_info.max, 12, 1, 0.2, False),
    ],
)
def test_group_cost_near_dbl_max_raises_kappa_too_large(kappa, total, count, lam, finite):
    if not finite:
        with pytest.raises(pg.KappaTooLarge, match=re.escape(f"kappa = {kappa} is too large")):
            group_cost(total, count, lam, kappa)
        return
    # e^alpha overflows, so the middle term is 0 and the cost is linear in kappa
    expected = kappa * (lam * total - count) / total + count * kappa / (total + 1.0)
    assert group_cost(total, count, lam, kappa) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("kappa,error", [(-1.0, pg.NegativeKappa),
                                         (math.nan, pg.NonFiniteKappa),
                                         (math.inf, pg.NonFiniteKappa)])
def test_group_cost_refuses_a_kappa_it_cannot_price(kappa, error):
    # a negative kappa was priced as 0, and a NaN read as too large
    with pytest.raises(error, match=f"kappa = {kappa}"):
        group_cost(2, 1, 0.5, kappa)


class TestCostBreakdown:
    def test_tiny_trader_pays_under_fair_share(self):
        bd = breakdown_of(pg.GameSpec(n=2, lambdas=(0.01, 0.99), kappa=0.5))
        assert -0.009 < bd.fair_share_deviation[0] < -0.005

    def test_symmetric_deviations_vanish(self):
        bd = breakdown_of(pg.GameSpec.symmetric(6, 4.0))
        assert all(d == 0.0 for d in bd.fair_share_deviation)

    def test_zero_kappa_limit(self):
        bd = breakdown_of(pg.GameSpec(n=3, lambdas=(0.5, 0.3, 0.2), kappa=0.0))
        assert bd.aggregate == 1.0
        assert bd.per_trader.tolist() == [0.5, 0.3, 0.2]
        assert bd.shares.tolist() == [0.5, 0.3, 0.2]

    @pytest.mark.parametrize("n,kappa", [(2, 5e-324), (3, 5e-324)])
    def test_underflowing_alpha_takes_the_zero_kappa_limit(self, n, kappa):
        # below the smallest normal double kappa counts as 0, as in solve
        spec = pg.GameSpec(n=n, lambdas=(0.3,) + (0.7 / (n - 1),) * (n - 1), kappa=kappa)
        bd = breakdown_of(spec)
        assert tuple(bd.per_trader.tolist()) == spec.lambdas
        assert tuple(bd.shares.tolist()) == spec.lambdas
        assert bd.aggregate == 1.0
        assert bd.fair_share_deviation.tolist() == [0.0] * n

    @pytest.mark.parametrize("kappa", [1e-320, 1e-310])
    def test_subnormal_kappa_is_the_zero_kappa_limit(self, kappa):
        # alpha does not underflow here, but every product with kappa loses digits
        bd = breakdown_of(pg.GameSpec(n=2, lambdas=(0.2, 0.8), kappa=kappa))
        assert bd.per_trader.tolist() == [0.2, 0.8]
        assert bd.shares.tolist() == [0.2, 0.8]
        assert bd.aggregate == 1.0

    def test_single_trader_limit(self):
        bd = breakdown_of(pg.GameSpec(n=1, lambdas=(1.0,), kappa=3.0))
        assert bd.aggregate == pg.market_min_cost(3.0)
        assert pg.aggregate_cost(1, 3.0) == bd.aggregate
        assert bd.shares.tolist() == [1.0]

    def test_single_trader_pays_the_market_minimum_at_any_fraction_shape(self):
        for lam in (1.0, np.array([1.0]), np.array([[1.0], [1.0]])):
            bd = pg.cost_breakdown(1, 3.0, lam)
            assert bd.per_trader.shape == bd.shares.shape == np.shape(lam)
            assert np.all(bd.per_trader == 2.5) and bd.aggregate == 2.5
            assert np.all(bd.shares == 1.0) and np.all(bd.fair_share_deviation == 0.0)

    def test_fields_are_read_only_float_arrays_shaped_like_the_fractions(self):
        lam = np.array([[0.2, 0.8], [0.5, 0.5]])
        bd = pg.cost_breakdown(2, 1.0, lam)
        for field in (bd.per_trader, bd.shares, bd.fair_share_deviation):
            assert field.shape == lam.shape and field.dtype == float
            assert not field.flags.writeable
        assert type(bd.aggregate) is float
        assert lam.flags.writeable  # the caller's array is not frozen
        scalar = pg.cost_breakdown(2, 1.0, 0.2)
        assert scalar.per_trader.shape == scalar.shares.shape == ()
        assert scalar.per_trader == bd.per_trader[0, 0] and scalar.shares == bd.shares[0, 0]
        with pytest.raises(ValueError, match=r"^n must be one trader count, got an array"):
            pg.cost_breakdown(np.array([2, 3]), 1.0, 0.2)

    @settings(max_examples=30, deadline=None)
    @given(spec=game_specs())
    def test_shares_consistent_for_random_specs(self, spec):
        bd = breakdown_of(spec)
        assert math.fsum(bd.per_trader) == pytest.approx(bd.aggregate, abs=1e-9)
        assert math.fsum(bd.shares) == pytest.approx(1.0, abs=1e-9)
        for i in range(spec.n):
            assert bd.shares[i] == pytest.approx(
                bd.per_trader[i] / bd.aggregate, abs=1e-9
            )
            assert bd.fair_share_deviation[i] == pytest.approx(
                bd.shares[i] - spec.lambdas[i], abs=1e-15
            )


    def test_large_n_matches_per_trader_functions(self):
        rng = np.random.default_rng(5)
        lambdas = pg.renormalize_lambdas(rng.dirichlet(np.ones(4000)))
        spec = pg.GameSpec(n=4000, lambdas=lambdas, kappa=5.0)
        bd = breakdown_of(spec)
        assert len(bd.per_trader) == len(bd.shares) == 4000
        for i in rng.choice(4000, size=25, replace=False):
            lam = spec.lambdas[int(i)]
            # the breakdown broadcasts the same per-trader kernels: equal bit for bit
            assert bd.per_trader[i] == pg.group_cost(4000, 1, lam, 5.0)
            assert bd.shares[i] == pg.cost_shares(4000, 5.0, lam)
        assert math.fsum(bd.shares) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(bd.per_trader) == pytest.approx(bd.aggregate, abs=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 1.0, 800.0])
@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan, math.inf])
def test_shares_refuse_a_fraction_that_is_not_positive_and_finite(bad, kappa):
    # cost_shares(2, 1.0, 0.0) gave a negative share, and nan and inf passed through
    with pytest.raises(pg.NonPositiveLambda, match=f"^lambda_1 = {bad} must be positive"):
        pg.cost_shares(2, kappa, bad)
    with pytest.raises(pg.NonPositiveLambda, match=f"^lambda_2 = {bad} must be positive"):
        pg.cost_breakdown(2, kappa, np.array([0.5, bad]))


@settings(max_examples=60, deadline=None)
@given(spec=game_specs(kappas=st.sampled_from(BELOW_KAPPA_FLOOR) | st.floats(1e-3, 25.0)))
def test_kappa_floor_and_cost_identities(spec):
    bd = breakdown_of(spec)
    if spec.kappa in BELOW_KAPPA_FLOOR:
        sol = pg.solve(spec)
        t = np.linspace(0.0, 1.0, 11)
        assert np.all(sol.b == 0.0) and np.all(sol.d == 0.0)
        assert np.array_equal(sol.positions(t), np.tile(t, (spec.n, 1)))
        zero = breakdown_of(dataclasses.replace(spec, kappa=0.0))
        assert all(map(np.array_equal, dataclasses.astuple(bd), dataclasses.astuple(zero)))
    assert math.fsum(bd.per_trader) == pytest.approx(bd.aggregate, abs=1e-9)
    n1 = spec.n // 2
    sc = pg.CentralizationScenario(
        n1=n1, n2=spec.n - n1, lambda_firm=math.fsum(spec.lambdas[:n1]), kappa=spec.kappa
    )
    rep = pg.naive_centralization_report(sc)
    assert rep.total_no_central == pytest.approx(pg.aggregate_cost(sc.n, sc.kappa), abs=1e-9)
    assert rep.total_central == pytest.approx(pg.aggregate_cost(sc.n2 + 1, sc.kappa), abs=1e-9)


class TestGroupCost:
    def test_special_cases_are_the_public_costs(self):
        spec = pg.GameSpec(n=4, lambdas=(0.4, 0.3, 0.2, 0.1), kappa=6.0)
        per_trader = breakdown_of(spec).per_trader
        for i in range(4):
            assert pg.group_cost(4, 1, spec.lambdas[i], 6.0) == per_trader[i]
        assert pg.group_cost(4, 4, 1.0, 6.0) == pg.aggregate_cost(4, 6.0)

    def test_broadcasts_like_scalar_calls(self):
        totals = np.arange(2, 40)
        counts = totals // 2
        lam = np.linspace(0.05, 0.95, totals.size)
        for decay in (None, 3.0):
            batch = pg.group_cost(totals, counts, lam, 3.0, decay=decay)
            assert batch.shape == totals.shape
            for k in range(totals.size):
                single = pg.group_cost(int(totals[k]), int(counts[k]), lam[k], 3.0, decay=decay)
                assert batch[k] == pytest.approx(single, rel=1e-15)

    def test_groups_partition_the_aggregate(self):
        for n, count, lam in ((5, 2, 0.3), (12, 4, 0.8), (40, 39, 0.01)):
            split = pg.group_cost(n, count, lam, 2.0) + pg.group_cost(n, n - count, 1.0 - lam, 2.0)
            assert split == pytest.approx(pg.aggregate_cost(n, 2.0), rel=1e-12)

    def test_frozen_decay_is_the_approximate_strategic_cost(self):
        sc = pg.CentralizationScenario(n1=4, n2=8, lambda_firm=0.4, kappa=5.0)
        curve = pg.optimal_representation(sc, (3, 3))
        assert pg.group_cost(12 + 3, 4 + 3, 0.4, 5.0, decay=5.0) == curve.approx_costs[0]


class TestNonFiniteKappa:
    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_rejected_by_every_cost(self, kappa):
        for call in (
            lambda: pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=kappa),
            lambda: pg.aggregate_cost(3, kappa),
            lambda: pg.price_of_anarchy(3, kappa),
        ):
            with pytest.raises(pg.NonFiniteKappa):
                call()


def test_aggregate_cost_is_independent_of_target_split():
    rng = np.random.default_rng(11)
    n, kappa = 5, 5.0
    totals = []
    for _ in range(200):
        lam = rng.dirichlet(np.ones(n))
        spec = pg.GameSpec(n=n, lambdas=tuple(lam), kappa=kappa)
        totals.append(math.fsum(breakdown_of(spec).per_trader))
    assert max(totals) - min(totals) < 1e-9
    assert totals[0] == pytest.approx(pg.aggregate_cost(n, kappa), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(spec=game_specs(max_n=6, max_kappa=15.0))
def test_cost_formula_matches_quadrature(spec):
    per_trader = breakdown_of(spec).per_trader
    for i in range(spec.n):
        formula = per_trader[i]
        numeric = integral_cost(spec, i)
        assert formula == pytest.approx(numeric, rel=1e-6, abs=1e-9)


class TestTypedDomainErrors:
    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa_in_the_limits(self, kappa):
        for call in (
            lambda: pg.aggregate_cost(math.inf, kappa),
            lambda: pg.market_min_cost(kappa),
            lambda: pg.price_of_anarchy(math.inf, kappa),
        ):
            with pytest.raises(pg.NonFiniteKappa):
                call()

    def test_negative_kappa_in_the_limits(self):
        for call in (lambda k: pg.aggregate_cost(math.inf, k), pg.market_min_cost):
            with pytest.raises(pg.NegativeKappa):
                call(-1.0)

    @pytest.mark.parametrize("n", [math.nan, 2.5, -math.inf])
    def test_trader_count_must_be_whole(self, n):
        for call in (pg.aggregate_cost, pg.price_of_anarchy, lambda n, k: pg.cost_shares(n, k, 0.5)):
            with pytest.raises(pg.NonIntegerCount):
                call(n, 1.0)
            with pytest.raises(pg.NonIntegerCount):  # one bad entry is enough
                call(np.array([2.0, n]), 1.0)
        assert issubclass(pg.NonIntegerCount, pg.GameSpecError)

    def test_shares_have_no_many_trader_limit(self):
        with pytest.raises(pg.NonIntegerCount):
            pg.cost_shares(math.inf, 1.0, 0.5)

    @pytest.mark.parametrize(
        "n", [True, np.True_, np.array([True, False]), [True, 3], (2, np.True_), [[3], [False]]]
    )
    def test_bools_are_no_trader_counts(self, n):
        for call in (
            lambda: pg.aggregate_cost(n, 1.0),
            lambda: pg.price_of_anarchy(n, 1.0),
            lambda: pg.cost_shares(n, 1.0, 1.0),
        ):
            with pytest.raises(pg.NonIntegerCount, match="must be a whole number, not a bool"):
                call()

    def test_no_trader_is_an_empty_game_in_every_entry(self):
        for call in (pg.aggregate_cost, pg.price_of_anarchy, lambda n, k: pg.cost_shares(n, k, 0.5)):
            with pytest.raises(pg.EmptyGame, match="got n=0$"):
                call(np.array([3, 0, 2]), 1.0)

    def test_whole_float_and_infinite_counts_stay_valid(self):
        assert pg.price_of_anarchy(3.0, 1.0) == pg.price_of_anarchy(3, 1.0)
        assert pg.price_of_anarchy(np.int64(3), 1.0) == pg.price_of_anarchy(3, 1.0)
        assert pg.price_of_anarchy(2**70, 1.0) == pytest.approx(pg.price_of_anarchy(math.inf, 1.0))
        assert pg.price_of_anarchy(math.inf, 1.0) < 2.0


def test_quadrature_cost_gives_every_traders_cost():
    # Gauss-Legendre reads at rounding level: 4.9e-15 against the formula at
    # kappa = 6 (one panel) and 2.2e-14 at kappa = 100 (two panels).  At
    # kappa = 6 the 10,000-interval Simpson reference is at rounding level too
    # (8.7e-15 apart; at kappa = 100 it is 2.5e-10 off), so 1e-13 leaves a
    # margin of ten and still pins both.
    for kappa in (100.0, 6.0):
        spec = pg.GameSpec(n=4, lambdas=(0.1, 0.2, 0.3, 0.4), kappa=kappa)
        quadrature = quadrature_of(pg.solve(spec))
        assert quadrature.shape == (4,)
        assert quadrature == pytest.approx(breakdown_of(spec).per_trader, rel=1e-13)
    reference = [integral_cost(spec, i) for i in range(4)]
    assert quadrature == pytest.approx(reference, rel=1e-13)


def buggy_solution(spec):
    """The closed form with every d coefficient 1 % off, as verify's inject_bug."""
    sol = pg.solve(spec)
    return dataclasses.replace(sol, d=sol.d * 1.01)


def cost_row(solution, label=""):
    """verify's cost row on one solution's curves: the worst trader's
    relative gap between the cost formula and the quadrature."""
    spec = solution.spec
    costs = group_cost(spec.n, 1, spec.lambdas_array(), spec.kappa)
    gap = np.max(np.abs(costs - quadrature_of(solution)) / np.abs(costs))
    return Check(f"cost formula vs quadrature [{label}]", float(gap), 1e-6)


def floored_spec(n, kappa, lam_min=1e-6):
    """One trader at the documented floor lambda_min, the others equal."""
    lambdas = pg.renormalize_lambdas([lam_min] + [(1.0 - lam_min) / (n - 1)] * (n - 1))
    return pg.GameSpec(n=n, lambdas=lambdas, kappa=kappa)


@pytest.mark.parametrize("n", [5, 1000])
def test_cost_row_holds_at_large_kappa_and_fails_the_bug(n):
    # kappa = 700 takes 11 panels; one panel read 8.3e-2 at n = 1000, and
    # 10,000-interval Simpson 3.0e-3
    spec = floored_spec(n, 700.0)
    row = cost_row(pg.solve(spec), "kappa=700")
    assert row.passed, row
    assert not cost_row(buggy_solution(spec), "kappa=700").passed


def test_cost_row_fails_the_bug_on_every_default_draw():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        for kappa in (1.0, 5.0, 25.0):
            for _ in range(3):
                spec = pg.GameSpec(n=n, lambdas=draw_lambdas(rng, n), kappa=kappa)
                assert cost_row(pg.solve(spec)).value < 1e-12
                assert cost_row(buggy_solution(spec)).value > 1e-2


def test_cost_row_memory_is_linear_in_traders_and_panels():
    # 10,001-point Simpson held (n, 10_001) arrays: a 458 MiB peak here
    n, kappa = 2000, 25.0
    spec = pg.GameSpec(n=n, lambdas=draw_lambdas(np.random.default_rng(0), n), kappa=kappa)
    sol = pg.solve(spec)
    panels = 1  # ceil(25 / 64)
    bound = 4 * n * 64 * panels * 8  # four (n, 64 P) arrays of floats
    tracemalloc.start()
    try:
        row = cost_row(sol, "n=2000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 2.1 MiB, bound 3.9 MiB
    assert peak < bound
    assert row.passed, row


ARRAY_COUNTS = (1, 2, 3, 50, 2000, float(2**53 + 1))


def scalar_or_error(call, *args):
    """The call's float, or the type of the GameSpecError it raises."""
    try:
        value = call(*args)
    except pg.GameSpecError as exc:
        return type(exc)
    assert type(value) is float
    return value


@pytest.mark.parametrize("kappa", BELOW_KAPPA_FLOOR + (1.0, 25.0, 700.0, 1e307, sys.float_info.max))
@pytest.mark.parametrize("name", ["aggregate_cost", "price_of_anarchy", "cost_shares"])
def test_count_arrays_equal_scalar_calls_bit_for_bit(name, kappa):
    """Every entry of an array call is its scalar call's float, and the array
    call raises exactly when a scalar call does, with its error."""
    if name == "cost_shares":
        counts = ARRAY_COUNTS

        def call(n, kappa):
            return pg.cost_shares(n, kappa, 0.3)
    else:
        counts = ARRAY_COUNTS + (math.inf,)
        call = getattr(pg, name)
    expected = [scalar_or_error(call, n, kappa) for n in counts]
    errors = {e for e in expected if isinstance(e, type)}
    if errors:
        with pytest.raises(tuple(errors)):
            call(np.array(counts), kappa)
    priced = [n for n, e in zip(counts, expected) if not isinstance(e, type)]
    values = call(np.array(priced), kappa)
    assert values.dtype == float and values.shape == (len(priced),)
    assert values.tolist() == [e for e in expected if not isinstance(e, type)]
    # a column of counts against a row of fractions: each cell its scalar call
    if name == "cost_shares":
        lam = np.array([1e-6, 0.3, 0.99])
        grid = pg.cost_shares(np.array(priced)[:, None], kappa, lam)
        assert grid.tolist() == [[pg.cost_shares(n, kappa, x) for x in lam] for n in priced]


def test_only_counts_from_two_up_are_priced_by_the_group_formula():
    # at kappa = 1e307 one and two traders are priced, fifty overflow; the
    # one-trader entry is the market minimum, not the formula's 0 / 0
    kappa = 1e307
    assert pg.aggregate_cost(np.array([1, 2]), kappa).tolist() == [
        pg.aggregate_cost(1, kappa), pg.aggregate_cost(2, kappa)]
    assert pg.aggregate_cost(np.array([1, math.inf]), kappa).tolist() == [
        pg.market_min_cost(kappa), kappa]
    for n in (50, np.array([1, 50])):
        with pytest.raises(pg.KappaTooLarge):
            pg.aggregate_cost(n, kappa)
    # at DBL_MAX even two traders overflow, but one and the limit stay finite
    kappa = sys.float_info.max
    assert pg.aggregate_cost(np.array([1, math.inf]), kappa).tolist() == [1.0 + kappa / 2, kappa]


def test_shares_take_e_alpha_from_libm():
    # numpy's vector exp and libm's differ by an ulp on some alphas (one of
    # them on this grid); the shares keep libm's bits
    for n in (2, 3, 42, 1000):
        for kappa in (0.5, 1.0, 25.0):
            alpha = kappa * (n - 1) / (n + 1)
            t_slope = (n + 1) * math.expm1(alpha) / (
                -math.expm1(-kappa) * (1.0 - n * math.exp(alpha)))
            for lam in (1e-6, 0.5, 0.99):
                assert pg.cost_shares(n, kappa, lam) == 1.0 / n + t_slope * (1.0 / n - lam)


def test_one_trader_pays_the_whole_aggregate():
    for kappa in (0.0, 1.0, 700.0):
        assert pg.cost_shares(1, kappa, 1.0) == 1.0
        assert pg.aggregate_cost(1, kappa) == pg.market_min_cost(kappa)
        assert pg.price_of_anarchy(1, kappa) == 1.0
