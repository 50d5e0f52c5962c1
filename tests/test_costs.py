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
from conftest import BELOW_KAPPA_FLOOR, game_specs
from posgame.costs import _shares, group_cost
from posgame.verification import _at_most, _cost_gaps, draw_lambdas, quadrature_cost


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
        for cost in pg.cost_breakdown(spec).per_trader:
            assert cost == pytest.approx(expected, abs=1e-15)

    def test_two_trader_unit_kappa_value(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        cost = pg.cost_breakdown(spec).per_trader[0]
        assert cost == pytest.approx(0.7546, abs=1e-4)
        assert cost == pytest.approx(integral_cost(spec, 0), rel=1e-6)

    def test_dominant_trader_pays_more_than_the_total(self):
        costs = pg.cost_breakdown(pg.GameSpec(n=2, lambdas=(0.99, 0.01), kappa=10.0)).per_trader
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
        total = sum(pg.cost_breakdown(spec).per_trader)
        assert total == pytest.approx(pg.aggregate_cost(3, 7.0), abs=1e-12)

    def test_matches_market_integral(self):
        # aggregate = integral of (m' + kappa m) m' on the closed-form market
        spec = pg.GameSpec(n=3, lambdas=(0.6, 0.3, 0.1), kappa=7.0)
        total = sum(integral_cost(spec, i) for i in range(3))
        assert pg.aggregate_cost(3, 7.0) == pytest.approx(total, rel=1e-9)

    def test_many_trader_limit(self):
        assert pg.aggregate_cost_limit(1.0) == pytest.approx(1.0 / -math.expm1(-1.0), abs=1e-15)
        assert pg.aggregate_cost_limit(1.0) == pytest.approx(1.5820, abs=1e-4)
        assert pg.aggregate_cost(10_000_000, 1.0) == pytest.approx(
            pg.aggregate_cost_limit(1.0), rel=1e-6
        )

    def test_strictly_increasing_in_trader_count(self):
        for kappa in (0.5, 5.0, 25.0):
            values = [pg.aggregate_cost(n, kappa) for n in range(2, 51)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_kappa_is_the_unit_limit(self):
        assert pg.aggregate_cost(3, 0.0) == 1.0
        assert pg.aggregate_cost(1, 0.0) == 1.0
        assert pg.aggregate_cost_limit(0.0) == 1.0
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
        assert pg.cost_breakdown(pg.GameSpec.symmetric(4, 9.0)).shares == (0.25,) * 4

    def test_shares_sum_to_one(self):
        spec = pg.GameSpec(n=3, lambdas=(0.6, 0.3, 0.1), kappa=2.5)
        assert sum(pg.cost_breakdown(spec).shares) == pytest.approx(1.0, abs=1e-12)

    def test_affine_in_lambda(self):
        n, kappa = 5, 8.0
        shares = []
        for lam1 in (0.1, 0.45, 0.8):
            rest = (1.0 - lam1) / (n - 1)
            spec = pg.GameSpec(n=n, lambdas=(lam1,) + (rest,) * (n - 1), kappa=kappa)
            shares.append(pg.cost_breakdown(spec).shares[0])
        lams = (0.1, 0.45, 0.8)
        cross = (lams[2] - lams[0]) * (shares[1] - shares[0]) - (
            lams[1] - lams[0]
        ) * (shares[2] - shares[0])
        assert abs(cross) < 1e-10

    def test_dominant_trader_share_deviation(self):
        spec = pg.GameSpec(n=2, lambdas=(0.99, 0.01), kappa=10.0)
        assert pg.cost_breakdown(spec).shares[0] - 0.99 > 0.20

    def test_matches_cost_ratio(self):
        spec = pg.GameSpec(n=4, lambdas=(0.4, 0.3, 0.2, 0.1), kappa=6.0)
        agg = pg.aggregate_cost(4, 6.0)
        bd = pg.cost_breakdown(spec)
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
            bd = pg.cost_breakdown(spec)
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


class TestCostBreakdown:
    def test_tiny_trader_pays_under_fair_share(self):
        bd = pg.cost_breakdown(pg.GameSpec(n=2, lambdas=(0.01, 0.99), kappa=0.5))
        assert -0.009 < bd.fair_share_deviation[0] < -0.005

    def test_symmetric_deviations_vanish(self):
        bd = pg.cost_breakdown(pg.GameSpec.symmetric(6, 4.0))
        assert all(d == 0.0 for d in bd.fair_share_deviation)

    def test_zero_kappa_limit(self):
        bd = pg.cost_breakdown(pg.GameSpec(n=3, lambdas=(0.5, 0.3, 0.2), kappa=0.0))
        assert bd.aggregate == 1.0
        assert bd.per_trader == (0.5, 0.3, 0.2)
        assert bd.shares == (0.5, 0.3, 0.2)

    @pytest.mark.parametrize("n,kappa", [(2, 5e-324), (3, 5e-324)])
    def test_underflowing_alpha_takes_the_zero_kappa_limit(self, n, kappa):
        # below the smallest normal double kappa counts as 0, as in solve
        spec = pg.GameSpec(n=n, lambdas=(0.3,) + (0.7 / (n - 1),) * (n - 1), kappa=kappa)
        bd = pg.cost_breakdown(spec)
        assert bd.per_trader == spec.lambdas
        assert bd.shares == spec.lambdas
        assert bd.aggregate == 1.0
        assert bd.fair_share_deviation == (0.0,) * n

    @pytest.mark.parametrize("kappa", [1e-320, 1e-310])
    def test_subnormal_kappa_is_the_zero_kappa_limit(self, kappa):
        # alpha does not underflow here, but every product with kappa loses digits
        bd = pg.cost_breakdown(pg.GameSpec(n=2, lambdas=(0.2, 0.8), kappa=kappa))
        assert bd.per_trader == (0.2, 0.8)
        assert bd.shares == (0.2, 0.8)
        assert bd.aggregate == 1.0

    def test_single_trader_limit(self):
        bd = pg.cost_breakdown(pg.GameSpec(n=1, lambdas=(1.0,), kappa=3.0))
        assert bd.aggregate == pg.market_min_cost(3.0)
        assert pg.aggregate_cost(1, 3.0) == bd.aggregate
        assert bd.shares == (1.0,)

    @settings(max_examples=30, deadline=None)
    @given(spec=game_specs())
    def test_shares_consistent_for_random_specs(self, spec):
        bd = pg.cost_breakdown(spec)
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
        bd = pg.cost_breakdown(spec)
        assert len(bd.per_trader) == len(bd.shares) == 4000
        for i in rng.choice(4000, size=25, replace=False):
            lam = spec.lambdas[int(i)]
            # the breakdown broadcasts the same per-trader kernels: equal bit for bit
            assert bd.per_trader[i] == pg.group_cost(4000, 1, lam, 5.0)
            assert bd.shares[i] == _shares(4000, 5.0, lam)
        assert math.fsum(bd.shares) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(bd.per_trader) == pytest.approx(bd.aggregate, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(spec=game_specs(kappas=st.sampled_from(BELOW_KAPPA_FLOOR) | st.floats(1e-3, 25.0)))
def test_kappa_floor_and_cost_identities(spec):
    bd = pg.cost_breakdown(spec)
    if spec.kappa in BELOW_KAPPA_FLOOR:
        sol = pg.solve(spec)
        t = np.linspace(0.0, 1.0, 11)
        assert np.all(sol.b == 0.0) and np.all(sol.d == 0.0)
        assert np.array_equal(sol.positions(t), np.tile(t, (spec.n, 1)))
        assert bd == pg.cost_breakdown(dataclasses.replace(spec, kappa=0.0))
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
        per_trader = pg.cost_breakdown(spec).per_trader
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
        totals.append(math.fsum(pg.cost_breakdown(spec).per_trader))
    assert max(totals) - min(totals) < 1e-9
    assert totals[0] == pytest.approx(pg.aggregate_cost(n, kappa), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(spec=game_specs(max_n=6, max_kappa=15.0))
def test_cost_formula_matches_quadrature(spec):
    per_trader = pg.cost_breakdown(spec).per_trader
    for i in range(spec.n):
        formula = per_trader[i]
        numeric = integral_cost(spec, i)
        assert formula == pytest.approx(numeric, rel=1e-6, abs=1e-9)


class TestTypedDomainErrors:
    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa_in_the_limits(self, kappa):
        for call in (
            lambda: pg.aggregate_cost_limit(kappa),
            lambda: pg.market_min_cost(kappa),
            lambda: pg.price_of_anarchy(math.inf, kappa),
        ):
            with pytest.raises(pg.NonFiniteKappa):
                call()

    def test_negative_kappa_in_the_limits(self):
        for call in (pg.aggregate_cost_limit, pg.market_min_cost):
            with pytest.raises(pg.NegativeKappa):
                call(-1.0)

    @pytest.mark.parametrize("n", [math.nan, 2.5, -math.inf])
    def test_trader_count_must_be_whole(self, n):
        with pytest.raises(pg.NonIntegerCount):
            pg.price_of_anarchy(n, 1.0)
        assert issubclass(pg.NonIntegerCount, pg.GameSpecError)

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
        quadrature = quadrature_cost(pg.solve(spec))
        assert quadrature.shape == (4,)
        assert quadrature == pytest.approx(pg.cost_breakdown(spec).per_trader, rel=1e-13)
    reference = [integral_cost(spec, i) for i in range(4)]
    assert quadrature == pytest.approx(reference, rel=1e-13)


def buggy_solution(spec):
    """The closed form with every d coefficient 1 % off, as verify's inject_bug."""
    sol = pg.solve(spec)
    return dataclasses.replace(sol, d=sol.d * 1.01)


def cost_row(solution, label=""):
    """verify's cost row on one solution's curves: a one-game stack."""
    spec = solution.spec
    lambdas, b, d = (x[None] for x in (spec.lambdas_array(), solution.b, solution.d))
    gap = _cost_gaps(lambdas, b, d, spec.kappa, solution.alpha)[0]
    return _at_most(f"cost formula vs quadrature [{label}]", float(gap), 1e-6)


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
