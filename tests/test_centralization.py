import math

import numpy as np
import pytest

import posgame as pg
from conftest import breakdown_of


def scenario(n1=4, n2=8, lam=0.4, kappa=5.0):
    return pg.CentralizationScenario(n1=n1, n2=n2, lambda_firm=lam, kappa=kappa)


def exact_cost(sc, delta):
    """The exact strategic curve at one offset: a one-entry window."""
    return float(pg.optimal_representation(sc, (delta, delta)).exact_costs[0])


class TestScenarioValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            pg.CentralizationScenario(n1=0, n2=5, lambda_firm=0.5, kappa=1.0)
        with pytest.raises(ValueError):
            pg.CentralizationScenario(n1=5, n2=0, lambda_firm=0.5, kappa=1.0)

    def test_fraction_strictly_interior(self):
        for lam in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                pg.CentralizationScenario(n1=2, n2=2, lambda_firm=lam, kappa=1.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(pg.NonFiniteKappa):
            pg.CentralizationScenario(n1=2, n2=2, lambda_firm=0.5, kappa=kappa)
        with pytest.raises(pg.NonFiniteKappa):
            pg.averaged_report(kappa, (0.3, 0.5))

    @pytest.mark.parametrize(
        "counts", [dict(n1=2.5, n2=5), dict(n1=2, n2=5.5), dict(n1=math.nan, n2=5),
                   dict(n1=2, n2=math.inf), dict(n1=True, n2=3), dict(n1=2, n2=True)]
    )
    def test_counts_must_be_whole(self, counts):
        with pytest.raises(pg.NonIntegerCount):
            pg.CentralizationScenario(**counts, lambda_firm=0.5, kappa=1.0)

    def test_whole_float_counts_stay_valid(self):
        assert pg.CentralizationScenario(n1=2.0, n2=5.0, lambda_firm=0.5, kappa=1.0).n == 7

    def test_delta_must_be_whole(self):
        sc = scenario()
        for delta_range in ((0.5, 3.5), (0, 2.5), (math.nan, 3), (0, math.inf), (-math.inf, 3)):
            with pytest.raises(pg.NonIntegerCount):
                pg.optimal_representation(sc, delta_range)
        by_float = pg.optimal_representation(sc, (2.0, 5.0))
        by_int = pg.optimal_representation(sc, (2, 5))
        assert np.array_equal(by_float.deltas, by_int.deltas)
        assert np.array_equal(by_float.exact_costs, by_int.exact_costs)
        assert np.array_equal(by_float.approx_costs, by_int.approx_costs)

    def test_report_grids_validate_every_split(self):
        with pytest.raises(ValueError):
            pg.averaged_report(1.0, (0.3, 0.5), n_values=(5,), n1_values=(4, 5))
        with pytest.raises(ValueError):
            pg.averaged_report(1.0, (0.5, 1.5))

    def test_nonfirm_fraction_complements(self):
        sc = scenario(lam=0.3)
        assert sc.lambda_nonfirm == pytest.approx(0.7)
        assert sc.n == 12


class TestPartitions:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 5.0, 25.0])
    @pytest.mark.parametrize("n1,n2,lam", [(1, 1, 0.5), (4, 8, 0.4), (15, 6, 0.82), (2, 30, 0.07)])
    def test_no_centralization_partitions_aggregate(self, kappa, n1, n2, lam):
        sc = scenario(n1, n2, lam, kappa)
        rep = pg.naive_centralization_report(sc)
        total = rep.firm_cost_no_central + rep.nonfirm_cost_no_central
        assert total == pytest.approx(pg.aggregate_cost(sc.n, kappa), abs=1e-9)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 5.0, 25.0])
    @pytest.mark.parametrize("n1,n2,lam", [(1, 1, 0.5), (4, 8, 0.4), (15, 6, 0.82), (2, 30, 0.07)])
    def test_centralized_partitions_smaller_aggregate(self, kappa, n1, n2, lam):
        sc = scenario(n1, n2, lam, kappa)
        rep = pg.naive_centralization_report(sc)
        total = rep.firm_cost_central + rep.nonfirm_cost_central
        assert total == pytest.approx(pg.aggregate_cost(n2 + 1, kappa), abs=1e-9)

    def test_total_cost_decreases_when_firm_has_two_or_more(self):
        for n1 in range(2, 10):
            sc = scenario(n1=n1, n2=6, lam=0.5, kappa=3.0)
            assert pg.aggregate_cost(sc.n2 + 1, sc.kappa) < pg.aggregate_cost(sc.n, sc.kappa)


class TestReferenceValues:
    # Tabulated reference rows average a band of firm fractions; the row label
    # is the band mean shown to two decimals, so point checks use the mean.
    def test_minority_firm_moderate_impact(self):
        sc = pg.CentralizationScenario(n1=4, n2=17, lambda_firm=0.40, kappa=5.0)
        rep = pg.naive_centralization_report(sc)
        assert rep.firm_cost_no_central == pytest.approx(1.97, rel=0.03)

    def test_minority_firm_high_impact_nonfirm(self):
        sc = pg.CentralizationScenario(n1=4, n2=17, lambda_firm=0.075, kappa=25.0)
        rep = pg.naive_centralization_report(sc)
        assert rep.nonfirm_cost_no_central == pytest.approx(22.20, rel=0.03)
        assert rep.firm_cost_central == pytest.approx(1.80, rel=0.03)
        assert rep.nonfirm_cost_central == pytest.approx(21.88, rel=0.03)

    def test_firm_cost_splits_are_interchangeable(self):
        # the per-trader cost is affine in the target fraction, so any split
        # of the firm total across its traders sums to the same group cost
        sc = scenario(n1=4, n2=8, lam=0.5, kappa=1.0)
        grouped = pg.naive_centralization_report(sc).firm_cost_no_central
        for split in ((0.125,) * 4, (0.2, 0.15, 0.1, 0.05), (0.34, 0.1, 0.03, 0.03)):
            rest = (0.5 / 8,) * 8
            spec = pg.GameSpec(n=12, lambdas=split + rest, kappa=1.0)
            total = sum(breakdown_of(spec).per_trader[:4])
            assert total == pytest.approx(grouped, abs=1e-12)

    def test_centralized_firm_equals_single_new_trader(self):
        sc = scenario(n1=4, n2=8, lam=0.4, kappa=5.0)
        rest = (0.6 / 8,) * 8
        spec = pg.GameSpec(n=9, lambdas=(0.4,) + rest, kappa=5.0)
        assert pg.naive_centralization_report(sc).firm_cost_central == pytest.approx(
            breakdown_of(spec).per_trader[0], abs=1e-12
        )

    def test_vanishing_nonfirm_fraction_can_profit(self):
        sc = pg.CentralizationScenario(n1=2, n2=2, lambda_firm=1.0 - 1e-6, kappa=5.0)
        assert pg.naive_centralization_report(sc).nonfirm_cost_no_central < 0.0


class TestNaiveReport:
    def test_zero_base_cost_raises_instead_of_an_infinite_percent(self):
        # the cost formula cancels to exactly 0 for the firm at this split
        # (its true cost is about 2.5e-39): no percent change has a value
        sc = pg.CentralizationScenario(n1=6, n2=18, lambda_firm=0.01, kappa=100.0)
        with pytest.raises(pg.ZeroBaseCost, match="non-zero base cost, got exactly 0"):
            pg.naive_centralization_report(sc)
        assert issubclass(pg.ZeroBaseCost, pg.GameSpecError)

    def test_percent_changes_match_quadrants(self):
        sc = scenario()
        rep = pg.naive_centralization_report(sc)
        assert rep.pct_change_firm == pytest.approx(
            100 * (rep.firm_cost_central - rep.firm_cost_no_central) / rep.firm_cost_no_central
        )
        assert rep.total_no_central == pytest.approx(
            rep.firm_cost_no_central + rep.nonfirm_cost_no_central
        )

    def test_firm_typically_loses_and_nonfirm_gains(self):
        sc = pg.CentralizationScenario(n1=4, n2=17, lambda_firm=0.075, kappa=25.0)
        rep = pg.naive_centralization_report(sc)
        assert rep.pct_change_firm > 0.0
        assert rep.pct_change_nonfirm < 0.0
        assert rep.pct_change_total < 0.0


class TestStrategicCost:
    # the curve and the report evaluate the same kernel on the same inputs
    def test_zero_delta_reproduces_independent_trading(self):
        sc = scenario(n1=3, n2=9, lam=0.3, kappa=7.0)
        curve = pg.optimal_representation(sc, (1 - sc.n1, 5))
        rep = pg.naive_centralization_report(sc)
        assert curve.exact_costs[curve.deltas == 0][0] == rep.firm_cost_no_central

    def test_full_consolidation_reproduces_naive_centralization(self):
        sc = scenario(n1=3, n2=9, lam=0.3, kappa=7.0)
        curve = pg.optimal_representation(sc, (1 - sc.n1, 5))
        assert curve.exact_costs[0] == pg.naive_centralization_report(sc).firm_cost_central

    def test_limit_for_large_delta(self):
        sc = scenario(n1=3, n2=8, lam=0.5, kappa=1.0)
        # each group pays its fraction of the many-trader aggregate
        total = pg.aggregate_cost(math.inf, sc.kappa)
        firm_limit, nonfirm_limit = sc.lambda_firm * total, sc.lambda_nonfirm * total
        assert firm_limit == pytest.approx(0.5 / -math.expm1(-1.0), abs=1e-12)
        assert exact_cost(sc, 10**6) == pytest.approx(firm_limit, abs=1e-3)
        assert firm_limit + nonfirm_limit == pytest.approx(
            pg.aggregate_cost(math.inf, sc.kappa), abs=1e-12
        )

    def test_zero_kappa_limits_are_the_fractions(self):
        sc = scenario(n1=2, n2=2, lam=0.25, kappa=0.0)
        total = pg.aggregate_cost(math.inf, sc.kappa)
        firm_limit, nonfirm_limit = sc.lambda_firm * total, sc.lambda_nonfirm * total
        assert firm_limit == pytest.approx(0.25, abs=1e-12)
        assert nonfirm_limit == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 5e-324])
    def test_zero_kappa_costs_are_the_fractions(self, kappa):
        sc = scenario(n1=4, n2=8, lam=0.4, kappa=kappa)
        rep = pg.naive_centralization_report(sc)
        assert (rep.firm_cost_no_central, rep.firm_cost_central) == (0.4, 0.4)
        assert (rep.nonfirm_cost_no_central, rep.nonfirm_cost_central) == (0.6, 0.6)
        assert (rep.pct_change_firm, rep.pct_change_nonfirm, rep.pct_change_total) == (0, 0, 0)
        curve = pg.optimal_representation(sc, (-3, 10))
        assert np.all(curve.exact_costs == 0.4) and np.all(curve.approx_costs == 0.4)
        mean = pg.averaged_report(kappa, (0.3, 0.5))
        assert mean.firm_cost_no_central == pytest.approx(0.4, rel=1e-15)
        assert mean.nonfirm_cost_central == pytest.approx(0.6, rel=1e-15)
        assert (mean.pct_change_firm, mean.pct_change_nonfirm, mean.pct_change_total) == (0, 0, 0)

    def test_representation_floor(self):
        sc = scenario(n1=3, n2=9)
        for delta in (-3, -10):
            with pytest.raises(pg.RepresentationTooSmall):
                pg.optimal_representation(sc, (delta, delta))
        assert exact_cost(sc, -2) == pg.naive_centralization_report(sc).firm_cost_central


class TestOptimalRepresentation:
    def test_continuous_optimum_four_eight(self):
        sc = scenario(n1=4, n2=8, lam=0.4, kappa=5.0)
        curve = pg.optimal_representation(sc)
        assert curve.continuous_opt == pytest.approx(-4 + math.sqrt(72.0), abs=1e-12)
        assert curve.argmin_approx in (4, 5)
        # represented count lands between n2 and n2 + 1
        assert sc.n2 < sc.n1 + curve.continuous_opt < sc.n2 + 1

    def test_optimum_ignores_fraction_and_impact(self):
        reference = pg.continuous_optimal_delta(scenario(n1=4, n2=8, lam=0.1, kappa=1.0))
        for lam in (0.1, 0.333, 0.666):
            for kappa in (1.0, 5.0, 25.0):
                sc = scenario(n1=4, n2=8, lam=lam, kappa=kappa)
                assert pg.continuous_optimal_delta(sc) == reference
                assert pg.optimal_representation(sc).argmin_approx in (4, 5)

    def test_balanced_firm_is_already_near_optimal(self):
        for n in (3, 10, 25):
            sc = scenario(n1=n, n2=n, lam=0.5, kappa=2.0)
            assert 0.0 < pg.continuous_optimal_delta(sc) < 1.0

    def test_minority_firm_gains_by_splitting(self):
        sc = scenario(n1=1, n2=9, lam=0.1, kappa=1.0)
        costs = pg.optimal_representation(sc, (0, 8)).exact_costs
        assert np.all(costs[1:] < costs[0])

    def test_majority_firm_gains_by_consolidating(self):
        sc = scenario(n1=10, n2=5, lam=0.666, kappa=1.0)
        assert pg.continuous_optimal_delta(sc) < 0.0
        assert exact_cost(sc, -4) < exact_cost(sc, 0)

    def test_explicit_range_validation(self):
        sc = scenario(n1=3, n2=9)
        with pytest.raises(pg.RepresentationTooSmall):
            pg.optimal_representation(sc, delta_range=(-5, 10))
        with pytest.raises(ValueError):
            pg.optimal_representation(sc, delta_range=(4, 2))

    @pytest.mark.parametrize("delta_range", [(0, 1, 2), (5,), (), 5], ids=str)
    def test_window_must_be_a_pair(self, delta_range):
        # unpacked blindly, these read "too many" or "not enough values to unpack"
        with pytest.raises(ValueError, match=r"need a delta_range pair \(lo, hi\), got "):
            pg.optimal_representation(scenario(n1=3, n2=9), delta_range=delta_range)

    def test_curve_arrays_align(self):
        sc = scenario(n1=2, n2=6, lam=0.3, kappa=2.0)
        curve = pg.optimal_representation(sc, delta_range=(-1, 12))
        assert curve.deltas[0] == -1 and curve.deltas[-1] == 12
        assert curve.exact_costs.shape == curve.deltas.shape
        k = int(np.argmin(curve.approx_costs))
        assert curve.argmin_approx == curve.deltas[k]

    def test_curve_arrays_are_read_only_copies(self):
        sc = scenario()
        curve = pg.optimal_representation(sc, (-2, 12))
        for name in ("deltas", "exact_costs", "approx_costs"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(curve, name)[0] = -1
        # so the argmins keep describing the costs they were read from
        assert curve.argmin_exact == curve.deltas[int(np.argmin(curve.exact_costs))]
        deltas = np.arange(3)
        costs = np.array([3.0, 1.0, 2.0])
        built = pg.StrategicCurve(deltas, costs, costs, 1, 1, 1.0)
        deltas[1] = 7
        costs[1] = 9.0
        assert built.deltas.tolist() == [0, 1, 2]
        assert built.exact_costs.tolist() == built.approx_costs.tolist() == [3.0, 1.0, 2.0]


class TestAveragedReports:
    def test_quadrature_and_sampling_agree(self):
        band = pg.FRACTION_BANDS[0.40]
        det = pg.averaged_report(5.0, band)
        rng = np.random.default_rng(123)
        # 4000 uniform scenario draws over the default grid, in n, n1, fraction order
        points = [
            (int(rng.choice((20, 21, 22))), int(rng.choice((3, 4, 5))), rng.uniform(*band))
            for _ in range(4000)
        ]
        mc = per_scenario_mean(5.0, points, [1.0] * 4000)
        assert mc["pct_change_firm"] == pytest.approx(det.pct_change_firm, abs=0.2)
        assert mc["firm_cost_no_central"] == pytest.approx(det.firm_cost_no_central, rel=0.02)

    def test_cost_columns_sit_at_band_mean(self):
        # cost columns are affine in the fraction, so the band average equals
        # the point value at the band mean
        band = (0.30, 0.50)
        det = pg.averaged_report(1.0, band, n_values=(21,), n1_values=(4,))
        sc = pg.CentralizationScenario(n1=4, n2=17, lambda_firm=0.40, kappa=1.0)
        assert det.firm_cost_no_central == pytest.approx(
            pg.naive_centralization_report(sc).firm_cost_no_central, abs=1e-9
        )


REPORT_FIELDS = (
    "firm_cost_no_central",
    "nonfirm_cost_no_central",
    "firm_cost_central",
    "nonfirm_cost_central",
    "pct_change_firm",
    "pct_change_nonfirm",
    "pct_change_total",
)


def per_scenario_mean(kappa, scenarios, weights):
    """Reference algorithm: one scenario and one naive report per (n, n1,
    fraction) point, accumulated into a weighted mean in a Python loop."""
    acc = dict.fromkeys(REPORT_FIELDS, 0.0)
    for (n, n1, lam), w in zip(scenarios, weights):
        sc = pg.CentralizationScenario(n1=n1, n2=n - n1, lambda_firm=float(lam), kappa=kappa)
        rep = pg.naive_centralization_report(sc)
        for name in REPORT_FIELDS:
            acc[name] += w * getattr(rep, name)
    return {name: value / sum(weights) for name, value in acc.items()}


class TestBroadcastReportsMatchPerScenarioLoop:
    GRIDS = [((20, 21, 22), (3, 4, 5)), ((30, 31, 32), (14, 15, 16))]

    @pytest.mark.parametrize("kappa", [0.5, 5.0, 25.0])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_averaged_report(self, kappa, grid):
        n_values, n1_values = grid
        for band in pg.FRACTION_BANDS.values():
            nodes, weights = np.polynomial.legendre.leggauss(64)
            lams = 0.5 * (band[1] + band[0]) + 0.5 * (band[1] - band[0]) * nodes
            points = [(n, n1, lam) for n in n_values for n1 in n1_values for lam in lams]
            expected = per_scenario_mean(kappa, points, list(weights) * 9)
            got = pg.averaged_report(kappa, band, n_values=n_values, n1_values=n1_values)
            for name in REPORT_FIELDS:
                assert getattr(got, name) == pytest.approx(expected[name], rel=1e-12)


class TestBandArrayReport:
    @pytest.mark.parametrize("kappa", [0.0, 5e-324, 1.0, 5.0, 25.0])
    @pytest.mark.parametrize("n1_values", [(3, 4, 5), (14, 15, 16)])
    def test_each_row_is_the_one_band_report_bit_for_bit(self, kappa, n1_values):
        bands = list(pg.FRACTION_BANDS.values())
        table = pg.averaged_report(kappa, bands, n1_values=n1_values)
        for k, band in enumerate(bands):
            one = pg.averaged_report(kappa, band, n1_values=n1_values)
            for name in REPORT_FIELDS:
                column = getattr(table, name)
                assert column.shape == (len(bands),)
                assert type(getattr(one, name)) is float
                assert column[k] == getattr(one, name), (name, band)

    def test_every_band_is_checked(self):
        with pytest.raises(ValueError, match="lambda_firm"):
            pg.averaged_report(1.0, [(0.3, 0.5), (0.5, 1.5)])
