import math

import numpy as np
import pytest
from hypothesis import given, settings

import posgame as pg
from conftest import game_specs


class TestValidateSpec:
    def test_symmetric_two_trader_valid(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        assert pg.validate_spec(spec) is spec

    def test_lambda_sum_mismatch(self):
        with pytest.raises(pg.LambdaSumMismatch):
            pg.validate_spec(pg.GameSpec(n=2, lambdas=(0.7, 0.4), kappa=1.0))

    def test_three_trader_high_kappa_valid(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=25.0)
        assert pg.validate_spec(spec) is spec

    def test_non_positive_lambda(self):
        with pytest.raises(pg.NonPositiveLambda):
            pg.validate_spec(pg.GameSpec(n=2, lambdas=(1.0, 0.0), kappa=1.0))
        with pytest.raises(pg.NonPositiveLambda):
            pg.validate_spec(pg.GameSpec(n=2, lambdas=(1.5, -0.5), kappa=1.0))

    def test_negative_kappa(self):
        with pytest.raises(pg.NegativeKappa):
            pg.validate_spec(pg.GameSpec(n=1, lambdas=(1.0,), kappa=-0.1))

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa(self, kappa):
        with pytest.raises(pg.NonFiniteKappa):
            pg.validate_spec(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=kappa))
        assert issubclass(pg.NonFiniteKappa, pg.GameSpecError)

    def test_negative_infinite_kappa_is_negative(self):
        with pytest.raises(pg.NegativeKappa):
            pg.validate_spec(pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=-math.inf))

    def test_empty_game(self):
        with pytest.raises(pg.EmptyGame):
            pg.validate_spec(pg.GameSpec(n=0, lambdas=(), kappa=1.0))

    def test_count_mismatch(self):
        with pytest.raises(pg.LambdaCountMismatch):
            pg.validate_spec(pg.GameSpec(n=3, lambdas=(0.5, 0.5), kappa=1.0))

    def test_sum_tolerance_is_tight(self):
        # within 1e-12 passes, above it fails
        pg.validate_spec(pg.GameSpec(n=2, lambdas=(0.5, 0.5 + 5e-13), kappa=1.0))
        with pytest.raises(pg.LambdaSumMismatch):
            pg.validate_spec(pg.GameSpec(n=2, lambdas=(0.5, 0.5 + 5e-12), kappa=1.0))


def test_renormalize_is_explicit_only():
    skewed = pg.GameSpec(n=2, lambdas=(0.7, 0.4), kappa=1.0)
    with pytest.raises(pg.LambdaSumMismatch):
        pg.validate_spec(skewed)
    fixed = pg.renormalize_lambdas(skewed)
    assert math.fsum(fixed.lambdas) == pytest.approx(1.0, abs=1e-15)
    assert fixed.lambdas[0] == pytest.approx(0.7 / 1.1)


def test_symmetric_constructor():
    spec = pg.GameSpec.symmetric(5, 2.0)
    assert spec.n == 5
    assert all(lam == 0.2 for lam in spec.lambdas)
    pg.validate_spec(spec)


class TestSampledPath:
    def test_grid_must_cover_unit_interval(self):
        with pytest.raises(pg.GridMismatch):
            pg.SampledPath(grid=np.array([0.0, 0.5, 0.9]), values=np.zeros(3))

    def test_grid_strictly_increasing(self):
        with pytest.raises(pg.GridMismatch):
            pg.SampledPath(grid=np.array([0.0, 0.5, 0.5, 1.0]), values=np.zeros(4))

    def test_too_small(self):
        with pytest.raises(pg.GridTooSmall):
            pg.SampledPath(grid=np.array([0.0]), values=np.array([0.0]))

    def test_immutable_after_construction(self):
        path = pg.SampledPath(grid=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            path.values[0] = 5.0


@settings(max_examples=30, deadline=None)
@given(spec=game_specs())
def test_solutions_satisfy_endpoint_and_aggregation_invariants(spec):
    sol = pg.solve(spec)
    t = np.linspace(0.0, 1.0, 1001)
    weighted = sum(
        lam * s.position(t) for lam, s in zip(spec.lambdas, sol.strategies)
    )
    assert np.max(np.abs(weighted - sol.market(t))) < 1e-9
    for s in sol.strategies:
        assert s.position(0.0) == 0.0
        assert abs(s.position(1.0) - 1.0) < 1e-10
    assert sol.market(0.0) == 0.0
    assert abs(sol.market(1.0) - 1.0) < 1e-12
