import ast
import dataclasses
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posgame as pg
import posgame.core
import posgame.rules as rules
from conftest import game_specs
from posgame.core import _gauss_legendre_64, percent_change
from posgame.rules import check_grid, check_size, check_suite_n, check_window


class TestValidateSpec:
    """A GameSpec checks itself when it is built: every invalid instance
    raises its typed error from the constructor."""

    def test_symmetric_two_trader_valid(self):
        spec = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        assert spec.lambdas == (0.5, 0.5)

    def test_lambda_sum_mismatch(self):
        with pytest.raises(pg.LambdaSumMismatch):
            pg.GameSpec(n=2, lambdas=(0.7, 0.4), kappa=1.0)
        valid = pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=1.0)
        with pytest.raises(pg.LambdaSumMismatch):
            dataclasses.replace(valid, lambdas=(0.7, 0.4))

    def test_three_trader_high_kappa_valid(self):
        spec = pg.GameSpec(n=3, lambdas=(0.2, 0.3, 0.5), kappa=25.0)
        assert spec.kappa == 25.0

    def test_non_positive_lambda(self):
        with pytest.raises(pg.NonPositiveLambda):
            pg.GameSpec(n=2, lambdas=(1.0, 0.0), kappa=1.0)
        with pytest.raises(pg.NonPositiveLambda):
            pg.GameSpec(n=2, lambdas=(1.5, -0.5), kappa=1.0)

    def test_negative_kappa(self):
        with pytest.raises(pg.NegativeKappa):
            pg.GameSpec(n=1, lambdas=(1.0,), kappa=-0.1)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa(self, kappa):
        with pytest.raises(pg.NonFiniteKappa):
            pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=kappa)
        assert issubclass(pg.NonFiniteKappa, pg.GameSpecError)

    def test_negative_infinite_kappa_is_negative(self):
        with pytest.raises(pg.NegativeKappa):
            pg.GameSpec(n=2, lambdas=(0.5, 0.5), kappa=-math.inf)

    def test_empty_game(self):
        with pytest.raises(pg.EmptyGame):
            pg.GameSpec(n=0, lambdas=(), kappa=1.0)

    @pytest.mark.parametrize(
        "n,lambdas",
        [(2.0, (0.5, 0.5)), (True, (1.0,)), (np.float64(1.0), (1.0,)), (0.0, ()),
         (2.5, (0.5, 0.5))],
    )
    def test_trader_count_must_be_an_integer(self, n, lambdas):
        # a whole float or a bool is no count: solve sizes its arrays with n
        with pytest.raises(pg.NonIntegerCount, match="^n = .* must be an integer$"):
            pg.GameSpec(n=n, lambdas=lambdas, kappa=1.0)

    def test_numpy_integer_counts_stay_valid(self):
        assert pg.GameSpec(n=np.int64(2), lambdas=(0.5, 0.5), kappa=1.0).n == 2
        assert type(pg.GameSpec.symmetric(2.0, 1.0).n) is int

    @pytest.mark.parametrize("n", [0, -1])
    def test_symmetric_game_without_traders(self, n):
        with pytest.raises(pg.EmptyGame):
            pg.GameSpec.symmetric(n, 1.0)

    def test_count_mismatch(self):
        with pytest.raises(pg.LambdaCountMismatch):
            pg.GameSpec(n=3, lambdas=(0.5, 0.5), kappa=1.0)

    def test_sum_tolerance_is_tight(self):
        # within 1e-12 passes, above it fails
        pg.GameSpec(n=2, lambdas=(0.5, 0.5 + 5e-13), kappa=1.0)
        with pytest.raises(pg.LambdaSumMismatch):
            pg.GameSpec(n=2, lambdas=(0.5, 0.5 + 5e-12), kappa=1.0)


def test_renormalize_is_explicit_only():
    skewed = (0.7, 0.4)
    with pytest.raises(pg.LambdaSumMismatch):
        pg.GameSpec(n=2, lambdas=skewed, kappa=1.0)
    fixed = pg.renormalize_lambdas(skewed)
    assert math.fsum(fixed) == pytest.approx(1.0, abs=1e-15)
    assert fixed[0] == pytest.approx(0.7 / 1.1)
    assert pg.GameSpec(n=2, lambdas=fixed, kappa=1.0).lambdas == fixed
    with pytest.raises(pg.NonPositiveLambda):
        pg.renormalize_lambdas((0.5, -0.5))


def test_renormalize_rescales_fractions_whose_sum_overflows():
    # math.fsum raised a bare "OverflowError: intermediate overflow in fsum"
    big = sys.float_info.max
    assert pg.renormalize_lambdas([1e308, 1e308]) == (0.5, 0.5)
    assert pg.renormalize_lambdas([big] * 4) == (0.25,) * 4
    # a power of two scales exactly, so the quotients are those of the scaled fractions
    assert pg.renormalize_lambdas([1e308, 3e307, 7e307]) == pg.renormalize_lambdas(
        [math.ldexp(lam, -64) for lam in (1e308, 3e307, 7e307)])
    with pytest.raises(pg.LambdaSumMismatch, match="^sum of lambdas is inf, expected 1$"):
        pg.GameSpec(2, (1e308, 1e308), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 0.0])
def test_renormalize_rejects_the_fraction_given(bad):
    # [nan, 1] gave (nan, nan), [inf, 1] (nan, 0.0) and [-0.5, 1] (-1.0, 2.0)
    message = f"^lambda_1 = {bad} must be positive and finite$"
    with pytest.raises(pg.NonPositiveLambda, match=message):
        pg.renormalize_lambdas([bad, 1.0])


def test_symmetric_constructor():
    spec = pg.GameSpec.symmetric(5, 2.0)
    assert spec.n == 5
    assert all(lam == 0.2 for lam in spec.lambdas)
    with pytest.raises(pg.NonIntegerCount):
        pg.GameSpec.symmetric(2.5, 1.0)
    for n in (True, np.True_):  # a bool is no count, as for GameSpec itself
        with pytest.raises(pg.NonIntegerCount, match="^n = True must be a whole number, not a bool$"):
            pg.GameSpec.symmetric(n, 1.0)


def test_count_beyond_every_float_is_a_spec_error():
    with pytest.raises(pg.GameSpecError, match="^n: int too large to convert to float$"):
        pg.GameSpec.symmetric(10**400, 1.0)


def test_array_lengths_stop_at_the_largest_index():
    """Each size that sets an array's length admits the longest array numpy
    could index (sys.maxsize entries) and rejects one entry more, before
    anything is allocated."""
    longest = sys.maxsize
    check_size("n_points", longest, 2, longest)
    check_grid(1.0, longest - 1)  # n_steps + 1 grid nodes
    check_suite_n([2, longest])
    check_window(4, (-3, longest - 4))  # hi - lo + 1 deltas
    too_long = [
        lambda: check_size("n_points", longest + 1, 2, longest),
        lambda: check_grid(1.0, longest),
        lambda: check_suite_n([2, longest + 1]),
        lambda: check_window(4, (-3, longest - 3)),
        lambda: pg.GameSpec.symmetric(longest + 1, 1.0),
        lambda: pg.GameSpec.symmetric(1e30, 1.0),
    ]
    for rule in too_long:
        with pytest.raises(ValueError, match=f"{longest}"):
            rule()


@settings(max_examples=30, deadline=None)
@given(spec=game_specs())
def test_solutions_satisfy_endpoint_and_aggregation_invariants(spec):
    sol = pg.solve(spec)
    t = np.linspace(0.0, 1.0, 1001)
    weighted = spec.lambdas_array() @ sol.positions(t)
    assert np.max(np.abs(weighted - sol.market(t))) < 1e-9
    assert np.all(sol.positions(0.0) == 0.0)
    assert np.max(np.abs(sol.positions(1.0) - 1.0)) < 1e-10
    assert sol.market(0.0) == 0.0
    assert abs(sol.market(1.0) - 1.0) < 1e-12


def test_percent_change_of_a_zero_base_raises():
    with pytest.raises(pg.ZeroBaseCost):
        percent_change(1.0, 0.0)
    with pytest.raises(pg.ZeroBaseCost):  # one zero among the bases is enough
        percent_change(np.ones(3), np.array([1.0, -0.0, 2.0]))
    assert percent_change(np.ones(2), np.array([0.5, 2.0])).tolist() == [100.0, -50.0]


def test_few_private_names_cross_module_boundaries():
    """Ratchet: the ``_``-prefixed names (dunders aside) that one src/posgame
    module imports from another.  Each is a kernel or rule that a library
    user cannot reach by its public name; the count may fall, not grow."""
    package = Path(pg.__file__).resolve().parent
    imported = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported += [f"{path.stem} <- {node.module}.{alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert len(imported) <= 3, "\n".join(imported)
    # the commands check their config by the public rules and price costs
    # through the public cost functions only; the closed form borrows nothing
    assert not [name for name in imported if name.startswith(("cli <- ", "equilibrium <- "))]
    # each shared rule has one public home; a rule one module calls stays there
    assert not [name for name in imported if "._check" in name]


def test_the_oracle_imports_only_the_input_rules():
    """The oracle may share only the cost functional and the boundary
    conditions with the closed forms: of the package it imports
    posgame.rules alone, so no closed-form name can reach it."""
    tree = ast.parse((Path(pg.__file__).resolve().parent / "oracle.py").read_text())
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level}
    assert modules == {"rules"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("posgame") for alias in node.names)]


def test_core_imports_only_the_input_rules():
    """core holds the game and the shared percent-change and quadrature
    rules; of the package it imports posgame.rules alone, so every layer can
    import it."""
    tree = ast.parse((Path(pg.__file__).resolve().parent / "core.py").read_text())
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level}
    assert modules == {"rules"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("posgame") for alias in node.names)]


def test_the_closed_form_has_one_home():
    """The decay rate, the curve kernels and the solution type are defined in
    posgame.equilibrium alone, and the cost commands reach the cost kernels
    only through cost_breakdown, aggregate_cost and price_of_anarchy."""
    package = Path(pg.__file__).resolve().parent
    homes = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, []).append(path.stem)
    for name in ("decay_rate", "curve", "_market_curve", "EquilibriumSolution", "solve"):
        assert homes[name] == ["equilibrium"], name
    assert homes["CostBreakdown"] == homes["cost_breakdown"] == ["costs"]
    cli_tree = ast.parse((package / "cli.py").read_text())
    cli_names = {alias.name for node in ast.walk(cli_tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    assert not cli_names & {"group_cost", "cost_shares"}


def test_the_input_errors_and_rules_have_one_home():
    """posgame.rules defines the errors, the kappa floor and the shared rules;
    the package exports the same classes, and core no longer re-exports them."""
    errors = [name for name, obj in vars(rules).items()
              if isinstance(obj, type) and issubclass(obj, ValueError)]
    assert len(errors) == 13
    for name in errors:
        assert getattr(pg, name) is getattr(rules, name) and name in pg.__all__
        assert getattr(rules, name).__module__ == "posgame.rules"
    assert not hasattr(posgame.core, "GameSpecError")
    assert rules.KAPPA_FLOOR == 1e-300


def test_cli_writes_csvs_only_from_main():
    """Ratchet: the commands return their tables and ``main`` writes them, so
    cli.py names its CSV writer once, in one call in ``main``."""
    tree = ast.parse((Path(pg.__file__).resolve().parent / "cli.py").read_text())

    def writer_names(node):
        return [name for name in ast.walk(node)
                if isinstance(name, ast.Name) and name.id == "_write_csv"]

    [main] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "main"]
    calls = [node.func for node in ast.walk(main) if isinstance(node, ast.Call)]
    [name] = writer_names(tree)
    assert name in writer_names(main) and name in calls


def test_readme_quick_start_runs():
    """Every ``python`` block of README.md runs against the current API."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    nodes, weights = _gauss_legendre_64()
    expected_nodes, expected_weights = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(nodes, expected_nodes)
    assert np.array_equal(weights, expected_weights)
    # odd nodes and even weights, to the bit, and shared read-only
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert not nodes.flags.writeable and not weights.flags.writeable
    # exact for every polynomial of degree at most 2 * 64 - 1
    for k in range(128):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(weights, nodes**k) - exact) <= 1e-14, k


positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(value=positive_floats, base=positive_floats)
def test_percent_change_is_finite_wherever_the_percentage_is(value, base):
    # costs are positive, so value - base never overflows, and the two
    # roundings (each at most 2^-53 relative) keep an exact percentage below
    # DBL_MAX (1 - 2^-50) finite
    percent = percent_change(value, base)
    exact = 100 * (Fraction(value) - Fraction(base)) / Fraction(base)
    if abs(exact) <= sys.float_info.max * (1 - 2.0**-50):
        assert math.isfinite(percent)
    scaled = 100.0 * (value - base)
    old = scaled / base  # the order that scales before it divides
    if sys.float_info.min <= abs(scaled) and math.isfinite(old):
        assert abs(percent - old) <= 2 * np.spacing(abs(old))
