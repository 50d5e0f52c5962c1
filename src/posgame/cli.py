"""Command-line interface: scenario configs in, plot-ready CSVs out.

Usage:
    posgame equilibrium --config cfg.json [--out DIR] [--seed N] [--renormalize-lambdas]
    posgame costs       --config cfg.json ...
    posgame centralize  --config cfg.json ...
    posgame poa         --config cfg.json ...
    posgame verify      --config cfg.json ...

One strict JSON schema drives all subcommands (sections: game, grid,
centralization, sweep, table, verify, output); each command reads the
sections it needs, so a single scenario file can serve several commands.
Every command checks every section before it computes, each value once and
by the library's own rule where there is one, so an invalid value fails
every command, also those that never read its section.  Unknown keys and
invalid values anywhere are rejected with their path.  Every CSV starts with a
comment line carrying the tool version and a hash of the effective config
and seed, so identical config + seed reproduce byte-identical files.  The
seed (``output.seed``, or ``--seed``) draws only ``verify``'s target
fractions and deviation bumps; the other commands' rows depend on the config
alone, and the averaged centralization table is a deterministic quadrature.
Cells are written by one rule: strings verbatim, integers as plain digits,
every other number as ``%.12g`` (12 significant digits, locale-independent;
nan and inf as ``nan``, ``inf``, ``-inf``).  The equilibrium command formats
its floats in bulk itself, with a numpy kernel whose every cell is
byte-identical to ``%.12g`` (``_g12``): the curves a chunk of time rows at a
time, and the cost and share rows as one block, whose two lines it puts
after their labels.  The kernel lays out ASCII bytes, and ``_write_csv``
writes bytes rows as they are; it formats every other row with Python's
``%``, as the kernel does every cell it cannot certify.  Every CSV is opened
in binary mode and its other lines are encoded as UTF-8, so no byte depends
on the locale.
Configs are read as UTF-8, JSON's encoding, in any locale.
Exit codes: 0 success, 1 config error (a game the library rejects, such as
a non-finite kappa, counts as one), 2 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from ._g12 import chunk_rows, format_rows
from .centralization import (
    FRACTION_BANDS,
    TABLE_N,
    TABLE_N1,
    CentralizationScenario,
    _check_counts,
    _check_window,
    averaged_report,
    naive_centralization_report,
    optimal_representation,
)
from .core import (
    GameSpec, KappaTooLarge, _check_count, _check_kappa, _check_size, _check_traders, _curve,
    _percent_change, renormalize_lambdas,
)
from .costs import _shares, aggregate_cost, cost_breakdown, group_cost, market_min_cost
from .equilibrium import solve
from .oracle import _check_grid
from .verification import _check_suite_kappa, _check_suite_n, run_verification


class ConfigError(Exception):
    """Configuration problem; reported with the offending key path."""


def _checked(path: str, rule, *args):
    """``rule(*args)``, with the ValueError it raises reported at ``path``,
    and the OverflowError of an integer beyond the largest double too."""
    try:
        return rule(*args)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@contextmanager
def _kappa_reported_at(path: str):
    """Report a KappaTooLarge raised in the block as a config error at
    ``path``: a kappa that every rule admits but the formulas cannot price."""
    try:
        yield
    except KappaTooLarge as exc:
        raise ConfigError(f"{path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Exit 1 on usage errors; exit 2 is reserved for numeric failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cell_format(kind: type) -> str:
    """printf format of a CSV cell of type ``kind``: strings verbatim,
    integers as plain digits, anything else to 12 significant digits."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.12g"


def _fmt(x) -> str:
    """One value formatted as a CSV cell."""
    return _cell_format(type(x)) % (x,)


class _Section:
    """Strict view over one mapping in the config tree."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object")
        self._data = dict(data)
        self.path = path

    def take(self, key, kind, required=False, default=None):
        if key not in self._data:
            if required:
                raise ConfigError(f"{self.path}.{key}: missing required key")
            return default
        value = self._data.pop(key)
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = _checked(f"{self.path}.{key}", float, value)
        if kind in (int, float) and isinstance(value, bool):
            raise ConfigError(f"{self.path}.{key}: expected a number, got a boolean")
        if not isinstance(value, kind):
            raise ConfigError(
                f"{self.path}.{key}: expected {kind.__name__}, got {type(value).__name__}"
            )
        return value

    def take_section(self, key):
        if key not in self._data:
            return None
        return _Section(self._data.pop(key), f"{self.path}.{key}")

    def finish(self):
        if self._data:
            unknown = ", ".join(sorted(self._data))
            raise ConfigError(f"{self.path}: unknown keys: {unknown}")


def _number_list(section: _Section, key: str, required=False, each=None) -> list[float] | None:
    """The non-empty list of numbers at ``key``; ``each(value)``, if given,
    checks every entry."""
    raw = section.take(key, list, required=required, default=None)
    if raw is None:
        return None
    if not raw:
        raise ConfigError(f"{section.path}.{key}: expected a non-empty list")
    if set(map(type, raw)) == {float}:  # plain floats: no conversion, no step per entry
        if each is not None:
            for v in raw:
                _checked(f"{section.path}.{key}", each, v)
        return list(raw)
    out = []
    for k, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{section.path}.{key}[{k}]: expected a number")
        out.append(_checked(f"{section.path}.{key}[{k}]", float, v))
        if each is not None:
            _checked(f"{section.path}.{key}", each, out[-1])
    return out


def _int_list(section: _Section, key: str) -> list[int] | None:
    values = _number_list(section, key)
    if values is None:
        return None
    _checked(f"{section.path}.{key}", _check_count, key, values)
    return [int(v) for v in values]


@dataclass
class Scenario:
    """Validated scenario config; sections absent from the file are None.

    ``seed`` is the effective seed: ``output.seed``, or ``--seed`` if given.
    """

    spec: GameSpec | None = None
    n_points: int = 101
    central: CentralizationScenario | None = None
    delta_range: tuple[int, int] | None = None
    sweep_n: list[int] | None = None
    sweep_kappa: list[float] | None = None
    sweep_lambda1: list[float] | None = None
    table_kappa: list[float] | None = None
    table_rows: list[float] | None = None
    table_n: tuple[int, ...] = TABLE_N
    table_n1: tuple[int, ...] = TABLE_N1
    verify_n: tuple[int, ...] = (2, 3, 5)
    verify_kappa: tuple[float, ...] = (1.0, 5.0, 25.0)
    verify_draws: int = 1
    verify_n_steps: int = 2000
    inject_bug: bool = False
    directory: str = "."
    seed: int = 0

    def require(self, value, message: str):
        if value is None:
            raise ConfigError(message)
        return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object's key-value pairs as a dict; ValueError at a repeated key."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {json.dumps(key)}")
        data[key] = value
    return data


_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:  # JSON is UTF-8 (RFC 8259), whatever the locale
        data = _JSON.decode(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, a repeated key, or an integer literal too long
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def parse_scenario(config: dict, renormalize: bool = False) -> Scenario:
    """Validate the whole config tree, regardless of which command runs.

    Each value is checked once, here, by the library's own rule where it
    has one (see :func:`_checked`), so the commands only compute.
    """
    root = _Section(config, "config")
    sc = Scenario()

    game = root.take_section("game")
    if game is not None:
        n = game.take("n", int, required=True)
        kappa = game.take("kappa", float, required=True)
        symmetric = game.take("symmetric", bool, default=False)
        lambdas = _number_list(game, "lambdas")
        game.finish()
        if symmetric and lambdas is not None:
            raise ConfigError("config.game: give either 'symmetric' or 'lambdas', not both")
        _checked("config.game.kappa", _check_kappa, kappa)
        if symmetric:
            lambdas = _checked("config.game", GameSpec.symmetric, n, kappa).lambdas
        if lambdas is not None:
            if renormalize:
                lambdas = _checked("config.game", renormalize_lambdas, lambdas)
            sc.spec = _checked("config.game", GameSpec, n, tuple(lambdas), kappa)
        else:  # no GameSpec is built to check n
            _checked("config.game.n", _check_traders, n)

    grid = root.take_section("grid")
    if grid is not None:
        sc.n_points = grid.take("n_points", int, default=sc.n_points)
        grid.finish()
        _checked("config.grid.n_points", _check_size, "n_points", sc.n_points, 2, sys.maxsize)

    central = root.take_section("centralization")
    if central is not None:
        n1 = central.take("n1", int, required=True)
        lambda_firm = central.take("lambda_firm", float, required=True)
        window = _int_list(central, "delta_range")
        central.finish()
        if game is None:
            raise ConfigError("config.game: required with config.centralization (n and kappa)")
        _checked("config.centralization.n1", _check_counts, n1, n - n1)
        sc.central = _checked(
            "config.centralization.lambda_firm",
            CentralizationScenario, n1, n - n1, lambda_firm, kappa,
        )
        if window is not None:
            _checked("config.centralization.delta_range", _check_window, n1, window)
            sc.delta_range = tuple(window)

    sweep = root.take_section("sweep")
    if sweep is not None:
        sc.sweep_n = _int_list(sweep, "n")
        sc.sweep_kappa = _number_list(sweep, "kappa", each=_check_kappa)
        sc.sweep_lambda1 = _number_list(sweep, "lambda1")
        sweep.finish()
        # trader 1 holds lambda1 and at least one other trader the rest
        for n in sc.sweep_n or ():
            _checked("config.sweep.n", _check_size, "n", n, 2)
        for lam1 in sc.sweep_lambda1 or ():
            if not 0.0 < lam1 < 1.0:
                raise ConfigError(f"config.sweep.lambda1: {lam1} not in (0, 1)")

    table = root.take_section("table")
    if table is not None:
        sc.table_kappa = _number_list(table, "kappa", required=True, each=_check_kappa)
        sc.table_rows = _number_list(table, "rows", required=True)
        n_values = _int_list(table, "n")
        n1_values = _int_list(table, "n1")
        table.finish()
        if n_values is not None:
            sc.table_n = tuple(n_values)
        if n1_values is not None:
            sc.table_n1 = tuple(n1_values)
        n2_values = np.subtract.outer(sc.table_n, sc.table_n1)
        _checked("config.table.n1", _check_counts, sc.table_n1, n2_values)
        for label in sc.table_rows:
            if label not in FRACTION_BANDS:
                raise ConfigError(
                    f"config.table.rows: {label} has no fraction band; known rows: "
                    + ", ".join(_fmt(k) for k in sorted(FRACTION_BANDS))
                )

    verify = root.take_section("verify")
    if verify is not None:
        n_values = _int_list(verify, "n")
        kappa_values = _number_list(verify, "kappa")
        sc.verify_draws = verify.take("draws", int, default=sc.verify_draws)
        sc.verify_n_steps = verify.take("n_steps", int, default=sc.verify_n_steps)
        sc.inject_bug = verify.take("inject_bug", bool, default=sc.inject_bug)
        verify.finish()
        if n_values is not None:
            sc.verify_n = tuple(n_values)
        if kappa_values is not None:
            sc.verify_kappa = tuple(kappa_values)
        _checked("config.verify.n", _check_suite_n, sc.verify_n)
        _checked("config.verify.kappa", _check_suite_kappa, sc.verify_kappa)
        _checked("config.verify.n_steps", _check_grid, max(sc.verify_kappa), sc.verify_n_steps)
        _checked("config.verify.draws", _check_size, "draws", sc.verify_draws, 1)

    output = root.take_section("output")
    if output is not None:
        sc.directory = output.take("directory", str, default=sc.directory)
        sc.seed = output.take("seed", int, default=sc.seed)
        output.finish()
        _checked("config.output.seed", _check_size, "seed", sc.seed, 0)

    root.finish()
    return sc


def _config_hash(config: dict, seed: int) -> str:
    payload = json.dumps(
        {"config": config, "seed": seed}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _write_csv(out_dir: Path, name: str, header: list[str], rows, meta: str,
               extra_comments: list[str] | None = None) -> Path:
    """Write comment lines, the header and ``rows`` as one CSV file.

    A ``bytes`` row is one or more finished lines, written as they are (the
    equilibrium command's kernel output).  Any other row is a sequence of
    cells, formatted by a single ``%`` on a line format built once per
    distinct tuple of cell types (see :func:`_cell_format`) and encoded as
    UTF-8 once per run of such rows, so no byte depends on the locale.
    ``rows`` may be an iterator, so a caller can stream a large table a chunk
    of rows at a time.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    lines = [f"{line}\n" for line in (meta, *(extra_comments or ()), ",".join(header))]
    formats = {}
    with path.open("wb") as file:
        for row in rows:
            if isinstance(row, bytes):
                file.write("".join(lines).encode())
                lines = []
                file.write(row)
                continue
            kinds = tuple(map(type, row))
            fmt = formats.get(kinds)
            if fmt is None:
                fmt = formats[kinds] = ",".join(map(_cell_format, kinds)) + "\n"
            lines.append(fmt % tuple(row))
        file.write("".join(lines).encode())
    return path


def _curve_rows(solution, n_points: int):
    """equilibrium.csv's float lines (t, a_1 .. a_n, m) on ``n_points`` equal
    steps of [0, 1], as the ``_g12`` kernel's bytes, one chunk of time rows
    at a time: the (n, n_points) curves are never built.  The time grid and
    the market curve, one value each per point (16 bytes a point), are held
    whole; the market curve is elementwise, so each cell is the one a chunk
    would compute."""
    t = np.linspace(0.0, 1.0, n_points)
    market = solution.market(t)
    width = solution.spec.n + 2
    step = chunk_rows(width)
    for start in range(0, n_points, step):
        times = t[start:start + step]
        block = np.empty((times.size, width))
        block[:, 0] = times
        # time along the rows, traders along the columns
        block[:, 1:-1] = _curve(solution.b, solution.d, solution.spec.kappa, solution.alpha,
                                times[:, None], 0)
        block[:, -1] = market[start:start + step]
        yield from format_rows(block)


def cmd_equilibrium(sc: Scenario, out_dir: Path, meta: str) -> int:
    spec = sc.require(
        sc.spec, "config.game: 'lambdas' or 'symmetric' is required for equilibrium"
    )
    with _kappa_reported_at("config.game.kappa"):
        sol = solve(spec)
    header = ["t"] + [f"a_{i + 1}" for i in range(spec.n)] + ["m"]
    breakdown = cost_breakdown(spec)
    totals = np.array([[*breakdown.per_trader, breakdown.aggregate], [*breakdown.shares, 1.0]])
    cost, share = b"".join(format_rows(totals)).splitlines(keepends=True)
    rows = chain(_curve_rows(sol, sc.n_points), [b"cost," + cost, b"share," + share])
    _write_csv(out_dir, "equilibrium.csv", header, rows, meta)
    return 0


def cmd_costs(sc: Scenario, out_dir: Path, meta: str) -> int:
    n_values = sc.require(sc.sweep_n, "config.sweep.n: required for costs")
    kappa_values = sc.require(sc.sweep_kappa, "config.sweep.kappa: required for costs")
    lambda1_values = sc.require(sc.sweep_lambda1, "config.sweep.lambda1: required for costs")
    header = ["n", "kappa", "lambda1", "cost", "share", "fair_share_deviation", "aggregate"]
    lam1 = np.array(lambda1_values)
    rows = []
    with _kappa_reported_at("config.sweep.kappa"):
        for n in n_values:
            for kappa in kappa_values:
                # trader 1's entries of cost_breakdown, for every lambda1 at once
                shares = _shares(n, kappa, lam1)
                columns = (group_cost(n, 1, lam1, kappa), shares, shares - lam1)
                aggregate = aggregate_cost(n, kappa)
                rows += [
                    [n, kappa, *cells, aggregate]
                    for cells in zip(lambda1_values, *(c.tolist() for c in columns))
                ]
    _write_csv(out_dir, "costs.csv", header, rows, meta)
    return 0


def cmd_centralize(sc: Scenario, out_dir: Path, meta: str) -> int:
    scenario = sc.require(sc.central, "config.centralization: required for centralize")
    with _kappa_reported_at("config.game.kappa"):
        rep = naive_centralization_report(scenario)
        curve = optimal_representation(scenario, delta_range=sc.delta_range)
    if sc.table_kappa is not None:  # every row is priced before any file is written
        bands = [FRACTION_BANDS[label] for label in sc.table_rows]
        n1_mean = float(np.mean(sc.table_n1))
        table_rows = []
        with _kappa_reported_at("config.table.kappa"):
            for kap in sc.table_kappa:  # one report per kappa, one row per band
                table = averaged_report(kap, bands, n_values=sc.table_n, n1_values=sc.table_n1)
                columns = (table.pct_change_firm, table.pct_change_nonfirm,
                           table.pct_change_total, table.firm_cost_no_central,
                           table.firm_cost_central, table.nonfirm_cost_no_central,
                           table.nonfirm_cost_central)
                table_rows += [[label, n1_mean, kap, *cells] for label, *cells
                               in zip(sc.table_rows, *(c.tolist() for c in columns))]

    header = [
        "n", "n1", "n2", "kappa", "lambda_firm",
        "firm_no_central", "nonfirm_no_central", "firm_central", "nonfirm_central",
        "pct_change_firm", "pct_change_nonfirm", "pct_change_total",
    ]
    row = [
        scenario.n, scenario.n1, scenario.n2, scenario.kappa, scenario.lambda_firm,
        rep.firm_cost_no_central, rep.nonfirm_cost_no_central,
        rep.firm_cost_central, rep.nonfirm_cost_central,
        rep.pct_change_firm, rep.pct_change_nonfirm, rep.pct_change_total,
    ]
    _write_csv(out_dir, "centralize_report.csv", header, [row], meta)

    curve_header = ["delta", "represented", "exact_cost", "approx_cost",
                    "pct_change_exact", "pct_change_approx"]
    # .tolist() keeps the deltas Python ints, written as plain digits
    columns = [curve.deltas, curve.deltas + scenario.n1, curve.exact_costs, curve.approx_costs]
    for costs in (curve.exact_costs, curve.approx_costs):
        base = costs[curve.deltas == 0]
        # no percent change without a delta = 0 baseline in the window
        if base.size and base[0]:
            columns.append(_percent_change(costs, base[0]))
        else:
            columns.append(np.full(costs.size, np.nan))
    curve_rows = list(zip(*(c.tolist() for c in columns)))
    comments = [
        f"# continuous_opt={_fmt(curve.continuous_opt)}"
        f" argmin_exact={curve.argmin_exact} argmin_approx={curve.argmin_approx}"
    ]
    _write_csv(out_dir, "centralize_curve.csv", curve_header, curve_rows, meta,
               extra_comments=comments)

    if sc.table_kappa is not None:
        table_header = [
            "lambda_row", "n1_mean", "kappa",
            "pct_change_firm", "pct_change_nonfirm", "pct_change_total",
            "firm_no_central", "firm_central", "nonfirm_no_central", "nonfirm_central",
        ]
        _write_csv(out_dir, "centralize_table.csv", table_header, table_rows, meta)
    return 0


def cmd_poa(sc: Scenario, out_dir: Path, meta: str) -> int:
    n_values = sc.require(sc.sweep_n, "config.sweep.n: required for poa")
    kappa_values = sc.require(sc.sweep_kappa, "config.sweep.kappa: required for poa")
    header = ["n", "kappa", "aggregate_cost", "pct_increase_vs_n2", "poa_ratio"]
    ns = np.array(n_values, dtype=float)
    rows = []
    with _kappa_reported_at("config.sweep.kappa"):
        for kappa in kappa_values:
            base = aggregate_cost(2, kappa)
            least = market_min_cost(kappa)
            # aggregate_cost's n >= 2 branch, for every n at once
            aggregates = group_cost(ns, ns, 1.0, kappa)
            columns = (aggregates, _percent_change(aggregates, base), aggregates / least)
            rows += [
                [n, kappa, *cells] for n, *cells in zip(n_values, *(c.tolist() for c in columns))
            ]
    _write_csv(out_dir, "poa.csv", header, rows, meta)
    return 0


def cmd_verify(sc: Scenario, out_dir: Path, meta: str) -> int:
    with _kappa_reported_at("config.verify.kappa"):  # a drawn game the closed form rejects
        report = run_verification(
            n_values=sc.verify_n,
            kappa_values=sc.verify_kappa,
            draws=sc.verify_draws,
            n_steps=sc.verify_n_steps,
            seed=sc.seed,
            inject_bug=sc.inject_bug,
        )

    header = ["check", "measured", "threshold", "status", "detail"]
    rows = [[c.name, c.value, c.threshold, c.status, c.detail] for c in report.checks]
    _write_csv(out_dir, "verify_report.csv", header, rows, meta)
    for line in report.lines():
        print(line)
    if not report.passed:
        n_failed = sum(not c.passed for c in report.checks)
        print(f"verification FAILED: {n_failed}/{len(report.checks)} checks", file=sys.stderr)
        return 2
    print(f"verification passed: {len(report.checks)} checks")
    return 0


_COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "costs": cmd_costs,
    "centralize": cmd_centralize,
    "poa": cmd_poa,
    "verify": cmd_verify,
}


@cache
def _parser() -> _Parser:  # built once per process
    parser = _Parser(
        prog="posgame",
        description="Equilibrium position-building analysis: strategies, costs, "
        "centralization and oracle verification.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON scenario config")
    parser.add_argument(
        "--out", default=None,
        help="output directory (default: config's output.directory or '.')",
    )
    parser.add_argument("--seed", type=int, default=None, help="override output.seed")
    parser.add_argument(
        "--renormalize-lambdas",
        action="store_true",
        help="rescale game.lambdas to sum to one instead of rejecting them",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        config = _load_config(args.config)
        scenario = parse_scenario(config, renormalize=args.renormalize_lambdas)
        if args.seed is not None:
            _checked("--seed", _check_size, "seed", args.seed, 0)
            scenario.seed = args.seed
        out_dir = Path(args.out) if args.out is not None else Path(scenario.directory)
        meta = (
            f"# posgame {__version__} command={args.command} "
            f"config_sha256={_config_hash(config, scenario.seed)}"
        )
        return _COMMANDS[args.command](scenario, out_dir, meta)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
