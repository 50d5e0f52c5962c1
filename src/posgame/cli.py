"""Command-line interface: scenario configs in, plot-ready CSVs out.

Usage:
    posgame equilibrium --config cfg.json [--out DIR] [--seed N] [--renormalize-lambdas]
    posgame costs       --config cfg.json ...
    posgame centralize  --config cfg.json ...
    posgame poa         --config cfg.json ...
    posgame verify      --config cfg.json ...

One strict JSON schema, ``_SCHEMA``, drives all subcommands (sections: game,
grid, centralization, sweep, table, verify, output); each command reads the
sections it needs, so a single scenario file can serve several commands.
Every command checks every section before it computes, each value once and
by the library's own rule where there is one (:mod:`posgame.rules`), so an
invalid value fails every command, also those that never read its section.
Unknown keys and invalid values anywhere are rejected with their path.
Every CSV starts with a comment line carrying the tool version and a hash of
the config as written (defaults not filled in) and the seed, so identical
config + seed reproduce byte-identical files.  The seed (``output.seed``, or
``--seed``) draws only ``verify``'s target fractions and deviation bumps; the
other commands' rows depend on the config alone, and the averaged table is a
fixed quadrature.
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
on the locale.  Configs are read as UTF-8, JSON's encoding, in any locale.
Commands touch no file: ``main`` writes their tables, then prints their
lines (see :func:`_write_csv`).  A failed command leaves its older files as
they were, but a rename failing after another leaves the earlier ones new.
Exit codes: 0 success, 1 config error (a game the library rejects, such as
a non-finite kappa, counts as one), 2 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import namedtuple
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
    averaged_report,
    naive_centralization_report,
    optimal_representation,
)
from .core import GameSpec, percent_change, renormalize_lambdas
from .costs import aggregate_cost, cost_breakdown, price_of_anarchy
from .equilibrium import solve
from .rules import (
    ArrayTooLarge, KappaTooLarge, ZeroBaseCost, check_count, check_counts, check_grid,
    check_kappa, check_size, check_suite_kappa, check_suite_n, check_traders, check_window,
    sized_by,
)
from .verification import run_verification


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
def _reported_at(path: str, error: type[Exception]):
    """Report an ``error`` raised in the block as a config error at ``path``:
    a value that every rule admits but the formulas cannot price."""
    try:
        yield
    except error as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@contextmanager
def _size_reported_at(path: str):
    """Report a MemoryError, or numpy's "array is too big" ValueError, raised
    in the block as a config error at ``path``: a size that every rule
    admits but whose array does not fit in memory.  An ArrayTooLarge that
    names another setting is reported at that setting's key beside ``path``."""
    section, _, setting = path.rpartition(".")
    try:
        with sized_by(setting):
            yield
    except ArrayTooLarge as exc:
        raise ConfigError(f"{section}.{exc.setting}: {exc}") from exc


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


REQUIRED = object()  # a schema default: the key has none and must be given
_NUMBERS = "number list"  # a non-empty JSON list of numbers, read as floats
_INTEGERS = "integer list"  # one of whole numbers, each JSON integer kept as parsed

# section -> key -> (kind, default), each in the order it is read.  A default
# of None leaves the key unset: the commands that need it say so.
_SCHEMA = {
    "game": {"n": (int, REQUIRED), "kappa": (float, REQUIRED), "symmetric": (bool, False),
             "lambdas": (_NUMBERS, None)},
    "grid": {"n_points": (int, 101)},
    "centralization": {"n1": (int, REQUIRED), "lambda_firm": (float, REQUIRED),
                       "delta_range": (_INTEGERS, None)},
    "sweep": {"n": (_INTEGERS, None), "kappa": (_NUMBERS, None), "lambda1": (_NUMBERS, None)},
    "table": {"kappa": (_NUMBERS, REQUIRED), "rows": (_NUMBERS, REQUIRED),
              "n": (_INTEGERS, TABLE_N), "n1": (_INTEGERS, TABLE_N1)},
    "verify": {"n": (_INTEGERS, (2, 3, 5)), "kappa": (_NUMBERS, (1.0, 5.0, 25.0)),
               "draws": (int, 1), "n_steps": (int, 2000), "inject_bug": (bool, False)},
    "output": {"directory": (str, "."), "seed": (int, 0)},
}


def _value(path: str, kind, value):
    """The config value at ``path`` read as ``kind``, one of ``_SCHEMA``'s.
    A bool is no number; an int read as a float, and every list entry, must
    fit a double.  An integer list needs whole numbers and keeps each JSON
    integer as parsed, so an n above 2^53 stays exact."""
    if kind not in (_NUMBERS, _INTEGERS):
        if kind in (int, float) and isinstance(value, bool):
            raise ConfigError(f"{path}: expected a number, got a boolean")
        if kind is float and isinstance(value, int):
            return _checked(path, float, value)
        if not isinstance(value, kind):
            raise ConfigError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
        return value
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected list, got {type(value).__name__}")
    if not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    if set(map(type, value)) == {float}:  # plain floats: no conversion, no step per entry
        numbers = list(value)
    else:
        numbers = []
        for k, v in enumerate(value):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{path}[{k}]: expected a number")
            numbers.append(_checked(f"{path}[{k}]", float, v))
    if kind is _NUMBERS:
        return numbers
    _checked(path, check_count, path.rpartition(".")[2], numbers)
    return [v if isinstance(v, int) else int(v) for v in value]


def _unknown_keys(data: dict, known, path: str) -> None:
    """ConfigError at ``path`` naming every key of ``data`` not in ``known``."""
    unknown = data.keys() - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(sorted(unknown))}")


def _section(config: dict, name: str) -> dict:
    """Section ``name`` of ``config`` by its ``_SCHEMA`` rows: each key given
    is read as its kind (see :func:`_value`), in the table's order, then
    unknown keys are rejected, then each key left out takes its default.  A
    section left out reads as its defaults, with None for a REQUIRED key."""
    rows = _SCHEMA[name]
    if name not in config:
        return {key: None if default is REQUIRED else default for key, (_, default) in rows.items()}
    path, data = f"config.{name}", config[name]
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    values = {key: _value(f"{path}.{key}", kind, data[key])
              for key, (kind, _) in rows.items() if key in data}
    _unknown_keys(data, rows, path)
    for key, (_, default) in rows.items():
        if key not in values:
            if default is REQUIRED:
                raise ConfigError(f"{path}.{key}: missing required key")
            values[key] = default
    return values


@dataclass
class Scenario:
    """Validated scenario config: every section as :func:`_section` reads it,
    so a setting is found by its key (``sc.verify["n_steps"]``), and the
    game and the centralization scenario that the library builds from them,
    None without their sections.  ``output["seed"]`` is the effective seed:
    ``output.seed``, or ``--seed`` if given."""

    spec: GameSpec | None
    central: CentralizationScenario | None
    game: dict
    grid: dict
    centralization: dict
    sweep: dict
    table: dict
    verify: dict
    output: dict

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
    """Validate the whole config tree, regardless of which command runs:
    each section as :func:`_section` reads it, in ``_SCHEMA``'s order, then
    by the rules that span its keys or that the library owns (see
    :func:`_checked`), so the commands only compute; unknown sections last."""
    spec = central = None
    game = _section(config, "game")
    n, kappa, lambdas = game["n"], game["kappa"], game["lambdas"]
    if "game" in config:
        if game["symmetric"] and lambdas is not None:
            raise ConfigError("config.game: give either 'symmetric' or 'lambdas', not both")
        _checked("config.game.kappa", check_kappa, kappa)
        if game["symmetric"]:
            lambdas = _checked("config.game", GameSpec.symmetric, n, kappa).lambdas
        if lambdas is not None:
            if renormalize:
                lambdas = _checked("config.game", renormalize_lambdas, lambdas)
            spec = _checked("config.game", GameSpec, n, tuple(lambdas), kappa)
        else:  # no GameSpec is built to check n
            _checked("config.game.n", check_traders, n)

    grid = _section(config, "grid")
    if "grid" in config:
        # np.linspace sizes its grid through a double, which rounds a length
        # within 512 of 2^63 up to 2^63, longer than any array
        _checked("config.grid.n_points", check_size, "n_points", grid["n_points"], 2,
                 sys.maxsize - 512)

    centralization = _section(config, "centralization")
    if "centralization" in config:
        if "game" not in config:
            raise ConfigError("config.game: required with config.centralization (n and kappa)")
        n1, window = centralization["n1"], centralization["delta_range"]
        _checked("config.centralization.n1", check_counts, n1, n - n1)
        central = _checked("config.centralization.lambda_firm", CentralizationScenario,
                           n1, n - n1, centralization["lambda_firm"], kappa)
        if window is not None:
            _checked("config.centralization.delta_range", check_window, n1, window)

    sweep = _section(config, "sweep")
    # trader 1 holds lambda1 and at least one other trader the rest
    for value in sweep["n"] or ():
        _checked("config.sweep.n", check_size, "n", value, 2)
    for value in sweep["kappa"] or ():
        _checked("config.sweep.kappa", check_kappa, value)
    for value in sweep["lambda1"] or ():
        if not 0.0 < value < 1.0:
            raise ConfigError(f"config.sweep.lambda1: {value} not in (0, 1)")

    table = _section(config, "table")
    if "table" in config:
        for value in table["kappa"]:
            _checked("config.table.kappa", check_kappa, value)
        n2_values = np.subtract.outer(table["n"], table["n1"])
        _checked("config.table.n1", check_counts, table["n1"], n2_values)
        for label in table["rows"]:
            if label not in FRACTION_BANDS:
                raise ConfigError(
                    f"config.table.rows: {label} has no fraction band; known rows: "
                    + ", ".join(_fmt(k) for k in sorted(FRACTION_BANDS))
                )

    verify = _section(config, "verify")
    verify["n"], verify["kappa"] = tuple(verify["n"]), tuple(verify["kappa"])
    if "verify" in config:
        _checked("config.verify.n", check_suite_n, verify["n"])
        _checked("config.verify.kappa", check_suite_kappa, verify["kappa"])
        _checked("config.verify.n_steps", check_grid, max(verify["kappa"]), verify["n_steps"])
        _checked("config.verify.draws", check_size, "draws", verify["draws"], 1)

    output = _section(config, "output")
    if "output" in config:
        _checked("config.output.seed", check_size, "seed", output["seed"], 0)

    _unknown_keys(config, _SCHEMA, "config")
    return Scenario(spec, central, game, grid, centralization, sweep, table, verify, output)


def _config_hash(config: dict, seed: int) -> str:
    payload = json.dumps(
        {"config": config, "seed": seed}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


# A command returns its tables, its stdout and stderr lines and its exit code; a
# table is one CSV's name, header, rows and comment lines (see _write_csv).
Table = namedtuple("Table", "name header rows comments", defaults=((),))
Output = namedtuple("Output", "tables stdout stderr code", defaults=((), (), 0))


def _write_csv(out_dir: Path, tables: list[Table], meta: str) -> list[Path]:
    """Write each of ``tables`` as one CSV file in ``out_dir``: the ``meta``
    line, the table's comment lines, its header and its rows.

    A ``bytes`` row is one or more finished lines, written as they are (the
    equilibrium command's kernel output).  Any other row is a sequence of
    cells, formatted by a single ``%`` on a line format built once per
    distinct tuple of cell types (see :func:`_cell_format`) and encoded as
    UTF-8 once per run of such rows, so no byte depends on the locale.
    ``rows`` may be an iterator, so a command can stream a large table a
    chunk of rows at a time, priced here.  Each table goes to
    ``.<name>.<pid>.tmp``, and all are renamed onto their names once whole
    and no name is a directory's; till then a failure removes every
    temporary, and every older file keeps its bytes.  A rename replaces a
    symlink at its name by a plain file, of the new file's mode and owner.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_dir}: {exc}") from exc
    paths, temps = [out_dir / table.name for table in tables], []
    try:
        for path, (name, header, rows, comments) in zip(paths, tables):
            temps.append(out_dir / f".{name}.{os.getpid()}.tmp")
            lines = [f"{line}\n" for line in (meta, *comments, ",".join(header))]
            formats = {}
            with temps[-1].open("wb") as file:
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
        for path in paths:  # a rename onto a directory fails: look before the first
            if path.is_dir() and not path.is_symlink():
                raise ConfigError(f"cannot write output {path}: a directory has its name")
        for temp, path in zip(temps, paths):
            temp.replace(path)
    except BaseException as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # a full disk, a directory made meanwhile
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
        raise
    return paths


def _curve_rows(solution, t, market):
    """equilibrium.csv's float lines (t, a_1 .. a_n, m) at the times ``t``,
    with ``market`` the market curve there, as the ``_g12`` kernel's bytes,
    one chunk of time rows at a time: the (n, len(t)) curves are never
    built.  The time grid and the market curve, one value each per point
    (16 bytes a point), are held whole; the market curve is elementwise, so
    each cell is the one a chunk would compute."""
    width = solution.spec.n + 2
    step = chunk_rows(width)
    for start in range(0, t.size, step):
        times = t[start:start + step]
        block = np.empty((times.size, width))
        block[:, 0] = times
        block[:, 1:-1] = solution.positions(times).T  # time along the rows
        block[:, -1] = market[start:start + step]
        yield from format_rows(block)


def cmd_equilibrium(sc: Scenario) -> Output:
    spec = sc.require(
        sc.spec, "config.game: 'lambdas' or 'symmetric' is required for equilibrium"
    )
    with _reported_at("config.game.kappa", KappaTooLarge):
        sol = solve(spec)
    header = ["t"] + [f"a_{i + 1}" for i in range(spec.n)] + ["m"]
    bd = cost_breakdown(spec.n, spec.kappa, spec.lambdas_array())
    totals = np.array([np.append(bd.per_trader, bd.aggregate), np.append(bd.shares, 1.0)])
    cost, share = b"".join(format_rows(totals)).splitlines(keepends=True)
    with _size_reported_at("config.grid.n_points"):  # the curves are priced in the write
        t = np.linspace(0.0, 1.0, sc.grid["n_points"])
        market = sol.market(t)
    rows = chain(_curve_rows(sol, t, market), [b"cost," + cost, b"share," + share])
    return Output([Table("equilibrium.csv", header, rows)])


def cmd_costs(sc: Scenario) -> Output:
    n_values = sc.require(sc.sweep["n"], "config.sweep.n: required for costs")
    kappa_values = sc.require(sc.sweep["kappa"], "config.sweep.kappa: required for costs")
    lambda1_values = sc.require(sc.sweep["lambda1"], "config.sweep.lambda1: required for costs")
    header = ["n", "kappa", "lambda1", "cost", "share", "fair_share_deviation", "aggregate"]
    lam1 = np.array(lambda1_values)
    rows = []
    with _reported_at("config.sweep.kappa", KappaTooLarge):
        for n in n_values:
            for kappa in kappa_values:  # trader 1's breakdown, every lambda1 at once
                bd = cost_breakdown(n, kappa, lam1)
                columns = (bd.per_trader, bd.shares, bd.fair_share_deviation)
                rows += [
                    [n, kappa, *cells, bd.aggregate]
                    for cells in zip(lambda1_values, *(c.tolist() for c in columns))
                ]
    return Output([Table("costs.csv", header, rows)])


def cmd_centralize(sc: Scenario) -> Output:
    scenario = sc.require(sc.central, "config.centralization: required for centralize")
    window = sc.centralization["delta_range"]
    window_key = "delta_range" if window is not None else "n1"  # what sizes the window
    with (_reported_at("config.game.kappa", KappaTooLarge),
          _reported_at("config.centralization.lambda_firm", ZeroBaseCost)):
        rep = naive_centralization_report(scenario)
        with _size_reported_at(f"config.centralization.{window_key}"):
            curve = optimal_representation(scenario, delta_range=window)
        # .tolist() keeps the deltas Python ints, written as plain digits
        columns = [curve.deltas, curve.deltas + scenario.n1, curve.exact_costs,
                   curve.approx_costs]
        for costs in (curve.exact_costs, curve.approx_costs):
            base = costs[curve.deltas == 0]
            # no percent change without a delta = 0 baseline in the window
            columns.append(percent_change(costs, base[0]) if base.size
                           else np.full(costs.size, np.nan))

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
    curve_header = ["delta", "represented", "exact_cost", "approx_cost",
                    "pct_change_exact", "pct_change_approx"]
    comments = (f"# continuous_opt={_fmt(curve.continuous_opt)}"
                f" argmin_exact={curve.argmin_exact} argmin_approx={curve.argmin_approx}",)
    tables = [Table("centralize_report.csv", header, [row]),
              Table("centralize_curve.csv", curve_header,
                    zip(*(c.tolist() for c in columns)), comments)]

    if sc.table["kappa"] is not None:
        bands = [FRACTION_BANDS[label] for label in sc.table["rows"]]
        n1_mean = float(np.mean(sc.table["n1"]))
        table_rows = []
        with (_reported_at("config.table.kappa", KappaTooLarge),
              _reported_at("config.table.rows", ZeroBaseCost)):
            for kap in sc.table["kappa"]:  # one report per kappa, one row per band
                table = averaged_report(kap, bands, n_values=sc.table["n"],
                                        n1_values=sc.table["n1"])
                columns = (table.pct_change_firm, table.pct_change_nonfirm,
                           table.pct_change_total, table.firm_cost_no_central,
                           table.firm_cost_central, table.nonfirm_cost_no_central,
                           table.nonfirm_cost_central)
                table_rows += [[label, n1_mean, kap, *cells] for label, *cells
                               in zip(sc.table["rows"], *(c.tolist() for c in columns))]
        table_header = [
            "lambda_row", "n1_mean", "kappa",
            "pct_change_firm", "pct_change_nonfirm", "pct_change_total",
            "firm_no_central", "firm_central", "nonfirm_no_central", "nonfirm_central",
        ]
        tables.append(Table("centralize_table.csv", table_header, table_rows))
    return Output(tables)


def cmd_poa(sc: Scenario) -> Output:
    n_values = sc.require(sc.sweep["n"], "config.sweep.n: required for poa")
    kappa_values = sc.require(sc.sweep["kappa"], "config.sweep.kappa: required for poa")
    header = ["n", "kappa", "aggregate_cost", "pct_increase_vs_n2", "poa_ratio"]
    ns = np.array(n_values, dtype=float)
    rows = []
    with _reported_at("config.sweep.kappa", KappaTooLarge):
        for kappa in kappa_values:
            aggregates = aggregate_cost(ns, kappa)
            columns = (aggregates, percent_change(aggregates, aggregate_cost(2, kappa)),
                       price_of_anarchy(ns, kappa))
            rows += [
                [n, kappa, *cells] for n, *cells in zip(n_values, *(c.tolist() for c in columns))
            ]
    return Output([Table("poa.csv", header, rows)])


def cmd_verify(sc: Scenario) -> Output:
    # a drawn game the closed form rejects, or a size that fits an index but
    # not memory: run_verification names n or n_steps
    with _reported_at("config.verify.kappa", KappaTooLarge), \
            _size_reported_at("config.verify.n_steps"):
        report = run_verification(
            n_values=sc.verify["n"],
            kappa_values=sc.verify["kappa"],
            draws=sc.verify["draws"],
            n_steps=sc.verify["n_steps"],
            seed=sc.output["seed"],
            inject_bug=sc.verify["inject_bug"],
        )

    header = ["check", "measured", "threshold", "status", "detail"]
    rows = [[c.name, c.value, c.threshold, c.status, c.detail] for c in report.checks]
    tables = [Table("verify_report.csv", header, rows)]
    if not report.passed:
        n_failed = sum(not c.passed for c in report.checks)
        return Output(tables, report.lines(),
                      [f"verification FAILED: {n_failed}/{len(report.checks)} checks"], 2)
    return Output(tables, [*report.lines(), f"verification passed: {len(report.checks)} checks"])


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
        help="output directory (default: config's output.directory)",
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
            _checked("--seed", check_size, "seed", args.seed, 0)
            scenario.output["seed"] = args.seed
        out_dir = Path(args.out) if args.out is not None else Path(scenario.output["directory"])
        meta = (
            f"# posgame {__version__} command={args.command} "
            f"config_sha256={_config_hash(config, scenario.output['seed'])}"
        )
        output = _COMMANDS[args.command](scenario)
        _write_csv(out_dir, output.tables, meta)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.writelines(f"{line}\n" for line in output.stdout)
    sys.stderr.writelines(f"{line}\n" for line in output.stderr)
    return output.code


if __name__ == "__main__":
    sys.exit(main())
