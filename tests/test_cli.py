import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import posgame as pg
import posgame._g12 as _g12
import posgame.cli as cli
from conftest import load_bench
from posgame.cli import main
from posgame.verification import run_verification


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return comments, header, rows


GAME = {"n": 3, "lambdas": [0.2, 0.3, 0.5], "kappa": 1.0}
SWEEP = {"n": [2], "kappa": [1.0], "lambda1": [0.2]}


class TestEquilibriumCommand:
    def test_symmetric_columns_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"game": {"n": 5, "symmetric": True, "kappa": 2.0}, "grid": {"n_points": 11}},
        )
        assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        comments, header, rows = read_csv(tmp_path / "out" / "equilibrium.csv")
        assert header == ["t", "a_1", "a_2", "a_3", "a_4", "a_5", "m"]
        for row in rows[:11]:
            assert len(set(row[1:6])) == 1

    def test_zero_kappa_columns_equal_time(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"game": {"n": 3, "lambdas": [0.2, 0.3, 0.5], "kappa": 0}, "grid": {"n_points": 6}},
        )
        assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, _, rows = read_csv(tmp_path / "out" / "equilibrium.csv")
        for row in rows[:6]:
            assert row[1] == row[0] and row[2] == row[0] and row[3] == row[0]

    def test_footer_carries_costs_and_shares(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"game": {"n": 2, "lambdas": [0.5, 0.5], "kappa": 1.0}, "grid": {"n_points": 3}},
        )
        main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")])
        _, _, rows = read_csv(tmp_path / "out" / "equilibrium.csv")
        cost_row = next(r for r in rows if r[0] == "cost")
        share_row = next(r for r in rows if r[0] == "share")
        breakdown = pg.cost_breakdown(pg.GameSpec(2, (0.5, 0.5), 1.0))
        assert float(cost_row[1]) == pytest.approx(breakdown.per_trader[0], rel=1e-10)
        assert float(share_row[1]) == pytest.approx(0.5, abs=1e-12)
        assert float(cost_row[3]) == pytest.approx(pg.aggregate_cost(2, 1.0), rel=1e-10)

    def test_header_comment_has_version_and_hash(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", {"game": {"n": 2, "symmetric": True, "kappa": 1.0}}
        )
        main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")])
        comments, _, _ = read_csv(tmp_path / "out" / "equilibrium.csv")
        assert comments[0].startswith(f"# posgame {pg.__version__} ")
        assert "config_sha256=" in comments[0]


class TestDeterminism:
    def test_identical_config_and_seed_bytes(self, tmp_path):
        payload = {
            "game": {"n": 3, "lambdas": [0.2, 0.3, 0.5], "kappa": 5.0},
            "grid": {"n_points": 51},
            "output": {"seed": 42},
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "equilibrium.csv").read_bytes() == (
            tmp_path / "b" / "equilibrium.csv"
        ).read_bytes()


class TestConfigErrors:
    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"game": {"n": 2, "symmetric": True, "kappa": 1.0, "typo": 1}},
        )
        assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "config.game" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"game": {\n  "n": 2,,\n}}')
        assert main(["equilibrium", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["equilibrium", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    def test_lambda_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "cfg.json", {"game": {"n": 2, "lambdas": [0.7, 0.4], "kappa": 1.0}}
        )
        assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_renormalize_flag_rescues_lambdas(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", {"game": {"n": 2, "lambdas": [0.7, 0.4], "kappa": 1.0}}
        )
        out = str(tmp_path / "out")
        assert main(["equilibrium", "--config", cfg, "--out", out, "--renormalize-lambdas"]) == 0

    @pytest.mark.parametrize(
        "command,payload,key",
        [
            ("poa", {"sweep": {"n": [2, math.inf], "kappa": [1.0]}}, "sweep.n"),
            ("poa", {"sweep": {"n": [math.nan], "kappa": [1.0]}}, "sweep.n"),
            ("centralize", {"centralization": {"delta_range": [0, math.inf]}},
             "centralization.delta_range"),
            ("centralize", {"table": {"n": [math.inf]}}, "table.n"),
            ("centralize", {"table": {"n1": [math.nan]}}, "table.n1"),
            ("centralize", {"table": {"n1": [25]}}, "table.n1"),  # n2 = n - n1 < 1
            ("centralize", {"table": {"n": [5, 6], "n1": [1, 5]}}, "table.n1"),
            ("centralize", {"table": {"n1": [0, 3]}}, "table.n1"),
            ("centralize", {"table": {"n": [20.5, 21]}}, "table.n"),
            ("costs", {"sweep": {"n": [2.5]}}, "sweep.n"),
            ("centralize", {"table": {"kappa": [math.inf]}}, "table.kappa"),
            ("centralize", {"table": {"kappa": [1.0, -2.0]}}, "table.kappa"),
            ("centralize", {"game": {"kappa": -1.0}}, "game.kappa"),
            ("equilibrium", {"game": {"n": 0, "symmetric": True}}, "game"),
        ],
    )
    def test_count_setting_is_config_error(self, tmp_path, capsys, command, payload, key):
        # json.dumps writes NaN / Infinity, which Python's json.loads accepts
        config = {
            "game": {"n": 21, "kappa": 1.0},
            "centralization": {"n1": 4, "lambda_firm": 0.4},
            "table": {"kappa": [1.0], "rows": [0.40]},
        }
        for section, values in payload.items():
            config[section] = {**config.get(section, {}), **values}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, "cfg.json", config),
                     "--out", str(out)]) == 1
        assert f"config error: config.{key}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window", [[0, 1, 2], [5]])
    def test_delta_range_must_be_a_pair(self, tmp_path, capsys, window):
        config = {"game": {"n": 21, "kappa": 1.0},
                  "centralization": {"n1": 4, "lambda_firm": 0.4, "delta_range": window}}
        out = tmp_path / "out"
        assert main(["centralize", "--config", write_config(tmp_path, "cfg.json", config),
                     "--out", str(out)]) == 1
        message = f"need a delta_range pair (lo, hi), got {window}\n"
        assert f"config error: config.centralization.delta_range: {message}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("table", "mode", "quadrature"),
            ("table", "draws", 0),
            ("table", "draws", -5),
            ("table", "draws", 2000),
            ("output", "format", "csv"),
        ],
    )
    def test_removed_settings_are_unknown_keys(self, tmp_path, capsys, section, key, value):
        # the averaged table has one method and CSV is the only format, so no
        # key selects either, whatever its value
        config = {
            "game": {"n": 21, "kappa": 1.0},
            "centralization": {"n1": 4, "lambda_firm": 0.4},
            "table": {"kappa": [1.0], "rows": [0.40]},
        }
        config[section] = {**config.get(section, {}), key: value}
        out = tmp_path / "out"
        assert main(["centralize", "--config", write_config(tmp_path, "cfg.json", config),
                     "--out", str(out)]) == 1
        assert f"config error: config.{section}: unknown keys: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sections,key",
        [
            ({"sweep": {"n": [1], "kappa": [1.0], "lambda1": [0.2]}}, "sweep.n"),
            ({"sweep": {"n": [2], "kappa": [-1.0], "lambda1": [0.2]}}, "sweep.kappa"),
            ({"sweep": {"n": [2], "kappa": [math.nan], "lambda1": [0.2]}}, "sweep.kappa"),
            ({"sweep": {"n": [2], "kappa": [1.0], "lambda1": [1.5]}}, "sweep.lambda1"),
            ({"centralization": {"n1": 4, "lambda_firm": 7}}, "centralization.lambda_firm"),
            ({"centralization": {"n1": 12, "lambda_firm": 0.4}}, "centralization.n1"),
            ({"centralization": {"n1": 4, "lambda_firm": 0.4, "delta_range": [-4, 20]}},
             "centralization.delta_range"),
            ({"centralization": {"n1": 4, "lambda_firm": 0.4, "delta_range": [5, 4]}},
             "centralization.delta_range"),
            ({"game": {"n": 12, "kappa": math.nan}}, "game.kappa"),
            ({"game": {"n": 0, "kappa": 1.0}}, "game.n"),
            ({"game": None}, "game"),
            # an empty list is no request for the defaults
            ({"game": {"n": 12, "lambdas": [], "kappa": 5.0}}, "game.lambdas"),
            ({"centralization": {"n1": 4, "lambda_firm": 0.4, "delta_range": []}},
             "centralization.delta_range"),
            ({"sweep": {"n": [], "kappa": [1.0], "lambda1": [0.2]}}, "sweep.n"),
            ({"sweep": {"n": [2], "kappa": [], "lambda1": [0.2]}}, "sweep.kappa"),
            ({"sweep": {"n": [2], "kappa": [1.0], "lambda1": []}}, "sweep.lambda1"),
            ({"table": {"kappa": [], "rows": [0.40]}}, "table.kappa"),
            ({"table": {"kappa": [1.0], "rows": []}}, "table.rows"),
            ({"table": {"kappa": [1.0], "rows": [0.40], "n": []}}, "table.n"),
            ({"table": {"kappa": [1.0], "rows": [0.40], "n1": []}}, "table.n1"),
            ({"verify": {"n": [], "kappa": [1.0], "n_steps": 300}}, "verify.n"),
            ({"verify": {"n": [2], "kappa": [], "n_steps": 300}}, "verify.kappa"),
        ],
        ids=["sweep.n=1", "sweep.kappa=-1", "sweep.kappa=nan", "sweep.lambda1=1.5",
             "lambda_firm=7", "n1=n", "delta_range-below-1-n1", "delta_range-empty",
             "game.kappa=nan-without-lambdas", "game.n=0-without-lambdas",
             "centralization-without-game", "game.lambdas=[]", "delta_range=[]",
             "sweep.n=[]", "sweep.kappa=[]", "sweep.lambda1=[]", "table.kappa=[]",
             "table.rows=[]", "table.n=[]", "table.n1=[]", "verify.n=[]", "verify.kappa=[]"],
    )
    def test_invalid_setting_fails_every_command(self, tmp_path, capsys, sections, key):
        # every section is checked at parse, including those a command never reads
        config = {
            "game": {"n": 12, "lambdas": [0.4] + [0.6 / 11] * 11, "kappa": 5.0},
            "centralization": {"n1": 4, "lambda_firm": 0.4, "delta_range": [-3, 20]},
            "sweep": {"n": [2, 5], "kappa": [1.0], "lambda1": [0.2]},
            "table": {"kappa": [1.0], "rows": [0.40]},
            "verify": {"n": [2], "kappa": [1.0], "n_steps": 300},
        }
        for section, values in sections.items():
            if values is None:
                del config[section]
            else:
                config[section] = values
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        for command in ("equilibrium", "costs", "centralize", "poa", "verify"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 1, command
            assert f"config error: config.{key}:" in capsys.readouterr().err, command
            assert not out.exists(), command

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"sweep": {"n": [2], "kappa": [1], "kappa": [5]}}', "kappa"),
            ('{"sweep": {"n": [2], "kappa": [1]}, "sweep": {"n": [3], "kappa": [5]}}', "sweep"),
        ],
        ids=["in-a-section", "at-the-top-level"],
    )
    def test_duplicate_key_is_config_error(self, tmp_path, capsys, text, key):
        # json.loads alone keeps the last value silently
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["poa", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f'config error: {cfg}: duplicate key "{key}"\n'
        assert not out.exists()

    def test_overlong_integer_literal_is_config_error(self, tmp_path, capsys):
        # Python refuses to convert integer strings of more than 4300 digits
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"game": {"n": ' + "1" * 5000 + ', "kappa": 1.0}}')
        out = tmp_path / "out"
        assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: Exceeds the limit")
        assert not out.exists()

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"game": {"n": 2, "lambdas": [0.5, 0.5], "kappa": "\xff"}}')
        out = tmp_path / "out"
        assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_config_is_read_as_utf8_in_any_locale(self, tmp_path, capsys):
        """A UTF-8 config reads the same under the C locale, with Python's
        UTF-8 mode and locale coercion off, as in this process."""
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes('{"game": {"n": 2, "lambdas": [0.5, 0.5], "kappa": "é"}}'.encode())
        argv = ["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "config error: config.game.kappa: expected float, got str\n"
        src = str(Path(pg.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "posgame.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (1, err)

    @pytest.mark.parametrize(
        "command,payload,key",
        [
            ("equilibrium", lambda big: {"game": {"n": 3, "symmetric": True, "kappa": big}},
             "config.game.kappa"),
            ("centralize", lambda big: {"game": {"n": 12, "kappa": 1.0},
                                        "centralization": {"n1": 4, "lambda_firm": big}},
             "config.centralization.lambda_firm"),
            ("poa", lambda big: {"sweep": {"n": [2], "kappa": [1.0, big]}}, "config.sweep.kappa[1]"),
            ("poa", lambda big: {"sweep": {"n": [big], "kappa": [1.0]}}, "config.sweep.n[0]"),
            ("centralize", lambda big: {"game": {"n": 12, "kappa": 1.0},
                                        "centralization": {"n1": 4, "lambda_firm": 0.4},
                                        "table": {"kappa": [1.0], "rows": [0.4], "n1": [big]}},
             "config.table.n1[0]"),
            ("equilibrium", lambda big: {"game": {"n": big, "symmetric": True, "kappa": 1.0}},
             "config.game: n"),
        ],
    )
    def test_integer_beyond_every_float_is_config_error(
        self, tmp_path, capsys, command, payload, key
    ):
        # 401 digits parse as a Python int, but float() of it overflowed in a traceback
        cfg = write_config(tmp_path, "cfg.json", payload(int("1" * 401)))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {key}: int too large to convert to float\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,payload,key",
        [
            ("equilibrium", lambda big: {"game": GAME, "grid": {"n_points": big}},
             "config.grid.n_points"),
            ("verify", lambda big: {"verify": {"n_steps": big}}, "config.verify.n_steps"),
            ("verify", lambda big: {"verify": {"n": [2, big]}}, "config.verify.n"),
            ("centralize", lambda big: {"game": {"n": 12, "kappa": 1.0},
                                        "centralization": {"n1": 4, "lambda_firm": 0.4,
                                                           "delta_range": [0, big]}},
             "config.centralization.delta_range"),
            ("equilibrium", lambda big: {"game": {"n": big, "symmetric": True, "kappa": 1.0}},
             "config.game"),
        ],
    )
    def test_length_beyond_every_array_is_config_error(
        self, tmp_path, capsys, command, payload, key
    ):
        # 10^30 fits a double but sizes an array longer than numpy can index
        cfg = write_config(tmp_path, "cfg.json", payload(10**30))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,payload,message",
        [
            # 2^62 points pass the size rule, but numpy refuses their 2^65
            # bytes at once, before anything is allocated
            ("equilibrium", {"game": GAME, "grid": {"n_points": 2**62}},
             "config.grid.n_points: array is too big"),
            # an exact window of sys.maxsize deltas passes its rule, but no
            # array of that many integers fits in memory
            ("centralize", {"game": {"n": 12, "kappa": 1.0},
                            "centralization": {"n1": 4, "lambda_firm": 0.4,
                                               "delta_range": [-3, sys.maxsize - 4]}},
             "config.centralization.delta_range: array is too big"),
            # the default window spans n1 deltas: 7.2e18 bytes, more than a
            # 64-bit process can map, so malloc fails at once
            ("centralize", {"game": {"n": 10**18, "kappa": 1.0},
                            "centralization": {"n1": 10**17, "lambda_firm": 0.4}},
             "config.centralization.n1: Unable to allocate"),
        ],
        ids=["n_points=2^62", "delta_range-of-maxsize", "default-window-of-n1"],
    )
    def test_size_beyond_memory_is_config_error(self, tmp_path, capsys, command, payload,
                                                message):
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("sub,reason", [("", "File exists"), ("sub", "Not a directory")],
                             ids=["a-file", "below-a-file"])
    def test_output_directory_that_cannot_be_made_is_config_error(self, tmp_path, capsys,
                                                                  sub, reason):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / sub if sub else blocker
        cfg = write_config(tmp_path, "cfg.json", {"game": GAME})
        assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {out}: [Errno ")
        assert f"] {reason}: " in err and err.count("\n") == 1
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "config,message",
        [
            # sections in _SCHEMA's order: a rule of an earlier section first
            ({"game": {"n": 2, "kappa": -1.0}, "output": {"seed": -1}},
             "config.game.kappa: kappa = -1.0 must be non-negative"),
            ({"game": {"n": 2, "kappa": -1.0}, "grid": {"n_points": "x"}},
             "config.game.kappa: kappa = -1.0 must be non-negative"),
            # unknown sections last
            ({"gmae": {}, "output": {"seed": -1}}, "config.output.seed: need seed >= 0, got -1"),
            # within a section: key kinds, then unknown keys, then missing keys, then rules
            ({"game": {"n": 2, "kappa": "x", "typo": 1}},
             "config.game.kappa: expected float, got str"),
            ({"game": {"kappa": "x"}}, "config.game.kappa: expected float, got str"),
            ({"game": {"kappa": 1.0, "typo": 1}}, "config.game: unknown keys: typo"),
            ({"game": {"n": 2, "kappa": -1.0, "typo": 1}}, "config.game: unknown keys: typo"),
            ({"sweep": {"kappa": [-1.0], "lambda1": ["x"]}},
             "config.sweep.lambda1[0]: expected a number"),
            ({"sweep": {"kappa": [-1.0, "x"]}}, "config.sweep.kappa[1]: expected a number"),
            ({"table": {"kappa": [-1.0], "rows": [0.4], "typo": 1}},
             "config.table: unknown keys: typo"),
            # rules in key order
            ({"sweep": {"n": [1], "kappa": [-1.0]}}, "config.sweep.n: need n >= 2, got 1"),
        ],
        ids=["rule-before-a-later-rule", "rule-before-a-later-kind", "unknown-section-last",
             "kind-before-unknown-key", "kind-before-missing-key", "unknown-before-missing-key",
             "unknown-key-before-rule", "kind-before-rule", "later-entry-kind-before-rule",
             "table-unknown-key-before-rule", "rules-in-key-order"],
    )
    def test_config_is_read_in_schema_order(self, tmp_path, capsys, config, message):
        # two errors each: the one reported shows which check runs first
        cfg = write_config(tmp_path, "cfg.json", config)
        assert main(["poa", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_integer_lists_are_read_as_integers(self, tmp_path, capsys):
        # 2^53 + 1 is the first integer that a double rounds (to 2^53)
        big = 2**53 + 1
        cfg = write_config(tmp_path, "cfg.json", {"sweep": {"n": [big, 3.0], "kappa": [1.0]}})
        out = tmp_path / "out"
        assert main(["poa", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "poa.csv").read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == [str(big), "3"]
        # a window is checked at its exact ends: through doubles it read [2^53, 2^53]
        cfg = write_config(tmp_path, "cfg.json", {
            "game": {"n": 12, "kappa": 1.0},
            "centralization": {"n1": 4, "lambda_firm": 0.4, "delta_range": [big, big - 1]},
        })
        assert main(["centralize", "--config", cfg, "--out", str(tmp_path / "window")]) == 1
        assert capsys.readouterr().err == (
            f"config error: config.centralization.delta_range: empty delta_range [{big}, {big - 1}]\n"
        )

    @pytest.mark.parametrize(
        "command,config,args,message",
        [
            ("equilibrium", [GAME], [], "{cfg}: top level must be an object"),
            ("equilibrium", {"game": GAME, "grid": 5}, [], "config.grid: expected an object"),
            ("poa", {"sweep": [2, 3]}, [], "config.sweep: expected an object"),
            ("equilibrium", {"game": {"symmetric": True, "kappa": 1.0}}, [],
             "config.game.n: missing required key"),
            ("centralize", {"game": GAME, "centralization": {"n1": 1}}, [],
             "config.centralization.lambda_firm: missing required key"),
            ("centralize", {"game": GAME, "table": {"kappa": [1.0]}}, [],
             "config.table.rows: missing required key"),
            ("equilibrium", {"game": {**GAME, "n": True}}, [],
             "config.game.n: expected a number, got a boolean"),
            ("verify", {"verify": {"draws": True}}, [],
             "config.verify.draws: expected a number, got a boolean"),
            ("equilibrium", {"game": {**GAME, "kappa": "1"}}, [],
             "config.game.kappa: expected float, got str"),
            ("equilibrium", {"game": GAME, "grid": {"n_points": 2.5}}, [],
             "config.grid.n_points: expected int, got float"),
            ("equilibrium", {"game": {**GAME, "symmetric": 1}}, [],
             "config.game.symmetric: expected bool, got int"),
            ("equilibrium", {"game": GAME, "output": {"directory": 3}}, [],
             "config.output.directory: expected str, got int"),
            ("poa", {"sweep": {"n": 2, "kappa": [1.0]}}, [],
             "config.sweep.n: expected list, got int"),
            ("poa", {"sweep": {"n": [2, "3"], "kappa": [1.0]}}, [],
             "config.sweep.n[1]: expected a number"),
            ("poa", {"sweep": {"n": [2], "kappa": [True]}}, [],
             "config.sweep.kappa[0]: expected a number"),
            ("equilibrium", {"game": {"n": 3, "kappa": 1.0}}, [],
             "config.game: 'lambdas' or 'symmetric' is required for equilibrium"),
            ("equilibrium", {"sweep": SWEEP}, [],
             "config.game: 'lambdas' or 'symmetric' is required for equilibrium"),
            ("costs", {"game": GAME}, [], "config.sweep.n: required for costs"),
            ("costs", {"sweep": {"n": [2], "kappa": [1.0]}}, [],
             "config.sweep.lambda1: required for costs"),
            ("poa", {"sweep": {"n": [2]}}, [], "config.sweep.kappa: required for poa"),
            ("centralize", {"game": GAME}, [], "config.centralization: required for centralize"),
            ("equilibrium", {"game": GAME, "grid": {"n_points": 1}}, [],
             "config.grid.n_points: need n_points >= 2, got 1"),
            # np.linspace sizes its grid through float(n_points), which rounds
            # these up to 2^63: its length wrapped to 0, an IndexError
            ("equilibrium", {"game": GAME, "grid": {"n_points": sys.maxsize}}, [],
             f"config.grid.n_points: need n_points <= {sys.maxsize - 512}, got {sys.maxsize}"),
            ("equilibrium", {"game": GAME, "grid": {"n_points": sys.maxsize - 511}}, [],
             f"config.grid.n_points: need n_points <= {sys.maxsize - 512},"
             f" got {sys.maxsize - 511}"),
            ("poa", {"sweep": {"n": [3, 1], "kappa": [1.0]}}, [],
             "config.sweep.n: need n >= 2, got 1"),
            ("equilibrium", {"game": GAME, "output": {"seed": -1}}, [],
             "config.output.seed: need seed >= 0, got -1"),
            ("equilibrium", {"game": GAME}, ["--seed", "-1"], "--seed: need seed >= 0, got -1"),
        ],
        ids=["top-level-list", "section-number", "section-list", "game.n-missing",
             "lambda_firm-missing", "table.rows-missing", "game.n-bool", "draws-bool",
             "kappa-str", "n_points-float", "symmetric-int", "directory-int", "sweep.n-int",
             "sweep.n-entry-str", "sweep.kappa-entry-bool", "equilibrium-without-lambdas",
             "equilibrium-without-game", "costs-without-sweep", "costs-without-lambda1",
             "poa-without-kappa", "centralize-without-section", "n_points=1", "n_points=maxsize",
             "n_points=maxsize-511", "sweep.n=1",
             "output.seed=-1", "--seed=-1"],
    )
    def test_config_shape_error_names_its_path(
        self, tmp_path, capsys, command, config, args, message
    ):
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *args]) == 1
        assert f"config error: {message.format(cfg=cfg)}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["equilibrium"], "the following arguments are required: --config"),
            (["plot", "--config", "{cfg}"], "argument command: invalid choice: 'plot'"),
            (["equilibrium", "--config", "{cfg}", "--seed", "1.5"],
             "argument --seed: invalid int value: '1.5'"),
            (["equilibrium", "--config", "{cfg}", "--colour"], "unrecognized arguments: --colour"),
        ],
        ids=["no-config", "unknown-command", "seed-float", "unknown-flag"],
    )
    def test_usage_error_exits_1(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path, "cfg.json", {"game": GAME})
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main([arg.format(cfg=cfg) for arg in argv] + ["--out", str(out)])
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: posgame")
        assert f"posgame: error: {message}" in err
        assert not out.exists()

    def test_both_symmetric_and_lambdas_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"game": {"n": 2, "symmetric": True, "lambdas": [0.5, 0.5], "kappa": 1.0}},
        )
        assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestCostsCommand:
    def test_dominant_trader_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"sweep": {"n": [8], "kappa": [25.0], "lambda1": [0.5, 0.99]}},
        )
        assert main(["costs", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, header, rows = read_csv(tmp_path / "out" / "costs.csv")
        dev_col = header.index("fair_share_deviation")
        last = rows[-1]
        assert float(last[dev_col]) > 0.04

    def test_symmetric_rows_have_zero_deviation(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", {"sweep": {"n": [4], "kappa": [2.0], "lambda1": [0.25]}}
        )
        main(["costs", "--config", cfg, "--out", str(tmp_path / "out")])
        _, header, rows = read_csv(tmp_path / "out" / "costs.csv")
        assert float(rows[0][header.index("fair_share_deviation")]) == 0.0

    def test_deviation_signs_flip_across_the_fraction_sweep(self, tmp_path):
        # tiny traders pay under fair share, dominant traders over it
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"sweep": {"n": [2], "kappa": [0.5], "lambda1": [0.01, 0.5, 0.99]}},
        )
        main(["costs", "--config", cfg, "--out", str(tmp_path / "out")])
        _, header, rows = read_csv(tmp_path / "out" / "costs.csv")
        dev = header.index("fair_share_deviation")
        assert float(rows[0][dev]) < 0.0
        assert float(rows[1][dev]) == 0.0
        assert float(rows[2][dev]) > 0.0


    def test_underflowing_alpha_row_takes_the_zero_kappa_limit(self, tmp_path):
        # 5e-324 counts as 0: trader 1 pays and bears lambda1, aggregate 1
        cfg = write_config(
            tmp_path, "cfg.json", {"sweep": {"n": [2], "kappa": [5e-324], "lambda1": [0.3]}}
        )
        assert main(["costs", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, _, rows = read_csv(tmp_path / "out" / "costs.csv")
        assert rows == [["2", "4.94065645841e-324", "0.3", "0.3", "0.3", "0", "1"]]

    @pytest.mark.parametrize("kappa", [737, 800, 1e4])
    def test_shares_are_finite_where_e_alpha_overflows(self, tmp_path, kappa):
        cfg = write_config(
            tmp_path, "cfg.json", {"sweep": {"n": [50], "kappa": [kappa], "lambda1": [0.3]}}
        )
        assert main(["costs", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, header, rows = read_csv(tmp_path / "out" / "costs.csv")
        share = float(rows[0][header.index("share")])
        assert math.isfinite(share) and share == pytest.approx(0.3056, rel=1e-9)


class TestCentralizeCommand:
    def test_report_curve_and_argmin_comment(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "game": {"n": 10, "kappa": 1.0},
                "centralization": {"n1": 1, "lambda_firm": 0.1, "delta_range": [0, 20]},
            },
        )
        out = tmp_path / "out"
        assert main(["centralize", "--config", cfg, "--out", str(out)]) == 0
        comments, header, rows = read_csv(out / "centralize_curve.csv")
        assert any("continuous_opt=" in c for c in comments)
        pct_col = header.index("pct_change_exact")
        delta_col = header.index("delta")
        by_delta = {int(r[delta_col]): float(r[pct_col]) for r in rows}
        assert by_delta[0] == 0.0
        assert all(by_delta[d] < 0.0 for d in range(1, 9))

    def test_window_without_zero_has_nan_percent_columns(self, tmp_path):
        # the percent changes are taken against delta = 0, which [2, 6] leaves out
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "game": {"n": 10, "kappa": 1.0},
                "centralization": {"n1": 1, "lambda_firm": 0.1, "delta_range": [2, 6]},
            },
        )
        out = tmp_path / "out"
        assert main(["centralize", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "centralize_curve.csv")
        assert [int(r[header.index("delta")]) for r in rows] == [2, 3, 4, 5, 6]
        for row in rows:
            cells = dict(zip(header, row))
            assert cells["pct_change_exact"] == cells["pct_change_approx"] == "nan"
            assert math.isfinite(float(cells["exact_cost"]))
            assert math.isfinite(float(cells["approx_cost"]))

    def test_subnormal_kappa_writes_the_zero_kappa_limit(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "game": {"n": 12, "kappa": 5e-324},
                "centralization": {"n1": 4, "lambda_firm": 0.4},
                "table": {"kappa": [0], "rows": [0.40]},
            },
        )
        out = tmp_path / "out"
        assert main(["centralize", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "centralize_report.csv")
        row = dict(zip(header, rows[0]))
        assert row["firm_no_central"] == row["firm_central"] == "0.4"
        assert row["pct_change_firm"] == row["pct_change_nonfirm"] == row["pct_change_total"] == "0"
        _, header, rows = read_csv(out / "centralize_table.csv")
        row = dict(zip(header, rows[0]))
        assert row["kappa"] == "0"
        assert row["pct_change_firm"] == row["pct_change_nonfirm"] == row["pct_change_total"] == "0"
        assert float(row["firm_no_central"]) == pytest.approx(0.4, rel=1e-15)

    def test_table_rows_need_known_bands(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "game": {"n": 21, "kappa": 1.0},
                "centralization": {"n1": 4, "lambda_firm": 0.4},
                "table": {"kappa": [1], "rows": [0.33]},
            },
        )
        assert main(["centralize", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "fraction band" in capsys.readouterr().err


class TestPoaCommand:
    def test_baseline_row_and_bounds(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"sweep": {"n": [2, 10, 25], "kappa": [1.0, 25.0]}},
        )
        assert main(["poa", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, header, rows = read_csv(tmp_path / "out" / "poa.csv")
        pct = header.index("pct_increase_vs_n2")
        ratio = header.index("poa_ratio")
        for row in rows:
            assert float(row[ratio]) < 2.0
            if row[0] == "2":
                assert float(row[pct]) == 0.0
        big = next(r for r in rows if r[0] == "25" and float(r[1]) == 25.0)
        assert 40.0 <= float(big[pct]) <= 55.0

    def test_underflowing_alpha_rows_take_the_zero_kappa_limit(self, tmp_path):
        # kappa below the floor counts as 0: aggregate 1, no increase, ratio 1
        cfg = write_config(
            tmp_path, "cfg.json", {"sweep": {"n": [2, 3], "kappa": [5e-324]}}
        )
        assert main(["poa", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, _, rows = read_csv(tmp_path / "out" / "poa.csv")
        assert rows == [
            ["2", "4.94065645841e-324", "1", "0", "1"],
            ["3", "4.94065645841e-324", "1", "0", "1"],
        ]

    def test_zero_kappa_rows_are_the_limit(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"sweep": {"n": [2, 3, 50], "kappa": [0]}})
        assert main(["poa", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, _, rows = read_csv(tmp_path / "out" / "poa.csv")
        assert rows == [[n, "0", "1", "0", "1"] for n in ("2", "3", "50")]

    def test_negative_kappa_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"sweep": {"n": [2, 3], "kappa": [-1.0]}})
        out = tmp_path / "out"
        assert main(["poa", "--config", cfg, "--out", str(out)]) == 1
        assert "must be non-negative" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"verify": {"n": [2], "kappa": [1.0], "draws": 1, "n_steps": 400}},
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert (tmp_path / "out" / "verify_report.csv").exists()

    def test_injected_bug_detected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "verify": {
                    "n": [2],
                    "kappa": [1.0],
                    "draws": 1,
                    "n_steps": 400,
                    "inject_bug": True,
                }
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        failed = {
            line.split(":")[0].removeprefix("FAIL ")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL ")
        }
        # a 1 % error in every D coefficient breaks the closed form's own
        # identities; the oracle's grid gap and sum stay within their bounds
        label = "[n=2 kappa=1 draw=0]"
        assert failed == {
            f"governing residuals {label}",
            f"endpoint a_i(1)=1 {label}",
            f"cost formula vs quadrature {label}",
            f"deviation non-negativity {label}",
        }

    def test_every_row_keeps_its_pass_rule(self, tmp_path, monkeypatch):
        # the benchmark's verify config with the injected bug: rows pass and fail
        config = WORKLOADS.verify_ops(0)[0]["config"]
        config["verify"]["inject_bug"] = True
        reports = []

        def run_and_keep(**settings):
            reports.append(run_verification(**settings))
            return reports[-1]

        monkeypatch.setattr(cli, "run_verification", run_and_keep)
        out = tmp_path / "out"
        assert main(["verify", "--config", write_config(tmp_path, "cfg.json", config),
                     "--out", str(out)]) == 2
        checks = reports[0].checks
        names = ["fixed-point gap", "governing residuals", "endpoint a_i(1)=1",
                 "cost formula vs quadrature", "deviation non-negativity",
                 "aggregate vs oracle sum"]
        assert len(checks) == 3 * 3 * 3 * len(names) + 1
        for first in range(0, len(checks) - 1, len(names)):
            label = checks[first].name.removeprefix(names[0])
            assert [c.name for c in checks[first:first + len(names)]] == [
                name + label for name in names
            ]
        assert checks[-1].name == "convergence order under grid doubling"
        at_least = ("deviation non-negativity", "convergence order")
        for c in checks:
            holds = c.value >= c.threshold if c.name.startswith(at_least) else (
                c.value <= c.threshold
            )
            assert c.passed == holds, c
        assert {c.status for c in checks} == {"PASS", "FAIL"}
        _, _, rows = read_csv(out / "verify_report.csv")
        assert [row[3] for row in rows] == [c.status for c in checks]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n", [2, 0]),
            ("n", [1, 3]),
            ("kappa", [5.0, 0.0]),
            ("kappa", [math.inf]),
            ("n_steps", 1),
            ("draws", 0),
            ("draws", -1),
            ("n", [math.inf]),
            ("n", [math.nan]),
        ],
    )
    def test_singular_or_too_small_setting_is_config_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "cfg.json", {"verify": {"draws": 1, "n_steps": 40, key: value}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        assert f"config error: config.verify.{key}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_steps,kappa,smallest",
        [(12, [25.0], 13), (12, [1.0, 24.0], 13), (1000, [2000.0], 1001)],
        ids=["below", "at-kappa-over-2", "at-kappa-over-2-large"],
    )
    def test_grid_too_coarse_for_kappa_is_config_error(
        self, tmp_path, capsys, n_steps, kappa, smallest
    ):
        # the oracle needs n_steps > kappa / 2 (c = kappa / (2 n_steps) < 1)
        payload = {"verify": {"n": [2], "kappa": kappa, "draws": 1, "n_steps": n_steps}}
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: config.verify.n_steps:" in err
        assert f"at least {smallest}\n" in err
        assert not out.exists()
        payload["verify"]["n_steps"] = smallest
        assert cli.parse_scenario(payload).verify["n_steps"] == smallest


def test_readme_config_table_is_the_schema():
    """README's table of config keys lists every ``_SCHEMA`` row, in order,
    with its kind and its default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+\.\w+)` \| ([\w ]+) \| (.+) \|$", readme, re.MULTILINE)

    def default(value):
        if value is cli.REQUIRED:
            return "required"
        return "none" if value is None else f"`{json.dumps(value)}`"

    assert rows == [
        (f"{section}.{key}", getattr(kind, "__name__", kind), default(value))
        for section, keys in cli._SCHEMA.items() for key, (kind, value) in keys.items()
    ]


def test_one_scenario_config_drives_every_command(tmp_path):
    # sections irrelevant to a command are validated but ignored
    payload = {
        "game": {"n": 12, "lambdas": [0.4] + [0.6 / 11] * 11, "kappa": 5.0},
        "grid": {"n_points": 21},
        "centralization": {"n1": 4, "lambda_firm": 0.4, "delta_range": [-3, 20]},
        "sweep": {"n": [2, 5], "kappa": [1.0, 10.0], "lambda1": [0.2, 0.8]},
        "table": {"kappa": [1.0], "rows": [0.40]},
        "verify": {"n": [2], "kappa": [1.0], "n_steps": 300},
        "output": {"directory": "unused", "seed": 5},
    }
    cfg = write_config(tmp_path, "all.json", payload)
    out = str(tmp_path / "out")
    for command in ("equilibrium", "costs", "centralize", "poa", "verify"):
        assert main([command, "--config", cfg, "--out", out]) == 0, command
    for name in (
        "equilibrium.csv",
        "costs.csv",
        "centralize_report.csv",
        "centralize_curve.csv",
        "centralize_table.csv",
        "poa.csv",
        "verify_report.csv",
    ):
        assert (tmp_path / "out" / name).exists(), name


def test_twelve_significant_digit_formatting(tmp_path):
    cfg = write_config(
        tmp_path, "cfg.json", {"game": {"n": 3, "lambdas": [0.2, 0.3, 0.5], "kappa": 1.0}}
    )
    main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")])
    _, header, rows = read_csv(tmp_path / "out" / "equilibrium.csv")
    spec = pg.GameSpec(3, (0.2, 0.3, 0.5), 1.0)
    sol = pg.solve(spec)
    t = np.linspace(0.0, 1.0, 101)
    mid = rows[50]
    assert float(mid[1]) == pytest.approx(float(sol.positions(t[50])[0]), rel=1e-11)


def loaded_modules_after(code):
    """Names in sys.modules after running ``code`` in a fresh interpreter."""
    src = str(Path(pg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def is_scipy(module):
    return module == "scipy" or module.startswith("scipy.")


def is_numpy_polynomial(module):
    # the quadrature rule is a fixed table, so nothing needs leggauss
    return module == "numpy.polynomial" or module.startswith("numpy.polynomial.")


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules other tests imported do not count
    loaded = loaded_modules_after("import posgame.cli")
    layers = ("core", "equilibrium", "costs", "centralization", "oracle", "verification", "cli")
    assert {f"posgame.{layer}" for layer in layers} <= loaded
    assert not any(is_scipy(m) or is_numpy_polynomial(m) for m in loaded)


def test_non_verify_commands_run_without_scipy(tmp_path):
    payload = {
        "game": {"n": 4, "lambdas": [0.4, 0.3, 0.2, 0.1], "kappa": 5.0},
        "grid": {"n_points": 11},
        "centralization": {"n1": 2, "lambda_firm": 0.4, "delta_range": [-1, 5]},
        "sweep": {"n": [2, 5], "kappa": [1.0], "lambda1": [0.3]},
        "table": {"kappa": [1.0], "rows": [0.40]},
    }
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "out")
    code = (
        "from posgame.cli import main\n"
        "for command in ('equilibrium', 'costs', 'centralize', 'poa'):\n"
        f"    assert main([command, '--config', {cfg!r}, '--out', {out!r}]) == 0, command"
    )
    assert not any(is_scipy(m) or is_numpy_polynomial(m) for m in loaded_modules_after(code))
    assert (tmp_path / "out" / "poa.csv").exists()


def test_oracle_solve_and_verify_load_no_scipy(tmp_path):
    # the Nash point is explicit, so only best_response would load scipy
    cfg = write_config(tmp_path, "cfg.json", {"verify": {"n": [2], "kappa": [5.0], "n_steps": 200}})
    out = str(tmp_path / "out")
    code = (
        "import posgame as pg\n"
        "from posgame.cli import main\n"
        "pg.nash_fixed_point(pg.GameSpec(3, (0.2, 0.3, 0.5), 25.0), 100)\n"
        f"assert main(['verify', '--config', {cfg!r}, '--out', {out!r}]) == 0"
    )
    assert not any(is_scipy(m) or is_numpy_polynomial(m) for m in loaded_modules_after(code))
    assert (tmp_path / "out" / "verify_report.csv").exists()


class TestNonFiniteKappa:
    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "command,payload",
        [
            ("costs", lambda k: {"sweep": {"n": [3], "kappa": [k], "lambda1": [0.2]}}),
            ("poa", lambda k: {"sweep": {"n": [2, 3], "kappa": [k]}}),
            ("centralize", lambda k: {"game": {"n": 12, "kappa": k},
                                      "centralization": {"n1": 4, "lambda_firm": 0.4}}),
            ("equilibrium", lambda k: {"game": {"n": 2, "symmetric": True, "kappa": k}}),
        ],
    )
    def test_config_error_and_no_csv(self, tmp_path, capsys, command, payload, kappa):
        # json.dumps writes NaN / Infinity, which Python's json.loads accepts
        cfg = write_config(tmp_path, "cfg.json", payload(kappa))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command,config,message",
    [
        ("equilibrium", {"game": {"n": 3, "lambdas": [0.2, 0.3, 0.5], "kappa": 709.5}},
         "config.game.kappa: kappa = 709.5 is too large"),
        ("verify", {"verify": {"n": [3], "kappa": [720], "draws": 1, "n_steps": 400}},
         "config.verify.kappa: kappa = 720.0 is too large"),
    ],
    ids=["equilibrium", "verify"],
)
def test_kappa_the_closed_form_cannot_solve_is_config_error(
    tmp_path, capsys, command, config, message
):
    # lambda_i n (e^kappa - 1) overflows; equilibrium once wrote b = 0 curves
    # (a_3(1) = 0.667) with exit 0
    cfg = write_config(tmp_path, "cfg.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def near_dbl_max(kappa, key="game"):
    """One config for centralize, costs and poa at ``kappa``; ``key`` names
    the section whose kappa is ``kappa`` (the other kappas are 1)."""
    kappas = {name: kappa if name == key else 1.0 for name in ("game", "sweep", "table")}
    return {
        "game": {"n": 12, "kappa": kappas["game"]},
        "centralization": {"n1": 4, "lambda_firm": 0.4},
        "sweep": {"n": [12, 50], "kappa": [kappas["sweep"]], "lambda1": [0.2]},
        "table": {"kappa": [1.0, kappas["table"]], "rows": [0.40]},
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kappa", [1e307, 1e308, sys.float_info.max])
@pytest.mark.parametrize(
    "command,key", [("centralize", "game"), ("centralize", "table"), ("costs", "sweep"),
                    ("poa", "sweep")]
)
def test_kappa_near_dbl_max_is_config_error(tmp_path, capsys, command, key, kappa):
    # kappa (n - 1), kappa (lambda n - count) or count kappa overflows: the
    # three commands wrote all-nan cost cells with exit 0; centralize's table
    # fails before the report and the curve are written
    cfg = write_config(tmp_path, "cfg.json", near_dbl_max(kappa, key))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    message = f"config error: config.{key}.kappa: kappa = {kappa} is too large"
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_kappa_1e300_keeps_its_rows(tmp_path):
    config = near_dbl_max(1e300)
    config["game"]["kappa"] = config["sweep"]["kappa"][0] = 1e300
    config["sweep"]["n"] = [12]
    cfg = write_config(tmp_path, "cfg.json", config)
    out = tmp_path / "out"
    for command in ("centralize", "costs", "poa"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    expected = {
        "costs.csv": "12,1e+300,0.2,1.9358974359e+299,0.209722222222,0.00972222222222,"
        "9.23076923077e+299",
        "poa.csv": "12,1e+300,9.23076923077e+299,38.4615384615,1.84615384615",
        "centralize_report.csv": "12,4,8,1e+300,0.4,3.74358974359e+299,5.48717948718e+299,"
        "3.88888888889e+299,5.11111111111e+299,3.88127853881,-6.85358255452,-2.5",
    }
    for name, row in expected.items():
        assert (out / name).read_text().splitlines()[2:] == [row], name


@pytest.mark.filterwarnings("error")
def test_poa_percent_stays_finite_past_overflow(tmp_path):
    # 100 (agg - base) overflows at kappa = 1e307; the gap is divided first
    # there, and the row reads as at kappa = 1e300
    cfg = write_config(tmp_path, "cfg.json", {"sweep": {"n": [12], "kappa": [1e307]}})
    out = tmp_path / "out"
    assert main(["poa", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "poa.csv").read_text().splitlines()[2:]
    assert rows == ["12,1e+307,9.23076923077e+306,38.4615384615,1.84615384615"]


ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference"
WORKLOADS = load_bench("workloads")
LARGE_N_OPS = [op for op in WORKLOADS.large_n_ops(0) if op["out"] == "costs"]


def test_table_prices_every_band_of_a_kappa_in_one_broadcast(tmp_path, monkeypatch):
    """One report broadcast for the naive report, then one per table kappa."""
    (op,) = [op for op in WORKLOADS.figures_ops(0) if op["out"] == "tables/minority"]
    calls = []
    columns = pg.centralization._report_columns

    def counted(*args):
        calls.append(args)
        return columns(*args)

    monkeypatch.setattr(pg.centralization, "_report_columns", counted)
    cfg = write_config(tmp_path, "cfg.json", op["config"])
    assert main([op["command"], "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1 + len(op["config"]["table"]["kappa"])


def test_one_parser_serves_every_call(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"sweep": SWEEP})
    good = ["costs", "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(good) == 0
    parser = cli._parser()
    with pytest.raises(SystemExit) as exited:
        main(["costs", "--config", cfg, "--colour"])
    assert exited.value.code == 1
    assert "unrecognized arguments: --colour" in capsys.readouterr().err
    assert main(good) == 0
    assert cli._parser() is parser


def run_script(name, out):
    """``python scripts/<name> OUT`` from the repository root with
    ``PYTHONPATH=src``, as the README documents it."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, f"scripts/{name}", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )


def test_figure_script_writes_the_committed_references(tmp_path):
    """The figure script writes the benchmark's figures workload, and every
    file stays byte-identical to its committed reference, header included."""
    out = tmp_path / "out"
    run_script("make_figure_data.py", out)
    references = sorted(p.relative_to(REFERENCE / "figures")
                        for p in (REFERENCE / "figures").rglob("*.csv"))
    assert len(references) == 23
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == references
    for ref in references:
        assert (out / ref).read_bytes() == (REFERENCE / "figures" / ref).read_bytes(), ref


@pytest.mark.parametrize("workload,op", [("large_n", op) for op in LARGE_N_OPS],
                         ids=[f"large_n/{op['out']}" for op in LARGE_N_OPS])
def test_figure_csvs_match_committed_reference(tmp_path, workload, op):
    """The large cost sweep stays byte-identical to the committed reference
    below the first line (which carries the version and config hash)."""
    cfg = write_config(tmp_path, "cfg.json", op["config"])
    assert main([op["command"], "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    references = sorted((REFERENCE / workload / op["out"]).glob("*.csv"))
    assert references
    for ref in references:
        produced = (tmp_path / "out" / ref.name).read_text().splitlines()[1:]
        assert produced == ref.read_text().splitlines()[1:], ref.name


VERIFY_REFERENCE = ROOT / "tests" / "reference" / "verify"


def test_verify_csv_matches_committed_reference(tmp_path):
    """The verification script writes the benchmark's verify workload, and
    its report stays byte-identical to the committed reference."""
    out = tmp_path / "out"
    proc = run_script("run_verification.py", out)
    assert "FAIL" not in proc.stdout
    assert sorted(p.name for p in out.iterdir()) == ["verify_report.csv"]
    produced = (out / "verify_report.csv").read_text().splitlines()
    reference = (VERIFY_REFERENCE / "verify_report.csv").read_text().splitlines()
    assert len(produced) == 3 * 3 * 3 * 6 + 3  # header, column names, convergence row
    assert produced == reference


def per_cell_lines(rows):
    """CSV lines as the writer formerly built them, one formatting call per
    cell; kept here as the reference for the row-at-a-time writer."""

    def fmt(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return f"{float(x):.12g}"

    return [",".join(c if isinstance(c, str) else fmt(c) for c in row) for row in rows]


def test_csv_writer_matches_per_cell_formatting(tmp_path):
    special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e-300, 0.1, 1 / 3]
    rows = [
        ["cost", 3, np.int64(-7), 2.5, np.float64(1e-17), -0.0],
        ["cost", 4, np.int64(12), 1e300, np.float64(math.nan), math.inf],  # same cell types
        [np.int32(5), True, np.float32(0.1), np.float64(-math.inf), "a b", 5e-324],
        special,
        [np.float64(x) for x in special],
        [2**70, -(2**63), np.uint64(2**64 - 1), "%d %s", "", 1],
    ]
    rng = np.random.default_rng(7)
    for _ in range(20):
        magnitudes = 10.0 ** rng.uniform(-300, 300, 50)
        rows.append((rng.choice([-1.0, 1.0], 50) * magnitudes).tolist())
        rows.append(list(rng.standard_normal(50)))  # np.float64 cells
    # bytes rows, each one or more finished lines, go out as they are, in order
    kernel = b"".join(_g12.format_rows(np.array([special, special[::-1]])))
    written = [*rows[:2], b"cost,1.5\n", *rows[2:4], kernel, b"a\nb\n", *rows[4:], b"end\n"]
    expected = []
    for row in written:
        expected += row.decode().splitlines() if isinstance(row, bytes) else per_cell_lines([row])
    path = cli._write_csv(tmp_path, "mixed.csv", ["h1", "h2"], iter(written), "# meta",
                          extra_comments=["# extra"])
    assert path.read_text() == "\n".join(["# meta", "# extra", "h1,h2", *expected]) + "\n"


def test_csv_writer_removes_its_partial_file_when_the_rows_raise(tmp_path):
    def rows():
        yield [1, 2.5]
        yield b"3,4\n"
        raise MemoryError  # as a streamed chunk that fails to allocate would

    with pytest.raises(MemoryError):
        cli._write_csv(tmp_path, "partial.csv", ["a", "b"], rows(), "# meta")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "n,kappa", [(2000, 5.0), (300, 300.0)], ids=["n2000-kappa5", "n300-kappa300"]
)
def test_large_equilibrium_matches_per_cell_formatting(tmp_path, n, kappa):
    """A large equilibrium with the benchmark's Dirichlet fractions is
    byte-identical to formatting the sampled curves cell by cell."""
    lambdas = WORKLOADS.large_n_lambdas(0, n)
    spec = pg.GameSpec(n=n, lambdas=tuple(lambdas), kappa=kappa)
    cfg = write_config(
        tmp_path, "cfg.json", {"game": {"n": n, "lambdas": lambdas, "kappa": kappa},
                               "grid": {"n_points": 201}},
    )
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    sol = pg.solve(spec)
    t = np.linspace(0.0, 1.0, 201)
    columns = [t, *sol.positions(t), sol.market(t)]
    rows = [[col[k] for col in columns] for k in range(t.size)]
    breakdown = pg.cost_breakdown(spec)
    rows.append(["cost", *breakdown.per_trader, breakdown.aggregate])
    rows.append(["share", *breakdown.shares, 1.0])
    header = ",".join(["t"] + [f"a_{i + 1}" for i in range(n)] + ["m"])
    produced = (tmp_path / "out" / "equilibrium.csv").read_text().splitlines()[1:]
    assert produced == [header, *per_cell_lines(rows)]


def printf_lines(block):
    """The CSV lines of a 2-D float block, the ``%.12g`` of every cell, with
    one ``%`` per row on a prebuilt format."""
    fmt = ",".join(["%.12g"] * block.shape[1])
    return [fmt % tuple(row) for row in block.tolist()]


def assert_lines_match_printf(block):
    """format_rows(block) is, line by line, the ``%.12g`` of every cell."""
    expected = [line + "\n" for line in printf_lines(block)]
    assert b"".join(_g12.format_rows(block)).decode().splitlines(keepends=True) == expected


CHUNK = _g12.CHUNK_CELLS
BLOCK_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(2, CHUNK + 100)),  # up to a row wider than a chunk
    st.tuples(st.integers(2, 3 * CHUNK + 7), st.just(1)),  # rows past a chunk's end
)


@settings(max_examples=60, deadline=None)
@given(block=arrays(np.float64, BLOCK_SHAPES, elements=st.floats(width=64), fill=st.floats()))
def test_float_block_matches_printf(block):
    # st.floats() draws nan, both infinities, subnormals and -0.0
    assert_lines_match_printf(block)


def test_float_block_matches_printf_at_powers_of_ten_ties_and_switch_points():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    neighbours = [np.nextafter(p, side) for p in powers for side in (0.0, math.inf)]
    # 13-digit decimal ties: exact in binary from 1e-1 up, otherwise the
    # nearest double, just off the tie, whose product by 10**k may land on it
    ties = [float(f"{digits}e{p}") for digits in (1234567890125, 9999999999995, 1000000000005)
            for p in range(-17, 1)] + [1000000000015.0, 100000000000.5, 12345678901.25]
    switches = [1e-5, 9.99999999999995e-5, 1e-4, 99999999999.95, 999999999999.5, 1e12,
                5e-324, sys.float_info.max, 0.0]
    values = np.array(powers + neighbours + ties + switches)
    values = np.concatenate([values, -values])
    assert_lines_match_printf(values[:, None])
    # the same cells as rows of three: every chunk ends mid-table
    assert_lines_match_printf(values[: values.size // 3 * 3].reshape(-1, 3))
    # one row wider than a chunk
    assert_lines_match_printf(np.resize(values, (1, CHUNK + 5)))


def test_float_block_formats_almost_every_large_n_cell_itself():
    """Under 1 % of the cells of the benchmark's 2000-trader curves take the
    ``%`` fallback."""
    spec = pg.GameSpec(n=2000, lambdas=tuple(WORKLOADS.large_n_lambdas(0)), kappa=5.0)
    solution = pg.solve(spec)
    t = np.linspace(0.0, 1.0, 201)
    block = np.column_stack([t, solution.positions(t).T, solution.market(t)])
    _, _, certified = _g12._round12(block)
    assert np.count_nonzero(~certified) < 0.01 * block.size


def test_equilibrium_csv_is_written_in_bounded_memory(tmp_path, monkeypatch):
    """Writing the 2000-trader equilibrium.csv peaks below the file's size:
    the float block is streamed in chunks, not built as one list of lines."""
    peaks = []
    write = cli._write_csv

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return write(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_csv", traced)
    lambdas = WORKLOADS.large_n_lambdas(0)
    cfg = write_config(
        tmp_path, "cfg.json", {"game": {"n": 2000, "lambdas": lambdas, "kappa": 5.0},
                               "grid": {"n_points": 201}},
    )
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(peaks) == 1
    assert peaks[0] < (tmp_path / "out" / "equilibrium.csv").stat().st_size


def chunk_edge_cases():
    """(n, n_points): for n = 1, 2 and 2000 traders, the smallest grid, the
    grids one row short of a chunk, of exactly one chunk and one row past
    it, and 2001 points."""
    for n in (1, 2, 2000):
        rows = _g12.chunk_rows(n + 2)
        for n_points in sorted({2, max(2, rows - 1), rows, rows + 1, 2001}):
            yield n, n_points


@pytest.mark.parametrize("kappa", [0.0, 5e-324, 5.0, 700.0],
                         ids=["kappa0", "subnormal", "kappa5", "kappa700"])
@pytest.mark.parametrize("n,n_points", list(chunk_edge_cases()))
def test_streamed_equilibrium_matches_the_whole_block_at_chunk_edges(tmp_path, n, n_points,
                                                                     kappa):
    """equilibrium.csv, streamed a chunk of time rows at a time, is
    byte-identical to the whole (n_points, n + 2) block built at once and
    formatted by printf, on both curve branches (kappa 0 and a kappa below
    the floor take the straight line); the cost and share rows are
    formatted cell by cell."""
    lambdas = {1: [1.0], 2: [0.3, 0.7]}.get(n) or WORKLOADS.large_n_lambdas(0, n)
    spec = pg.GameSpec(n=n, lambdas=tuple(lambdas), kappa=kappa)
    cfg = write_config(
        tmp_path, "cfg.json", {"game": {"n": n, "lambdas": lambdas, "kappa": kappa},
                               "grid": {"n_points": n_points}},
    )
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    sol = pg.solve(spec)
    t = np.linspace(0.0, 1.0, n_points)
    breakdown = pg.cost_breakdown(spec)
    expected = printf_lines(np.column_stack([t, sol.positions(t).T, sol.market(t)]))
    expected += per_cell_lines([["cost", *breakdown.per_trader, breakdown.aggregate],
                                ["share", *breakdown.shares, 1.0]])
    produced = (tmp_path / "out" / "equilibrium.csv").read_text().splitlines()[2:]
    assert produced == expected


def test_equilibrium_memory_does_not_grow_with_n_points(tmp_path):
    """The whole 2000-trader equilibrium command, config parsing and costs
    included, peaks no higher at 2001 time points than at 201 (give or take
    a quarter): the curves are streamed a chunk of time rows at a time."""
    lambdas = WORKLOADS.large_n_lambdas(0)
    peaks = {}
    for n_points in (201, 201, 2001):  # the first run warms the word table up
        cfg = write_config(
            tmp_path, "cfg.json", {"game": {"n": 2000, "lambdas": lambdas, "kappa": 5.0},
                                   "grid": {"n_points": n_points}},
        )
        tracemalloc.start()
        try:
            assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            peaks[n_points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2001] <= 1.25 * peaks[201]


def test_float_block_chunk_buffers_stay_under_the_mmap_threshold():
    """The widest chunk the kernel lays out, CHUNK_CELLS negative and
    positive cells with three integer words and four fraction words, needs
    no buffer of 2**17 bytes (glibc's default mmap threshold) or more.  Its
    cell array is its largest buffer: the bytes copy is as large, the
    compacted bytes no larger, and every numeric array, one per 4-digit
    word, holds 8 bytes a cell."""
    exponents = np.arange(-4, 12)  # every exponent %g writes in fixed notation
    magnitudes = 1.234567890123456 * 10.0 ** exponents
    cycle = np.concatenate([magnitudes, -magnitudes])
    block = np.resize(cycle, (64, _g12.CHUNK_CELLS // 64))
    assert _g12.chunk_rows(block.shape[1]) == block.shape[0]  # one chunk
    cells, _ = _g12._cells(block)
    # a minus slot, 3 integer words, a dot, 4 fraction words and a comma
    assert cells.shape == (_g12.CHUNK_CELLS, 1 + 3 * 4 + 1 + 4 * 4 + 1)
    assert cells.nbytes < 2**17
    assert 8 * _g12.CHUNK_CELLS < 2**17
    # all the chunk's buffers at once: 649.7 KiB when the words of a number
    # were one (words, cells) array, 465.8 KiB with an array per word
    tracemalloc.start()
    try:
        _g12._chunk_bytes(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 650 * 1024
    assert_lines_match_printf(block)


def word_boundary_values():
    """Cells whose digits end just before, on and just after each 4-digit
    word boundary: for every k from 1 to 15 (10**-k the place of a cell's
    12th significant digit), the last non-zero digit at each place that k
    allows, after digits that are all non-zero or all zero but the first;
    and integer parts at the edges of one, two and three words, bare and
    with fractions ending at the same boundaries.  Both signs, and -0.0."""
    places = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15)
    values = []
    for k in range(1, 16):
        for place in places:
            zeros = k - place  # trailing zeros of the 12 digits
            if place <= k and zeros < 12:
                for fill in "20":
                    digits = "1" + fill * (10 - zeros) + "7" if zeros < 11 else "7"
                    values.append(float(f"{digits}{'0' * zeros}e-{k}"))
    for whole in (9999, 10**4, 99999999, 10**8, 10**11):
        values.append(float(whole))
        values += [float(f"{whole}.{'0' * (place - 1)}7") for place in places
                   if len(str(whole)) + place <= 12]
    values = np.array(values)
    return np.concatenate([values, -values, [-0.0]])


def test_float_block_matches_printf_at_word_boundaries():
    values = word_boundary_values()
    assert values.size <= CHUNK
    assert_lines_match_printf(values[None, :])  # one chunk
    for value in values:  # one chunk each, with only the words the value needs
        assert_lines_match_printf(np.array([[value]]))
