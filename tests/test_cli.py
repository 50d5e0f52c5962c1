import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posgame as pg
import posgame.cli as cli
from posgame.cli import main


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


def test_cli_import_loads_every_layer_but_not_scipy_integrate():
    # a fresh interpreter, so modules other tests imported do not count
    src = str(Path(pg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import json, sys, posgame.cli\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    layers = ("core", "equilibrium", "costs", "centralization", "oracle", "verification", "cli")
    assert {f"posgame.{layer}" for layer in layers} <= loaded
    assert not any(m.startswith("scipy.integrate") for m in loaded)


def loaded_modules_after(code):
    """Names in sys.modules after running ``code`` in a fresh interpreter."""
    src = str(Path(pg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def is_scipy(module):
    return module == "scipy" or module.startswith("scipy.")


def test_cli_import_loads_no_scipy():
    assert not any(is_scipy(m) for m in loaded_modules_after("import posgame.cli"))


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
    assert not any(is_scipy(m) for m in loaded_modules_after(code))
    assert (tmp_path / "out" / "poa.csv").exists()


def test_first_oracle_solve_loads_scipy_linalg():
    code = "import posgame as pg\npg.nash_fixed_point(pg.GameSpec.symmetric(2, 1.0), 10)"
    assert "scipy.linalg" in loaded_modules_after(code)


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


BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = BENCH / "reference"


def _bench_workloads():
    """The benchmark's workload definitions, loaded from bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()
REFERENCE_OPS = [("figures", op) for op in WORKLOADS.figures_ops(0)] + [
    ("large_n", op) for op in WORKLOADS.large_n_ops(0) if op["out"] == "costs"
]


@pytest.mark.parametrize(
    "workload,op", REFERENCE_OPS, ids=[f"{w}/{op['out']}" for w, op in REFERENCE_OPS]
)
def test_figure_csvs_match_committed_reference(tmp_path, workload, op):
    """Every figure-data CSV and the large cost sweep stay byte-identical to
    the committed references below the first line (which carries the version
    and config hash)."""
    cfg = write_config(tmp_path, "cfg.json", op["config"])
    assert main([op["command"], "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    references = sorted((REFERENCE / workload / op["out"]).glob("*.csv"))
    assert references
    for ref in references:
        produced = (tmp_path / "out" / ref.name).read_text().splitlines()[1:]
        assert produced == ref.read_text().splitlines()[1:], ref.name


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
    path = cli._write_csv(tmp_path, "mixed.csv", ["h1", "h2"], rows, "# meta",
                          extra_comments=["# extra"])
    expected = ["# meta", "# extra", "h1,h2", *per_cell_lines(rows)]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_large_equilibrium_matches_per_cell_formatting(tmp_path):
    """A 2000-trader equilibrium with the benchmark's Dirichlet fractions is
    byte-identical to formatting the sampled curves cell by cell."""
    lambdas = WORKLOADS.large_n_lambdas(0)
    spec = pg.GameSpec(n=2000, lambdas=tuple(lambdas), kappa=5.0)
    cfg = write_config(
        tmp_path, "cfg.json", {"game": {"n": 2000, "lambdas": lambdas, "kappa": 5.0},
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
    header = ",".join(["t"] + [f"a_{i + 1}" for i in range(2000)] + ["m"])
    produced = (tmp_path / "out" / "equilibrium.csv").read_text().splitlines()[1:]
    assert produced == [header, *per_cell_lines(rows)]
