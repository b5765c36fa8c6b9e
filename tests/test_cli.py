import csv
import datetime as dt
import errno
import functools
import importlib
import importlib.util
import json
import logging
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mspi
from mspi import backtest
from mspi.artifacts import (
    read_calendar,
    write_calendar_csv,
    write_features_csv,
    write_forecasts_csv,
    write_labels_csv,
)
from mspi.cli import main
from mspi.config import PipelineConfig
from mspi.errors import DataError, NumericError
from mspi.features import FeatureMatrix
from mspi.labels import LabelSeries, build_market_monthly, label_stress
from mspi.panel import EligibilityFilter, load_daily_panel, load_market_series, partition_months

from .conftest import SMALL_SIM
from .test_backtest import assert_no_children, set_cpus, synthetic_features, synthetic_labels
from .test_econometrics import paired, toy_forecasts

# The small simulated panel of conftest.py run through every stage, with a
# backtest cut down so the whole run takes seconds.
SMALL_CONFIG = {
    "sim_n_stocks": SMALL_SIM.sim_n_stocks,
    "sim_n_years": SMALL_SIM.sim_n_years,
    "sim_p_calm_to_stress": SMALL_SIM.sim_p_calm_to_stress,
    "sim_p_stress_to_calm": SMALL_SIM.sim_p_stress_to_calm,
    "seed": SMALL_SIM.seed,
    "l1_grid": [float(v) for v in np.logspace(-3, 0, 6)],
    "l2_grid": [float(v) for v in np.logspace(-3, 0, 6)],
    "rf_trees": 10,
    "gb_stage_grid": [10, 20],
    "bootstrap_reps": 200,
}
STAGES = ("simulate", "features", "label", "backtest", "evaluate",
          "bootstrap", "regress", "lp", "report")
# sha256 of each artifact without its config hash (see body_sha256)
GOLDEN_BODIES = {
    "panel.csv": "386b9cc3b7820ed4c1b4bda38bd930db804792f05e43dfcf02dc08065bb8f0b8",
    "features.csv": "a4028b4f33345ef67f1f9ac1a4d1be4e3563bf24fafec62a065db89db8ecdd97",
    "ingest_summary.json": "8486aa2b4db211fea9e4c0e47af9914ae2be6482c18c7add48843c54d3d263b4",
    "labels.csv": "1d2495c7af86f4582530c579fe8a25aa3425d31b9c8a52eef764b4513017b0bf",
    "forecasts.csv": "0c6fc800aa670fde67457745a2f4bfec0d2405917901c1a9cf6949056cdb50c9",
    "metrics.json": "2907a543c2c1e548301a3c6cf507875e7506b989e22a10661df76787d8a489af",
    "curves.csv": "e4cec48fc5f70e432fea251da86053590a100203eb1660a37fd630a4d983e1d5",
    "bins.csv": "91f0e1b7be45dc7e04fc98517ce1d7a529b9b4ab8001c000059a30921923d235",
    "bootstrap.json": "40746552420d9449cd9f20a9cd15de4ade55ef6991648aae278f4cfb70763f3d",
    "provenance.json": "6961333be4cb8b9d93c79374808f603fe0a6528a2fb5e956e20ad8015c66e6ca",
    "regression.json": "22b663f579746b366b8e250dd571339e7aeebae8b3162b34fa80549556c68e60",
    "local_projections.csv": "b9442fafc8f456e7143846536a9a48e559f2754668d7516e60a1a2a67e526999",
    "report.json": "f8cccb3097d4b13618e94cc310f239133a65c785574036c8b48e00d5dda22bdd",
    "report.txt": "cd76b43b8ae55f461247a195fd6e1c8995599a25ae0f19152d945ae33da5e0c5",
}


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


ROOT = Path(__file__).resolve().parents[1]
# The benchmark's stage tracer; its WRAPS names each function it wraps by the
# module that calls it.
TRACING = ROOT / "bench" / "tracing.py"
# The artifact-body hash that tools/default_run.py pins the default-config bodies by.
body_sha256 = runpy.run_path(str(ROOT / "tools" / "default_run.py"))["body_sha256"]


def counted(fn, calls: dict, key):
    """``fn``, counting its calls in ``calls[key]``."""
    calls[key] = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The out dir of the nine stages on ``SMALL_CONFIG``, and the number of
    calls of each function the tracer wraps during that run."""
    tmp_path = tmp_path_factory.mktemp("golden")
    calls = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for module_name, attr, _ in runpy.run_path(str(TRACING))["WRAPS"]:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, counted(getattr(module, attr), calls,
                                                      f"{module_name}.{attr}"))
        out = tmp_path / "out"
        config = write_config(tmp_path, {**SMALL_CONFIG, "out_dir": str(out)})
        for stage in STAGES:
            assert main(["--log-level", "WARNING", stage, "--config", config]) == 0, stage
    return out, calls


def test_all_stages_reproduce_golden_artifacts(golden_run):
    # each function the tracer wraps is still called where it wraps it (the
    # parent process keeps a forecast month of every model)
    out, calls = golden_run
    assert {name: body_sha256(out / name) for name in GOLDEN_BODIES} == GOLDEN_BODIES
    assert [key for key, n in calls.items() if n == 0] == []
    # each bootstrap delta is the full-sample difference of the metrics.json values
    models = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["models"]
    rows = json.loads((out / "bootstrap.json").read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 15 and [row["delta"] for row in rows] == [
        models[row["model"]][row["metric"]] - models["l2"][row["metric"]] for row in rows]


# Run in a fresh interpreter: which of numpy.random (which NumPy 2 imports only
# on first use, about 2.4 MB), OpenSSL's libcrypto (through _hashlib, 3.7 MB)
# and numpy.ma (1.6 MB) the stages have loaded. ``mspi.numpy_parts`` imports
# numpy.random against a stand-in ``secrets``, so libcrypto never loads, and
# checks classes without np.unique, which loads numpy.ma. Its arguments are a
# config and the stages to run. It prints whether ``import numpy`` alone loaded
# numpy.random, the three answers after each stage, and whether ``import
# secrets`` then gives the real module.
MODULES_LOADED = """
import json, sys
import numpy
from mspi.cli import main

loaded = [["numpy.random" in sys.modules]]
for stage in sys.argv[2:]:
    assert main(["--log-level", "WARNING", stage, "--config", sys.argv[1]]) == 0, stage
    loaded.append([name in sys.modules for name in ("numpy.random", "_hashlib", "numpy.ma")])
import secrets
loaded.append([hasattr(secrets, "token_bytes")])
print(json.dumps(loaded))
"""


def test_stages_that_draw_no_random_numbers_never_load_numpy_random(golden_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(golden_run[0], out)
    path = [str(Path(mspi.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def loaded(payload, *stages):
        config = write_config(tmp_path, {**payload, "out_dir": str(out)})
        result = subprocess.run([sys.executable, "-c", MODULES_LOADED, config, *stages],
                                env=env, capture_output=True, text=True, check=True)
        return json.loads(result.stdout)

    # l1 and l2 draw nothing, so their backtest counts as draw-free; label and
    # the bootstrap load numpy.ma through np.quantile, so they come last
    drawless = ("backtest", "features", "regress", "evaluate", "lp", "report", "label")
    (with_numpy,), *draw_free, bootstrap, (real_secrets,) = loaded(
        {**SMALL_CONFIG, "models": ["l1", "l2"]}, *drawless, "bootstrap")
    if with_numpy:
        pytest.skip("this NumPy imports numpy.random with numpy")
    # the bootstrap and the rf backtest each draw first in their process, so
    # their checks can fail; simulate draws after the backtest
    _, forest, simulate, (real_secrets_too,) = loaded(SMALL_CONFIG, "backtest", "simulate")
    assert [random for random, _, _ in draw_free] == [False] * len(drawless)
    assert bootstrap[0] and forest[0] and simulate[0]
    # sys.modules only grows, so the first three stages together load no numpy.ma
    assert [ma for _, _, ma in draw_free[:3]] == [False] * 3 and forest[2] is False
    assert real_secrets and real_secrets_too
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert [crypto for _, crypto, _ in draw_free + [bootstrap, forest, simulate]] == (
            [False] * (len(drawless) + 3))


# Run in a fresh interpreter: ``python -m mspi.cli`` on the arguments given.
# It prints the exit code and every module loaded, on the last line.
RUN_CLI = """
import json, runpy, sys
sys.argv = ["mspi", *sys.argv[1:]]
try:
    runpy.run_module("mspi.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps([exc.code, sorted(sys.modules)]))
"""


def test_help_config_errors_and_report_never_load_numpy(golden_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(golden_run[0], out)
    path = [str(Path(mspi.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def loaded(code, *argv):
        result = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], env=env,
                                capture_output=True, text=True, check=True)
        exit_code, modules = json.loads(result.stdout.splitlines()[-1])
        assert exit_code == code, result.stderr
        return set(modules)

    config = write_config(tmp_path, {**SMALL_CONFIG, "out_dir": str(out)})
    missing = str(tmp_path / "missing.json")
    for code, argv in [(0, ["--help"]), (2, ["backtest", "--config", missing]),
                       (0, ["--log-level", "WARNING", "report", "--config", config])]:
        assert "numpy" not in loaded(code, *argv), argv
    # the check can fail: evaluate loads NumPy, but no module of another stage
    evaluate = loaded(0, "--log-level", "WARNING", "evaluate", "--config", config)
    assert "numpy" in evaluate
    assert {"mspi.backtest", "mspi.learners.trees", "mspi.features", "mspi.panel",
            "mspi.simulate"}.isdisjoint(evaluate)


def default_run(out, *stages):
    """tools/default_run.py's ``default`` run of ``stages`` in ``out``: its
    exit code, its standard error and its record."""
    path = [str(Path(mspi.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "default_run.py"), "default",
                             str(out), *stages], env=env, capture_output=True, text=True)
    return result.returncode, result.stderr, json.loads(result.stdout.splitlines()[-1])


def test_default_run_records_a_stage_and_fails_on_a_staged_file_or_a_failed_stage(
        golden_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(golden_run[0], out)
    code, stderr, record = default_run(out, "report")
    assert (code, record["failures"], record["bodies"]) == (0, [], {}), stderr
    assert record["stages"]["report"]["exit"] == 0
    # os.wait4 reports at least the RSS of the launcher that started the stage,
    # so the launcher must stay below the stage's own peak to measure it
    assert record["launcher_rss_mb"] < record["stages"]["report"]["peak_rss_mb"]
    (out / "x.partial").write_text("", encoding="utf-8")
    code, stderr, record = default_run(out, "report")
    assert code == 1 and "x.partial" in stderr
    assert record["failures"] == [f"staged file left in {out}: x.partial"]
    (out / "x.partial").unlink()
    (out / "metrics.json").unlink()
    code, stderr, record = default_run(out, "report")
    assert (code, record["failures"]) == (1, ["report exited 3"])
    assert "report exited 3" in stderr


def test_default_run_loads_neither_hashlib_nor_numpy():
    # the launcher's own RSS is a floor under each stage's peak (see above)
    script = ("import runpy, sys; runpy.run_path(sys.argv[1]); "
              "print(sorted({'hashlib', 'numpy'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", script, str(ROOT / "tools" / "default_run.py")],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("payload, field", [
    ({"seed": "7"}, "seed"),
    ({"rf_trees": 0}, "rf_trees"),
    ({"cv_folds": 0}, "unknown config field 'cv_folds'"),
    ({"gb_shrinkage": 0.05}, "unknown config field 'gb_shrinkage'"),
    ({"calibration_fraction": 0.3}, "unknown config field 'calibration_fraction'"),
    ({"rf_trees": True}, "rf_trees must be of type int, got True"),
    ({"l1_grid": [0.1, "big"]}, "l1_grid"),
    ({"gb_stage_grid": [0, 10]}, "gb_stage_grid"),
    ({"lp_outcome": "zap"}, "unknown config field 'lp_outcome'"),
    ({"seed": -1}, "seed"),
    ({"models": ["l1", "l1", "l2"]}, "models"),
    ({"bin_edges": [0.0, 0.5, 0.4, 1.0]}, "bin_edges"),
    ({"min_abs_price": -1}, "unknown config field 'min_abs_price'"),
    ({"sim_n_stocks": 1}, "sim_n_stocks must be >= 2, got 1"),
    ({"sim_p_stress_to_calm": 1.5}, "sim_p_stress_to_calm must be in [0,1], got 1.5"),
    ({"sim_calm_mkt_vol": 0}, "unknown config field 'sim_calm_mkt_vol'"),
    ({"min_abs_price": math.nan}, "unknown config field 'min_abs_price'"),
    ({"bin_edges": [0, math.nan, 1]}, "unknown config field 'bin_edges'"),
    ({"crash_cutoff": math.nan}, "unknown config field 'crash_cutoff'"),
    ({"tail_threshold": math.inf}, "unknown config field 'tail_threshold'"),
    ({"return_cutoff": -math.inf}, "unknown config field 'return_cutoff'"),
    ({"l1_grid": [math.inf]}, "l1_grid must be finite"),
    ({"lp_controls": True}, "unknown config field 'lp_controls'"),
    ({"rf_max_depth": 4}, "unknown config field 'rf_max_depth'"),
    ({"rf_min_leaf": 3}, "unknown config field 'rf_min_leaf'"),
    ({"gb_max_depth": 3}, "unknown config field 'gb_max_depth'"),
    ({"calibration_min_months": 18}, "unknown config field 'calibration_min_months'"),
    ({"min_validation_months": 5}, "unknown config field 'min_validation_months'"),
    ({"require_share_class": False}, "unknown config field 'require_share_class'"),
    ({"require_exchange": False}, "unknown config field 'require_exchange'"),
    ({"ece_bins": 10}, "unknown config field 'ece_bins'"),
    ({"bootstrap_block": 12}, "unknown config field 'bootstrap_block'"),
    ({"hac_lag": 6}, "unknown config field 'hac_lag'"),
    ({"lp_horizon": 12}, "unknown config field 'lp_horizon'"),
    ({"initial_window_months": 40}, "unknown config field 'initial_window_months'"),
    ({"vol_quantile": 0.8}, "unknown config field 'vol_quantile'"),
    ({"min_history_months": 24}, "unknown config field 'min_history_months'"),
    ({"benchmark": "l2"}, "unknown config field 'benchmark'"),
    ({"regress_model": "l1"}, "unknown config field 'regress_model'"),
    ({"models": ["l1", "rf"]}, "models must include the benchmark model 'l2'"),
    ({"models": ["l2", "gb"]}, "models must include the index model 'l1'"),
], ids=["seed_string", "rf_trees", "cv_folds", "gb_shrinkage", "calibration_fraction",
        "flag_int", "grid_entry", "stage_grid", "lp_outcome", "negative_seed",
        "duplicate_model", "bin_edges_order", "negative_min_price", "sim_n_stocks",
        "sim_p_stress_to_calm", "removed_regime_field", "nan_min_price", "nan_bin_edge",
        "nan_crash_cutoff", "inf_tail_threshold", "minus_inf_return_cutoff",
        "inf_grid_entry", "removed_lp_controls", "removed_rf_max_depth",
        "removed_rf_min_leaf", "removed_gb_max_depth", "removed_calibration_min_months",
        "removed_min_validation_months", "removed_require_share_class",
        "removed_require_exchange", "removed_ece_bins", "removed_bootstrap_block",
        "removed_hac_lag", "removed_lp_horizon", "short_cv_window", "removed_vol_quantile",
        "removed_min_history_months", "removed_benchmark", "removed_regress_model",
        "no_benchmark_model", "no_index_model"])
def test_bad_config_exits_2(tmp_path, capsys, payload, field):
    config = write_config(tmp_path, {**payload, "out_dir": str(tmp_path / "out")})
    assert main(["backtest", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("payload", [None, {"seed": 3}], ids=["no_config", "config"])
def test_negative_seed_override_exits_2(tmp_path, capsys, payload):
    out = tmp_path / "out"
    argv = ["label", "--out", str(out), "--seed", "-1"]
    if payload is not None:
        argv += ["--config", write_config(tmp_path, payload)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["label", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: out_dir {taken} cannot be created: ")


def test_main_checks_the_config_once(tmp_path, monkeypatch):
    calls = {}
    monkeypatch.setattr(PipelineConfig, "__post_init__",
                        counted(PipelineConfig.__post_init__, calls, "checks"))
    argv = ["evaluate", "--config", write_config(tmp_path, {"seed": 3}),
            "--out", str(tmp_path / "out"), "--seed", "4"]
    assert main(argv) == 3  # no forecasts.csv
    assert calls == {"checks": 1}


def test_missing_upstream_artifact_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["backtest", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: missing file: {out / 'features.csv'}\n"


def test_malformed_panel_row_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "panel.csv").write_text(
        "date,security_id,ret,prc,vol,shrout,shrcd_ok,exchcd_ok\n"
        "2001-01-02,A,0.01,5.00,100,1000,1,1\n"
        "2001-01-02,B,zap,5.00,100,1000,1,1\n", encoding="utf-8")
    (out / "market.csv").write_text("date,mkt_ret\n2001-01-02,0.0\n", encoding="utf-8")
    assert main(["features", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: {out / 'panel.csv'}: line 3, column 'ret': "
                   "cannot parse number from 'zap'\n")


PANEL_HEAD = b"date,security_id,ret,prc,vol,shrout,shrcd_ok,exchcd_ok\n"
LONG_FIELD = b"A" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("stage, target, content, code", [
    ("features", "out/panel.csv", PANEL_HEAD + b"2001-01-02,\xff,0.01,5.00,100,1000,1,1\n", 3),
    ("label", "out/market.csv", b"date,mkt_ret\n2001-01-02,0.0\xff\n", 3),
    ("label", "out/calendar.csv", b"date\n2001-01-02\xff\n", 3),
    ("label", "config.json", b'{"seed": "\xff"}', 2),
    ("features", "out/panel.csv", PANEL_HEAD + b"2001-01-02," + LONG_FIELD + b",0.01,5,1,1,1,1\n",
     3),
    ("features", "out/panel.csv",
     PANEL_HEAD + b'2001-01-02,"' + LONG_FIELD + b'",0.01,5,1,1,1,1\n', 3),
    ("features", "out/panel.csv", None, 3),
    ("label", "config.json", None, 2),
    ("label", "out", b"", 2),
], ids=["panel_not_utf8", "market_not_utf8", "calendar_not_utf8", "config_not_utf8",
        "panel_field_over_limit", "panel_quoted_field_over_limit", "panel_is_directory",
        "config_is_directory", "out_is_a_file"])
def test_unreadable_input_exits_with_named_error(tmp_path, capsys, stage, target, content, code):
    # valid inputs for both stages; then ``target`` is replaced by ``content``,
    # or by a directory where ``content`` is None
    out = tmp_path / "out"
    out.mkdir()
    (out / "panel.csv").write_bytes(PANEL_HEAD + b"2001-01-02,A,0.01,5.00,100,1000,1,1\n")
    (out / "market.csv").write_bytes(b"date,mkt_ret\n2001-01-02,0.0\n")
    write_calendar_csv(out / "calendar.csv", [dt.date(2001, 1, 2)], "h")
    config = write_config(tmp_path, {"out_dir": str(out)})
    path = tmp_path / target
    shutil.rmtree(path) if path.is_dir() else path.unlink()
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["--log-level", "WARNING", stage, "--config", config]) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "config error: ", 3: "data error: "}[code]) and str(path) in err
    assert "Traceback" not in err
    if content is not None and LONG_FIELD in content:
        assert f"{path}: line 2: field larger than field limit" in err


@pytest.mark.parametrize("field", ["market_csv", "panel_csv"])
def test_input_path_through_a_regular_file_exits_3(tmp_path, capsys, field):
    # opening the path fails with ENOTDIR, for root too, unlike an unreadable file
    out = tmp_path / "out"
    out.mkdir()
    (out / "panel.csv").write_bytes(PANEL_HEAD + b"2001-01-02,A,0.01,5.00,100,1000,1,1\n")
    (out / "market.csv").write_bytes(b"date,mkt_ret\n2001-01-02,0.0\n")
    (tmp_path / "afile").write_text("", encoding="utf-8")
    path = tmp_path / "afile" / f"{field[:-4]}.csv"
    config = write_config(tmp_path, {"out_dir": str(out), field: str(path)})
    assert main(["--log-level", "WARNING", "features", "--config", config]) == 3
    assert capsys.readouterr().err == (
        f"data error: {path}: cannot be read: {os.strerror(errno.ENOTDIR)}\n")


def set_cell(field, token):
    """An edit of a CSV's lines that sets one field of line 5, the third
    data row after the hash and header lines, or deletes it (token None)."""
    def edit(lines):
        fields = lines[4].split(",")
        if token is None:
            del fields[field]
        else:
            fields[field] = token
        return lines[:4] + [",".join(fields)] + lines[5:]
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("features.csv", set_cell(2, ""), "line 5, column 'xs_std': expected a finite number, got ''"),
    ("features.csv", set_cell(4, "nan"),
     "line 5, column 'xs_kurt': expected a finite number, got 'nan'"),
    ("features.csv", set_cell(10, None), "line 5: 10 fields, the header has 11"),
    ("labels.csv", set_cell(2, " "),
     "line 5, column 'sigma_mkt': expected a finite number, got ' '"),
    ("labels.csv", set_cell(3, "inf"),
     "line 5, column 'q_prev': expected a finite number, got 'inf'"),
    ("labels.csv", set_cell(1, "x"), "line 5, column 'R_mkt': expected a finite number, got 'x'"),
    ("labels.csv", set_cell(4, "2"), "line 5, column 'S': expected 0 or 1, got '2'"),
    ("labels.csv", lambda lines: lines[:4] + [lines[5], lines[4]] + lines[6:],
     "line 6: 2001-03 does not come after 2001-04"),
    ("features.csv", lambda lines: lines[:5] + lines[4:],
     "line 6: 2001-03 does not come after 2001-03"),
    # S of 2001-01 to 2001-12 is 0 0 1 1 0 1 1 1 0 0 0 0, and Y_next is the next row's S
    ("labels.csv", set_cell(5, "0"),
     "line 5, column 'Y_next': expected '1' (the next row's S, blank on the last row), got '0'"),
    ("labels.csv", lambda lines: lines[:-2] + [lines[-2] + "0", ""],
     "line 14, column 'Y_next': expected '' (the next row's S, blank on the last row), got '0'"),
    ("features.csv", set_cell(0, "2001-3"),
     "line 5, column 'month': expected a month YYYY-MM, got '2001-3'"),
    ("labels.csv", set_cell(0, "2001-00"),
     "line 5, column 'month': expected a month YYYY-MM, got '2001-00'"),
], ids=["blank_feature", "nan_feature", "ragged_features", "blank_sigma", "inf_q_prev",
        "bad_r_mkt", "s_out_of_range", "swapped_label_months", "repeated_feature_month",
        "wrong_y_next", "y_next_on_last_row", "short_feature_month", "label_month_zero"])
def test_malformed_backtest_inputs_exit_3(tmp_path, capsys, name, edit, message):
    out = tmp_path / "out"
    out.mkdir()
    rng = np.random.default_rng(0)
    months = [f"2001-{m:02d}" for m in range(1, 13)]
    write_features_csv(out / "features.csv",
                       FeatureMatrix(months=months, values=rng.normal(size=(12, 10))), "h")
    s = (rng.random(12) < 0.3).astype(np.int64)
    write_labels_csv(out / "labels.csv", LabelSeries(
        months=months, r_mkt=rng.normal(0, 0.04, 12), sigma_mkt=np.full(12, 0.1),
        q_prev=np.full(12, 0.2), s=s,
    ), "h")
    lines = (out / name).read_text(encoding="utf-8").split("\n")
    (out / name).write_text("\n".join(edit(lines)), encoding="utf-8")
    assert main(["backtest", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {out / name}: {message}\n"


@pytest.mark.parametrize("month, token, line", [
    ("2010-02", "2010-02x", 124), ("2010-01", "2010-00", 123),
], ids=["trailing_letter", "month_zero"])
def test_malformed_forecast_month_exits_3(tmp_path, capsys, month, token, line):
    # 2010-01 and 2010-02, the first two of four forecast months, are on lines
    # 123 and 124 after the hash and header lines; each is renamed in both
    # files. Each token sorts between its neighbours, so only the month
    # format rejects it.
    config = write_backtest_inputs(tmp_path, 124, models=["l1", "l2"])
    for name in ("features.csv", "labels.csv"):
        path = tmp_path / "out" / name
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(f"\n{month},", f"\n{token},"), encoding="utf-8")
    assert main(["backtest", "--config", config]) == 3
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'out' / 'features.csv'}: line {line}, column 'month': "
        f"expected a month YYYY-MM, got {token!r}\n")


def write_one_model_forecasts(tmp_path, model: str) -> str:
    """labels.csv and a forecasts.csv of ``model`` alone under tmp_path/out;
    returns a default config file writing there."""
    out = tmp_path / "out"
    out.mkdir()
    fs = toy_forecasts(n=48, seed=4)
    fs.models = (model,)
    fs.raw = {model: fs.raw.pop("l1")}
    fs.prob = {model: fs.prob.pop("l1")}
    labels, fs = paired(fs)
    write_labels_csv(out / "labels.csv", labels, "h")
    write_forecasts_csv(out / "forecasts.csv", fs, "h")
    return write_config(tmp_path, {"out_dir": str(out)})


@pytest.mark.parametrize("stage", ["regress", "lp"])
def test_forecasts_without_the_regression_model_exit_3(tmp_path, capsys, stage):
    config = write_one_model_forecasts(tmp_path, "l2")  # the index is l1
    assert main([stage, "--config", config]) == 3
    assert capsys.readouterr().err == (f"data error: {tmp_path / 'out' / 'forecasts.csv'}: "
                                       "no forecasts of model 'l1'; the file holds l2\n")


def test_forecasts_without_the_benchmark_model_exit_3(tmp_path, capsys):
    config = write_one_model_forecasts(tmp_path, "l1")  # the benchmark is l2
    assert main(["bootstrap", "--config", config]) == 3
    assert capsys.readouterr().err == (f"data error: {tmp_path / 'out' / 'forecasts.csv'}: "
                                       "no forecasts of model 'l2'; the file holds l1\n")


def test_bootstrap_on_one_stress_month_exits_4(tmp_path, capsys):
    # With the only stress month first, a 12-month block covers it in about
    # one resample in ten, so most resamples are single-class.
    out = tmp_path / "out"
    out.mkdir()
    fs = toy_forecasts(n=48, seed=4)
    fs.models = ("l1", "l2")
    fs.raw["l2"], fs.prob["l2"] = fs.raw["l1"] - 0.5, fs.prob["l1"] / 2.0
    fs.y_next = np.zeros(48)
    fs.y_next[0] = 1.0
    labels, fs = paired(fs)
    write_labels_csv(out / "labels.csv", labels, "h")
    write_forecasts_csv(out / "forecasts.csv", fs, "h")
    config = write_config(tmp_path, {"out_dir": str(out), "bootstrap_reps": 50})
    assert main(["bootstrap", "--config", config]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error: block bootstrap: metric 'auc' undefined in more than 25")
    assert "Traceback" not in err


def test_evaluate_on_fewer_months_than_ece_bins_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    labels, fs = paired(toy_forecasts(n=8, seed=4))
    write_labels_csv(out / "labels.csv", labels, "h")
    write_forecasts_csv(out / "forecasts.csv", fs, "h")
    config = write_config(tmp_path, {"out_dir": str(out)})
    assert main(["evaluate", "--config", config]) == 3
    assert capsys.readouterr().err == "data error: ECE needs at least 10 observations, got 8\n"


def write_index_and_benchmark_forecasts(out):
    """labels.csv and a forecasts.csv of l1 and l2 under ``out``."""
    out.mkdir()
    fs = toy_forecasts(n=48, seed=4)
    fs.models = ("l1", "l2")
    fs.raw["l2"], fs.prob["l2"] = fs.raw["l1"] - 0.5, fs.prob["l1"] / 2.0
    labels, fs = paired(fs)
    write_labels_csv(out / "labels.csv", labels, "h")
    write_forecasts_csv(out / "forecasts.csv", fs, "h")


@pytest.mark.parametrize("stage", ["evaluate", "bootstrap", "regress", "lp"])
@pytest.mark.parametrize("token", ["1.5", "-0.1"])
def test_probability_outside_unit_interval_exits_3(tmp_path, capsys, stage, token):
    out = tmp_path / "out"
    write_index_and_benchmark_forecasts(out)
    path = out / "forecasts.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[4].split(",")  # line 5, the second month's l1 row
    assert fields[1] == "l1"
    fields[3] = token
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    config = write_config(tmp_path, {"out_dir": str(out), "bootstrap_reps": 20})
    assert main(["--log-level", "WARNING", stage, "--config", config]) == 3
    assert capsys.readouterr().err == (f"data error: {path}: line 5, column 'probability': "
                                       f"expected a probability in [0, 1], got {token!r}\n")
    assert sorted(p.name for p in out.iterdir()) == ["forecasts.csv", "labels.csv"]


METRICS_HEAD = b'{"n": 47, "event_rate": 0.2, "ece_bins": 10, '
BOOTSTRAP_HEAD = b'{"benchmark": "l2", "block_len": 12, "replications": 20, '


@pytest.mark.parametrize("name, content, message", [
    ("metrics.json", b'{"n": 47, "event_', "not a UTF-8 JSON file: "),
    ("metrics.json", b"{}", "no key 'n'"),
    ("metrics.json", b'{"n": 47, "event_rate": 0.2, "models": {}}', "no key 'ece_bins'"),
    ("metrics.json", b"[1, 2]", "expected a JSON object, got list"),
    ("bootstrap.json", b'{"benchmark": "\xff"}', "not UTF-8 text (invalid start byte)"),
    ("metrics.json", None, "is a directory"),
    ("bootstrap.json", b'{"benchmark": "l2", "block_len": 12, "replications": 20}',
     "no key 'rows'"),
    ("regression.json", b"", "not a UTF-8 JSON file: "),
    ("regression.json", b'{"predictive_volatility": {}}', "no key 'crash'"),
    # the nested values the report prints
    ("metrics.json", METRICS_HEAD + b'"models": {"l1": {"pr_auc": 0.5}}}',
     "no key 'models.l1.auc'"),
    ("metrics.json", METRICS_HEAD + b'"models": {"l2": []}}',
     "key 'models.l2': expected a JSON object, got list"),
    ("metrics.json", b'{"n": 47, "event_rate": null, "ece_bins": 10, "models": {}}',
     "key 'event_rate': expected a JSON number, got NoneType"),
    ("bootstrap.json", BOOTSTRAP_HEAD + b'"rows": [{"metric": "auc", "model": "l1", '
     b'"delta": "0.1", "ci_lo": 0, "ci_hi": 0, "p_value": 1}]}',
     "key 'rows.0.delta': expected a JSON number, got str"),
    ("bootstrap.json", BOOTSTRAP_HEAD + b'"rows": [{"metric": "auc"}]}', "no key 'rows.0.model'"),
    ("bootstrap.json", BOOTSTRAP_HEAD + b'"rows": {}}',
     "key 'rows': expected a JSON array, got dict"),
    ("regression.json", b'{"predictive_volatility": {"gamma": 0.1, "delta_r2": 0}, '
     b'"crash": {"cutoff": -0.05}}', "no key 'crash.crash_rate'"),
    ("regression.json", b'{"predictive_volatility": {"gamma": true, "delta_r2": 0}, '
     b'"crash": {}}', "key 'predictive_volatility.gamma': expected a JSON number, got bool"),
], ids=["truncated_metrics", "empty_metrics", "metrics_without_ece_bins", "metrics_list",
        "bootstrap_not_utf8", "metrics_directory", "bootstrap_without_rows", "empty_regression",
        "regression_without_crash", "metric_missing", "model_not_object", "event_rate_null",
        "delta_string", "row_without_model", "rows_object", "crash_rate_missing",
        "gamma_bool"])
def test_report_on_a_bad_json_artifact_exits_3(tmp_path, capsys, name, content, message):
    out = tmp_path / "out"
    write_index_and_benchmark_forecasts(out)
    config = write_config(tmp_path, {"out_dir": str(out), "bootstrap_reps": 20})
    run_stages(config, "evaluate", "bootstrap", "regress")
    if content is None:  # a directory where the file should be
        (out / name).unlink()
        (out / name).mkdir()
    else:
        (out / name).write_bytes(content)
    assert main(["report", "--config", config]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {out / name}: {message}")
    assert "Traceback" not in err and not (out / "report.json").exists()


@pytest.mark.parametrize("column, token", [("bin_lo", "zap"), ("bin_hi", ""),
                                           ("next_vol", "inf")])
def test_report_on_a_bad_bins_cell_exits_3(tmp_path, capsys, column, token):
    out = tmp_path / "out"
    write_index_and_benchmark_forecasts(out)
    config = write_config(tmp_path, {"out_dir": str(out), "bootstrap_reps": 20})
    run_stages(config, "evaluate", "bootstrap")
    path = out / "bins.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    header, fields = lines[1].split(","), lines[2].split(",")
    fields[header.index(column)] = token
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert main(["report", "--config", config]) == 3
    assert capsys.readouterr().err == (f"data error: {path}: line 3, column {column!r}: "
                                       f"expected a finite number, got {token!r}\n")
    assert not (out / "report.json").exists() and not (out / "report.txt").exists()


def test_stages_write_the_same_bytes_in_any_out_dir(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    write_index_and_benchmark_forecasts(first)
    shutil.copytree(first, second)
    config = write_config(tmp_path, {"bootstrap_reps": 20})
    for out in (first, second):
        for stage in ("evaluate", "bootstrap", "regress", "lp", "report"):
            assert main(["--log-level", "WARNING", stage, "--config", config,
                         "--out", str(out)]) == 0, stage
    names = sorted(path.name for path in first.iterdir())
    assert len(names) == 10 and names == sorted(path.name for path in second.iterdir())
    assert [name for name in names
            if (first / name).read_bytes() != (second / name).read_bytes()] == []


def test_report_states_the_settings_of_the_artifacts_it_reads(tmp_path):
    # no regress run: the report has no regression section
    out = tmp_path / "out"
    write_index_and_benchmark_forecasts(out)
    run_stages(write_config(tmp_path, {"out_dir": str(out), "bootstrap_reps": 20}),
               "evaluate", "bootstrap")
    run_stages(write_config(tmp_path, {"out_dir": str(out), "bootstrap_reps": 50}), "report")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["settings"] == {"ece_bins": 10, "bootstrap_block_len": 12,
                                  "bootstrap_replications": 20, "benchmark": "l2"}
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "bootstrap: 12-month blocks, 20 replications" in text
    assert "50 replications" not in text
    assert report["regression"] is None
    assert "Predictive regressions" not in text


@pytest.mark.parametrize("stage, name", [
    ("simulate", "panel.csv"), ("simulate", "market.csv"), ("features", "ingest_summary.json"),
    ("backtest", "provenance.json"), ("evaluate", "metrics.json"), ("evaluate", "bins.csv"),
    ("report", "report.txt"), ("evaluate", "curves.csv.partial"),
], ids=["panel_csv", "csv", "ingest_summary_json", "provenance_json", "json", "bins_csv",
        "report_txt", "partial_dir"])
def test_unwritable_output_exits_2(tmp_path, capsys, stage, name):
    out = tmp_path / "out"
    config = write_config(tmp_path, {**TINY_CONFIG, "out_dir": str(out), "bootstrap_reps": 20})
    if stage == "simulate":
        out.mkdir()
    elif stage == "features":
        run_stages(config, "simulate")
    elif stage == "backtest":
        config = write_backtest_inputs(tmp_path, 124)
    else:
        write_index_and_benchmark_forecasts(out)
    if stage == "report":
        run_stages(config, "evaluate", "bootstrap")
    # the files the stage writes with ``name`` as one unit, left by an earlier run
    unit = {"market.csv": ("panel.csv",), "ingest_summary.json": ("features.csv", "calendar.csv"),
            "provenance.json": ("forecasts.csv",), "bins.csv": ("metrics.json", "curves.csv"),
            "report.txt": ("report.json",),
            "curves.csv.partial": ("metrics.json", "curves.csv", "bins.csv")}.get(name, ())
    for earlier in unit:
        (out / earlier).write_text("earlier run\n", encoding="utf-8")
    # a directory where the stage writes a file, or stages it: the clean-up
    # leaves a directory at a staged name in place
    (out / name).mkdir()
    assert main(["--log-level", "WARNING", stage, "--config", config]) == 2
    assert capsys.readouterr().err == (f"config error: cannot write "
                                       f"{out / name.removesuffix('.partial')}: "
                                       f"{os.strerror(errno.EISDIR)}\n")
    assert [p.name for p in out.glob("*.partial")] == (
        [name] if name.endswith(".partial") else [])
    for earlier in unit:
        assert (out / earlier).read_text(encoding="utf-8") == "earlier run\n", earlier


# Four years of eight stocks: the shortest panel the default stress warm-up labels.
TINY_CONFIG = {"sim_n_stocks": 8, "sim_n_years": 4, "seed": 3}


def run_stages(config, *stages):
    for stage in stages:
        assert main(["--log-level", "WARNING", stage, "--config", config]) == 0, stage


def test_features_writes_the_ingest_summary_without_the_flag(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, {**TINY_CONFIG, "out_dir": str(out)})
    run_stages(config, "simulate", "features")
    summary = json.loads((out / "ingest_summary.json").read_text(encoding="utf-8"))
    assert summary["rows_read"] == summary["rows_kept"] > 0
    # the flag is still accepted, unlisted, and changes nothing
    written = (out / "ingest_summary.json").read_bytes()
    assert main(["--log-level", "WARNING", "features", "--config", config,
                 "--ingest-summary"]) == 0
    assert (out / "ingest_summary.json").read_bytes() == written
    with pytest.raises(SystemExit):
        main(["features", "--help"])
    assert "--ingest-summary" not in capsys.readouterr().out


def test_label_reads_calendar_not_panel(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, {**TINY_CONFIG, "out_dir": str(out)})
    run_stages(config, "simulate", "features", "label")
    expected = (out / "labels.csv").read_bytes()
    (out / "labels.csv").unlink()
    (out / "panel.csv").unlink()
    run_stages(config, "label")
    assert (out / "labels.csv").read_bytes() == expected


def test_fully_filtered_day_stays_off_the_calendar(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, {**TINY_CONFIG, "out_dir": str(out)})
    run_stages(config, "simulate")
    # Every row of a day in a labeled month gets a price below min_abs_price.
    lines = (out / "panel.csv").read_text(encoding="utf-8").split("\n")
    days = sorted({line.split(",", 1)[0] for line in lines[2:] if line})
    dropped = days[-60]
    for i, line in enumerate(lines):
        if line.startswith(dropped + ","):
            fields = line.split(",")
            fields[3] = "0.5"
            lines[i] = ",".join(fields)
    (out / "panel.csv").write_text("\n".join(lines), encoding="utf-8")
    run_stages(config, "features", "label")

    panel, _ = load_daily_panel(str(out / "panel.csv"), EligibilityFilter())
    market = load_market_series(str(out / "market.csv"))
    assert dt.date.fromisoformat(dropped) not in panel.dates
    assert read_calendar(out / "calendar.csv") == panel.dates

    def labels_body(dates):
        monthly = build_market_monthly(market, partition_months(dates, market))
        write_labels_csv(tmp_path / "ref.csv", label_stress(*monthly), "h")
        return body_sha256(tmp_path / "ref.csv")

    assert body_sha256(out / "labels.csv") == labels_body(panel.dates)
    # the date column alone would put the dropped day's index return in its month
    every_day = [dt.date.fromisoformat(d) for d in days]
    assert labels_body(every_day) != labels_body(panel.dates)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:3] + lines[4:5] + lines[3:4] + lines[5:], "line 5: .* does not come after"),
    (lambda lines: lines[:4] + lines[3:], "line 5: .* does not come after"),
    (lambda lines: lines[:3] + ["2001-13-01"] + lines[4:], "line 4, column 'date'"),
], ids=["unordered", "repeated", "bad_date"])
def test_bad_calendar_exits_3(tmp_path, capsys, edit, message):
    out = tmp_path / "out"
    out.mkdir()
    (out / "market.csv").write_text("date,mkt_ret\n", encoding="utf-8")
    write_calendar_csv(out / "calendar.csv",
                       [dt.date(2001, 1, 2) + dt.timedelta(days=i) for i in range(5)], "h")
    lines = (out / "calendar.csv").read_text(encoding="utf-8").split("\n")
    (out / "calendar.csv").write_text("\n".join(edit(lines)), encoding="utf-8")
    assert main(["label", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.match(f"data error: {re.escape(str(out / 'calendar.csv'))}: {message}", err), err


def test_features_without_market_csv_exits_3(tmp_path, capsys):
    # the market series is read first, so the panel, not UTF-8 here, is never parsed
    out = tmp_path / "out"
    out.mkdir()
    (out / "panel.csv").write_bytes(PANEL_HEAD + b"2001-01-02,A,0.01,5.00,100,1000,1,1\xff\n")
    assert main(["features", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: missing file: {out / 'market.csv'}\n"


def test_missing_calendar_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["label", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: missing file: {out / 'calendar.csv'}\n"


# A backtest of all four models, small enough for a test: the default
# 120-month initial window, then one forecast month per labeled month after it.
SMALL_BACKTEST = {"l1_grid": [0.01, 0.1], "l2_grid": [0.01, 0.1], "rf_trees": 5,
                  "gb_stage_grid": [5, 10]}


def write_backtest_inputs(tmp_path, n_months, **config):
    """features.csv and labels.csv of ``n_months`` synthetic months; the config path."""
    out = tmp_path / "out"
    out.mkdir()
    rng = np.random.default_rng(8)
    labels = synthetic_labels(n_months, rng)
    write_features_csv(out / "features.csv", synthetic_features(labels, rng, signal=2.0), "h")
    write_labels_csv(out / "labels.csv", labels, "h")
    return write_config(tmp_path, {**SMALL_BACKTEST, **config, "out_dir": str(out)})


def in_worker(parent_pid, action, otherwise):
    """A stand-in for ``mspi.backtest.calibrate_many`` that runs ``action`` in
    a forked worker and the real function in the parent; the forecast loop
    calls it outside the fit, so what ``action`` raises is not a fallback."""
    def calibrate_many(cmap, raw):
        if os.getpid() != parent_pid:
            action()
        return otherwise(cmap, raw)
    return calibrate_many


@pytest.mark.parametrize("error, code, prefix", [
    (DataError("month 2010-02 has no rows"), 3, "data error"),
    (NumericError("scores overflowed"), 4, "numeric error"),
], ids=["data_error", "numeric_error"])
def test_worker_error_exits_with_its_code(tmp_path, capsys, monkeypatch, error, code, prefix):
    config = write_backtest_inputs(tmp_path, 124)

    def fail():
        raise error

    monkeypatch.setattr(backtest, "calibrate_many",
                        in_worker(os.getpid(), fail, backtest.calibrate_many))
    set_cpus(monkeypatch, 2)
    assert main(["backtest", "--config", config]) == code
    assert capsys.readouterr().err == f"{prefix}: {error}\n"
    assert_no_children()


def test_worker_that_exits_without_result_exits_1(tmp_path, capsys, monkeypatch):
    config = write_backtest_inputs(tmp_path, 124)
    monkeypatch.setattr(backtest, "calibrate_many",
                        in_worker(os.getpid(), lambda: os._exit(9), backtest.calibrate_many))
    set_cpus(monkeypatch, 3)
    assert main(["backtest", "--config", config]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: forecast worker 1 \(pid \d+\) ended with exit status 9 "
                        r"without sending its forecasts\n", err), err
    assert_no_children()


def test_failed_fork_exits_1(tmp_path, capsys, monkeypatch):
    config = write_backtest_inputs(tmp_path, 124)
    real_fork = os.fork
    forks = []

    def fork():
        if forks:  # the second worker cannot be started
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(real_fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", fork)
    set_cpus(monkeypatch, 3)
    assert main(["backtest", "--config", config]) == 1
    assert capsys.readouterr().err == (
        "error: cannot start forecast worker 2: [Errno 11] Resource temporarily unavailable\n")
    assert_no_children()


def test_parent_share_error_kills_workers(tmp_path, capsys, monkeypatch):
    # Without gb no CV calls calibrate_many: its first call is in the parent's share.
    config = write_backtest_inputs(tmp_path, 124, models=["l1", "l2", "rf"])
    started = tmp_path / "worker-started"

    def hang():
        started.touch()
        time.sleep(60)

    def fail(cmap, raw):
        deadline = time.monotonic() + 20
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise DataError("parent share failed")

    monkeypatch.setattr(backtest, "calibrate_many", in_worker(os.getpid(), hang, fail))
    set_cpus(monkeypatch, 2)
    start = time.monotonic()
    assert main(["backtest", "--config", config]) == 3
    assert time.monotonic() - start < 30
    assert started.exists()
    assert capsys.readouterr().err == "data error: parent share failed\n"
    assert_no_children()


def test_fallback_warnings_keep_month_model_order(tmp_path, monkeypatch, caplog):
    config = write_backtest_inputs(tmp_path, 128)
    out = tmp_path / "out"
    real_fit_platt = backtest.fit_platt

    def fit_platt(scores, y):
        # 25 calibration months: forecast months 1-5, shared by both processes at W = 2
        if len(scores) == 25:
            raise NumericError("Platt solve failed")
        return real_fit_platt(scores, y)

    monkeypatch.setattr(backtest, "fit_platt", fit_platt)
    runs = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mspi.backtest"):
            assert main(["--log-level", "WARNING", "backtest", "--config", config]) == 0
        assert_no_children()
        runs.append(([r.getMessage() for r in caplog.records],
                     (out / "provenance.json").read_bytes(),
                     (out / "forecasts.csv").read_bytes()))
    assert runs[0] == runs[1]
    logged, provenance, _ = runs[0]
    assert json.loads(provenance)["warnings"] == logged
    months = [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(121, 126)]
    assert logged == [f"{month} {name}: Platt solve failed; base-rate fallback used"
                      for month in months for name in ("rf", "gb")]
