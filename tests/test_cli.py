import csv
import datetime as dt
import hashlib
import json
import logging
import math
import os
import re
import shutil
import time

import numpy as np
import pytest

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
from mspi.panel import load_daily_panel, load_market_series, partition_months

from .conftest import SMALL_SIM
from .test_backtest import assert_no_children, set_cpus, synthetic_features, synthetic_labels
from .test_econometrics import paired, toy_forecasts

# The small simulated panel of conftest.py run through every stage, with a
# backtest cut down so the whole run takes seconds.
SMALL_CONFIG = {
    "sim_n_stocks": SMALL_SIM.n_stocks,
    "sim_n_years": SMALL_SIM.n_years,
    "sim_p_calm_to_stress": SMALL_SIM.p_calm_to_stress,
    "sim_p_stress_to_calm": SMALL_SIM.p_stress_to_calm,
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
    "labels.csv": "1d2495c7af86f4582530c579fe8a25aa3425d31b9c8a52eef764b4513017b0bf",
    "forecasts.csv": "0c6fc800aa670fde67457745a2f4bfec0d2405917901c1a9cf6949056cdb50c9",
    "metrics.json": "2907a543c2c1e548301a3c6cf507875e7506b989e22a10661df76787d8a489af",
    "curves.csv": "e4cec48fc5f70e432fea251da86053590a100203eb1660a37fd630a4d983e1d5",
    "bins.csv": "91f0e1b7be45dc7e04fc98517ce1d7a529b9b4ab8001c000059a30921923d235",
    "bootstrap.json": "f591bd02a98e1b2790a345a8cd2bd30516c4719a60533a265303961e1391692e",
    "provenance.json": "6961333be4cb8b9d93c79374808f603fe0a6528a2fb5e956e20ad8015c66e6ca",
    "regression.json": "22b663f579746b366b8e250dd571339e7aeebae8b3162b34fa80549556c68e60",
    "local_projections.csv": "b9442fafc8f456e7143846536a9a48e559f2754668d7516e60a1a2a67e526999",
    "report.json": "13446504be6ec237237c3c37b6e534f15bd70ac348b26f391a4625b1d1404a09",
    "report.txt": "7c36ae54d8fc16b1cf49f768196b23939812cc161f69e0f4a5f8baeca87cf1b5",
}


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def body_sha256(path) -> str:
    """sha256 of an artifact without its config hash: a CSV file without its
    first line, a JSON file re-serialized without its "config_hash" keys (a
    report nests the hashes of the artifacts it copies), any other file whole."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"), object_hook=lambda obj: {
            key: value for key, value in obj.items() if key != "config_hash"})
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    elif path.suffix == ".csv":
        body = path.read_bytes().split(b"\n", 1)[1]
    else:
        body = path.read_bytes()
    return hashlib.sha256(body).hexdigest()


def test_all_stages_reproduce_golden_artifacts(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, {**SMALL_CONFIG, "out_dir": str(out)})
    for stage in STAGES:
        assert main(["--log-level", "WARNING", stage, "--config", config]) == 0, stage
    assert {name: body_sha256(out / name) for name in GOLDEN_BODIES} == GOLDEN_BODIES


@pytest.mark.parametrize("payload, field", [
    ({"seed": "7"}, "seed"),
    ({"rf_trees": 0}, "rf_trees"),
    ({"cv_folds": 0}, "cv_folds"),
    ({"gb_shrinkage": 0.05}, "unknown config field 'gb_shrinkage'"),
    ({"calibration_fraction": 0.3}, "unknown config field 'calibration_fraction'"),
    ({"rf_trees": True}, "rf_trees must be of type int, got True"),
    ({"l1_grid": [0.1, "big"]}, "l1_grid"),
    ({"gb_stage_grid": [0, 10]}, "gb_stage_grid"),
    ({"lp_outcome": "zap"}, "unknown config field 'lp_outcome'"),
    ({"seed": -1}, "seed"),
    ({"models": ["l1", "l1", "l2"]}, "models"),
    ({"bin_edges": [0.0, 0.5, 0.4, 1.0]}, "bin_edges"),
    ({"min_abs_price": -1}, "min_abs_price"),
    ({"sim_n_stocks": 1}, "sim_n_stocks must be >= 2, got 1"),
    ({"sim_p_stress_to_calm": 1.5}, "sim_p_stress_to_calm must be in [0,1], got 1.5"),
    ({"sim_calm_mkt_vol": 0}, "unknown config field 'sim_calm_mkt_vol'"),
    ({"min_abs_price": math.nan}, "min_abs_price must be finite"),
    ({"bin_edges": [0, math.nan, 1]}, "unknown config field 'bin_edges'"),
    ({"crash_cutoff": math.nan}, "unknown config field 'crash_cutoff'"),
    ({"tail_threshold": math.inf}, "tail_threshold must be finite"),
    ({"return_cutoff": -math.inf}, "return_cutoff must be finite"),
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
    ({"initial_window_months": 40},
     "initial_window_months must be >= 60 to host cv_folds = 5 validation segments"),
], ids=["seed_string", "rf_trees", "cv_folds", "gb_shrinkage", "calibration_fraction",
        "flag_int", "grid_entry", "stage_grid", "lp_outcome", "negative_seed",
        "duplicate_model", "bin_edges_order", "negative_min_price", "sim_n_stocks",
        "sim_p_stress_to_calm", "removed_regime_field", "nan_min_price", "nan_bin_edge",
        "nan_crash_cutoff", "inf_tail_threshold", "minus_inf_return_cutoff",
        "inf_grid_entry", "removed_lp_controls", "removed_rf_max_depth",
        "removed_rf_min_leaf", "removed_gb_max_depth", "removed_calibration_min_months",
        "removed_min_validation_months", "removed_require_share_class",
        "removed_require_exchange", "removed_ece_bins", "removed_bootstrap_block",
        "removed_hac_lag", "removed_lp_horizon", "short_cv_window"])
def test_bad_config_exits_2(tmp_path, capsys, payload, field):
    config = write_config(tmp_path, {**payload, "out_dir": str(tmp_path / "out")})
    assert main(["backtest", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert "Traceback" not in err


def test_missing_upstream_artifact_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["backtest", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: missing upstream artifact: {out / 'features.csv'} "
                   "(run the producing stage first)\n")


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
    config = write_one_model_forecasts(tmp_path, "l2")  # regress_model is l1
    assert main([stage, "--config", config]) == 3
    assert capsys.readouterr().err == (f"data error: {tmp_path / 'out' / 'forecasts.csv'}: "
                                       "no forecasts of model 'l1'; the file holds l2\n")


def test_forecasts_without_the_benchmark_model_exit_3(tmp_path, capsys):
    config = write_one_model_forecasts(tmp_path, "l1")  # benchmark is l2
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


def test_report_states_the_settings_of_the_artifacts_it_reads(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    fs = toy_forecasts(n=48, seed=4)
    fs.models = ("l1", "l2")
    fs.raw["l2"], fs.prob["l2"] = fs.raw["l1"] - 0.5, fs.prob["l1"] / 2.0
    labels, fs = paired(fs)
    write_labels_csv(out / "labels.csv", labels, "h")
    write_forecasts_csv(out / "forecasts.csv", fs, "h")
    run_stages(write_config(tmp_path, {"out_dir": str(out), "bootstrap_reps": 20}),
               "evaluate", "bootstrap")
    run_stages(write_config(tmp_path, {"out_dir": str(out), "bootstrap_reps": 50}), "report")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["settings"] == {"ece_bins": 10, "bootstrap_block_len": 12,
                                  "bootstrap_replications": 20, "benchmark": "l2"}
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "bootstrap: 12-month blocks, 20 replications" in text
    assert "50 replications" not in text


# Four years of eight stocks: the shortest panel the default stress warm-up labels.
TINY_CONFIG = {"sim_n_stocks": 8, "sim_n_years": 4, "seed": 3}


def run_stages(config, *stages):
    for stage in stages:
        assert main(["--log-level", "WARNING", stage, "--config", config]) == 0, stage


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

    cfg = PipelineConfig.from_file(config)
    panel, _ = load_daily_panel(str(out / "panel.csv"), cfg.eligibility_filter())
    market = load_market_series(str(out / "market.csv"))
    assert dt.date.fromisoformat(dropped) not in panel.dates
    assert read_calendar(out / "calendar.csv") == panel.dates

    def labels_body(dates):
        monthly = build_market_monthly(market, partition_months(dates, market))
        write_labels_csv(tmp_path / "ref.csv", label_stress(monthly, cfg.stress_config()), "h")
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


def test_missing_calendar_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["label", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: missing upstream artifact: {out / 'calendar.csv'} "
        "(run the producing stage first)\n")


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
