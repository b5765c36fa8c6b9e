"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench
"""

import csv
import json
from pathlib import Path

from dirty_panel import DROP_REASONS, write_dirty_inputs
from mspi.panel import EligibilityFilter, load_daily_panel
from run import END_TO_END
from tracing import PER_LAYER, layer_metrics, self_times
from workloads import WORKLOADS


def test_dirty_panel_drop_counts_and_row_order(tmp_path):
    injected = write_dirty_inputs(tmp_path, seed=3, n_stocks=6, n_years=1)
    panel, summary = load_daily_panel(str(tmp_path / "panel.csv"), EligibilityFilter())

    assert set(injected) == set(DROP_REASONS)
    assert all(count > 0 for count in injected.values())
    assert summary.dropped == injected
    assert summary.rows_read - summary.rows_kept == sum(injected.values())
    assert panel.total_observations == summary.rows_kept

    with open(tmp_path / "panel.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = [(r["security_id"], r["date"]) for r in rows]
    assert keys == sorted(keys)
    assert len({r["security_id"] for r in rows[:10]}) == 1
    kept_prices = [float(r["prc"]) for r in rows if r["prc"] and abs(float(r["prc"])) >= 1]
    assert any(p < 0 for p in kept_prices)
    assert len({r["shrcd_ok"] for r in rows}) > 4
    assert any(r["vol"] == "" for r in rows)


def test_dirty_panel_is_seeded(tmp_path):
    write_dirty_inputs(tmp_path / "a", seed=5, n_stocks=3, n_years=1)
    write_dirty_inputs(tmp_path / "b", seed=5, n_stocks=3, n_years=1)
    write_dirty_inputs(tmp_path / "c", seed=6, n_stocks=3, n_years=1)
    read = lambda d: (tmp_path / d / "panel.csv").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_layer_metrics_split_cv_from_loop():
    # backtest stage: run -> [cv(l1) -> fit_window(l1)], fit_window(l1) -> platt
    spans = [
        ["cli.backtest", None, 0.0, 10.0, -1, {}],
        ["backtest.forward_chain_cv", "l1", 1.0, 4.0, 0, {}],
        ["backtest.fit_window", "l1", 1.5, 3.5, 1, {"fallback": 0}],
        ["backtest.fit_window", "l1", 5.0, 9.0, 0, {"fallback": 1}],
        ["learners.fit_platt", None, 6.0, 8.0, 3, {}],
    ]
    own = self_times(spans)
    assert own == [3.0, 1.0, 2.0, 2.0, 2.0]
    expected = frozenset({"backtest.fit_window", "learners.fit_gradient_boosting"})
    m, summary = layer_metrics({"backtest": spans}, {"backtest": 11.0}, {}, 0.5, expected)
    assert m["backtest.forward_chain_cv.l1.s"] == 3.0
    assert m["backtest.loop.l1.s"] == 4.0
    assert m["backtest.fallback_share"] == 0.5
    assert m["learners.fit_platt.calls"] == 1
    assert m["trace.coverage"] == 0.5
    assert summary["missing"] == ["learners.fit_gradient_boosting"]
    assert summary["self_sum_s"] == summary["root_s"] == 10.0
    assert set(m) == {name for name, _, _ in PER_LAYER}


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
