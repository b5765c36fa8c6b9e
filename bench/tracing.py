"""Span tracing for one CLI stage, and the per-layer metrics built from spans.

Run as a script, it wraps the pipeline's public functions where the pipeline
looks them up, runs ``mspi.cli.main`` on the remaining arguments inside a
root span ``cli.<stage>``, and writes the spans to a JSON file:

    python3 bench/tracing.py SPANS.json --log-level WARNING backtest --config cfg.json

A span is [name, tag, start, end, parent, counters]; ``tag`` is the model
name for per-model layers, ``parent`` the index of the enclosing span (or
-1). Spans stay in memory until the stage returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

# (module, attribute, span name). The attribute is patched in the module that
# calls it, so a function imported by name is wrapped at its call site.
WRAPS = (
    ("mspi.cli", "simulate", "simulate.simulate"),
    ("mspi.cli", "write_panel_csv", "artifacts.write_panel_csv"),
    ("mspi.cli", "load_daily_panel", "panel.load_daily_panel"),
    ("mspi.cli", "load_market_series", "panel.load_market_series"),
    ("mspi.cli", "partition_months", "panel.partition_months"),
    ("mspi.cli", "compute_daily_stats", "features.compute_daily_stats"),
    ("mspi.cli", "aggregate_monthly", "features.aggregate_monthly"),
    ("mspi.cli", "build_market_monthly", "labels.build_market_monthly"),
    ("mspi.cli", "label_stress", "labels.label_stress"),
    ("mspi.cli", "run_expanding_backtest", "backtest.run_expanding_backtest"),
    ("mspi.cli", "read_forecasts", "artifacts.read_forecasts"),
    ("mspi.backtest", "forward_chain_cv", "backtest.forward_chain_cv"),
    ("mspi.backtest", "fit_window", "backtest.fit_window"),
    ("mspi.backtest", "fit_platt", "learners.fit_platt"),
    ("mspi.learners.calibration", "fit_logit_l2", "learners.platt_solver"),
    ("mspi.backtest", "fit_random_forest", "learners.fit_random_forest"),
    ("mspi.backtest", "fit_gradient_boosting", "learners.fit_gradient_boosting"),
    ("mspi.learners.forest", "build_tree", "learners.build_tree"),
    ("mspi.learners.boosting", "build_tree", "learners.build_tree"),
    ("mspi.backtest", "rf_score_many", "learners.rf_score_many"),
    ("mspi.backtest", "gb_score_many", "learners.gb_score_many"),
    ("mspi.backtest", "fit_logit_l1", "learners.fit_logit_l1"),
    ("mspi.backtest", "fit_logit_l2", "learners.fit_logit_l2"),
    ("mspi.evaluation", "compute_metrics", "evaluation.compute_metrics"),
    ("mspi.evaluation", "compute_curves", "evaluation.compute_curves"),
    ("mspi.evaluation", "binned_outcomes", "evaluation.binned_outcomes"),
    ("mspi.evaluation", "block_bootstrap_diff", "evaluation.block_bootstrap_diff"),
    ("mspi.econometrics", "ols_hac", "econometrics.ols_hac"),
    ("mspi.econometrics", "local_projections", "econometrics.local_projections"),
)

STAGES = ("simulate", "features", "label", "backtest", "evaluate",
          "bootstrap", "regress", "lp", "report")
MODELS = ("l1", "l2", "rf", "gb")


def _model_tag(args, kwargs):
    adapter = args[0] if args else kwargs.get("adapter")
    return getattr(adapter, "name", None)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Counters taken from a call's arguments and result, keyed by span name.
_COUNTERS = {
    "artifacts.write_panel_csv": _file_bytes,
    "panel.load_daily_panel": lambda a, k, r: {"rows_read": r[1].rows_read,
                                               "rows_kept": r[1].rows_kept},
    "backtest.fit_window": lambda a, k, r: {"fallback": int(r.fallback)},
    "learners.platt_solver": lambda a, k, r: {"iters": r.iterations},
    "learners.fit_logit_l1": lambda a, k, r: {"iters": r.iterations},
    "learners.fit_logit_l2": lambda a, k, r: {"iters": r.iterations},
    "learners.build_tree": lambda a, k, r: {"nodes": len(r.feature)},
    "learners.fit_gradient_boosting": lambda a, k, r: {"stages": len(r.trees)},
    "evaluation.block_bootstrap_diff": lambda a, k, r: {"reps": r.reps, "redraws": r.redraws},
}
_TAGGED = {"backtest.forward_chain_cv", "backtest.fit_window"}


class Tracer:
    """Collects spans for one process; ``wrap`` makes a function record them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name, tag, fn, args, kwargs, counters=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, tag, 0.0, 0.0, parent, {}]
        self.spans.append(record)
        self._stack.append(sid)
        record[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            record[5]["error"] = type(exc).__name__
            if name == "backtest.fit_window" and record[5]["error"] == "NumericError":
                record[5]["fallback"] = 1  # the forecast loop falls back to the base rate
            raise
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
        if counters is not None:
            record[5].update(counters(args, kwargs, result))
        return result

    def wrap(self, fn, name):
        counters = _COUNTERS.get(name)
        tagged = name in _TAGGED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = _model_tag(args, kwargs) if tagged else None
            return self.span(name, tag, fn, args, kwargs, counters)

        return wrapper

    def install(self):
        """Patch every entry of WRAPS; a missing attribute raises at once."""
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name))


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of all stages.

def _metric_table():
    """(name, unit, better) for every per-layer metric, in report order."""
    t = []
    for stage in STAGES:
        t += [(f"cli.{stage}.wall_s", "s", "lower"), (f"cli.{stage}.peak_rss_mb", "MB", "lower")]
    t += [
        ("artifacts.write_panel_csv.s", "s", "lower"),
        ("artifacts.write_panel_csv.mb_per_s", "MB/s", "higher"),
        ("artifacts.read_forecasts.s", "s", "lower"),
        ("artifacts.read_forecasts.calls", "count", "lower"),
        ("simulate.simulate.s", "s", "lower"),
        ("panel.load_daily_panel.s", "s", "lower"),
        ("panel.load_daily_panel.calls", "count", "lower"),
        ("panel.load_daily_panel.us_per_row", "us", "lower"),
        ("panel.rows_read", "count", "lower"),
        ("panel.rows_kept", "count", "lower"),
        ("panel.load_market_series.s", "s", "lower"),
        ("panel.partition_months.s", "s", "lower"),
        ("features.compute_daily_stats.s", "s", "lower"),
        ("features.aggregate_monthly.s", "s", "lower"),
        ("labels.build_market_monthly.s", "s", "lower"),
        ("labels.label_stress.s", "s", "lower"),
    ]
    for m in MODELS:
        t += [
            (f"backtest.forward_chain_cv.{m}.s", "s", "lower"),
            (f"backtest.loop.{m}.s", "s", "lower"),
            (f"backtest.fit_window.{m}.p50_ms", "ms", "lower"),
            (f"backtest.fit_window.{m}.p90_ms", "ms", "lower"),
        ]
    t += [
        ("backtest.fallback_share", "ratio", "lower"),
        ("learners.fit_platt.s", "s", "lower"),
        ("learners.fit_platt.calls", "count", "lower"),
        ("learners.fit_platt.p50_ms", "ms", "lower"),
        ("learners.fit_platt.p90_ms", "ms", "lower"),
        ("learners.fit_platt.iters_per_call", "count", "lower"),
        ("learners.build_tree.s", "s", "lower"),
        ("learners.build_tree.calls", "count", "lower"),
        ("learners.build_tree.us_per_node", "us", "lower"),
        ("learners.fit_random_forest.s", "s", "lower"),
        ("learners.fit_random_forest.calls", "count", "lower"),
        ("learners.fit_gradient_boosting.s", "s", "lower"),
        ("learners.fit_gradient_boosting.calls", "count", "lower"),
        ("learners.fit_gradient_boosting.stages", "count", "lower"),
        ("learners.rf_score_many.s", "s", "lower"),
        ("learners.gb_score_many.s", "s", "lower"),
    ]
    for solver in ("fit_logit_l1", "fit_logit_l2"):
        t += [
            (f"learners.{solver}.s", "s", "lower"),
            (f"learners.{solver}.calls", "count", "lower"),
            (f"learners.{solver}.iters_per_call", "count", "lower"),
            (f"learners.{solver}.us_per_iter", "us", "lower"),
        ]
    t += [
        ("evaluation.block_bootstrap_diff.s", "s", "lower"),
        ("evaluation.block_bootstrap_diff.calls", "count", "lower"),
        ("evaluation.block_bootstrap_diff.ms_per_rep", "ms", "lower"),
        ("evaluation.bootstrap.useful_share", "ratio", "higher"),
        ("evaluation.compute_metrics.s", "s", "lower"),
        ("evaluation.compute_curves.s", "s", "lower"),
        ("evaluation.binned_outcomes.s", "s", "lower"),
        ("econometrics.ols_hac.s", "s", "lower"),
        ("econometrics.ols_hac.calls", "count", "lower"),
        ("econometrics.local_projections.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    return t


PER_LAYER = _metric_table()


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_times(spans):
    """Span duration minus the time its direct children cover, for one process's spans."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(stage_spans, stage_wall, stage_rss, overhead_s, expected):
    """Per-layer metrics (name -> value) and the trace summary.

    ``stage_spans`` maps a stage to its spans; ``expected`` names the spans
    that must have recorded calls on this workload.
    """
    spans = [s for stage in stage_spans.values() for s in stage]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
    # The forecast loop's fit_window spans: those with no CV span among their ancestors.
    loop = []
    for stage in stage_spans.values():
        in_cv = []
        for s in stage:
            p = s[4]
            in_cv.append(p >= 0 and (in_cv[p] or stage[p][0] == "backtest.forward_chain_cv"))
            if s[0] == "backtest.fit_window" and not in_cv[-1]:
                loop.append(s)

    def total(name, tag=None):
        return sum(s[3] - s[2] for s in by_name.get(name, ()) if tag is None or s[1] == tag)

    def calls(name):
        return len(by_name.get(name, ()))

    def counter(name, key):
        return sum(s[5].get(key, 0) for s in by_name.get(name, ()))

    def per(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"cli.{stage}.wall_s"] = stage_wall.get(stage, 0.0)
        m[f"cli.{stage}.peak_rss_mb"] = stage_rss.get(stage, 0.0)
    panel_mb = counter("artifacts.write_panel_csv", "bytes") / 1e6
    m["artifacts.write_panel_csv.s"] = total("artifacts.write_panel_csv")
    m["artifacts.write_panel_csv.mb_per_s"] = per(panel_mb, m["artifacts.write_panel_csv.s"])
    m["artifacts.read_forecasts.s"] = total("artifacts.read_forecasts")
    m["artifacts.read_forecasts.calls"] = calls("artifacts.read_forecasts")
    m["simulate.simulate.s"] = total("simulate.simulate")
    loads = calls("panel.load_daily_panel")
    rows_read = counter("panel.load_daily_panel", "rows_read")
    m["panel.load_daily_panel.s"] = total("panel.load_daily_panel")
    m["panel.load_daily_panel.calls"] = loads
    m["panel.load_daily_panel.us_per_row"] = per(m["panel.load_daily_panel.s"] * 1e6, rows_read)
    m["panel.rows_read"] = per(rows_read, loads)
    m["panel.rows_kept"] = per(counter("panel.load_daily_panel", "rows_kept"), loads)
    for name in ("panel.load_market_series", "panel.partition_months",
                 "features.compute_daily_stats", "features.aggregate_monthly",
                 "labels.build_market_monthly", "labels.label_stress"):
        m[f"{name}.s"] = total(name)

    for model in MODELS:
        m[f"backtest.forward_chain_cv.{model}.s"] = total("backtest.forward_chain_cv", model)
        ms = sorted((s[3] - s[2]) * 1e3 for s in loop if s[1] == model)
        m[f"backtest.loop.{model}.s"] = sum(ms) / 1e3
        m[f"backtest.fit_window.{model}.p50_ms"] = _pct(ms, 50)
        m[f"backtest.fit_window.{model}.p90_ms"] = _pct(ms, 90)
    m["backtest.fallback_share"] = per(counter("backtest.fit_window", "fallback"),
                                       calls("backtest.fit_window"))

    platt_ms = sorted((s[3] - s[2]) * 1e3 for s in by_name.get("learners.fit_platt", ()))
    m["learners.fit_platt.s"] = total("learners.fit_platt")
    m["learners.fit_platt.calls"] = len(platt_ms)
    m["learners.fit_platt.p50_ms"] = _pct(platt_ms, 50)
    m["learners.fit_platt.p90_ms"] = _pct(platt_ms, 90)
    m["learners.fit_platt.iters_per_call"] = per(counter("learners.platt_solver", "iters"), len(platt_ms))
    m["learners.build_tree.s"] = total("learners.build_tree")
    m["learners.build_tree.calls"] = calls("learners.build_tree")
    m["learners.build_tree.us_per_node"] = per(m["learners.build_tree.s"] * 1e6,
                                               counter("learners.build_tree", "nodes"))
    for name in ("learners.fit_random_forest", "learners.fit_gradient_boosting"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = calls(name)
    m["learners.fit_gradient_boosting.stages"] = counter("learners.fit_gradient_boosting", "stages")
    m["learners.rf_score_many.s"] = total("learners.rf_score_many")
    m["learners.gb_score_many.s"] = total("learners.gb_score_many")
    for solver in ("fit_logit_l1", "fit_logit_l2"):
        name = f"learners.{solver}"
        iters = counter(name, "iters")
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.iters_per_call"] = per(iters, calls(name))
        m[f"{name}.us_per_iter"] = per(m[f"{name}.s"] * 1e6, iters)

    reps = counter("evaluation.block_bootstrap_diff", "reps")
    attempts = reps + counter("evaluation.block_bootstrap_diff", "redraws")
    m["evaluation.block_bootstrap_diff.s"] = total("evaluation.block_bootstrap_diff")
    m["evaluation.block_bootstrap_diff.calls"] = calls("evaluation.block_bootstrap_diff")
    m["evaluation.block_bootstrap_diff.ms_per_rep"] = per(m["evaluation.block_bootstrap_diff.s"] * 1e3,
                                                          attempts)
    m["evaluation.bootstrap.useful_share"] = per(reps, attempts)
    for name in ("evaluation.compute_metrics", "evaluation.compute_curves",
                 "evaluation.binned_outcomes", "econometrics.local_projections"):
        m[f"{name}.s"] = total(name)
    m["econometrics.ols_hac.s"] = total("econometrics.ols_hac")
    m["econometrics.ols_hac.calls"] = calls("econometrics.ols_hac")

    missing = sorted(name for name in expected if not calls(name))
    m["trace.overhead_s"] = overhead_s
    m["trace.coverage"] = per(len(expected) - len(missing), len(expected))

    own = [t for stage in stage_spans.values() for t in self_times(stage)]
    root_s = sum(s[3] - s[2] for s in spans if s[4] < 0)
    self_by_name: dict[str, float] = {}
    for s, t in zip(spans, own):
        self_by_name[s[0]] = self_by_name.get(s[0], 0.0) + t
    summary = {
        "missing": missing,
        "unexpected": sorted(n for n in by_name if n not in expected and not n.startswith("cli.")),
        "root_s": root_s,
        "self_sum_s": sum(own),
        "min_self_s": min(own, default=0.0),
        "self_s": dict(sorted(self_by_name.items(), key=lambda kv: -kv[1])),
    }
    return m, summary


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import mspi.cli

    stage = next(a for a in cli_args if a in STAGES)
    try:
        code = tracer.span(f"cli.{stage}", None, mspi.cli.main, (cli_args,), {})
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
