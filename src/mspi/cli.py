"""Command-line pipeline orchestration.

Subcommands cover the full run: simulate, features, label, backtest,
evaluate (metrics, curves and the probability bins), bootstrap, regress,
lp, report. All stages share one flat JSON config (--config); --out and
--seed override the config's out_dir and seed. ``features`` is the only
stage that reads the daily panel: besides ``features.csv`` it writes
``calendar.csv``, the panel's trading days after the eligibility filters (a
day whose rows were all dropped is not on it), from which ``label`` buckets
the market series into months. ``lp`` reads only ``labels.csv`` and
``forecasts.csv``: it projects the market volatility of the forecast months
on the index's innovations. Exit codes: 0 success, 1 a forecast worker
that failed to start or to send its forecasts, 2 config error (the config
file and out_dir included), 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import econometrics as econ
from . import evaluation as ev
from .artifacts import (
    BIN_COLUMNS,
    read_calendar,
    read_features,
    read_forecasts,
    read_labels,
    write_calendar_csv,
    write_csv,
    write_features_csv,
    write_forecasts_csv,
    write_json,
    write_labels_csv,
    write_market_csv,
    write_panel_csv,
)
from .backtest import run_expanding_backtest
from .config import PipelineConfig
from .errors import ConfigError, DataError, MspiError, NumericError
from .features import DailyStats, aggregate_monthly, compute_daily_stats
from .labels import build_market_monthly, label_stress, market_controls
from .panel import load_daily_panel, load_market_series, partition_months, read_rows
from .simulate import simulate

logger = logging.getLogger(__name__)


def _out_dir(cfg: PipelineConfig) -> Path:
    path = Path(cfg.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, say
        raise ConfigError(f"out_dir {path} cannot be created: {exc.strerror}") from None
    return path


def _input_path(cfg: PipelineConfig, explicit: str | None, default_name: str) -> Path:
    path = Path(explicit) if explicit else Path(cfg.out_dir) / default_name
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    return path


def _artifact(cfg: PipelineConfig, name: str) -> Path:
    path = Path(cfg.out_dir) / name
    if not path.exists():
        raise DataError(f"missing upstream artifact: {path} (run the producing stage first)")
    return path


# ---------------------------------------------------------------------------
# Stage implementations.

def cmd_simulate(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    h = cfg.config_hash()
    sim = simulate(cfg.sim_config())
    write_panel_csv(out / "panel.csv", sim.panel, h)
    write_market_csv(out / "market.csv", sim.market, h)
    logger.info("simulated %d trading days across %d months -> %s",
                len(sim.panel.dates), len(sim.true_regime), out)
    return 0


def cmd_features(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    h = cfg.config_hash()
    panel_path = _input_path(cfg, cfg.panel_csv, "panel.csv")
    market_path = _input_path(cfg, cfg.market_csv, "market.csv")
    # one calendar year of the panel in memory at a time: keep its days and statistics
    years, summary = load_daily_panel(
        str(panel_path), cfg.eligibility_filter(),
        lambda year: (year.dates, compute_daily_stats(year, cfg.tail_threshold)),
    )
    dates = [day for year_dates, _ in years for day in year_dates]
    stats = DailyStats.concatenate([year_stats for _, year_stats in years])
    market = load_market_series(str(market_path))
    partition = partition_months(dates, market)
    features = aggregate_monthly(stats, partition)
    write_features_csv(out / "features.csv", features, h)
    write_calendar_csv(out / "calendar.csv", dates, h)
    if getattr(args, "ingest_summary", False):
        write_json(out / "ingest_summary.json", summary.to_dict(), h)
    logger.info("wrote %d monthly feature rows", len(features.months))
    return 0


def cmd_label(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    h = cfg.config_hash()
    dates = read_calendar(_artifact(cfg, "calendar.csv"))
    market = load_market_series(str(_input_path(cfg, cfg.market_csv, "market.csv")))
    partition = partition_months(dates, market)
    monthly = build_market_monthly(market, partition)
    labels = label_stress(monthly, cfg.stress_config())
    write_labels_csv(out / "labels.csv", labels, h)
    logger.info("labeled %d months, stress rate %.3f", len(labels.months),
                float(np.mean(labels.s)))
    return 0


def cmd_backtest(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    h = cfg.config_hash()
    features = read_features(_artifact(cfg, "features.csv"))
    labels = read_labels(_artifact(cfg, "labels.csv"))
    forecasts, provenance = run_expanding_backtest(features, labels, cfg.backtest_config())
    write_forecasts_csv(out / "forecasts.csv", forecasts, h)
    write_json(out / "provenance.json", provenance, h)
    logger.info("wrote %d forecast months for models %s", len(forecasts.months),
                ",".join(forecasts.models))
    return 0


def _load_forecasts(cfg: PipelineConfig, model: str | None = None):
    """forecasts.csv paired with labels.csv; DataError if it lacks ``model``."""
    labels = read_labels(_artifact(cfg, "labels.csv"))
    path = _artifact(cfg, "forecasts.csv")
    forecasts = read_forecasts(path, labels)
    if model is not None and model not in forecasts.models:
        raise DataError(f"{path}: no forecasts of model {model!r}; the file holds "
                        f"{', '.join(forecasts.models)}")
    return forecasts


def cmd_evaluate(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    h = cfg.config_hash()
    forecasts = _load_forecasts(cfg)
    report = ev.compute_metrics(forecasts, ev.ECE_BINS)
    write_json(out / "metrics.json", asdict(report), h)

    def curve_rows():
        for cs in ev.compute_curves(forecasts, ev.ECE_BINS):
            for x, y in zip(*cs.roc):
                yield (cs.model, "roc", x, y, "")
            for x, y in zip(*cs.pr):
                yield (cs.model, "pr", x, y, "")
            cal = cs.calibration
            for x, y, c in zip(cal.mean_prob, cal.event_rate, cal.count):
                yield (cs.model, "calibration", x, y, int(c))

    write_csv(out / "curves.csv", ["model", "curve", "x", "y", "count"], curve_rows(), h)
    _write_bins(forecasts, out, h)
    logger.info("metrics over %d months (event rate %.3f)", report.n, report.event_rate)
    return 0


def _write_bins(forecasts, out: Path, h: str):
    def bin_rows():
        for model in forecasts.models:
            bo = ev.binned_outcomes(forecasts, model, ev.BIN_EDGES)
            for b in range(len(bo.n)):
                yield (model, bo.edges[b], bo.edges[b + 1], int(bo.n[b]), bo.mean_prob[b],
                       bo.stress_rate[b], bo.next_vol[b], bo.next_ret[b])

    write_csv(out / "bins.csv", BIN_COLUMNS, bin_rows(), h)


def cmd_bootstrap(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    forecasts = _load_forecasts(cfg, cfg.benchmark)
    rows = ev.bootstrap_table(
        forecasts, benchmark=cfg.benchmark, block_len=ev.BOOTSTRAP_BLOCK,
        reps=cfg.bootstrap_reps, seed=cfg.seed, ece_bins=ev.ECE_BINS,
    )
    write_json(out / "bootstrap.json", {
        "benchmark": cfg.benchmark,
        "block_len": ev.BOOTSTRAP_BLOCK,
        "replications": cfg.bootstrap_reps,
        "rows": [asdict(r) for r in rows],
    }, cfg.config_hash())
    logger.info("bootstrap table with %d rows", len(rows))
    return 0


def cmd_regress(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    forecasts = _load_forecasts(cfg, cfg.regress_model)
    vol = econ.predictive_vol_regression(forecasts, model=cfg.regress_model,
                                         hac_lag=econ.HAC_LAG)
    crash = econ.crash_regression(forecasts, cutoff=econ.CRASH_CUTOFF,
                                  model=cfg.regress_model, hac_lag=econ.HAC_LAG)
    innov = econ.mspi_innovations(forecasts, model=cfg.regress_model, hac_lag=econ.HAC_LAG)
    write_json(out / "regression.json", {
        "model": cfg.regress_model,
        "predictive_volatility": vol.to_dict(),
        "crash": crash.to_dict(),
        "innovations": {
            "regression": innov.to_dict(),
            "residual_std": float(np.std(innov.residuals)),
            "n": len(innov.residuals),
        },
    }, cfg.config_hash())
    return 0


def cmd_lp(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    forecasts = _load_forecasts(cfg, cfg.regress_model)
    innov = econ.mspi_innovations(forecasts, model=cfg.regress_model, hac_lag=econ.HAC_LAG)
    # innovations start at the second forecast month; controls are lagged one more
    u = innov.residuals[1:]
    y = forecasts.sigma_mkt[2:]
    controls = market_controls(forecasts)[1:-1]
    result = econ.local_projections(u, y, controls, econ.LP_HORIZON)
    rows = (
        (h, result.b[i], result.se[i], int(result.n_obs[i]))
        for i, h in enumerate(result.horizons)
    )
    write_csv(out / "local_projections.csv", ["h", "b_h", "se_h", "n_h"], rows,
              cfg.config_hash())
    return 0


def cmd_report(cfg: PipelineConfig, args) -> int:
    out = _out_dir(cfg)
    h = cfg.config_hash()
    metrics = json.loads(_artifact(cfg, "metrics.json").read_text(encoding="utf-8"))
    bootstrap = json.loads(_artifact(cfg, "bootstrap.json").read_text(encoding="utf-8"))
    regression = None
    reg_path = Path(cfg.out_dir) / "regression.json"
    if reg_path.exists():
        regression = json.loads(reg_path.read_text(encoding="utf-8"))
    bins_rows = read_rows(_artifact(cfg, "bins.csv"), BIN_COLUMNS)[1]

    # the settings of the artifacts summarized, not of this run's config
    payload = {
        "metrics": metrics,
        "bins": bins_rows,
        "bootstrap": bootstrap,
        "regression": regression,
        "settings": {
            "ece_bins": metrics["ece_bins"],
            "bootstrap_block_len": bootstrap["block_len"],
            "bootstrap_replications": bootstrap["replications"],
            "benchmark": bootstrap["benchmark"],
        },
    }
    write_json(out / "report.json", payload, h)
    (out / "report.txt").write_text(_render_report(payload), encoding="utf-8")
    return 0


def _render_report(payload: dict) -> str:
    metrics, bins_rows = payload["metrics"], payload["bins"]
    bootstrap, regression = payload["bootstrap"], payload["regression"]
    settings = payload["settings"]
    lines = []
    lines.append("Market stress probability index: out-of-sample report")
    lines.append("=" * 70)
    lines.append("")
    lines.append(f"Months evaluated: {metrics['n']}   "
                 f"event rate: {metrics['event_rate']:.3f}")
    lines.append(f"ECE bins: {settings['ece_bins']} (equal-mass)   "
                 f"bootstrap: {settings['bootstrap_block_len']}-month blocks, "
                 f"{settings['bootstrap_replications']} replications")
    lines.append("")
    lines.append("Discrimination and probability accuracy")
    lines.append("-" * 70)
    lines.append(f"{'model':<8}{'AUC':>8}{'PR-AUC':>8}{'Brier':>8}{'LogLoss':>9}"
                 f"{'ECE':>8}{'MeanP':>8}")
    for name, m in metrics["models"].items():
        lines.append(
            f"{name:<8}{m['auc']:>8.3f}{m['pr_auc']:>8.3f}{m['brier']:>8.3f}"
            f"{m['log_loss']:>9.3f}{m['ece']:>8.3f}{m['mean_prob']:>8.3f}"
        )
    lines.append("")
    lines.append("Realized outcomes by probability bin")
    lines.append("-" * 70)
    lines.append(f"{'model':<8}{'bin':<16}{'N':>5}{'meanP':>8}{'stress':>8}"
                 f"{'vol+1':>8}{'ret+1':>8}")
    for r in bins_rows:
        label = f"[{float(r['bin_lo']):.2f},{float(r['bin_hi']):.2f})"
        sr = r["stress_rate"]
        lines.append(
            f"{r['model']:<8}{label:<16}{r['n']:>5}"
            + "".join(
                f"{(float(v) if v not in ('', None) else float('nan')):>8.3f}"
                for v in (r["mean_prob"], sr, r["next_vol"], r["next_ret"])
            )
        )
    lines.append("")
    lines.append(f"Block-bootstrap deltas vs benchmark "
                 f"({bootstrap['benchmark']}; {bootstrap['block_len']}-month blocks, "
                 f"{bootstrap['replications']} replications)")
    lines.append("-" * 70)
    lines.append(f"{'metric':<10}{'model':<8}{'delta':>10}{'ci lo':>10}{'ci hi':>10}"
                 f"{'p':>8}")
    for r in bootstrap["rows"]:
        lines.append(
            f"{r['metric']:<10}{r['model']:<8}{r['delta']:>10.4f}{r['ci_lo']:>10.4f}"
            f"{r['ci_hi']:>10.4f}{r['p_value']:>8.3f}"
        )
    if regression is not None:
        lines.append("")
        lines.append("Predictive regressions")
        lines.append("-" * 70)
        pv = regression["predictive_volatility"]
        lines.append(f"next-month volatility on index level: gamma={pv['gamma']:.4f} "
                     f"(delta R2 {pv['delta_r2']:.4f})")
        cr = regression["crash"]
        lines.append(f"crash indicator (cutoff {cr['cutoff']}): "
                     f"crash rate {cr['crash_rate']:.3f}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point.

_HANDLERS = {
    "simulate": cmd_simulate,
    "features": cmd_features,
    "label": cmd_label,
    "backtest": cmd_backtest,
    "evaluate": cmd_evaluate,
    "bootstrap": cmd_bootstrap,
    "regress": cmd_regress,
    "lp": cmd_lp,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mspi",
        description="Market stress probability index pipeline",
    )
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", help="path to the flat JSON config file")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, help="master seed (overrides config seed)")
        if name == "features":
            p.add_argument("--ingest-summary", action="store_true",
                           help="also write ingest_summary.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        if args.out:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
        return _HANDLERS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MspiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
