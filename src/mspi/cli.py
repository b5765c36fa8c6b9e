"""Command-line pipeline orchestration.

Subcommands cover the full run: simulate, features, label, backtest,
evaluate (metrics, curves and the probability bins), bootstrap, regress,
lp, report. All stages share one flat JSON config (--config); --out and
--seed override the config's out_dir and seed. ``main`` builds the config
once, overrides included, and never changes it; it makes out_dir and hashes
the settings (every field but out_dir) once, and calls the stage's handler,
``cmd_<stage>(cfg, out, h, stage)``, with the config, out_dir, that hash
and ``stage(name)``, the path to write output ``name`` at: a stage's
outputs are one unit, moved into place once its handler returned, the first
one last (``textio.staged_outputs``). ``features`` is the only stage that
reads the daily panel: besides ``features.csv`` it writes ``calendar.csv``,
the panel's trading days after the eligibility filters (a day whose rows
were all dropped is not on it), from which ``label`` buckets the market
series into months, and ``ingest_summary.json``, the rows ingest read, kept
and dropped by reason. It accepts ``--ingest-summary`` and ignores it,
because the benchmark passes it. ``lp`` reads only ``labels.csv`` and
``forecasts.csv``: it projects the market volatility of the forecast months
on the index's innovations. Exit codes, each the ``exit_code`` of the
``errors`` class raised: 0 success, 1 a forecast worker that failed to
start or to send its forecasts, 2 config error (the config file, out_dir
and an unwritable output included), 3 data error, 4 numeric failure.

Every stage is a fresh process, so its start-up is part of its run. Up to
``parse_args`` this module imports only ``argparse``, ``logging`` and
``sys``, so ``--help`` and a usage error load nothing else. ``main`` then
loads ``config``, ``errors`` and ``textio`` (the standard library alone),
and a config error exits before NumPy loads. Each handler imports the
modules of its own stage when it runs, so no stage loads another stage's
modules: ``report`` reads and writes through ``textio`` and never loads
NumPy, and ``evaluate``, ``bootstrap``, ``regress`` and ``lp`` never load
``backtest``.

A tracer wraps stage functions where the stage looks them up. So the stage
functions in ``_TRACED`` are attributes of this module, each imported from
its defining module on first access (``__getattr__``), and the handlers
call them as attributes (``_cli.<name>``): a wrapper set on this module
takes effect, where a function-local import would bypass it.
"""

from __future__ import annotations

import argparse
import logging
import sys

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from collections.abc import Callable
    from pathlib import Path

    from .config import PipelineConfig

logger = logging.getLogger(__name__)

# Each traced stage function and the module that defines it.
_TRACED = {
    "simulate": "simulate",
    "write_panel_csv": "artifacts",
    "load_daily_panel": "panel",
    "load_market_series": "panel",
    "partition_months": "panel",
    "compute_daily_stats": "features",
    "aggregate_monthly": "features",
    "build_market_monthly": "labels",
    "label_stress": "labels",
    "run_expanding_backtest": "backtest",
    "read_forecasts": "artifacts",
}


def __getattr__(name: str):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_TRACED[name]}", __package__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


# This module, through which the handlers call the traced functions (it is
# ``__main__`` under ``python -m mspi.cli``).
_cli = sys.modules[__name__]


# ---------------------------------------------------------------------------
# Stage implementations.

def cmd_simulate(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from .artifacts import write_market_csv

    sim = _cli.simulate(cfg)
    # market.csv is complete only once the panel is drawn
    _cli.write_panel_csv(stage("panel.csv"), sim, h)
    write_market_csv(stage("market.csv"), sim.market, h)
    logger.info("simulated %d trading days across %d months -> %s",
                len(sim.dates), len(sim.true_regime), out)
    return 0


def cmd_features(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from .artifacts import write_calendar_csv, write_features_csv
    from .features import DailyStats
    from .panel import EligibilityFilter
    from .textio import write_json

    # the market series first: a bad market.csv fails before the panel is parsed
    market = _cli.load_market_series(cfg.market_csv or out / "market.csv")
    # one calendar year of the panel in memory at a time: keep its days and statistics
    years, summary = _cli.load_daily_panel(
        cfg.panel_csv or out / "panel.csv", EligibilityFilter(),
        lambda year: (year.dates, _cli.compute_daily_stats(year)),
    )
    dates = [day for year_dates, _ in years for day in year_dates]
    stats = DailyStats.concatenate([year_stats for _, year_stats in years])
    partition = _cli.partition_months(dates, market)
    features = _cli.aggregate_monthly(stats, partition)
    write_features_csv(stage("features.csv"), features, h)
    write_calendar_csv(stage("calendar.csv"), dates, h)
    write_json(stage("ingest_summary.json"), summary.to_dict(), h)
    logger.info("wrote %d monthly feature rows", len(features.months))
    return 0


def cmd_label(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from .artifacts import read_calendar, write_labels_csv

    dates = read_calendar(out / "calendar.csv")
    market = _cli.load_market_series(cfg.market_csv or out / "market.csv")
    partition = _cli.partition_months(dates, market)
    labels = _cli.label_stress(*_cli.build_market_monthly(market, partition))
    write_labels_csv(stage("labels.csv"), labels, h)
    logger.info("labeled %d months, stress rate %.3f", len(labels.months),
                float(labels.s.mean()))
    return 0


def cmd_backtest(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from .artifacts import read_features, read_labels, write_forecasts_csv
    from .textio import write_json

    features = read_features(out / "features.csv")
    labels = read_labels(out / "labels.csv")
    forecasts, provenance = _cli.run_expanding_backtest(features, labels, cfg)
    write_forecasts_csv(stage("forecasts.csv"), forecasts, h)
    write_json(stage("provenance.json"), provenance, h)
    logger.info("wrote %d forecast months for models %s", len(forecasts.months),
                ",".join(forecasts.models))
    return 0


def _load_forecasts(out: Path, model: str | None = None):
    """forecasts.csv paired with labels.csv; DataError if it lacks ``model``."""
    from .artifacts import read_labels
    from .errors import DataError

    labels = read_labels(out / "labels.csv")
    path = out / "forecasts.csv"
    forecasts = _cli.read_forecasts(path, labels)
    if model is not None and model not in forecasts.models:
        raise DataError(f"{path}: no forecasts of model {model!r}; the file holds "
                        f"{', '.join(forecasts.models)}")
    return forecasts


def cmd_evaluate(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from . import evaluation as ev
    from .artifacts import write_csv
    from .textio import BIN_COLUMNS, write_json

    forecasts = _load_forecasts(out)
    metrics = ev.compute_metrics(forecasts)
    write_json(stage("metrics.json"), metrics, h)
    write_csv(stage("curves.csv"), ["model", "curve", "x", "y", "count"],
              ev.compute_curves(forecasts), h)
    bins = [row for model in forecasts.models for row in ev.binned_outcomes(forecasts, model)]
    write_csv(stage("bins.csv"), BIN_COLUMNS, bins, h)
    logger.info("metrics over %d months (event rate %.3f)", metrics["n"], metrics["event_rate"])
    return 0


def cmd_bootstrap(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from . import evaluation as ev
    from .config import BENCHMARK_MODEL
    from .textio import write_json

    forecasts = _load_forecasts(out, BENCHMARK_MODEL)
    payload = ev.bootstrap_table(forecasts, cfg.bootstrap_reps, cfg.seed)
    write_json(stage("bootstrap.json"), payload, h)
    logger.info("bootstrap table with %d rows", len(payload["rows"]))
    return 0


def cmd_regress(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from . import econometrics as econ
    from .config import INDEX_MODEL
    from .textio import write_json

    forecasts = _load_forecasts(out, INDEX_MODEL)
    write_json(stage("regression.json"), econ.regression_table(forecasts), h)
    return 0


def cmd_lp(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from . import econometrics as econ
    from .artifacts import write_csv
    from .config import INDEX_MODEL

    rows = econ.innovation_projections(_load_forecasts(out, INDEX_MODEL))
    write_csv(stage("local_projections.csv"), ["h", "b_h", "se_h", "n_h"], rows, h)
    return 0


# What the report reads of each JSON artifact (see ``textio.read_json``):
# float for a value it prints as a number, None for one it prints as it is.
_REPORT_JSON = {
    "metrics.json": {
        "n": None, "event_rate": float, "ece_bins": None,
        "models": {"*": dict.fromkeys(
            ("auc", "pr_auc", "brier", "log_loss", "ece", "mean_prob"), float)},
    },
    "bootstrap.json": {
        "benchmark": None, "block_len": None, "replications": None,
        "rows": [{"metric": str, "model": str,
                  **dict.fromkeys(("delta", "ci_lo", "ci_hi", "p_value"), float)}],
    },
    "regression.json": {
        "predictive_volatility": {"gamma": float, "delta_r2": float},
        "crash": {"cutoff": None, "crash_rate": float},
    },
}


def cmd_report(cfg: PipelineConfig, out: Path, h: str, stage: Callable[[str], Path]) -> int:
    from .textio import open_output, read_bins, read_json, write_json

    metrics, bootstrap = (read_json(out / name, _REPORT_JSON[name])
                          for name in ("metrics.json", "bootstrap.json"))
    reg_path = out / "regression.json"
    regression = (read_json(reg_path, _REPORT_JSON["regression.json"])
                  if reg_path.exists() else None)
    # the settings of the artifacts summarized, not of this run's config
    payload = {
        "metrics": metrics,
        "bins": read_bins(out / "bins.csv"),
        "bootstrap": bootstrap,
        "regression": regression,
        "settings": {
            "ece_bins": metrics["ece_bins"],
            "bootstrap_block_len": bootstrap["block_len"],
            "bootstrap_replications": bootstrap["replications"],
            "benchmark": bootstrap["benchmark"],
        },
    }
    text = _render_report(payload)
    write_json(stage("report.json"), payload, h)
    with open_output(stage("report.txt")) as fh:
        fh.write(text)
    return 0


def _render_report(payload: dict) -> str:
    from .textio import BIN_COLUMNS

    metrics, bootstrap, settings = payload["metrics"], payload["bootstrap"], payload["settings"]
    lines = [
        "Market stress probability index: out-of-sample report", "=" * 70, "",
        f"Months evaluated: {metrics['n']}   event rate: {metrics['event_rate']:.3f}",
        f"ECE bins: {settings['ece_bins']} (equal-mass)   "
        f"bootstrap: {settings['bootstrap_block_len']}-month blocks, "
        f"{settings['bootstrap_replications']} replications",
        "", "Discrimination and probability accuracy", "-" * 70,
        f"{'model':<8}{'AUC':>8}{'PR-AUC':>8}{'Brier':>8}{'LogLoss':>9}{'ECE':>8}{'MeanP':>8}",
    ]
    lines += (f"{name:<8}{m['auc']:>8.3f}{m['pr_auc']:>8.3f}{m['brier']:>8.3f}"
              f"{m['log_loss']:>9.3f}{m['ece']:>8.3f}{m['mean_prob']:>8.3f}"
              for name, m in metrics["models"].items())
    lines += ["", "Realized outcomes by probability bin", "-" * 70,
              f"{'model':<8}{'bin':<16}{'N':>5}{'meanP':>8}{'stress':>8}{'vol+1':>8}{'ret+1':>8}"]
    for r in payload["bins"]:
        label = f"[{float(r['bin_lo']):.2f},{float(r['bin_hi']):.2f})"
        lines.append(f"{r['model']:<8}{label:<16}{r['n']:>5}" + "".join(
            f"{float(r[c] or 'nan'):>8.3f}" for c in BIN_COLUMNS[4:]))
    lines += ["", f"Block-bootstrap deltas vs benchmark ({bootstrap['benchmark']}; "
              f"{bootstrap['block_len']}-month blocks, {bootstrap['replications']} replications)",
              "-" * 70,
              f"{'metric':<10}{'model':<8}{'delta':>10}{'ci lo':>10}{'ci hi':>10}{'p':>8}"]
    lines += (f"{r['metric']:<10}{r['model']:<8}{r['delta']:>10.4f}{r['ci_lo']:>10.4f}"
              f"{r['ci_hi']:>10.4f}{r['p_value']:>8.3f}" for r in bootstrap["rows"])
    if payload["regression"] is not None:
        pv, cr = payload["regression"]["predictive_volatility"], payload["regression"]["crash"]
        lines += ["", "Predictive regressions", "-" * 70,
                  f"next-month volatility on index level: gamma={pv['gamma']:.4f} "
                  f"(delta R2 {pv['delta_r2']:.4f})",
                  f"crash indicator (cutoff {cr['cutoff']}): crash rate {cr['crash_rate']:.3f}"]
    return "\n".join(lines + [""])


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
        if name == "features":  # accepted and ignored: the summary is always written
            p.add_argument("--ingest-summary", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(levelname)s %(name)s: %(message)s")
    from pathlib import Path

    from .config import PipelineConfig
    from .errors import ConfigError, MspiError
    from .textio import staged_outputs

    try:
        cfg = PipelineConfig.from_file(args.config, out_dir=args.out or None, seed=args.seed)
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file of that name, say
            raise ConfigError(f"out_dir {out} cannot be created: {exc.strerror}") from None
        with staged_outputs(out) as stage:
            return _HANDLERS[args.command](cfg, out, cfg.config_hash(), stage)
    except MspiError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
