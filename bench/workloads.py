"""The benchmark's workloads: pipeline config, stages run, and layers expected.

Why each workload was chosen is in BENCHMARK.json and README.md.

Each workload pins the pipeline seed in its config, so the market it
simulates and the forest's random streams, and with them a run's cost and
forecast quality, do not swing with the benchmark seed. At the trees-narrow
size, six simulation seeds gave backtests of 13-33 s and l1 AUCs of
0.44-0.79, and five pipeline seeds moved pipeline_s by 10% and brier_mean by
7%. The benchmark seed sets the block-bootstrap draws (``bootstrap --seed``)
and, on panel-dirty, the form of each defect in the written CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_STAGES = ("simulate", "features", "label", "backtest", "evaluate",
              "bootstrap", "regress", "lp", "report")

# Spans that record calls on every workload.
_COMMON = frozenset({
    "panel.load_daily_panel", "panel.load_market_series", "panel.partition_months",
    "features.compute_daily_stats", "features.aggregate_monthly",
    "labels.build_market_monthly", "labels.label_stress",
    "backtest.run_expanding_backtest", "backtest.forward_chain_cv", "backtest.fit_window",
    "learners.fit_logit_l1", "learners.fit_logit_l2", "artifacts.read_forecasts",
    "evaluation.compute_metrics", "evaluation.compute_curves", "evaluation.binned_outcomes",
    "evaluation.block_bootstrap_diff", "econometrics.ols_hac", "econometrics.local_projections",
})
# np.logspace(-3, 0, 6), the tests' reduced penalty grid
_SHORT_GRID = [0.001, 0.003981071705534973, 0.015848931924611134, 0.0630957344480193,
               0.25118864315095796, 1.0]
_SIMULATED = frozenset({"simulate.simulate", "artifacts.write_panel_csv"})
_TREES = frozenset({
    "learners.fit_platt", "learners.platt_solver", "learners.fit_random_forest",
    "learners.fit_gradient_boosting", "learners.build_tree",
    "learners.rf_score_many", "learners.gb_score_many",
})


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict              # PipelineConfig fields; out_dir and inputs are added per run
    stages: tuple[str, ...]
    expected: frozenset       # span names that must record calls
    dirty_size: tuple[int, int] | None = None  # (stocks, years) of the written panel


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="panel-wide",
            config={"seed": 7, "sim_n_stocks": 64, "sim_n_years": 16, "models": ["l1", "l2"],
                    "bootstrap_reps": 500},
            stages=ALL_STAGES,
            expected=_COMMON | _SIMULATED,
        ),
        Workload(
            name="trees-narrow",
            config={"seed": 13, "sim_n_stocks": 40, "sim_n_years": 15,
                    "sim_p_calm_to_stress": 0.07, "sim_p_stress_to_calm": 0.30,
                    "models": ["l1", "l2", "rf", "gb"], "l1_grid": _SHORT_GRID,
                    "l2_grid": _SHORT_GRID, "rf_trees": 20, "gb_stage_grid": [10, 20, 40],
                    "bootstrap_reps": 200},
            stages=ALL_STAGES,
            expected=_COMMON | _SIMULATED | _TREES,
        ),
        Workload(
            name="panel-dirty",
            config={"seed": 7, "models": ["l1", "l2"], "bootstrap_reps": 200},
            stages=ALL_STAGES[1:],
            expected=_COMMON,
            dirty_size=(40, 17),
        ),
    )
}
