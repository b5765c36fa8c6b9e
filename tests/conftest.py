import numpy as np
import pytest

from mspi.backtest import BacktestConfig, run_expanding_backtest
from mspi.config import PipelineConfig
from mspi.features import aggregate_monthly, compute_daily_stats
from mspi.labels import StressConfig, build_market_monthly, label_stress
from mspi.panel import partition_months
from mspi.simulate import SimConfig, simulate

SMALL_SIM = SimConfig(
    n_stocks=40, n_years=22, seed=11, p_calm_to_stress=0.07, p_stress_to_calm=0.30
)


@pytest.fixture(scope="session")
def small_sim():
    return simulate(SMALL_SIM)


@pytest.fixture(scope="session")
def small_chain(small_sim):
    """(partition, features, labels) for the small simulated panel."""
    partition = partition_months(small_sim.panel.dates, small_sim.market)
    features = aggregate_monthly(compute_daily_stats(small_sim.panel, PipelineConfig().tail_threshold), partition)
    labels = label_stress(build_market_monthly(small_sim.market, partition), StressConfig())
    return partition, features, labels


@pytest.fixture(scope="session")
def small_forecasts(small_chain):
    """All four models on the small panel with a reduced config."""
    _, features, labels = small_chain
    config = BacktestConfig(
        models=("l1", "l2", "rf", "gb"),
        l1_grid=tuple(float(v) for v in np.logspace(-3, 0, 6)),
        l2_grid=tuple(float(v) for v in np.logspace(-3, 0, 6)),
        rf_trees=60,
        gb_stage_grid=(25, 50),
        seed=5,
    )
    return run_expanding_backtest(features, labels, config)[0]
