import numpy as np
import pytest

from mspi.backtest import run_expanding_backtest
from mspi.config import PipelineConfig
from mspi.features import aggregate_monthly, compute_daily_stats
from mspi.labels import build_market_monthly, label_stress
from mspi.panel import partition_months
from mspi.simulate import simulate

from .oracles import sim_panel

SMALL_SIM = PipelineConfig(
    sim_n_stocks=40, sim_n_years=22, seed=11, sim_p_calm_to_stress=0.07,
    sim_p_stress_to_calm=0.30,
)


@pytest.fixture(scope="session")
def small_sim():
    """(simulation, panel) for the small config: drawing the panel's months
    completes the simulation's market series and regimes."""
    sim = simulate(SMALL_SIM)
    return sim, sim_panel(sim)


@pytest.fixture(scope="session")
def small_chain(small_sim):
    """(partition, features, labels) for the small simulated panel."""
    sim, panel = small_sim
    partition = partition_months(sim.dates, sim.market)
    features = aggregate_monthly(compute_daily_stats(panel), partition)
    labels = label_stress(*build_market_monthly(sim.market, partition))
    return partition, features, labels


@pytest.fixture(scope="session")
def small_forecasts(small_chain):
    """All four models on the small panel with a reduced config."""
    _, features, labels = small_chain
    config = PipelineConfig(
        models=["l1", "l2", "rf", "gb"],
        l1_grid=[float(v) for v in np.logspace(-3, 0, 6)],
        l2_grid=[float(v) for v in np.logspace(-3, 0, 6)],
        rf_trees=60,
        gb_stage_grid=[25, 50],
        seed=5,
    )
    return run_expanding_backtest(features, labels, config)[0]
