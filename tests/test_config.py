from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from mspi.backtest import run_expanding_backtest
from mspi.config import PipelineConfig
from mspi.errors import ConfigError
from mspi.simulate import simulate

from .test_backtest import synthetic_features, synthetic_labels

# A valid value other than the default for every setting the stages read.
NON_DEFAULT = {
    "l1_grid": [0.01, 0.1],
    "l2_grid": [0.02, 0.2, 2.0],
    "rf_trees": 50,
    "gb_stage_grid": [10, 20],
    "models": ["l2", "l1", "gb"],
    "seed": 11,
    "sim_n_stocks": 30,
    "sim_n_years": 12,
    "sim_p_calm_to_stress": 0.1,
    "sim_p_stress_to_calm": 0.5,
}


def test_config_holds_the_paths_and_the_settings_a_workload_sets():
    names = {"panel_csv", "market_csv", "out_dir", "bootstrap_reps", *NON_DEFAULT}
    assert {f.name for f in fields(PipelineConfig)} == names


class Recording:
    """A config that records the name of every field read from it."""

    def __init__(self, config):
        self._config = config
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


# The fields each stage reads; the bootstrap reads bootstrap_reps and seed.
SIMULATE_READS = {"seed", "sim_n_stocks", "sim_n_years", "sim_p_calm_to_stress",
                  "sim_p_stress_to_calm"}
BACKTEST_READS = {"l1_grid", "l2_grid", "rf_trees", "gb_stage_grid", "models", "seed"}


def test_each_stage_reads_the_settings_it_owns():
    # a chain that switches every month, so both transition probabilities are read
    config = Recording(PipelineConfig(sim_n_stocks=2, sim_n_years=1, sim_p_calm_to_stress=1.0,
                                      sim_p_stress_to_calm=1.0))
    simulate(config)
    assert config.read == SIMULATE_READS

    rng = np.random.default_rng(6)
    labels = synthetic_labels(124, rng)
    config = Recording(PipelineConfig(l1_grid=[0.1], l2_grid=[0.1], rf_trees=4,
                                      gb_stage_grid=[5]))
    run_expanding_backtest(synthetic_features(labels, rng), labels, config)
    assert config.read == BACKTEST_READS

    # every setting has a stage that reads it; the rest are the paths
    owned = SIMULATE_READS | BACKTEST_READS | {"bootstrap_reps"}
    paths = {"panel_csv", "market_csv", "out_dir"}
    assert owned | paths == {f.name for f in fields(PipelineConfig)}


def test_config_is_checked_on_construction_and_frozen():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        PipelineConfig(seed=-1)
    cfg = PipelineConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 3


def test_overrides_replace_the_raw_values():
    cfg = PipelineConfig.from_dict({"seed": 4, "out_dir": "a"}, seed=9, out_dir=None)
    assert (cfg.seed, cfg.out_dir) == (9, "a")


def test_config_hash_covers_every_setting_but_out_dir():
    default = PipelineConfig()
    # config.py writes the default grids out: np.logspace(-4, 0, 20), bit for bit
    logspace = [float(v).hex() for v in np.logspace(-4, 0, 20)]
    assert [v.hex() for v in default.l1_grid] == [v.hex() for v in default.l2_grid] == logspace
    # the default hash that ROADMAP.md quotes
    assert default.config_hash() == (
        "a38d3975841e0311d7d5d186e47f57c9148417d869d2c42df60dc9539774242c")
    assert PipelineConfig(out_dir="elsewhere").config_hash() == default.config_hash()
    for name, value in NON_DEFAULT.items():
        assert PipelineConfig.from_dict({name: value}).config_hash() != default.config_hash()
    assert PipelineConfig(panel_csv="p.csv").config_hash() != default.config_hash()
