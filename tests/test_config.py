from dataclasses import FrozenInstanceError, asdict, fields

import pytest

from mspi.backtest import BacktestConfig
from mspi.config import PipelineConfig
from mspi.errors import ConfigError
from mspi.simulate import SimConfig

# Each builder, the stage dataclass it returns and the prefix of the config
# fields it reads; "seed" is shared and has no prefix.
BUILDERS = {
    "backtest_config": (BacktestConfig, ""),
    "sim_config": (SimConfig, "sim_"),
}

# A valid value other than the default for every field the builders read.
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


def test_default_config_builds_each_stage_default():
    cfg = PipelineConfig()
    # the simulator's seed has no default of its own: it is the pipeline's
    assert cfg.sim_config() == SimConfig(seed=BacktestConfig().seed)
    assert cfg.backtest_config() == BacktestConfig()


def test_every_stage_field_arrives_from_its_config_field():
    default = PipelineConfig()
    assert all(getattr(default, name) != value for name, value in NON_DEFAULT.items())
    cfg = PipelineConfig.from_dict(NON_DEFAULT)
    read = set()
    for builder, (cls, prefix) in BUILDERS.items():
        want = {}
        for f in fields(cls):
            name = "seed" if f.name == "seed" else prefix + f.name
            value = NON_DEFAULT[name]
            want[f.name] = tuple(value) if isinstance(value, list) else value
            read.add(name)
        # tuples compare unequal to lists, so each list must arrive as a tuple
        assert asdict(getattr(cfg, builder)()) == want, builder
    assert read == set(NON_DEFAULT)
    assert cfg.sim_config().seed == cfg.backtest_config().seed == 11


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
    # the default hash that ROADMAP.md quotes
    assert default.config_hash() == (
        "a38d3975841e0311d7d5d186e47f57c9148417d869d2c42df60dc9539774242c")
    assert PipelineConfig(out_dir="elsewhere").config_hash() == default.config_hash()
    for name, value in NON_DEFAULT.items():
        assert PipelineConfig.from_dict({name: value}).config_hash() != default.config_hash()
    assert PipelineConfig(panel_csv="p.csv").config_hash() != default.config_hash()
