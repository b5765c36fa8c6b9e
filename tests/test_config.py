from dataclasses import asdict, fields

from mspi.backtest import BacktestConfig
from mspi.config import PipelineConfig
from mspi.labels import StressConfig
from mspi.panel import EligibilityFilter
from mspi.simulate import SimConfig

# Each builder, the stage dataclass it returns and the prefix of the config
# fields it reads; "seed" is shared and has no prefix.
BUILDERS = {
    "eligibility_filter": (EligibilityFilter, ""),
    "stress_config": (StressConfig, ""),
    "backtest_config": (BacktestConfig, ""),
    "sim_config": (SimConfig, "sim_"),
}

# A valid value other than the default for every field the builders read.
NON_DEFAULT = {
    "min_abs_price": 2.5,
    "return_cutoff": -0.08,
    "vol_quantile": 0.8,
    "min_history_months": 24,
    "initial_window_months": 96,
    "cv_folds": 4,
    "l1_grid": [0.01, 0.1],
    "l2_grid": [0.02, 0.2, 2.0],
    "rf_trees": 50,
    "gb_stage_grid": [10, 20],
    "models": ["l2", "gb"],
    "seed": 11,
    "sim_n_stocks": 30,
    "sim_n_years": 12,
    "sim_p_calm_to_stress": 0.1,
    "sim_p_stress_to_calm": 0.5,
}


def test_default_config_builds_each_stage_default():
    cfg = PipelineConfig()
    assert cfg.eligibility_filter() == EligibilityFilter()
    assert cfg.stress_config() == StressConfig()
    # the simulator's seed has no default of its own: it is the pipeline's
    assert cfg.sim_config() == SimConfig(seed=BacktestConfig().seed)
    assert cfg.backtest_config() == BacktestConfig()


def test_every_stage_field_arrives_from_its_config_field():
    default = PipelineConfig()
    assert all(getattr(default, name) != value for name, value in NON_DEFAULT.items())
    # the default benchmark and regression model are not among the models above
    cfg = PipelineConfig.from_dict({**NON_DEFAULT, "benchmark": "l2", "regress_model": "l2"})
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
