from mspi.backtest import BacktestConfig
from mspi.config import PipelineConfig
from mspi.labels import StressConfig
from mspi.panel import EligibilityFilter
from mspi.simulate import SimConfig


def test_default_config_builds_each_stage_default():
    cfg = PipelineConfig()
    assert cfg.eligibility_filter() == EligibilityFilter()
    assert cfg.stress_config() == StressConfig()
    assert cfg.sim_config() == SimConfig()
    assert cfg.backtest_config() == BacktestConfig()
