import numpy as np
import pytest

from mspi.errors import ConfigError
from mspi.features import compute_daily_stats
from mspi.config import PipelineConfig
from mspi.simulate import simulate

from .oracles import sim_panel


def small(**kw):
    base = dict(sim_n_stocks=10, sim_n_years=4, seed=7)
    base.update(kw)
    return PipelineConfig(**base)


class TestSimulate:
    def test_identical_seed_identical_output(self):
        a = simulate(small())
        b = simulate(small())
        assert a.dates == b.dates
        assert np.array_equal(a.market.mkt_ret, b.market.mkt_ret)
        for name in ("ret", "prc", "vol", "shrout"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.true_regime == b.true_regime

    def test_different_seed_differs(self):
        a = simulate(small(seed=1))
        b = simulate(small(seed=2))
        assert not np.array_equal(a.market.mkt_ret, b.market.mkt_ret)

    def test_degenerate_chain_stays_calm(self):
        cfg = small(sim_p_calm_to_stress=0.0, sim_p_stress_to_calm=0.0)
        out = simulate(cfg)
        assert not any(out.true_regime.values())

    def test_stress_months_have_higher_dispersion(self):
        cfg = small(sim_n_years=30, seed=3)
        out = simulate(cfg)
        stats = compute_daily_stats(sim_panel(out))
        by_month: dict[str, list[float]] = {}
        for date, xs_std in zip(out.dates, stats.xs_std.tolist()):
            by_month.setdefault(f"{date.year:04d}-{date.month:02d}", []).append(xs_std)
        stress_vals = [v for m, vs in by_month.items() if out.true_regime[m] for v in vs]
        calm_vals = [v for m, vs in by_month.items() if not out.true_regime[m] for v in vs]
        assert np.mean(stress_vals) > np.mean(calm_vals)

    def test_long_run_regime_frequency(self):
        cfg = PipelineConfig(sim_n_stocks=3, sim_n_years=200, seed=21)
        out = simulate(cfg)
        freq = np.mean([v for v in out.true_regime.values()])
        pi = cfg.sim_p_calm_to_stress / (cfg.sim_p_calm_to_stress + cfg.sim_p_stress_to_calm)
        # standard error for a two-state chain with autocorrelation
        # rho = 1 - p_cs - p_sc
        rho = 1.0 - cfg.sim_p_calm_to_stress - cfg.sim_p_stress_to_calm
        n = len(out.true_regime)
        se = np.sqrt(pi * (1 - pi) / n * (1 + rho) / (1 - rho))
        assert abs(freq - pi) < 3 * se

    def test_outputs_finite_and_nonnegative(self):
        out = simulate(small(seed=9))
        assert out.ret.shape == out.prc.shape == out.vol.shape == (len(out.dates), 10)
        assert out.shrout.shape == (10,)
        assert np.all(np.isfinite(out.ret))
        assert np.all(out.vol >= 0)
        assert np.all(out.shrout >= 0)
        assert np.all(np.abs(out.prc) >= 1.0)  # floored at the filter minimum

    def test_calendar_shared_with_market(self):
        out = simulate(small())
        assert out.dates == out.market.dates
        months = {f"{d.year:04d}-{d.month:02d}" for d in out.dates}
        assert months == set(out.true_regime)

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="sim_n_stocks"):
            small(sim_n_stocks=1)
        with pytest.raises(ConfigError, match="sim_p_calm_to_stress"):
            small(sim_p_calm_to_stress=1.5)
