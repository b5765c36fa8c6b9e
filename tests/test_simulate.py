import numpy as np
import pytest

from mspi.config import PipelineConfig
from mspi.errors import ConfigError
from mspi.features import compute_daily_stats
from mspi.simulate import SimConfig, simulate


def small(**kw):
    base = dict(n_stocks=10, n_years=4, seed=7)
    base.update(kw)
    return SimConfig(**base)


class TestSimulate:
    def test_identical_seed_identical_output(self):
        a = simulate(small())
        b = simulate(small())
        assert a.panel.dates == b.panel.dates
        assert np.array_equal(a.panel.starts, b.panel.starts)
        assert np.array_equal(a.market.mkt_ret, b.market.mkt_ret)
        assert np.array_equal(a.panel.ret, b.panel.ret)
        assert np.array_equal(a.panel.prc, b.panel.prc)
        assert np.array_equal(a.panel.vol, b.panel.vol)
        assert a.true_regime == b.true_regime

    def test_different_seed_differs(self):
        a = simulate(small(seed=1))
        b = simulate(small(seed=2))
        assert not np.array_equal(a.market.mkt_ret, b.market.mkt_ret)

    def test_degenerate_chain_stays_calm(self):
        cfg = small(p_calm_to_stress=0.0, p_stress_to_calm=0.0)
        out = simulate(cfg)
        assert not any(out.true_regime.values())

    def test_stress_months_have_higher_dispersion(self):
        cfg = small(n_years=30, seed=3)
        out = simulate(cfg)
        stats = compute_daily_stats(out.panel, PipelineConfig().tail_threshold)
        by_month: dict[str, list[float]] = {}
        for date, xs_std in zip(out.panel.dates, stats.xs_std.tolist()):
            by_month.setdefault(f"{date.year:04d}-{date.month:02d}", []).append(xs_std)
        stress_vals = [v for m, vs in by_month.items() if out.true_regime[m] for v in vs]
        calm_vals = [v for m, vs in by_month.items() if not out.true_regime[m] for v in vs]
        assert np.mean(stress_vals) > np.mean(calm_vals)

    def test_long_run_regime_frequency(self):
        cfg = SimConfig(n_stocks=3, n_years=200, seed=21)
        out = simulate(cfg)
        freq = np.mean([v for v in out.true_regime.values()])
        pi = cfg.p_calm_to_stress / (cfg.p_calm_to_stress + cfg.p_stress_to_calm)
        # standard error for a two-state chain with autocorrelation
        # rho = 1 - p_cs - p_sc
        rho = 1.0 - cfg.p_calm_to_stress - cfg.p_stress_to_calm
        n = len(out.true_regime)
        se = np.sqrt(pi * (1 - pi) / n * (1 + rho) / (1 - rho))
        assert abs(freq - pi) < 3 * se

    def test_outputs_finite_and_nonnegative(self):
        out = simulate(small(seed=9))
        panel = out.panel
        assert panel.starts.tolist() == list(range(0, 10 * len(panel.dates) + 1, 10))
        assert np.all(np.isfinite(panel.ret))
        assert np.all(panel.vol >= 0)
        assert np.all(panel.shrout >= 0)
        assert np.all(np.abs(panel.prc) >= 1.0)  # floored at the filter minimum

    def test_calendar_shared_with_market(self):
        out = simulate(small())
        assert out.panel.dates == out.market.dates
        months = {f"{d.year:04d}-{d.month:02d}" for d in out.panel.dates}
        assert months == set(out.true_regime)

    def test_invalid_config_names_field(self):
        with pytest.raises(TypeError, match="seed"):
            SimConfig(n_stocks=10)
        with pytest.raises(ConfigError, match="n_stocks"):
            small(n_stocks=1)
        with pytest.raises(ConfigError, match="p_calm_to_stress"):
            small(p_calm_to_stress=1.5)
