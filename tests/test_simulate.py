import re
import tracemalloc

import numpy as np
import pytest

from mspi.artifacts import write_market_csv, write_panel_csv
from mspi.errors import ConfigError, DataError
from mspi.features import compute_daily_stats
from mspi.config import PipelineConfig
from mspi.panel import load_market_series, month_key
from mspi.simulate import TRADING_DAYS_PER_MONTH, simulate

from .oracles import sim_panel


def small(**kw):
    base = dict(sim_n_stocks=10, sim_n_years=4, seed=7)
    base.update(kw)
    return PipelineConfig(**base)


class TestSimulate:
    def test_identical_seed_identical_output(self, tmp_path):
        a = simulate(small())
        # Before its months are drawn the market series is blank, so a
        # market.csv written too early is rejected, not read as data.
        assert np.isnan(a.market.mkt_ret).all() and a.true_regime == {}
        path = tmp_path / "market.csv"
        write_market_csv(path, a.market, "h")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 3, column 'mkt_ret'"):
            load_market_series(str(path))

        # Each month fills its own days of the market series and its regime.
        drawn = []
        for days, *_ in a.months:
            drawn += days
            assert a.dates[:len(drawn)] == drawn
            assert np.isfinite(a.market.mkt_ret[:len(drawn)]).all()
            assert np.isnan(a.market.mkt_ret[len(drawn):]).all()
            assert list(a.true_regime) == list(dict.fromkeys(map(month_key, drawn)))
        assert a.market.dates == drawn

        b = simulate(small())
        pb = sim_panel(b)
        assert a.dates == b.dates == pb.dates
        assert np.array_equal(a.market.mkt_ret, b.market.mkt_ret)
        assert a.true_regime == b.true_regime
        pa = sim_panel(simulate(small()))
        for name in ("ret", "prc", "vol", "shrout"):
            assert np.array_equal(getattr(pa, name), getattr(pb, name)), name

    def test_different_seed_differs(self):
        a = simulate(small(seed=1))
        b = simulate(small(seed=2))
        sim_panel(a)
        sim_panel(b)
        # drawn, so NaN != NaN cannot make the series differ
        assert np.isfinite(a.market.mkt_ret).all() and np.isfinite(b.market.mkt_ret).all()
        assert not np.array_equal(a.market.mkt_ret, b.market.mkt_ret)

    def test_degenerate_chain_stays_calm(self):
        cfg = small(sim_p_calm_to_stress=0.0, sim_p_stress_to_calm=0.0)
        out = simulate(cfg)
        sim_panel(out)
        assert out.true_regime and not any(out.true_regime.values())

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
        sim_panel(out)
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
        assert out.shrout.shape == (10,)
        assert np.all(out.shrout >= 0)
        n_days = 0
        for days, ret, prc, vol in out.months:
            assert ret.shape == prc.shape == vol.shape == (len(days), 10)
            assert np.all(np.isfinite(ret))
            assert np.all(vol >= 0)
            assert np.all(np.abs(prc) >= 1.0)  # floored at the filter minimum
            n_days += len(days)
        assert n_days == len(out.dates)

    def test_calendar_shared_with_market(self):
        out = simulate(small())
        assert out.dates == out.market.dates == sim_panel(out).dates
        months = {f"{d.year:04d}-{d.month:02d}" for d in out.dates}
        assert months == set(out.true_regime)

    def test_memory_does_not_scale_with_the_panel(self, tmp_path):
        # one-time allocations outside the measured run
        write_panel_csv(tmp_path / "warm.csv", simulate(small(sim_n_stocks=2, sim_n_years=1)), "h")
        stocks, years = 40, 8
        tracemalloc.start()
        try:
            write_panel_csv(tmp_path / "panel.csv",
                            simulate(small(sim_n_stocks=stocks, sim_n_years=years)), "h")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole (day × stock) block would be 24 bytes per stock-day
        stock_days = stocks * years * 12 * TRADING_DAYS_PER_MONTH
        assert peak < 8 * stock_days, peak / stock_days

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="sim_n_stocks"):
            small(sim_n_stocks=1)
        with pytest.raises(ConfigError, match="sim_p_calm_to_stress"):
            small(sim_p_calm_to_stress=1.5)
