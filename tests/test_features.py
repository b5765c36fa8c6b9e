import datetime as dt
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from mspi.errors import DataError
from mspi.features import (
    _BLOCK_ROWS,
    FEATURE_NAMES,
    TAIL_THRESHOLD,
    _segment_means,
    aggregate_monthly,
    compute_daily_stats,
)
from mspi.panel import DailyPanel, MarketSeries, partition_months

from .oracles import daily_stats_per_day, monthly_means_per_month

PANEL_FIELDS = ("ret", "prc", "vol", "shrout")


def make_day(ret, vol=None, shrout=None, prc=None) -> dict:
    ret = np.asarray(ret, dtype=float)
    n = ret.shape[0]
    return dict(
        ret=ret,
        prc=np.asarray(prc, dtype=float) if prc is not None else np.full(n, 10.0),
        vol=np.asarray(vol, dtype=float) if vol is not None else np.full(n, 100.0),
        shrout=np.asarray(shrout, dtype=float) if shrout is not None else np.full(n, 1000.0),
    )


def make_panel(days, dates) -> DailyPanel:
    """A columnar panel whose i-th day holds the fields of ``days[i]``."""
    return DailyPanel(
        dates=list(dates),
        starts=np.cumsum([0] + [day["ret"].shape[0] for day in days]),
        **{name: np.concatenate([day[name] for day in days]) for name in PANEL_FIELDS},
    )


DAY = dt.date(2001, 1, 2)


def stats_of(day):
    """One day's statistics as scalars."""
    stats = compute_daily_stats(make_panel([day], [DAY]))
    return SimpleNamespace(**{f.name: getattr(stats, f.name)[0].item() for f in fields(stats)})


class TestCrossSectionStats:
    def test_two_point_symmetric(self):
        s = stats_of(make_day([0.01, -0.01]))
        assert s.xs_std == pytest.approx(0.01, abs=1e-15)
        assert s.xs_skew == pytest.approx(0.0, abs=1e-12)
        assert s.xs_kurt == pytest.approx(1.0, abs=1e-12)

    def test_threshold_counting_weak_inequalities(self):
        s = stats_of(make_day([-0.06, 0.0, 0.07]))
        assert s.frac_dn == pytest.approx(1 / 3)
        assert s.frac_up == pytest.approx(1 / 3)
        # boundary values count
        s2 = stats_of(make_day([-0.05, 0.05]))
        assert s2.frac_dn == 0.5 and s2.frac_up == 0.5

    def test_normal_sample_moments(self):
        # Monte Carlo against known standard-normal moments
        rng = np.random.default_rng(42)
        s = stats_of(make_day(rng.standard_normal(100_000)))
        assert abs(s.xs_skew) < 0.05
        assert abs(s.xs_kurt - 3.0) < 0.1

    def test_degenerate_day_flagged(self):
        s = stats_of(make_day([0.01, 0.01, 0.01]))
        assert s.xs_std == 0.0 and s.xs_skew == 0.0 and s.xs_kurt == 0.0

    def test_empty_day_error(self):
        with pytest.raises(DataError, match="2001-01-02: empty"):
            compute_daily_stats(make_panel([make_day([])], [DAY]))

    def test_intensity_means_skip_missing_volume(self):
        day = make_day([0.01, 0.02], vol=[100.0, math.nan], prc=[10.0, -20.0])
        s = stats_of(day)
        assert s.mean_log_vol == pytest.approx(math.log1p(100.0))
        assert s.mean_dollar_vol == pytest.approx(1000.0)

    def test_turnover_skips_zero_shrout(self):
        day = make_day([0.01, 0.02], vol=[100.0, 100.0], shrout=[1000.0, 0.0])
        s = stats_of(day)
        assert s.mean_turnover == pytest.approx(0.1)


class TestFeatureInvariances:
    def test_scale_translation_permutation(self):
        # Power-of-two scales and lattice returns make the invariances exact
        # in IEEE arithmetic; day sizes are powers of two so means are exact.
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = int(rng.choice([32, 64, 128]))
            ret = rng.integers(-512, 513, size=n).astype(float) / 1024.0
            day = make_day(ret)
            base = stats_of(day)

            c = float(2.0 ** rng.integers(-3, 6))
            scaled = stats_of(make_day(ret * c))
            assert scaled.xs_std == c * base.xs_std
            assert scaled.mean_abs_ret == c * base.mean_abs_ret
            if base.xs_std != 0.0:
                assert scaled.xs_skew == base.xs_skew
                assert scaled.xs_kurt == base.xs_kurt

            shift = float(rng.integers(-256, 257)) / 1024.0
            shifted = stats_of(make_day(ret + shift))
            assert shifted.xs_std == base.xs_std
            assert shifted.xs_skew == base.xs_skew
            assert shifted.xs_kurt == base.xs_kurt

            # panel construction sorts rows by security id before packing
            # arrays, so source row order cannot change any statistic
            perm = rng.permutation(n)
            ids = np.array([f"S{i:04d}" for i in range(n)])
            recovered = ret[perm][np.argsort(ids[perm], kind="stable")]
            permuted = stats_of(make_day(recovered))
            assert permuted == base

    def test_frac_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ret = rng.normal(0, 0.05, size=50)
            s = stats_of(make_day(ret))
            assert 0.0 <= s.frac_dn <= 1.0 and 0.0 <= s.frac_up <= 1.0
            assert s.frac_dn + s.frac_up <= 1.0


class TestAggregateMonthly:
    def monthly(self, days, dates):
        panel = make_panel(days, dates)
        market = MarketSeries(dates=list(dates), mkt_ret=np.zeros(len(dates)))
        return aggregate_monthly(compute_daily_stats(panel),
                                 partition_months(panel.dates, market))

    def test_monthly_mean(self):
        d1, d2 = dt.date(2001, 1, 2), dt.date(2001, 1, 3)
        fm = self.monthly([make_day([0.01, -0.01]), make_day([0.03, -0.03])], [d1, d2])
        assert fm.values[0, FEATURE_NAMES.index("xs_std")] == pytest.approx(0.02, abs=1e-15)

    def test_single_day_month_passthrough(self):
        day = make_day([0.01, -0.03, 0.06])
        s = stats_of(day)
        fm = self.monthly([day], [DAY])
        row = fm.values[fm.months.index("2001-01")]
        assert row[FEATURE_NAMES.index("xs_std")] == s.xs_std
        assert row[FEATURE_NAMES.index("frac_up")] == s.frac_up

    def test_shape_on_simulated_year(self, small_sim):
        sim, panel = small_sim
        part = partition_months(sim.dates, sim.market)
        stats = compute_daily_stats(panel)
        fm = aggregate_monthly(stats, part)
        assert fm.values.shape == (len(part.months), 10)
        assert np.all(np.isfinite(fm.values))

    def test_degenerate_days_excluded_from_skew_mean(self):
        d1, d2 = dt.date(2001, 1, 2), dt.date(2001, 1, 3)
        normal = make_day([0.05, -0.01, 0.02])
        fm = self.monthly([make_day([0.01, 0.01]), normal], [d1, d2])
        assert fm.values[0, FEATURE_NAMES.index("xs_skew")] == stats_of(normal).xs_skew

    def test_all_degenerate_month_errors(self):
        with pytest.raises(DataError, match="xs_skew.*2001-01"):
            self.monthly([make_day([0.01, 0.01])], [DAY])


def ragged_panel(seed: int, lengths: list[int], dates=None) -> DailyPanel:
    """Days of the given sizes with fat-tailed returns, blank volumes, zero
    and blank shares outstanding and negative prices; day 1 has no volume at
    all and day 2 no dispersion. Days are consecutive calendar days unless
    ``dates`` is given."""
    rng = np.random.default_rng(seed)
    days = []
    for i, n in enumerate(lengths):
        ret = rng.standard_t(4, n) * 0.02
        vol = np.exp(rng.normal(10.0, 1.0, n))
        vol[rng.random(n) < 0.05] = math.nan
        shrout = np.round(np.exp(rng.normal(9.0, 1.0, n)))
        shrout[rng.random(n) < 0.03] = 0.0
        shrout[rng.random(n) < 0.03] = math.nan
        prc = rng.normal(30.0, 10.0, n)
        if i == 1:
            vol[:] = math.nan
        if i == 2:
            ret[:] = 0.0125
        days.append(make_day(ret, vol=vol, shrout=shrout, prc=prc))
    if dates is None:
        dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(len(lengths))]
    return make_panel(days, dates)


class TestBatchedDailyStats:
    """The batched kernels against one np.mean per day and per month."""

    def assert_matches_per_day(self, panel):
        stats = compute_daily_stats(panel)
        expected = daily_stats_per_day(panel, TAIL_THRESHOLD)
        for f, want in zip(fields(stats), expected):
            got = getattr(stats, f.name)
            assert got.dtype == want.dtype, f.name
            assert got.tobytes() == want.tobytes(), f.name
        return stats

    def test_ragged_days_bit_identical(self):
        # lengths around NumPy's pairwise-sum block of 128, repeated both
        # adjacently (reshape views) and apart (gathers)
        lengths = [5, 3, 4, 1, 2, 7, 8, 9, 127, 128, 129, 130, 300, 300, 128, 700, 9,
                   300, 1, 1, 129, 257, 511, 512, 513, 700, 700, 64, 5]
        rng = np.random.default_rng(11)
        lengths += rng.integers(1, 701, size=60).tolist()
        stats = self.assert_matches_per_day(ragged_panel(1, lengths))
        assert np.isnan(stats.mean_log_vol[1]) and np.isnan(stats.mean_turnover[1])
        assert stats.xs_std[2] == 0.0 and stats.xs_std[[0, 1]].all()

    def test_day_longer_than_a_block(self):
        self.assert_matches_per_day(ragged_panel(2, [40, _BLOCK_ROWS + 77, 3, 41, 129]))

    def test_uniform_days_in_many_blocks(self):
        self.assert_matches_per_day(ragged_panel(3, [500] * 40))

    def test_monthly_means_bit_identical(self):
        rng = np.random.default_rng(5)
        # 2-6 trading days a month, every seventh month a single day
        dates = []
        for m in range(40):
            k = 1 if m % 7 == 3 else int(rng.integers(2, 7))
            dates += [dt.date(2001 + m // 12, 1 + m % 12, d + 1) for d in range(k)]
        panel = ragged_panel(4, rng.integers(2, 400, size=len(dates)).tolist(), dates)
        stats = compute_daily_stats(panel)
        market = MarketSeries(dates=panel.dates, mkt_ret=np.zeros(len(panel.dates)))
        partition = partition_months(panel.dates, market)
        fm = aggregate_monthly(stats, partition)
        want = monthly_means_per_month(stats, partition, FEATURE_NAMES)
        assert fm.values.tobytes() == want.tobytes()

    def test_segment_means_on_random_segments(self):
        rng = np.random.default_rng(9)
        lengths = rng.integers(0, 701, size=2000)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.standard_normal(int(starts[-1])) * 1e3 + 0.1
        got = _segment_means(values, starts)
        want = np.array([np.mean(values[a:b]) if b > a else math.nan
                         for a, b in zip(starts[:-1], starts[1:])])
        assert got.tobytes() == want.tobytes()
        flags = values > 0.0
        got = _segment_means(flags, starts)
        want = np.array([np.mean(flags[a:b]) if b > a else math.nan
                         for a, b in zip(starts[:-1], starts[1:])])
        assert got.tobytes() == want.tobytes()

    def test_first_empty_day_named(self):
        panel = ragged_panel(6, [3, 0, 4, 0])
        with pytest.raises(DataError, match="2001-01-02: empty cross section"):
            compute_daily_stats(panel)

    def test_month_without_usable_days_named(self):
        d1, d2, d3 = dt.date(2001, 1, 2), dt.date(2001, 2, 1), dt.date(2001, 2, 2)
        days = [make_day([0.01, -0.02]), make_day([0.01, 0.03], vol=[math.nan, math.nan]),
                make_day([0.02, -0.01], vol=[math.nan, math.nan])]
        panel = make_panel(days, [d1, d2, d3])
        market = MarketSeries(dates=panel.dates, mkt_ret=np.zeros(3))
        with pytest.raises(DataError, match="'mean_log_vol' has no usable days in month 2001-02"):
            aggregate_monthly(compute_daily_stats(panel),
                              partition_months(panel.dates, market))
