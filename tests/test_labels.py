import datetime as dt
import math

import numpy as np
import pytest

from mspi.artifacts import write_labels_csv
from mspi.errors import DataError
from mspi.labels import (
    MarketMonthly,
    build_market_monthly,
    expanding_quantile,
    label_stress,
    monthly_market_return,
    realized_monthly_vol,
)
from mspi.panel import MarketSeries, MonthPartition, read_rows

from .oracles import interp_quantile


def series(returns_by_month):
    dates, rets, starts = [], [], [0]
    for ym, rr in returns_by_month.items():
        y, m = (int(p) for p in ym.split("-"))
        dates += [dt.date(y, m, d + 1) for d in range(len(rr))]
        rets += list(rr)
        starts.append(len(dates))
    market = MarketSeries(dates=dates, mkt_ret=np.array(rets, dtype=float))
    part = MonthPartition(months=list(returns_by_month), starts=np.array(starts),
                          market_rows=np.arange(len(dates)))
    return market, part


class TestMonthlyMarketReturn:
    def test_compounding(self):
        market, part = series({"2001-01": [0.01, 0.01]})
        assert monthly_market_return(market, part)[0] == pytest.approx(0.0201)

    def test_gain_then_loss(self):
        market, part = series({"2001-01": [0.10, -0.10]})
        assert monthly_market_return(market, part)[0] == pytest.approx(-0.01)

    def test_zeros(self):
        market, part = series({"2001-01": [0.0, 0.0, 0.0]})
        assert monthly_market_return(market, part)[0] == 0.0


class TestRealizedMonthlyVol:
    def test_two_day_hand_value(self):
        market, part = series({"2001-01": [0.01, -0.01]})
        vol = realized_monthly_vol(market, part)[0]
        # sample std with ddof=1 is sqrt(2)/100, annualized by sqrt(252)
        assert vol == pytest.approx(math.sqrt(2) / 100 * math.sqrt(252), rel=1e-12)
        assert vol == pytest.approx(0.224499, abs=5e-7)

    def test_constant_returns(self):
        market, part = series({"2001-01": [0.01, 0.01, 0.01]})
        assert realized_monthly_vol(market, part)[0] == 0.0

    def test_homogeneous_scaling(self):
        m1, p1 = series({"2001-01": [0.01, -0.02, 0.03]})
        m2, p2 = series({"2001-01": [0.02, -0.04, 0.06]})
        v1 = realized_monthly_vol(m1, p1)[0]
        v2 = realized_monthly_vol(m2, p2)[0]
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_single_day_month_error(self):
        market, part = series({"2001-01": [0.01]})
        with pytest.raises(DataError, match="2001-01"):
            realized_monthly_vol(market, part)


class TestExpandingQuantile:
    def test_linear_interpolation_case(self):
        hist = np.arange(1.0, 11.0)
        assert expanding_quantile(hist, 0.9) == pytest.approx(9.1, abs=1e-12)
        assert expanding_quantile(hist, 0.9) == pytest.approx(interp_quantile(hist, 0.9))

    def test_median(self):
        assert expanding_quantile(np.array([1.0, 2.0, 3.0]), 0.5) == 2.0

    def test_constant_history(self):
        hist = np.full(20, 3.7)
        for alpha in (0.1, 0.5, 0.9):
            assert expanding_quantile(hist, alpha) == 3.7

    def test_matches_oracle_on_random_histories(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            hist = rng.normal(size=rng.integers(2, 40))
            alpha = float(rng.uniform(0.05, 0.95))
            assert expanding_quantile(hist, alpha) == pytest.approx(
                interp_quantile(hist, alpha), rel=1e-12
            )

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        hist = rng.normal(size=50)
        qs = [expanding_quantile(hist, a) for a in np.linspace(0.05, 0.95, 19)]
        assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))


def monthly(months, r, sigma):
    return MarketMonthly(months=months, r_mkt=np.array(r), sigma_mkt=np.array(sigma))


class TestLabelStress:
    WARM = 3  # months of history before the first label

    def months(self, n):
        return [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(n)]

    def test_return_branch(self):
        mm = monthly(self.months(4), [0.0, 0.0, 0.0, -0.06], [0.1, 0.2, 0.3, 0.0])
        ls = label_stress(mm, min_history_months=self.WARM)
        assert ls.months == ["2000-04"] and ls.s.tolist() == [1]

    def test_volatility_branch(self):
        mm = monthly(self.months(4), [0.0, 0.0, 0.0, 0.02], [0.10, 0.20, 0.25, 0.30])
        ls = label_stress(mm, min_history_months=self.WARM)
        # q over {0.10, 0.20, 0.25} at 0.9 is 0.24; 0.30 >= 0.24
        assert ls.s.tolist() == [1]
        assert ls.q_prev[0] == pytest.approx(interp_quantile([0.10, 0.20, 0.25], 0.9))

    def test_neither_branch(self):
        mm = monthly(self.months(4), [0.0, 0.0, 0.0, 0.02], [0.10, 0.20, 0.25, 0.10])
        assert label_stress(mm, min_history_months=self.WARM).s.tolist() == [0]

    def test_y_next_alignment(self, tmp_path):
        mm = monthly(
            self.months(6),
            [0.0, 0.0, 0.0, -0.06, 0.02, -0.08],
            [0.10, 0.20, 0.30, 0.10, 0.05, 0.10],
        )
        ls = label_stress(mm, min_history_months=self.WARM)
        assert ls.s.tolist() == [1, 0, 1]  # return, neither, return
        # the target of month t is the next month's S: labels.csv's Y_next
        write_labels_csv(tmp_path / "labels.csv", ls, "h")
        _, rows = read_rows(tmp_path / "labels.csv", ["Y_next"])
        assert [r["Y_next"] for r in rows] == ["0", "1", ""]

    def test_insufficient_history_error(self):
        mm = monthly(self.months(3), [0.0] * 3, [0.1] * 3)
        with pytest.raises(DataError, match="history"):
            label_stress(mm, min_history_months=self.WARM)

    def test_no_lookahead_quantile_path(self):
        # labeling a truncated series reproduces the full run's prefix
        rng = np.random.default_rng(2)
        n = 200
        mm = monthly(self.months(n), rng.normal(0.005, 0.03, n), rng.lognormal(-2, 0.4, n))
        full = label_stress(mm, min_history_months=12)
        for cut in (40, 97, 150):
            trunc = label_stress(
                monthly(mm.months[:cut], mm.r_mkt[:cut], mm.sigma_mkt[:cut]),
                min_history_months=12,
            )
            k = len(trunc.months)
            assert np.array_equal(trunc.q_prev, full.q_prev[:k])
            assert np.array_equal(trunc.s, full.s[:k])

    def test_alpha_subset_property(self):
        rng = np.random.default_rng(5)
        n = 120
        mm = monthly(self.months(n), rng.normal(0.005, 0.03, n), rng.lognormal(-2, 0.4, n))
        strict = label_stress(mm, vol_quantile=0.9, min_history_months=12)
        loose = label_stress(mm, vol_quantile=0.8, min_history_months=12)
        vol_fire_strict = strict.sigma_mkt >= strict.q_prev
        vol_fire_loose = loose.sigma_mkt >= loose.q_prev
        assert np.all(vol_fire_loose[vol_fire_strict])

    def test_vol_branch_frequency_near_tail_mass(self):
        rng = np.random.default_rng(9)
        n = 1200
        mm = monthly(self.months(n), np.zeros(n), rng.lognormal(-2, 0.3, n))
        ls = label_stress(mm, min_history_months=36)
        freq = float(np.mean(ls.sigma_mkt >= ls.q_prev))
        assert abs(freq - 0.10) < 0.03


class TestBuildMarketMonthly:
    def test_round_trip_from_simulation(self, small_sim):
        from mspi.panel import partition_months

        sim, _ = small_sim
        part = partition_months(sim.dates, sim.market)
        mm = build_market_monthly(sim.market, part)
        assert mm.months == part.months
        assert np.all(mm.sigma_mkt >= 0)
