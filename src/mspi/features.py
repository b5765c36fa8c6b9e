"""Cross-sectional fragility signals.

Daily statistics are computed across stocks within each trading day
(population moments, weak-inequality tail fractions, trading-intensity
averages) and then averaged within each calendar month to form the 10
monthly predictors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .panel import DailyPanel, MonthPartition

FEATURE_NAMES = [
    "n_stocks",
    "xs_std",
    "xs_skew",
    "xs_kurt",
    "mean_abs_ret",
    "frac_dn",
    "frac_up",
    "mean_log_vol",
    "mean_dollar_vol",
    "mean_turnover",
]


@dataclass(frozen=True)
class TailThreshold:
    """Absolute daily return beyond which a stock counts as an extreme mover."""

    tau: float = 0.05

    def __post_init__(self):
        if not self.tau > 0:
            raise DataError(f"tail threshold tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class DailyStats:
    """Cross-sectional statistics of every panel day, one array per statistic.

    ``degenerate`` marks a zero-dispersion day: skew and kurtosis are
    reported as 0 and excluded from monthly averages. Intensity fields are
    NaN when no row carried the needed volume data that day.
    """

    n_stocks: np.ndarray
    xs_mean: np.ndarray
    xs_std: np.ndarray
    xs_skew: np.ndarray
    xs_kurt: np.ndarray
    mean_abs_ret: np.ndarray
    frac_dn: np.ndarray
    frac_up: np.ndarray
    mean_log_vol: np.ndarray
    mean_dollar_vol: np.ndarray
    mean_turnover: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class FeatureMatrix:
    """Monthly predictor matrix: one row per month, columns FEATURE_NAMES."""

    months: list[str]
    values: np.ndarray
    feature_names: tuple[str, ...] = tuple(FEATURE_NAMES)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]

    def row(self, month: str) -> np.ndarray:
        return self.values[self.months.index(month)]


def _day_stats(r, prc, vol, shrout, tau: float) -> tuple:
    """One day's statistics, in the field order of DailyStats."""
    n = r.shape[0]
    mean = float(np.mean(r))
    dev = r - mean
    var = float(np.mean(dev * dev))
    std = math.sqrt(var)
    degenerate = std == 0.0
    if degenerate:
        skew = 0.0
        kurt = 0.0
    else:
        # explicit products, not pow(): keeps the statistics exactly
        # equivariant under power-of-two rescaling of returns
        dev2 = dev * dev
        skew = float(np.mean(dev2 * dev)) / (var * std)
        kurt = float(np.mean(dev2 * dev2)) / (var * var)

    vol_ok = np.isfinite(vol)
    mean_log_vol = float(np.mean(np.log1p(vol[vol_ok]))) if vol_ok.any() else math.nan
    mean_dollar_vol = (
        float(np.mean(np.abs(prc[vol_ok]) * vol[vol_ok])) if vol_ok.any() else math.nan
    )
    turn_ok = vol_ok & np.isfinite(shrout) & (shrout > 0)
    mean_turnover = float(np.mean(vol[turn_ok] / shrout[turn_ok])) if turn_ok.any() else math.nan
    return (
        n, mean, std, skew, kurt, float(np.mean(np.abs(r))),
        float(np.mean(r <= -tau)), float(np.mean(r >= tau)),
        mean_log_vol, mean_dollar_vol, mean_turnover, degenerate,
    )


def compute_daily_stats(panel: DailyPanel, tau: TailThreshold) -> DailyStats:
    """Cross-sectional statistics of every panel day, in calendar order.

    Moments divide by the stock count (population convention); tail
    fractions use weak inequalities (ret <= -tau, ret >= +tau). Intensity
    means are taken over rows whose volume fields are present, and turnover
    additionally requires shares outstanding > 0. Each statistic is a
    ``np.mean`` over the day's own slice, so it does not depend on the
    other days.
    """
    bounds = panel.starts.tolist()
    empty = [d for d, a, b in zip(panel.dates, bounds, bounds[1:]) if a == b]
    if empty:
        raise DataError(f"{empty[0].isoformat()}: empty cross section")
    rows = [
        _day_stats(panel.ret[a:b], panel.prc[a:b], panel.vol[a:b], panel.shrout[a:b], tau.tau)
        for a, b in zip(bounds, bounds[1:])
    ]
    return DailyStats(*(np.array(column) for column in zip(*rows)))


def aggregate_monthly(daily_stats: DailyStats, partition: MonthPartition) -> FeatureMatrix:
    """Average daily statistics within each month of the partition.

    Skew/kurtosis values from degenerate days, and NaN intensity values from
    days without volume data, are excluded from their feature's average. A
    month whose every day is excluded for some feature is an error.
    """
    n_days = daily_stats.n_stocks.shape[0]
    if int(partition.starts[-1]) != n_days:
        raise DataError(
            f"partition covers {int(partition.starts[-1])} days, daily statistics {n_days}"
        )
    moments_ok = ~daily_stats.degenerate
    rows = np.empty((len(partition.months), len(FEATURE_NAMES)))
    bounds = partition.starts.tolist()
    for i, (month, a, b) in enumerate(zip(partition.months, bounds, bounds[1:])):
        for j, name in enumerate(FEATURE_NAMES):
            values = getattr(daily_stats, name)[a:b]
            if name in ("xs_skew", "xs_kurt"):
                values = values[moments_ok[a:b]]
            kept = values[~np.isnan(values)]
            if not kept.size:
                raise DataError(f"feature '{name}' has no usable days in month {month}")
            rows[i, j] = float(np.mean(kept))
    return FeatureMatrix(months=list(partition.months), values=rows)
