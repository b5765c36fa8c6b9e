"""Cross-sectional fragility signals.

Daily statistics are computed across stocks within each trading day
(population moments, the fractions of stocks at or beyond the tail
threshold in either direction, trading-intensity averages) and then
averaged within each calendar month to form the 10 monthly predictors.
The tail threshold is the constant ``TAIL_THRESHOLD``, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError

if TYPE_CHECKING:
    from .panel import DailyPanel, MonthPartition


@dataclass(frozen=True)
class DailyStats:
    """Cross-sectional statistics of every panel day, one array per statistic;
    each feature is the monthly mean of the statistic of the same name.

    A zero-dispersion day (``xs_std`` 0) reports skew and kurtosis as 0, and
    they are excluded from monthly averages. Intensity fields are NaN when
    no row carried the needed volume data that day.
    """

    n_stocks: np.ndarray
    xs_std: np.ndarray
    xs_skew: np.ndarray
    xs_kurt: np.ndarray
    mean_abs_ret: np.ndarray
    frac_dn: np.ndarray
    frac_up: np.ndarray
    mean_log_vol: np.ndarray
    mean_dollar_vol: np.ndarray
    mean_turnover: np.ndarray

    @classmethod
    def concatenate(cls, parts: list["DailyStats"]) -> "DailyStats":
        """The statistics of consecutive runs of days, joined in order."""
        return cls(**{f.name: np.concatenate([getattr(part, f.name) for part in parts])
                      for f in fields(cls)})


FEATURE_NAMES = [f.name for f in fields(DailyStats)]


@dataclass(frozen=True)
class FeatureMatrix:
    """Monthly predictor matrix: one row per month, columns FEATURE_NAMES."""

    months: list[str]
    values: np.ndarray


# |daily return| at or beyond which a stock is an extreme mover
TAIL_THRESHOLD = 0.05


def _kept_offsets(kept: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Segment offsets into ``values[kept]`` of the segments ``starts`` cuts
    from ``values``."""
    return np.concatenate(([0], np.cumsum(kept)))[starts]


def _segment_means(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.mean(values[starts[i]:starts[i+1]])`` for every segment i; NaN
    for an empty segment.

    Segments of one length are stacked into one block (a reshape view where
    they are adjacent, a gather otherwise) and reduced by
    ``np.mean(block, axis=1)``. A reduction along the contiguous last axis
    sums each row pairwise, as ``np.mean`` sums a 1-D slice, so every mean
    is bit-identical to the per-segment one (``np.add.reduceat`` sums left
    to right and is not).
    """
    lengths = np.diff(starts)
    out = np.full(lengths.shape[0], np.nan)
    for length in sorted(set(lengths[lengths > 0].tolist())):
        seg = np.flatnonzero(lengths == length)
        if seg[-1] - seg[0] + 1 == seg.shape[0]:
            first = int(starts[seg[0]])
            block = values[first:first + seg.shape[0] * length].reshape(-1, length)
        else:
            block = values[starts[seg, None] + np.arange(length)]
        out[seg] = np.mean(block, axis=1)
    return out


def compute_daily_stats(panel: DailyPanel) -> DailyStats:
    """Cross-sectional statistics of every panel day, in calendar order.

    Moments divide by the stock count (population convention); tail
    fractions use weak inequalities (ret <= -tau, ret >= +tau) at
    tau = ``TAIL_THRESHOLD``. Intensity means are taken over rows whose volume
    fields are present, and turnover additionally requires shares
    outstanding > 0.

    Every statistic is one ``_segment_means`` reduction over the panel's
    rows cut at its day starts (a masked mean over the kept rows, cut at
    ``_kept_offsets``), so each is bit-identical to a per-day ``np.mean``
    and does not depend on the other days.
    """
    starts = panel.starts
    n_stocks = np.diff(starts)
    if not n_stocks.all():
        empty = panel.dates[int(np.argmin(n_stocks))]
        raise DataError(f"{empty.isoformat()}: empty cross section")
    ret, prc, vol, shrout = panel.ret, panel.prc, panel.vol, panel.shrout
    dev = ret - np.repeat(_segment_means(ret, starts), n_stocks)
    dev2 = dev * dev
    var = _segment_means(dev2, starts)
    std = np.sqrt(var)
    # explicit products, not pow(): keeps the statistics exactly
    # equivariant under power-of-two rescaling of returns
    m3 = _segment_means(dev2 * dev, starts)
    m4 = _segment_means(dev2 * dev2, starts)
    skew = np.zeros_like(var)
    kurt = np.zeros_like(var)
    ok = std != 0.0
    skew[ok] = m3[ok] / (var[ok] * std[ok])
    kurt[ok] = m4[ok] / (var[ok] * var[ok])

    vol_ok = np.isfinite(vol)
    turn_ok = vol_ok & np.isfinite(shrout) & (shrout > 0)
    vol_days = _kept_offsets(vol_ok, starts)
    return DailyStats(
        n_stocks=n_stocks, xs_std=std, xs_skew=skew, xs_kurt=kurt,
        mean_abs_ret=_segment_means(np.abs(ret), starts),
        frac_dn=_segment_means(ret <= -TAIL_THRESHOLD, starts),
        frac_up=_segment_means(ret >= TAIL_THRESHOLD, starts),
        mean_log_vol=_segment_means(np.log1p(vol[vol_ok]), vol_days),
        mean_dollar_vol=_segment_means(np.abs(prc[vol_ok]) * vol[vol_ok], vol_days),
        mean_turnover=_segment_means(vol[turn_ok] / shrout[turn_ok],
                                     _kept_offsets(turn_ok, starts)),
    )


def aggregate_monthly(daily_stats: DailyStats, partition: MonthPartition) -> FeatureMatrix:
    """Average daily statistics within each month of the partition.

    Skew/kurtosis values from zero-dispersion days, and NaN intensity values from
    days without volume data, are excluded from their feature's average. A
    month whose every day is excluded for some feature is an error.

    Each feature's kept days are compacted into one array and the months
    reduced by ``_segment_means``, so every value is bit-identical to a
    ``np.mean`` over that month's kept days.
    """
    n_days = daily_stats.n_stocks.shape[0]
    if int(partition.starts[-1]) != n_days:
        raise DataError(
            f"partition covers {int(partition.starts[-1])} days, daily statistics {n_days}"
        )
    rows = np.empty((len(partition.months), len(FEATURE_NAMES)))
    empty = np.zeros(rows.shape, dtype=bool)
    for j, name in enumerate(FEATURE_NAMES):
        values = getattr(daily_stats, name)
        kept = ~np.isnan(values)
        if name in ("xs_skew", "xs_kurt"):
            kept &= daily_stats.xs_std != 0.0
        offsets = _kept_offsets(kept, partition.starts)
        empty[:, j] = offsets[1:] == offsets[:-1]
        rows[:, j] = _segment_means(values[kept], offsets)
    if empty.any():
        i, j = np.argwhere(empty)[0].tolist()
        raise DataError(f"feature '{FEATURE_NAMES[j]}' has no usable days in month "
                        f"{partition.months[i]}")
    return FeatureMatrix(months=list(partition.months), values=rows)
