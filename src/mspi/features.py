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

# Rows per block of equal-length days in compute_daily_stats: bounds the
# temporaries, so the daily statistics add little to the stage's peak memory.
_BLOCK_ROWS = 8192


def _kept_offsets(kept: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Segment offsets into ``values[kept]`` of the segments ``starts`` cuts
    from ``values``."""
    return np.concatenate(([0], np.cumsum(kept)))[starts]


def _stack(values: np.ndarray, starts: np.ndarray, seg: np.ndarray, length: int) -> np.ndarray:
    """The (len(seg), length) block of the equal-length segments ``seg``: a
    reshape view where they are adjacent, a gather otherwise."""
    if seg[-1] - seg[0] + 1 == seg.shape[0]:
        first = int(starts[seg[0]])
        return values[first:first + seg.shape[0] * length].reshape(-1, length)
    return values[starts[seg, None] + np.arange(length)]


def _segment_means(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.mean(values[starts[i]:starts[i+1]])`` for every segment i; NaN
    for an empty segment.

    Segments of one length are stacked into one block and reduced by
    ``np.mean(block, axis=1)``. A reduction along the contiguous last axis
    sums each row pairwise, as ``np.mean`` sums a 1-D slice, so every mean
    is bit-identical to the per-segment one (``np.add.reduceat`` sums left
    to right and is not).
    """
    lengths = np.diff(starts)
    out = np.full(lengths.shape[0], np.nan)
    for length in sorted(set(lengths[lengths > 0].tolist())):
        seg = np.flatnonzero(lengths == length)
        out[seg] = np.mean(_stack(values, starts, seg, length), axis=1)
    return out


def _block_stats(ret, prc, vol, shrout) -> dict:
    """Float statistics of a block of equal-length days, one day per row of
    the (days, stocks) column blocks, keyed by DailyStats field."""
    mean = np.mean(ret, axis=1)
    dev = ret - mean[:, None]
    dev2 = dev * dev
    var = np.mean(dev2, axis=1)
    std = np.sqrt(var)
    # explicit products, not pow(): keeps the statistics exactly
    # equivariant under power-of-two rescaling of returns
    m3 = np.mean(dev2 * dev, axis=1)
    m4 = np.mean(dev2 * dev2, axis=1)
    skew = np.zeros_like(var)
    kurt = np.zeros_like(var)
    ok = std != 0.0
    skew[ok] = m3[ok] / (var[ok] * std[ok])
    kurt[ok] = m4[ok] / (var[ok] * var[ok])

    vol_ok = np.isfinite(vol)
    turn_ok = vol_ok & np.isfinite(shrout) & (shrout > 0)
    # masked means: the kept entries compacted row by row, one segment a day
    days = np.arange(0, vol.size + 1, vol.shape[1])
    vol_days = _kept_offsets(vol_ok.ravel(), days)
    return {
        "xs_std": std, "xs_skew": skew, "xs_kurt": kurt,
        "mean_abs_ret": np.mean(np.abs(ret), axis=1),
        "frac_dn": np.mean(ret <= -TAIL_THRESHOLD, axis=1),
        "frac_up": np.mean(ret >= TAIL_THRESHOLD, axis=1),
        "mean_log_vol": _segment_means(np.log1p(vol[vol_ok]), vol_days),
        "mean_dollar_vol": _segment_means(np.abs(prc[vol_ok]) * vol[vol_ok], vol_days),
        "mean_turnover": _segment_means(vol[turn_ok] / shrout[turn_ok],
                                        _kept_offsets(turn_ok.ravel(), days)),
    }


def compute_daily_stats(panel: DailyPanel) -> DailyStats:
    """Cross-sectional statistics of every panel day, in calendar order.

    Moments divide by the stock count (population convention); tail
    fractions use weak inequalities (ret <= -tau, ret >= +tau) at
    tau = ``TAIL_THRESHOLD``. Intensity means are taken over rows whose volume
    fields are present, and turnover additionally requires shares
    outstanding > 0.

    Days of one length are stacked in blocks of at most ``_BLOCK_ROWS`` rows
    (a longer day is a block of its own), one day per row, and each
    statistic is reduced along the block's last axis (masked means through
    ``_segment_means``). That sums every day's values pairwise in the order
    ``np.mean`` sums the day's slice, so each statistic is bit-identical to
    a per-day ``np.mean`` and does not depend on the other days.
    """
    starts = panel.starts
    n_stocks = np.diff(starts)
    if not n_stocks.all():
        empty = panel.dates[int(np.argmin(n_stocks))]
        raise DataError(f"{empty.isoformat()}: empty cross section")
    columns = {name: np.empty(n_stocks.shape[0]) for name in FEATURE_NAMES if name != "n_stocks"}
    for length in sorted(set(n_stocks.tolist())):
        days = np.flatnonzero(n_stocks == length)
        step = max(1, _BLOCK_ROWS // length)
        for i in range(0, days.shape[0], step):
            seg = days[i:i + step]
            block = _block_stats(*(_stack(getattr(panel, name), starts, seg, length)
                                   for name in ("ret", "prc", "vol", "shrout")))
            for name, values in block.items():
                columns[name][seg] = values
    return DailyStats(n_stocks=n_stocks, **columns)


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
