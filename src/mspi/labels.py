"""Real-time stress labels.

Monthly market returns are compounded from daily index returns; realized
volatility is the within-month sample standard deviation annualized by
sqrt(252). A month is a stress month when the return breaches a fixed
downside cutoff or realized volatility reaches the expanding quantile of
all volatility observed through the previous month. Months without enough
quantile history are excluded from the modeling sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .panel import MarketSeries, MonthPartition

ANNUALIZATION = math.sqrt(252.0)


@dataclass(frozen=True)
class StressConfig:
    """Stress-rule parameters: return cutoff, volatility quantile, warmup length."""

    return_cutoff: float = -0.05
    vol_quantile: float = 0.90
    min_history_months: int = 36

    def __post_init__(self):
        if not self.return_cutoff < 0:
            raise ConfigError(f"return_cutoff must be < 0, got {self.return_cutoff}")
        if not 0 < self.vol_quantile < 1:
            raise ConfigError(f"vol_quantile must be in (0,1), got {self.vol_quantile}")
        if self.min_history_months < 2:
            raise ConfigError(f"min_history_months must be >= 2, got {self.min_history_months}")


@dataclass(frozen=True)
class MarketMonthly:
    """Per-month compounded market return and annualized realized volatility."""

    months: list[str]
    r_mkt: np.ndarray
    sigma_mkt: np.ndarray


@dataclass(frozen=True)
class LabelSeries:
    """Stress indicators for the labeled (post-warmup) months.

    Row t carries the stress state S_t and the quantile threshold q_prev used
    to label it; r_mkt and sigma_mkt are repeated here for convenience. Month
    t's forecast target is the next row's S (``labels.csv``'s ``Y_next``).
    """

    months: list[str]
    r_mkt: np.ndarray
    sigma_mkt: np.ndarray
    q_prev: np.ndarray
    s: np.ndarray


def market_controls(series) -> np.ndarray:
    """Month t's market return and realized volatility, one row per month of a
    ``LabelSeries`` or ``ForecastSeries``: l2's features, the regressions' controls."""
    return np.column_stack([series.r_mkt, series.sigma_mkt])


def _month_returns(market: MarketSeries, partition: MonthPartition):
    """(month, daily index returns) for each partition month."""
    bounds = partition.starts.tolist()
    for month, a, b in zip(partition.months, bounds, bounds[1:]):
        yield month, market.mkt_ret[partition.market_rows[a:b]]


def monthly_market_return(market: MarketSeries, partition: MonthPartition) -> np.ndarray:
    """Compound daily index returns within each partition month."""
    return np.array([
        float(np.prod(1.0 + rets) - 1.0) for _, rets in _month_returns(market, partition)
    ])


def realized_monthly_vol(market: MarketSeries, partition: MonthPartition) -> np.ndarray:
    """Within-month sample std (ddof=1) of daily returns, annualized."""
    out = []
    for month, rets in _month_returns(market, partition):
        if rets.shape[0] < 2:
            raise DataError(f"month {month} has a single trading day; volatility undefined")
        out.append(float(np.std(rets, ddof=1) * ANNUALIZATION))
    return np.array(out)


def build_market_monthly(market: MarketSeries, partition: MonthPartition) -> MarketMonthly:
    return MarketMonthly(
        months=list(partition.months),
        r_mkt=monthly_market_return(market, partition),
        sigma_mkt=realized_monthly_vol(market, partition),
    )


def expanding_quantile(history: np.ndarray, alpha: float) -> float:
    """Linear-interpolation quantile of the history seen so far.

    Position (n-1)*alpha between order statistics, the common convention.
    """
    if history.shape[0] == 0:
        raise DataError("empty history for expanding quantile")
    return float(np.quantile(history, alpha, method="linear"))


def label_stress(monthly: MarketMonthly, config: StressConfig) -> LabelSeries:
    """Label stress months in real time.

    Month at index i is labeled once i >= min_history_months, using the
    quantile of sigma_mkt over indices [0, i) — all volatility through the
    previous month. S = 1 iff r_mkt <= return_cutoff or sigma_mkt >= that
    quantile.
    """
    warm = config.min_history_months
    n = len(monthly.months)
    if n <= warm:
        raise DataError(
            f"need more than {warm} months of history to label stress, got {n}"
        )
    months = monthly.months[warm:]
    r = monthly.r_mkt[warm:]
    sigma = monthly.sigma_mkt[warm:]
    q_prev = np.array(
        [expanding_quantile(monthly.sigma_mkt[:i], config.vol_quantile) for i in range(warm, n)]
    )
    s = ((r <= config.return_cutoff) | (sigma >= q_prev)).astype(np.int64)
    return LabelSeries(
        months=list(months), r_mkt=r.copy(), sigma_mkt=sigma.copy(), q_prev=q_prev, s=s,
    )
