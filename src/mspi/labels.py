"""Real-time stress labels.

Monthly market returns are compounded from daily index returns; realized
volatility is the within-month sample standard deviation annualized by
sqrt(252). A month is a stress month when the return breaches a fixed
downside cutoff or realized volatility reaches the expanding quantile of
all volatility observed through the previous month. Months without enough
quantile history are excluded from the modeling sample. The cutoff, the
quantile and the history length are the constants ``RETURN_CUTOFF``,
``VOL_QUANTILE`` and ``MIN_HISTORY_MONTHS``; the stage applies them, and
only tests pass ``label_stress`` other values.

``ForecastSeries`` pairs each forecast month with the outcomes the labels
give it. ``backtest`` makes it and ``artifacts.read_forecasts`` rebuilds it,
so the stages that read forecasts load neither the backtest nor its learners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError

if TYPE_CHECKING:
    from .panel import MarketSeries, MonthPartition

ANNUALIZATION = math.sqrt(252.0)
RETURN_CUTOFF = -0.05
VOL_QUANTILE = 0.90
MIN_HISTORY_MONTHS = 36


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


@dataclass
class ForecastSeries:
    """Out-of-sample forecasts for every model, plus aligned realizations."""

    months: list[str]
    models: tuple[str, ...]
    raw: dict[str, np.ndarray]
    prob: dict[str, np.ndarray]
    y_next: np.ndarray
    next_vol: np.ndarray
    next_ret: np.ndarray
    r_mkt: np.ndarray
    sigma_mkt: np.ndarray

    @classmethod
    def from_labels(cls, labels: LabelSeries, positions, models, raw: dict[str, np.ndarray],
                    prob: dict[str, np.ndarray]) -> ForecastSeries:
        """The forecasts made at the label months ``positions``, each month t
        paired with its outcomes: y_next = S_{t+1}, and next_vol and next_ret,
        month t+1's realized volatility and return, all NaN at the last
        labeled month; r_mkt and sigma_mkt are month t's."""
        idx = np.asarray(positions, dtype=np.int64)

        def ahead(values: np.ndarray) -> np.ndarray:
            return np.append(values, np.nan)[idx + 1]

        return cls(
            months=[labels.months[i] for i in idx.tolist()], models=tuple(models),
            raw=raw, prob=prob, y_next=ahead(labels.s), next_vol=ahead(labels.sigma_mkt),
            next_ret=ahead(labels.r_mkt), r_mkt=labels.r_mkt[idx],
            sigma_mkt=labels.sigma_mkt[idx],
        )

    def observed_mask(self) -> np.ndarray:
        return np.isfinite(self.y_next)


def market_controls(series) -> np.ndarray:
    """Month t's market return and realized volatility, one row per month of a
    ``LabelSeries`` or ``ForecastSeries``: l2's features, the regressions' controls."""
    return np.column_stack([series.r_mkt, series.sigma_mkt])


def build_market_monthly(market: MarketSeries, partition: MonthPartition
                         ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``(months, r_mkt, sigma_mkt)``: each partition month's compounded
    market return and the annualized sample std (ddof=1) of its daily returns."""
    r_mkt, sigma_mkt = [], []
    bounds = partition.starts.tolist()
    for month, a, b in zip(partition.months, bounds, bounds[1:]):
        rets = market.mkt_ret[partition.market_rows[a:b]]
        if rets.shape[0] < 2:
            raise DataError(f"month {month} has a single trading day; volatility undefined")
        r_mkt.append(float(np.prod(1.0 + rets) - 1.0))
        sigma_mkt.append(float(np.std(rets, ddof=1) * ANNUALIZATION))
    return list(partition.months), np.array(r_mkt), np.array(sigma_mkt)


def expanding_quantile(history: np.ndarray, alpha: float) -> float:
    """Linear-interpolation quantile of the history seen so far.

    Position (n-1)*alpha between order statistics, the common convention.
    """
    if history.shape[0] == 0:
        raise DataError("empty history for expanding quantile")
    return float(np.quantile(history, alpha, method="linear"))


def label_stress(months: list[str], r_mkt: np.ndarray, sigma_mkt: np.ndarray,
                 return_cutoff: float = RETURN_CUTOFF, vol_quantile: float = VOL_QUANTILE,
                 min_history_months: int = MIN_HISTORY_MONTHS) -> LabelSeries:
    """Label stress months in real time.

    Month at index i is labeled once i >= min_history_months, using the
    ``vol_quantile`` quantile of sigma_mkt over indices [0, i) — all
    volatility through the previous month. S = 1 iff r_mkt <= return_cutoff
    or sigma_mkt >= that quantile.
    """
    warm = min_history_months
    n = len(months)
    if n <= warm:
        raise DataError(
            f"need more than {warm} months of history to label stress, got {n}"
        )
    r = r_mkt[warm:]
    sigma = sigma_mkt[warm:]
    q_prev = np.array(
        [expanding_quantile(sigma_mkt[:i], vol_quantile) for i in range(warm, n)]
    )
    s = ((r <= return_cutoff) | (sigma >= q_prev)).astype(np.int64)
    return LabelSeries(
        months=list(months[warm:]), r_mkt=r.copy(), sigma_mkt=sigma.copy(), q_prev=q_prev, s=s,
    )
