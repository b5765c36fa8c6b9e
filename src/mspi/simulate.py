"""Seeded regime-switching market simulator.

Generates a daily stock panel, a market index series, and per-month
ground-truth regimes so the whole pipeline can be exercised without
proprietary data. The monthly regime follows a two-state Markov chain
(calm/stress) that switches at month boundaries only. Daily stock returns
are a market factor plus idiosyncratic noise with regime-dependent
dispersion, plus a regime-dependent chance of a -8% jump per stock-day.

The calendar starts in January 1980 and each month trades on its first 21
weekdays; the two regimes' dynamics are the constants ``CALM`` and
``STRESS``. ``config.PipelineConfig`` sets the seed and the ``sim_`` fields:
the size and the transition probabilities.

Every stock trades on every day, so the panel is a block: (day × stock)
arrays of returns, prices and volumes and one share count per stock, which
``artifacts.write_panel_csv`` writes as they are.

All randomness comes from a single PCG64 generator seeded from the config,
so identical configs produce bit-identical output on any platform.
"""

from __future__ import annotations

import calendar
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .panel import MarketSeries, month_key

JUMP_RETURN = -0.08
START_YEAR = 1980
TRADING_DAYS_PER_MONTH = 21


@dataclass(frozen=True)
class RegimeParams:
    """Per-day dynamics within one regime."""

    mkt_drift: float
    mkt_vol: float
    dispersion: float
    tail_prob: float
    volume_scale: float


CALM = RegimeParams(
    mkt_drift=0.0005, mkt_vol=0.0075, dispersion=0.015, tail_prob=0.003, volume_scale=1.0
)
STRESS = RegimeParams(
    mkt_drift=-0.003, mkt_vol=0.022, dispersion=0.035, tail_prob=0.05, volume_scale=1.8
)


@dataclass(frozen=True)
class SimOutput:
    """Simulated panel block, market series, and per-month ground-truth regime."""

    dates: list[dt.date]
    ret: np.ndarray  # (day, stock)
    prc: np.ndarray  # (day, stock)
    vol: np.ndarray  # (day, stock)
    shrout: np.ndarray  # one per stock, constant over time
    market: MarketSeries
    true_regime: dict[str, bool]


def _trading_days(year: int, month: int) -> list[dt.date]:
    """First ``TRADING_DAYS_PER_MONTH`` weekdays of the calendar month."""
    days = [
        dt.date(year, month, d)
        for d in range(1, calendar.monthrange(year, month)[1] + 1)
        if dt.date(year, month, d).weekday() < 5
    ]
    return days[:TRADING_DAYS_PER_MONTH]


def simulate(config) -> SimOutput:
    """Run the simulation described in the module docstring. ``config`` is a
    ``config.PipelineConfig``, which imports this module."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = config.sim_n_stocks

    # Static per-stock attributes. Prices are floored at $1 later so the
    # default eligibility filter never drops a synthetic row.
    prices = np.exp(rng.normal(np.log(30.0), 0.8, size=n))
    shrout = np.round(np.exp(rng.normal(np.log(2e7), 1.0, size=n)))
    base_volume = np.exp(rng.normal(np.log(1e5), 0.7, size=n))

    calendar_days = [
        _trading_days(START_YEAR + m // 12, m % 12 + 1)
        for m in range(config.sim_n_years * 12)
    ]
    dates = [day for days in calendar_days for day in days]
    ret = np.empty((len(dates), n))
    prc = np.empty((len(dates), n))
    vol = np.empty((len(dates), n))
    mkt = np.empty(len(dates))
    true_regime: dict[str, bool] = {}

    stress = False
    d = 0
    for m, days in enumerate(calendar_days):
        if m > 0:
            u = rng.random()
            stress = (u >= config.sim_p_stress_to_calm if stress
                      else u < config.sim_p_calm_to_stress)
        true_regime[month_key(days[0])] = stress
        params = STRESS if stress else CALM

        for _ in days:
            mkt_ret = params.mkt_drift + params.mkt_vol * rng.standard_normal()
            idio = params.dispersion * rng.standard_normal(n)
            jumps = rng.random(n) < params.tail_prob
            ret[d] = mkt_ret + idio + np.where(jumps, JUMP_RETURN, 0.0)
            prices = np.maximum(1.0, prices * (1.0 + ret[d]))
            prc[d] = prices
            mkt[d] = mkt_ret
            vol[d] = np.round(
                base_volume * params.volume_scale * np.exp(0.5 * rng.standard_normal(n))
            )
            d += 1

    return SimOutput(dates, ret, prc, vol, shrout, MarketSeries(list(dates), mkt), true_regime)


def security_ids(n_stocks: int) -> list[str]:
    """Deterministic zero-padded ids whose lexicographic order matches index order."""
    width = max(4, len(str(n_stocks - 1)))
    return [f"S{i:0{width}d}" for i in range(n_stocks)]
