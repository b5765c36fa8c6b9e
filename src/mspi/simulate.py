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

Every stock trades on every day, so each month of the panel is a block:
(day × stock) arrays of returns, prices and volumes, beside one share count
per stock. ``simulate`` draws the per-stock attributes and returns; it
draws each month only when its caller takes it from ``SimOutput.months``,
and ``artifacts.write_panel_csv`` writes each month as it comes. So the
stage holds one month of the panel, never the whole (day × stock) block,
and the market series and regimes are complete once the months are drawn.

All randomness comes from a single PCG64 generator seeded from the config,
so identical configs produce bit-identical output on any platform.
"""

from __future__ import annotations

import calendar
import datetime as dt
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .numpy_parts import numpy_random
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
    """The simulated calendar, share counts, market series and per-month
    ground-truth regime, and ``months``, the panel as a one-shot stream.

    ``months`` yields each calendar month's ``(dates, ret, prc, vol)``: its
    trading days and its (day × stock) returns, prices and volumes. Drawing
    a month fills its days of ``market.mkt_ret`` (NaN until then) and its
    ``true_regime`` entry, so both are complete only once ``months`` is
    exhausted; a ``market.csv`` written earlier has blank returns, which
    ``panel.load_market_series`` rejects.
    """

    dates: list[dt.date]
    shrout: np.ndarray  # one per stock, constant over time
    market: MarketSeries
    true_regime: dict[str, bool]
    months: Iterator[tuple]


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
    ``config.PipelineConfig``, which imports this module; every setting is
    read here, before the first month is drawn."""
    nprandom = numpy_random()
    rng = nprandom.Generator(nprandom.PCG64(config.seed))
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
    market = MarketSeries(list(dates), np.full(len(dates), np.nan))
    true_regime: dict[str, bool] = {}
    p_calm_to_stress = config.sim_p_calm_to_stress
    p_stress_to_calm = config.sim_p_stress_to_calm

    def draw_months():
        # each month's regime, then its days' market return, idiosyncratic
        # returns, jumps and volumes, in that order from rng
        price = prices
        stress = False
        d = 0
        for m, days in enumerate(calendar_days):
            if m > 0:
                u = rng.random()
                stress = u >= p_stress_to_calm if stress else u < p_calm_to_stress
            true_regime[month_key(days[0])] = stress
            params = STRESS if stress else CALM

            ret, prc, vol = (np.empty((len(days), n)) for _ in range(3))
            for i in range(len(days)):
                mkt_ret = params.mkt_drift + params.mkt_vol * rng.standard_normal()
                idio = params.dispersion * rng.standard_normal(n)
                jumps = rng.random(n) < params.tail_prob
                ret[i] = mkt_ret + idio + np.where(jumps, JUMP_RETURN, 0.0)
                price = np.maximum(1.0, price * (1.0 + ret[i]))
                prc[i] = price
                market.mkt_ret[d] = mkt_ret
                vol[i] = np.round(
                    base_volume * params.volume_scale * np.exp(0.5 * rng.standard_normal(n))
                )
                d += 1
            yield days, ret, prc, vol

    return SimOutput(dates, shrout, market, true_regime, draw_months())


def security_ids(n_stocks: int) -> list[str]:
    """Deterministic zero-padded ids whose lexicographic order matches index order."""
    width = max(4, len(str(n_stocks - 1)))
    return [f"S{i:0{width}d}" for i in range(n_stocks)]
