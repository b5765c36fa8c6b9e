"""Writes the panel-dirty inputs: a daily panel CSV shaped like a real export.

The file has the defects of a real export:

* rows are written security-major (per stock, then date), not date-sorted;
* about 2% of rows carry each drop reason, one reason per row: blank ret,
  blank prc, |prc| < 1, shrcd_ok false, exchcd_ok false;
* some kept rows have a blank vol or shrout;
* some kept rows carry a negative price with |prc| >= 1 (a bid/ask midpoint);
* boolean flags use mixed tokens (1/true/T/YES, 0/false/F/no, ...).

A fixed scenario seed draws the market (calendar, regimes, returns, prices,
volumes), the rows that are dropped and the blank volumes, so the rows that
survive ingest, and with them the ingest and learning work, are the same for
every benchmark seed. The benchmark seed draws which drop reason each dropped
row carries, the |prc| < 1 values, which kept prices are negative and every
flag token.

``write_dirty_inputs`` returns the exact count injected for each drop reason,
keyed by the reason names the ingest summary uses.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

SCENARIO_SEED = 20260207
DROP_SHARE = 0.02
BLANK_VOLUME_SHARE = 0.01
NEGATIVE_PRICE_SHARE = 0.05
DROP_REASONS = ("missing_ret", "missing_prc", "price_below_min", "share_class", "exchange")
TRUE_TOKENS = ("1", "true", "True", "T", "t", "yes", "YES", "TRUE")
FALSE_TOKENS = ("0", "false", "False", "F", "f", "no", "NO", "FALSE")

# (drift, market vol, dispersion, jump probability, volume scale) per regime
_CALM = (0.0005, 0.0075, 0.015, 0.003, 1.0)
_STRESS = (-0.003, 0.022, 0.035, 0.05, 1.8)
_P_CALM_TO_STRESS = 0.07
_P_STRESS_TO_CALM = 0.30
_JUMP = -0.08


def _weekdays(start_year: int, n_years: int) -> list[dt.date]:
    day = dt.date(start_year, 1, 1)
    end = dt.date(start_year + n_years, 1, 1)
    out = []
    while day < end:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def _scenario(rng, n_stocks: int, n_years: int, start_year: int):
    """Clean daily market: dates, market returns, and (day, stock) arrays."""
    dates = _weekdays(start_year, n_years)
    n_days = len(dates)
    month_of_day = np.array([(d.year - start_year) * 12 + d.month - 1 for d in dates])
    stress = np.zeros(n_years * 12, dtype=bool)
    for m in range(1, stress.shape[0]):
        u = rng.random()
        stress[m] = u >= _P_STRESS_TO_CALM if stress[m - 1] else u < _P_CALM_TO_STRESS
    params = np.where(stress[month_of_day][:, None], np.array(_STRESS), np.array(_CALM))
    drift, mkt_vol, disp, tail, vscale = params.T

    mkt = drift + mkt_vol * rng.standard_normal(n_days)
    jumps = rng.random((n_days, n_stocks)) < tail[:, None]
    ret = (mkt[:, None] + disp[:, None] * rng.standard_normal((n_days, n_stocks))
           + np.where(jumps, _JUMP, 0.0))
    start = np.exp(rng.normal(np.log(30.0), 0.8, size=n_stocks))
    prc = np.maximum(1.0, start * np.cumprod(1.0 + ret, axis=0))
    base_volume = np.exp(rng.normal(np.log(1e5), 0.7, size=n_stocks))
    vol = np.round(base_volume * vscale[:, None]
                   * np.exp(0.5 * rng.standard_normal((n_days, n_stocks))))
    shrout = np.round(np.exp(rng.normal(np.log(2e4), 1.0, size=n_stocks)))
    return dates, mkt, ret, prc, vol, np.broadcast_to(shrout, ret.shape)


def write_dirty_inputs(out_dir: Path, seed: int, n_stocks: int, n_years: int,
                       start_year: int = 1990) -> dict[str, int]:
    """Write ``panel.csv`` and ``market.csv`` into ``out_dir``.

    Returns the injected count per drop reason.
    """
    scenario = np.random.default_rng(SCENARIO_SEED)
    dates, mkt, ret, prc, vol, shrout = _scenario(scenario, n_stocks, n_years, start_year)
    n_days = len(dates)
    n_rows = n_days * n_stocks
    # Row r is stock r // n_days on day r % n_days (security-major order).
    k = round(DROP_SHARE * n_rows)
    dropped = scenario.choice(n_rows, size=k * len(DROP_REASONS), replace=False)
    kept = np.ones(n_rows, dtype=bool)
    kept[dropped] = False
    blank_vol = kept & (scenario.random(n_rows) < BLANK_VOLUME_SHARE)
    blank_shrout = kept & (scenario.random(n_rows) < BLANK_VOLUME_SHARE)

    rng = np.random.default_rng([seed, 0x6469727479])
    reason = np.full(n_rows, -1)
    reason[rng.permutation(dropped)] = np.repeat(np.arange(len(DROP_REASONS)), k)
    negative = kept & (rng.random(n_rows) < NEGATIVE_PRICE_SHARE)
    low_price = rng.uniform(0.05, 0.95, size=n_rows) * np.where(rng.random(n_rows) < 0.5, -1, 1)
    share_tok = rng.integers(0, len(TRUE_TOKENS), size=n_rows)
    exch_tok = rng.integers(0, len(TRUE_TOKENS), size=n_rows)
    false_tok = rng.integers(0, len(FALSE_TOKENS), size=n_rows)

    iso = [d.isoformat() for d in dates]
    width = max(4, len(str(n_stocks - 1)))
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "panel.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("date,security_id,ret,prc,vol,shrout,shrcd_ok,exchcd_ok\n")
        r = 0
        for s in range(n_stocks):
            sec = f"P{s:0{width}d}"
            for d in range(n_days):
                why = reason[r]
                ret_s = "" if why == 0 else f"{ret[d, s]:.6f}"
                if why == 1:
                    prc_s = ""
                elif why == 2:
                    prc_s = f"{low_price[r]:.4f}"
                else:
                    prc_s = f"{-prc[d, s] if negative[r] else prc[d, s]:.4f}"
                vol_s = "" if blank_vol[r] else f"{vol[d, s]:.0f}"
                shrout_s = "" if blank_shrout[r] else f"{shrout[d, s]:.0f}"
                share_s = FALSE_TOKENS[false_tok[r]] if why == 3 else TRUE_TOKENS[share_tok[r]]
                exch_s = FALSE_TOKENS[false_tok[r]] if why == 4 else TRUE_TOKENS[exch_tok[r]]
                fh.write(f"{iso[d]},{sec},{ret_s},{prc_s},{vol_s},{shrout_s},{share_s},{exch_s}\n")
                r += 1
    with open(out_dir / "market.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("date,mkt_ret\n")
        for d in range(n_days):
            fh.write(f"{iso[d]},{mkt[d]:.8f}\n")
    return {name: k for name in DROP_REASONS}
