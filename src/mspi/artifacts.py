"""CSV artifact writers and readers.

Every artifact embeds the config hash: CSV files carry a leading
``# config_hash=<sha256>`` comment line (skipped by ``textio.read_rows``,
which every reader here goes through, and by panel ingestion), JSON files
carry a ``config_hash`` field (``textio.write_json``). Floats are written
with ``repr`` so values round-trip exactly and identical inputs produce
byte-identical files. Each CSV's columns are named once, in the constants
below or the modules that own them.

The writers of the panel, the market series and the features, and the
reader of the features, import the module that owns their columns when
called, so a stage loads only the modules of the artifacts it handles.

``labels.csv``'s ``Y_next`` restates the next row's ``S`` (``read_labels``
checks it), and ``forecasts.csv`` carries each month's outcomes for its
readers, but ``read_forecasts`` reads back only the scores and pairs them
with the labels again (``ForecastSeries.from_labels``).
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .labels import ForecastSeries, LabelSeries
from .textio import finite_cell, open_output, parse_month, read_rows

if TYPE_CHECKING:
    from .features import FeatureMatrix
    from .panel import MarketSeries
    from .simulate import SimOutput

LABEL_COLUMNS = ["month", "R_mkt", "sigma_mkt", "q_prev", "S", "Y_next"]
FORECAST_COLUMNS = ["month", "model", "raw_score", "probability", "y_next", "next_vol",
                    "next_ret"]


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return ""
        return repr(v)
    return str(v)


def write_csv(path: Path, header: list[str], rows, config_hash: str):
    with open_output(path) as fh:
        fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _indicator_cell(path: Path, line: int, column: str, token: str) -> int:
    if token not in ("0", "1"):
        raise DataError(f"{path}: line {line}, column {column!r}: expected 0 or 1, got {token!r}")
    return int(token)


def _months(path: Path, lines: list[int], rows: list[dict[str, str]]) -> list[str]:
    """The month column; DataError names the first month out of format or order."""
    for line, r in zip(lines, rows):
        parse_month(r["month"], f"{path}: line {line}, column 'month'")
    return _increasing(path, lines, [r["month"] for r in rows])


def _increasing(path: Path, lines: list[int], keys: list) -> list:
    """``keys``; DataError names the first line whose key does not follow the one before."""
    for line, prev, key in zip(lines[1:], keys, keys[1:]):
        if key <= prev:
            raise DataError(f"{path}: line {line}: {key} does not come after {prev}")
    return keys


# ---------------------------------------------------------------------------
# Simulation outputs (panel/market in the ingestion contract).

def _float_tokens(values: np.ndarray) -> list[str]:
    """``repr`` of every value, NaN as an empty field (as ``_fmt`` writes them)."""
    tokens = list(map(repr, values.tolist()))
    if np.isnan(values).any():
        tokens = ["" if t == "nan" else t for t in tokens]
    return tokens


def write_panel_csv(path: Path, sim: SimOutput, config_hash: str):
    """Write the simulated panel as ``sim.months`` draws it, one month's
    (day × stock) block at a time, formatting each column of a day's rows in
    one pass. This exhausts ``sim.months``, which completes ``sim.market``
    and ``sim.true_regime``.

    Every stock is on every day under its ``security_ids`` id, its share
    count is formatted once, and every row carries both eligibility flags 1.
    The bytes equal those ``write_csv`` writes for the per-row tuples.
    """
    from .panel import PANEL_COLUMNS
    from .simulate import security_ids

    ids = security_ids(sim.shrout.size)
    tails = [f"{s},1,1" for s in _float_tokens(sim.shrout)]  # shrout, shrcd_ok, exchcd_ok
    with open_output(path) as fh:
        fh.write(f"# config_hash={config_hash}\n{','.join(PANEL_COLUMNS)}\n")
        for days, *block in sim.months:
            for day, ret, prc, vol in zip(days, *block):
                columns = ([day.isoformat()] * len(ids), ids, _float_tokens(ret),
                           _float_tokens(prc), _float_tokens(vol), tails)
                fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_market_csv(path: Path, market: MarketSeries, config_hash: str):
    from .panel import MARKET_COLUMNS

    rows = ((d.isoformat(), r) for d, r in zip(market.dates, market.mkt_ret))
    write_csv(path, MARKET_COLUMNS, rows, config_hash)


# ---------------------------------------------------------------------------
# Calendar, features, labels.

def write_calendar_csv(path: Path, dates: list[dt.date], config_hash: str):
    write_csv(path, ["date"], ((d.isoformat(),) for d in dates), config_hash)


def read_calendar(path: Path) -> list[dt.date]:
    """The trading calendar; an unparsable date, or one that does not come
    after the date before it, raises DataError naming its line."""
    lines, rows = read_rows(path, ["date"])
    dates: list[dt.date] = []
    for line, r in zip(lines, rows):
        try:
            dates.append(dt.date.fromisoformat(r["date"]))
        except ValueError:
            raise DataError(f"{path}: line {line}, column 'date': "
                            f"expected an ISO date, got {r['date']!r}") from None
    if not dates:
        raise DataError(f"{path}: no trading days")
    return _increasing(path, lines, dates)


def write_features_csv(path: Path, features: FeatureMatrix, config_hash: str):
    from .features import FEATURE_NAMES

    rows = (
        (month, *features.values[i]) for i, month in enumerate(features.months)
    )
    write_csv(path, ["month", *FEATURE_NAMES], rows, config_hash)


def read_features(path: Path) -> FeatureMatrix:
    """The feature matrix; a ragged row, a blank, unparsable or non-finite
    feature cell or a malformed or out-of-order month raises DataError naming
    its line."""
    from .features import FEATURE_NAMES, FeatureMatrix

    lines, rows = read_rows(path, ["month", *FEATURE_NAMES])
    months = _months(path, lines, rows)
    values = np.array([[finite_cell(path, line, c, r[c]) for c in FEATURE_NAMES]
                       for line, r in zip(lines, rows)])
    return FeatureMatrix(months=months, values=values)


def _next_states(s: np.ndarray) -> list[str]:
    """The Y_next cell of each labels.csv row: the next row's S, blank on the last."""
    return [*map(str, s[1:].tolist()), ""]


def write_labels_csv(path: Path, labels: LabelSeries, config_hash: str):
    rows = zip(labels.months, labels.r_mkt, labels.sigma_mkt, labels.q_prev,
               labels.s.tolist(), _next_states(labels.s))
    write_csv(path, LABEL_COLUMNS, rows, config_hash)


def read_labels(path: Path) -> LabelSeries:
    """The label series; a ragged row, a blank, unparsable or non-finite
    R_mkt, sigma_mkt or q_prev cell, an S other than 0 or 1, a Y_next other
    than the next row's S (blank on the last row), or a malformed or
    out-of-order month raises DataError naming its line."""
    lines, rows = read_rows(path, LABEL_COLUMNS)

    def finite(column):
        return np.array([finite_cell(path, line, column, r[column])
                         for line, r in zip(lines, rows)])

    months = _months(path, lines, rows)
    r_mkt, sigma_mkt, q_prev = map(finite, ("R_mkt", "sigma_mkt", "q_prev"))
    s = np.array([_indicator_cell(path, line, "S", r["S"]) for line, r in zip(lines, rows)],
                 dtype=np.int64)
    for line, r, want in zip(lines, rows, _next_states(s)):
        if r["Y_next"] != want:
            raise DataError(f"{path}: line {line}, column 'Y_next': expected {want!r} (the "
                            f"next row's S, blank on the last row), got {r['Y_next']!r}")
    return LabelSeries(months, r_mkt, sigma_mkt, q_prev, s)


# ---------------------------------------------------------------------------
# Forecasts.

def write_forecasts_csv(path: Path, forecasts: ForecastSeries, config_hash: str):
    def rows():
        for j, month in enumerate(forecasts.months):
            for model in forecasts.models:
                yield (
                    month, model, forecasts.raw[model][j], forecasts.prob[model][j],
                    "" if math.isnan(forecasts.y_next[j]) else int(forecasts.y_next[j]),
                    forecasts.next_vol[j], forecasts.next_ret[j],
                )

    write_csv(path, FORECAST_COLUMNS, rows(), config_hash)


def read_forecasts(path: Path, labels: LabelSeries) -> ForecastSeries:
    """Rebuild a ForecastSeries from the month, model, raw_score and
    probability columns of forecasts.csv; the label series pairs each month
    with its outcomes and controls (``ForecastSeries.from_labels``).

    Every (month, model) cell must appear exactly once with a finite raw
    score and a probability in [0, 1], and each month must be the labeled
    month after the one before it; a duplicate or missing cell, a month the
    labels lack or one out of order raises DataError naming it.
    """
    cells: dict[tuple[str, str], tuple[int, dict]] = {}
    for line, r in zip(*read_rows(path, FORECAST_COLUMNS[:4])):  # the labels give the rest
        key = (r["month"], r["model"])
        if key in cells:
            raise DataError(f"{path}: duplicate row for month {key[0]} model {key[1]}")
        cells[key] = line, r
    months = list(dict.fromkeys(m for m, _ in cells))
    models = list(dict.fromkeys(k for _, k in cells))
    absent = [(m, k) for m in months for k in models if (m, k) not in cells]
    if absent:
        raise DataError(
            f"{path}: {len(absent)} (month, model) cells have no row, "
            f"first month {absent[0][0]} model {absent[0][1]}"
        )

    label_pos = {m: i for i, m in enumerate(labels.months)}
    missing = [m for m in months if m not in label_pos]
    if missing:
        raise DataError(f"{path}: forecast months missing from labels: {missing[:5]}")
    positions = [label_pos[m] for m in months]
    for month, prev, i, i_prev in zip(months[1:], months, positions[1:], positions):
        if i != i_prev + 1:
            raise DataError(f"{path}: line {cells[month, models[0]][0]}: {month} is not the "
                            f"labeled month after {prev}")

    def scores(column: str) -> dict[str, np.ndarray]:
        def cell(m: str, k: str) -> float:
            line, r = cells[m, k]
            value = finite_cell(path, line, column, r[column])
            if column == "probability" and not 0.0 <= value <= 1.0:
                raise DataError(f"{path}: line {line}, column {column!r}: "
                                f"expected a probability in [0, 1], got {r[column]!r}")
            return value

        return {k: np.array([cell(m, k) for m in months]) for k in models}

    return ForecastSeries.from_labels(labels, positions, models, scores("raw_score"),
                                      scores("probability"))
