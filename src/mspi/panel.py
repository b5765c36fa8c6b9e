"""Daily stock panel and market index ingestion.

CSV contracts (UTF-8, comma-delimited, ISO-8601 dates, decimal returns):

    panel:  date,security_id,ret,prc,vol,shrout,shrcd_ok,exchcd_ok
    market: date,mkt_ret

A row is kept when ``ret`` and ``prc`` are present, ``|prc|`` is at least
the filter's ``min_abs_price`` and both flags are true; each dropped row is
counted under the first of these it fails. The flags say whether the row's
share class and exchange are eligible: an export without that information
writes ``1``.

Lines starting with ``#`` are treated as comments (artifacts written by the
CLI carry a ``# config_hash=...`` first line). ``read_rows`` reads the
market series and every small headered artifact; the panel has its own
chunked reader below. Every ``DataError`` the panel and market loaders
raise starts with the file's path.

The panel is read in chunks of about 256 KB and parsed column by column:
each float column in one ``float`` pass, dates and flags once per distinct
token, the drop reasons as masks, and dates and security ids as integer
codes, so no per-row Python object outlives its chunk. A chunk the column
pass cannot take as it is (a quote character, a blank, comment or ragged
line, or a token that fails to parse) is parsed again row by row by
``_parse_panel_row``, the one definition of what a row means: it raises the
``DataError`` naming the line and column, or returns the same values. The
contract and the loaded panel do not depend on which path a chunk took.

Each chunk's kept rows are appended, as 48-byte records, to one spill file
per calendar year in a ``tempfile.TemporaryDirectory``, so a load needs
about 48 bytes of temporary space per kept row under ``TMPDIR``; the
directory is removed when the load returns or raises. After the last chunk
the years are read back one at a time in calendar order, sorted, checked
for duplicate ids and handed to the caller's reducer, so peak memory scales
with one year plus one chunk whatever the file's row order. Every parse
error is raised before any year is read, and a duplicate in an earlier year
before one in a later year.

The loaded panel is columnar: one array per field (``ret``, ``prc``,
``vol``, ``shrout``) holding every retained observation in (date,
security_id) order, plus the sorted ``dates`` and day
offsets ``starts``, so day i is rows ``starts[i]:starts[i+1]``. Sorting by
security id within each date fixes the order of every downstream
accumulation, so results are bit-reproducible regardless of input row
order. A ``MonthPartition`` holds month offsets into those days and each
day's row in the market series.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import functools
import io
import math
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, DataError

PANEL_COLUMNS = ["date", "security_id", "ret", "prc", "vol", "shrout", "shrcd_ok", "exchcd_ok"]
MARKET_COLUMNS = ["date", "mkt_ret"]

_TRUE_TOKENS = {"1", "true", "t", "yes"}
_FALSE_TOKENS = {"0", "false", "f", "no"}
_CHUNK_CHARS = 1 << 18  # characters read per panel chunk, extended to the end of its last line
# One spilled row, 48 bytes: the date as a proleptic ordinal, the security
# id as its code in order of first appearance, then the DailyPanel fields.
_SPILL_ROW = np.dtype([("day", np.int64), ("sec", np.int64), ("ret", float), ("prc", float),
                       ("vol", float), ("shrout", float)])
_VALUE_FIELDS = _SPILL_ROW.names[2:]


def month_key(day: dt.date) -> str:
    """Calendar year-month bucket of a date, e.g. '2008-09'."""
    return f"{day.year:04d}-{day.month:02d}"


def parse_month(key: str, at: str) -> tuple[int, int]:
    """(year, month) of a 'YYYY-MM' bucket; DataError placed by ``at`` otherwise."""
    if not re.fullmatch(r"[0-9]{4}-(0[1-9]|1[0-2])", key):
        raise DataError(f"{at}: expected a month YYYY-MM, got {key!r}")
    return int(key[:4]), int(key[5:])


@dataclass(frozen=True)
class EligibilityFilter:
    """Row filter applied at ingest: the price floor (``features`` applies
    the default). Both flags always count; a row must carry both as true."""

    min_abs_price: float = 1.0

    def __post_init__(self):
        if self.min_abs_price < 0:
            raise ConfigError(f"min_abs_price must be >= 0, got {self.min_abs_price}")


@dataclass(frozen=True)
class DailyPanel:
    """Filtered daily panel: one array per field, rows in (date, security_id)
    order; day i is rows ``starts[i]:starts[i+1]``.

    ``vol`` and ``shrout`` hold NaN where the source field was missing; such
    rows still contribute to return-based statistics.
    """

    dates: list[dt.date]
    starts: np.ndarray  # len(dates) + 1 row offsets
    ret: np.ndarray
    prc: np.ndarray
    vol: np.ndarray
    shrout: np.ndarray

    @property
    def total_observations(self) -> int:
        return int(self.starts[-1])


@dataclass(frozen=True)
class MarketSeries:
    """Daily value-weighted market index returns, strictly increasing dates."""

    dates: list[dt.date]
    mkt_ret: np.ndarray


@dataclass(frozen=True)
class MonthPartition:
    """Calendar year-month buckets of the panel's trading days.

    Month j is panel days ``starts[j]:starts[j+1]``; ``market_rows[i]`` is
    the row of panel day i in the market series.
    """

    months: list[str]
    starts: np.ndarray  # len(months) + 1 day offsets
    market_rows: np.ndarray


@dataclass
class IngestSummary:
    """Row accounting for one panel load."""

    rows_read: int = 0
    rows_kept: int = 0
    dropped: dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str, count: int):
        if count:
            self.dropped[reason] = self.dropped.get(reason, 0) + count

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "rows_dropped": dict(sorted(self.dropped.items())),
        }


# ``at`` places a token in its file for an error message: "line 7".

def _parse_bool(token: str, at: str, column: str) -> bool:
    low = token.strip().lower()
    if low in _TRUE_TOKENS:
        return True
    if low in _FALSE_TOKENS:
        return False
    raise DataError(f"{at}, column '{column}': cannot parse boolean from {token!r}")


def _parse_date(token: str, at: str, column: str) -> dt.date:
    try:
        return dt.date.fromisoformat(token.strip())
    except ValueError as exc:
        raise DataError(f"{at}, column '{column}': {exc}") from None


def _parse_float(token: str, at: str, column: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"{at}, column '{column}': cannot parse number from {token!r}") from None


def _read_header(reader, required: list[str]) -> tuple[dict[str, int], int]:
    """Column positions and width from the first non-comment row of a CSV reader."""
    for header in reader:
        if header and not header[0].startswith("#"):
            break
    else:
        raise DataError("empty file")
    index = {name.strip(): i for i, name in enumerate(header)}
    missing = [c for c in required if c not in index]
    if missing:
        raise DataError(f"header is missing columns {missing}")
    return index, len(header)


@contextlib.contextmanager
def open_text(path) -> Iterator[io.TextIOWrapper]:
    """``path`` opened as UTF-8 text, CSV or JSON; a missing file, a
    directory, bytes that are not UTF-8 or a CSV field over
    ``csv.field_size_limit()`` raise DataError naming it, and so does every
    DataError raised while it is open."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def read_rows(path, required: list[str]) -> tuple[list[int], list[dict[str, str]]]:
    """Line numbers and rows (dicts of the required columns) of a headered
    CSV, skipping comment and blank lines. A missing or unreadable file, a missing
    column or a row with more or fewer fields than the header raises DataError."""
    lines, rows = [], []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        index, width = _read_header(reader, required)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) != width:
                raise DataError(f"line {reader.line_num}: {len(row)} fields, "
                                f"the header has {width}")
            lines.append(reader.line_num)
            rows.append({c: row[index[c]] for c in required})
    return lines, rows


def _parse_panel_row(line: int, row: dict[str, str]) -> tuple:
    """One panel row as (day, security_id, ret, prc, vol, shrout, share_ok, exch_ok).

    Blank return, price, volume and share fields become NaN. Raises DataError
    naming the line and column for a malformed field, an empty identifier or
    a negative volume or share count.
    """
    at = f"line {line}"
    day = _parse_date(row["date"], at, "date")
    sec = row["security_id"].strip()
    if not sec:
        raise DataError(f"{at}, column 'security_id': empty identifier")
    share_ok = _parse_bool(row["shrcd_ok"], at, "shrcd_ok")
    exch_ok = _parse_bool(row["exchcd_ok"], at, "exchcd_ok")

    ret_tok = row["ret"].strip()
    prc_tok = row["prc"].strip()
    ret = _parse_float(ret_tok, at, "ret") if ret_tok else math.nan
    prc = _parse_float(prc_tok, at, "prc") if prc_tok else math.nan

    vol_tok = row["vol"].strip()
    shrout_tok = row["shrout"].strip()
    vol = _parse_float(vol_tok, at, "vol") if vol_tok else math.nan
    shrout = _parse_float(shrout_tok, at, "shrout") if shrout_tok else math.nan
    if not math.isnan(vol) and vol < 0:
        raise DataError(f"{at}, column 'vol': negative volume {vol}")
    if not math.isnan(shrout) and shrout < 0:
        raise DataError(f"{at}, column 'shrout': negative shares outstanding {shrout}")
    return day, sec, ret, prc, vol, shrout, share_ok, exch_ok


def _float_column(tokens: list[str]) -> np.ndarray:
    """``float`` of every token, empty tokens as NaN.

    Raises ValueError for any other token ``float`` rejects, a
    whitespace-only one included: ``parse_rowwise`` then names it or reads it
    as NaN.
    """
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:  # an empty token
        return np.fromiter(map(float, [t or "nan" for t in tokens]), float, len(tokens))


class _PanelColumns:
    """The parsed and filtered columns of one panel file, built chunk by chunk.

    Dates are kept as proleptic ordinals and security ids as codes in order
    of first appearance; the token caches map each distinct raw token to its
    parsed value once. The kept rows go to ``spill``.
    """

    def __init__(self, index: dict[str, int], width: int, filt: EligibilityFilter,
                 summary: IngestSummary, spill: _YearSpill):
        self.index = index
        self.width = width
        self.filt = filt
        self.summary = summary
        self.spill = spill
        self._sec_codes: dict[str, int] = {}
        self._sec_tokens: dict[str, int] = {}
        self._day_tokens: dict[str, int] = {}
        self._flag_tokens: dict[str, bool] = {}

    def parse_columnar(self, text: str) -> tuple[list[np.ndarray], int]:
        """(columns, line count) of a chunk of whole lines, column by column.

        Raises ValueError or DataError where the row-by-row parse could
        differ; the chunk must then go through ``parse_rowwise``.
        """
        if '"' in text or "\0" in text:
            raise ValueError("quoted or NUL field")
        if "\r" in text:
            text = text.replace("\r\n", "\n")
            if "\r" in text:
                raise ValueError("bare carriage return")
        if text.endswith("\n"):
            text = text[:-1]
        if text.startswith("#") or "\n#" in text:
            raise ValueError("comment line")
        lines = text.split("\n")
        width = self.width
        if (not all(lines)
                or set(map(str.count, lines, [","] * len(lines))) != {width - 1}
                or max(map(len, lines)) > csv.field_size_limit()):
            raise ValueError("blank, ragged or oversized line")
        n = len(lines)
        fields = text.replace("\n", ",").split(",")

        def column(name: str) -> list[str]:
            return fields[self.index[name]::width]

        day_tokens = column("date")
        for token in set(day_tokens).difference(self._day_tokens):
            self._day_tokens[token] = _parse_date(token, "", "date").toordinal()
        sec_tokens = column("security_id")
        for token in set(sec_tokens).difference(self._sec_tokens):
            sec = token.strip()
            if not sec:
                raise ValueError("empty identifier")
            self._sec_tokens[token] = self._sec_codes.setdefault(sec, len(self._sec_codes))

        def flags(name: str) -> np.ndarray:
            tokens = column(name)
            for token in set(tokens).difference(self._flag_tokens):
                self._flag_tokens[token] = _parse_bool(token, "", name)
            return np.fromiter(map(self._flag_tokens.__getitem__, tokens), bool, n)

        vol = _float_column(column("vol"))
        shrout = _float_column(column("shrout"))
        if np.any(vol < 0) or np.any(shrout < 0):
            raise ValueError("negative volume or shares outstanding")
        return [
            np.fromiter(map(self._day_tokens.__getitem__, day_tokens), np.int64, n),
            np.fromiter(map(self._sec_tokens.__getitem__, sec_tokens), np.int64, n),
            _float_column(column("ret")),
            _float_column(column("prc")),
            vol,
            shrout,
            flags("shrcd_ok"),
            flags("exchcd_ok"),
        ], n

    def parse_rowwise(self, text: str, fh, line_base: int) -> tuple[list[np.ndarray], int]:
        """(columns, line count) of a chunk, parsed row by row.

        ``line_base`` is the number of lines before the chunk. A quoted field
        left open at the end of the chunk is completed from ``fh``; the line
        count includes the lines taken from it.
        """
        record_done = True

        def lines():
            nonlocal record_done
            for line in io.StringIO(text, newline=""):
                record_done = False
                yield line
            while not record_done:
                line = fh.readline()
                if not line:
                    return
                yield line

        reader = csv.reader(lines())
        rows = []
        for row in reader:
            record_done = True
            if not row or row[0].startswith("#"):
                continue
            line = line_base + reader.line_num
            if len(row) != self.width:
                raise DataError(
                    f"line {line}: expected {self.width} fields, found {len(row)}"
                )
            rows.append(_parse_panel_row(line, {c: row[self.index[c]] for c in PANEL_COLUMNS}))
        codes = self._sec_codes
        columns = [
            np.array([r[0].toordinal() for r in rows], dtype=np.int64),
            np.array([codes.setdefault(r[1], len(codes)) for r in rows], dtype=np.int64),
        ]
        columns += [np.array([r[k] for r in rows], dtype=float) for k in range(2, 6)]
        columns += [np.array([r[k] for r in rows], dtype=bool) for k in (6, 7)]
        return columns, reader.line_num

    def keep(self, columns: list[np.ndarray]):
        """Count the chunk's rows and drop reasons; spill the rows that pass."""
        day, sec, ret, prc, vol, shrout, share_ok, exch_ok = columns
        reasons = [
            ("missing_ret", ~np.isfinite(ret)),
            ("missing_prc", ~np.isfinite(prc)),
            ("price_below_min", np.abs(prc) < self.filt.min_abs_price),
            ("share_class", ~share_ok),
            ("exchange", ~exch_ok),
        ]
        kept = np.ones(ret.shape[0], dtype=bool)
        for reason, bad in reasons:
            bad &= kept  # each row counts under its first reason only
            self.summary.drop(reason, int(np.count_nonzero(bad)))
            kept &= ~bad
        n_kept = int(np.count_nonzero(kept))
        self.summary.rows_read += ret.shape[0]
        self.summary.rows_kept += n_kept
        rows = np.empty(n_kept, _SPILL_ROW)
        for name, column in zip(_SPILL_ROW.names, (day, sec, ret, prc, vol, shrout)):
            rows[name] = column[kept]  # masking the records instead is twice as slow
        self.spill.append(rows)

    def years(self) -> Iterator[DailyPanel]:
        """Each calendar year's rows as a ``DailyPanel``, in calendar order.

        Raises DataError for an empty panel, or for a security id repeated
        within a date when its year is reached. The iterator holds no year
        once it has handed it on.
        """
        if not self.summary.rows_kept:
            raise DataError("empty panel after filtering")
        names = sorted(self._sec_codes)
        rank = np.empty(len(names), dtype=np.int64)
        rank[[self._sec_codes[name] for name in names]] = np.arange(len(names))
        return map(functools.partial(_year_panel, rank=rank, names=names), self.spill.years())


def _year_panel(rows: np.ndarray, rank: np.ndarray, names: list[str]) -> DailyPanel:
    """Spilled rows sorted by (date, security_id), where ``rank`` maps a
    security code to its id's place in ``names``; rejects duplicate ids
    within a date."""
    sec = rank[rows["sec"]]
    order = np.lexsort((sec, rows["day"]))
    rows, sec = rows[order], sec[order]
    day = rows["day"]
    same = (day[1:] == day[:-1]) & (sec[1:] == sec[:-1])
    if same.any():
        i = int(np.argmax(same))
        raise DataError(
            f"duplicate security_id {names[sec[i]]!r} on "
            f"{dt.date.fromordinal(int(day[i])).isoformat()}"
        )
    starts = np.flatnonzero(np.diff(day, prepend=-1, append=-1))
    dates = [dt.date.fromordinal(o) for o in day[starts[:-1]].tolist()]
    return DailyPanel(dates, starts, *(np.ascontiguousarray(rows[name]) for name in _VALUE_FIELDS))


def _concatenate(blocks: list[DailyPanel]) -> DailyPanel:
    """The panel of consecutive blocks of days, joined in order."""
    offsets = np.cumsum([0] + [block.total_observations for block in blocks])
    starts = [block.starts[:-1] + offset for block, offset in zip(blocks, offsets.tolist())]
    return DailyPanel(
        [day for block in blocks for day in block.dates],
        np.concatenate(starts + [offsets[-1:]]),
        *(np.concatenate([getattr(block, name) for block in blocks]) for name in _VALUE_FIELDS),
    )


class _YearSpill:
    """Spill rows appended to one file per calendar year in a temporary
    directory and read back one year at a time; leaving the ``with`` block
    removes the directory."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory(prefix="mspi-panel-")
        self._files: dict[int, io.BufferedWriter] = {}

    def __enter__(self) -> _YearSpill:
        return self

    def __exit__(self, *exc):
        for fh in self._files.values():
            fh.close()
        self._dir.cleanup()

    def append(self, rows: np.ndarray):
        """Append each row to the file of its calendar year."""
        day = rows["day"]
        if not day.shape[0]:
            return
        first, last = (dt.date.fromordinal(int(o)).year for o in (day.min(), day.max()))
        bounds = [dt.date(y, 1, 1).toordinal() for y in range(first + 1, last + 1)]
        year = first + np.searchsorted(bounds, day, side="right")
        for y in range(first, last + 1):
            part = rows[year == y] if first < last else rows
            if part.shape[0]:
                fh = self._files.get(y)
                if fh is None:
                    fh = self._files[y] = open(os.path.join(self._dir.name, str(y)), "wb")
                fh.write(part)

    def years(self) -> Iterator[np.ndarray]:
        """Each year's rows in the order they were appended, in calendar order."""
        for fh in self._files.values():
            fh.close()
        for y in sorted(self._files):
            yield np.fromfile(self._files[y].name, _SPILL_ROW)


def load_daily_panel(
    path: str, filt: EligibilityFilter, reduce_year: Callable[[DailyPanel], object] | None = None
) -> tuple[DailyPanel | list, IngestSummary]:
    """Load and filter the daily panel CSV.

    Rows are dropped (and counted per reason) when the return or price is
    missing/non-finite, |price| is below the filter floor, or a required
    eligibility flag is false. Missing volume/shares fields are kept as NaN.
    Malformed rows raise DataError naming the file, line and column (see
    ``open_text`` for a file that cannot be read as CSV text).

    The kept rows are spilled to one temporary file per calendar year (about
    48 bytes a row under ``TMPDIR``), then each year is loaded, sorted and
    checked for duplicate ids in calendar order. With ``reduce_year`` the
    result is ``[reduce_year(year) for year in years]``, so peak memory
    scales with one year's panel plus one chunk; without it (no stage loads
    that way), the years are joined into the whole ``DailyPanel``.
    """
    summary = IngestSummary()
    with open_text(path) as fh, _YearSpill() as spill:
        reader = csv.reader(iter(fh.readline, ""))
        index, width = _read_header(reader, PANEL_COLUMNS)
        columns = _PanelColumns(index, width, filt, summary, spill)
        line_base = reader.line_num
        while text := fh.read(_CHUNK_CHARS):
            if not text.endswith("\n"):
                text += fh.readline()
            try:
                chunk, n_lines = columns.parse_columnar(text)
            except (ValueError, DataError):
                chunk, n_lines = columns.parse_rowwise(text, fh, line_base)
            line_base += n_lines
            columns.keep(chunk)
        if reduce_year is not None:
            return list(map(reduce_year, columns.years())), summary
        return _concatenate(list(columns.years())), summary


def load_market_series(path: str) -> MarketSeries:
    """Load the daily market index series; rejects duplicates and non-finite returns."""
    rows: list[tuple[dt.date, float]] = []
    seen: set[dt.date] = set()
    for line, row in zip(*read_rows(path, MARKET_COLUMNS)):
        at = f"{path}: line {line}"
        day = _parse_date(row["date"], at, "date")
        ret = _parse_float(row["mkt_ret"], at, "mkt_ret")
        if not math.isfinite(ret):
            raise DataError(f"{at}, column 'mkt_ret': non-finite return {ret!r}")
        if day in seen:
            raise DataError(f"{at}: duplicate date {day.isoformat()}")
        seen.add(day)
        rows.append((day, ret))
    if not rows:
        raise DataError(f"{path}: empty series")
    rows.sort(key=lambda r: r[0])
    return MarketSeries(dates=[r[0] for r in rows], mkt_ret=np.array([r[1] for r in rows]))


def partition_months(dates: list[dt.date], market: MarketSeries) -> MonthPartition:
    """Bucket the panel's trading days (``DailyPanel.dates``, or the
    calendar ``features`` writes) into calendar months.

    The market calendar may be a superset of the panel calendar, but every
    panel date must appear in it.
    """
    market_row = {d: i for i, d in enumerate(market.dates)}
    missing = [d for d in dates if d not in market_row]
    if missing:
        shown = ", ".join(d.isoformat() for d in missing[:5])
        raise DataError(f"{len(missing)} panel date(s) absent from market calendar: {shown}")
    keys = [month_key(d) for d in dates]
    starts = [i for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    return MonthPartition(
        months=[keys[i] for i in starts],
        starts=np.array(starts + [len(keys)]),
        market_rows=np.array([market_row[d] for d in dates]),
    )
