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
CLI carry a ``# config_hash=...`` first line). ``textio.read_rows`` reads
the market series and every small headered artifact; the panel has its own
chunked reader below. Every ``DataError`` the panel and market loaders
raise starts with the file's path.

The panel is read in chunks of about 256 KB, and each chunk is tokenised
into a flat list of fields and each row's line number: by ``str.split``
unless a line holds a quote, NUL or bare carriage return, or is blank, a
comment, ragged or over ``csv``'s field limit, and by ``csv.reader``
otherwise. Both feed one column pass, the one definition of what a row
means: each float column in one ``float`` pass, dates and flags once per
distinct token, the drop reasons as masks, and dates and security ids as
integer codes, so no per-row Python object outlives its chunk. A chunk with
a malformed field is passed again one row at a time, to raise the
``DataError`` naming the first such field's line and column.

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

import csv
import datetime as dt
import functools
import io
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .textio import open_text, read_header, read_rows

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


# ``at`` places a token in its file for an error message, "<path>: line 7";
# the panel's column pass gives "" and its caller adds the line.

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


def _float_column(tokens: list[str], column: str) -> np.ndarray:
    """``float`` of every token, blank and whitespace-only ones as NaN.

    Two passes at C speed, the tokens as they are and then with empty ones
    as ``"nan"``, take nearly every column; only a column both reject is
    parsed token by token, which raises DataError naming a malformed token.
    """
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        pass
    try:
        return np.fromiter(map(float, [t or "nan" for t in tokens]), float, len(tokens))
    except ValueError:  # a whitespace-only or malformed token
        stripped = [t.strip() for t in tokens]
        return np.fromiter((_parse_float(t, "", column) if t else math.nan for t in stripped),
                           float, len(tokens))


class _PanelColumns:
    """The parsed and filtered columns of one panel file, built chunk by chunk
    (``add_chunk``): ``split_fields`` or else ``read_fields`` tokenises a
    chunk, ``convert`` turns its fields into columns and ``keep`` spills the
    rows that pass.

    Dates are kept as proleptic ordinals and security ids as codes; the token
    caches map each distinct raw token to its parsed value once.
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

    def add_chunk(self, text: str, fh, line_base: int) -> int:
        """Tokenise, convert and keep a chunk of whole lines that ``line_base``
        lines precede; returns its line count, lines taken from ``fh`` included.
        Its fields go on return, so no two chunks' fields are held at once."""
        fields, lines, n_lines = (self.split_fields(text, line_base)
                                  or self.read_fields(text, fh, line_base))
        self.keep(self.convert(fields, lines))
        return n_lines

    def split_fields(self, text: str, line_base: int) -> tuple[list[str], range, int] | None:
        """(fields, row line numbers, line count) of a chunk of whole lines,
        split at commas and newlines, where ``line_base`` lines precede it;
        None when ``csv`` could read a line differently (module docstring).
        """
        if '"' in text or "\0" in text:
            return None
        if "\r" in text:
            text = text.replace("\r\n", "\n")
            if "\r" in text:
                return None
        if text.endswith("\n"):
            text = text[:-1]
        if text.startswith("#") or "\n#" in text:
            return None
        lines = text.split("\n")
        if (not all(lines)
                or set(map(str.count, lines, [","] * len(lines))) != {self.width - 1}
                or max(map(len, lines)) > csv.field_size_limit()):
            return None
        n = len(lines)
        return text.replace("\n", ",").split(","), range(line_base + 1, line_base + n + 1), n

    def read_fields(self, text: str, fh, line_base: int) -> tuple[list[str], list[int], int]:
        """(fields, row line numbers, line count) of a chunk by ``csv.reader``,
        past comment and blank lines; a quoted field open at the chunk's end
        is completed from ``fh``, and its lines are counted. A ragged row or a
        field over the ``csv`` limit raises only once the rows before it are
        converted, so that a malformed field on an earlier line wins."""
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
        fields, rows = [], []
        try:
            for row in reader:
                record_done = True
                if not row or row[0].startswith("#"):
                    continue
                line = line_base + reader.line_num
                if len(row) != self.width:
                    raise DataError(f"line {line}: expected {self.width} fields, found {len(row)}")
                fields += row
                rows.append(line)
        except DataError:
            self.convert(fields, rows)
            raise
        except csv.Error as exc:
            self.convert(fields, rows)
            raise DataError(f"line {line_base + reader.line_num}: {exc}") from None
        return fields, rows, reader.line_num

    def convert(self, fields: list[str], lines: Sequence[int]) -> list[np.ndarray]:
        """The columns of the rows given by their fields and line numbers;
        DataError names the line and column of the first malformed field in
        file order, found by converting one row at a time once the column
        pass has failed."""
        try:
            return self._columns(fields, len(lines))
        except DataError:
            width = self.width
            for i, line in enumerate(lines):
                try:
                    self._columns(fields[i * width:(i + 1) * width], 1)
                except DataError as exc:
                    raise DataError(f"line {line}{exc}") from None
            raise

    def _columns(self, fields: list[str], n: int) -> list[np.ndarray]:
        """(day, sec, ret, prc, vol, shrout, share_ok, exch_ok) of ``n`` rows.

        Blank and whitespace-only numeric fields become NaN. The checks run
        in a row's order (date, security_id, the two flags, the four numbers,
        then the signs of vol and shrout), each raising DataError(", column
        '<name>': ...") for the first column it rejects.
        """
        width = self.width

        def column(name: str) -> list[str]:
            return fields[self.index[name]::width]

        day_tokens = column("date")
        for token in set(day_tokens).difference(self._day_tokens):
            self._day_tokens[token] = _parse_date(token, "", "date").toordinal()
        sec_tokens = column("security_id")
        for token in set(sec_tokens).difference(self._sec_tokens):
            sec = token.strip()
            if not sec:
                raise DataError(", column 'security_id': empty identifier")
            self._sec_tokens[token] = self._sec_codes.setdefault(sec, len(self._sec_codes))

        def flags(name: str) -> np.ndarray:
            tokens = column(name)
            for token in set(tokens).difference(self._flag_tokens):
                self._flag_tokens[token] = _parse_bool(token, "", name)
            return np.fromiter(map(self._flag_tokens.__getitem__, tokens), bool, n)

        share_ok, exch_ok = flags("shrcd_ok"), flags("exchcd_ok")
        ret, prc, vol, shrout = (_float_column(column(name), name) for name in _VALUE_FIELDS)
        for name, values, what in (("vol", vol, "volume"), ("shrout", shrout, "shares outstanding")):
            negative = values < 0
            if negative.any():
                raise DataError(f", column '{name}': negative {what} {float(values[negative][0])}")
        return [
            np.fromiter(map(self._day_tokens.__getitem__, day_tokens), np.int64, n),
            np.fromiter(map(self._sec_tokens.__getitem__, sec_tokens), np.int64, n),
            ret, prc, vol, shrout, share_ok, exch_ok,
        ]

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

    def years(self, whole: bool = False) -> Iterator[DailyPanel]:
        """Each calendar year's rows as a ``DailyPanel``, in calendar order;
        with ``whole``, one ``DailyPanel`` of every row.

        Raises DataError for an empty panel, or for a security id repeated
        within a date when its year is reached. The iterator holds no year
        once it has handed it on.
        """
        if not self.summary.rows_kept:
            raise DataError("empty panel after filtering")
        names = sorted(self._sec_codes)
        rank = np.empty(len(names), dtype=np.int64)
        rank[[self._sec_codes[name] for name in names]] = np.arange(len(names))
        blocks = self.spill.years()
        if whole:
            blocks = [np.concatenate(list(blocks))]
        return map(functools.partial(_year_panel, rank=rank, names=names), blocks)


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
    ``textio.open_text`` for a file that cannot be read as CSV text).

    The kept rows are spilled to one temporary file per calendar year (about
    48 bytes a row under ``TMPDIR``), then each year is loaded, sorted and
    checked for duplicate ids in calendar order. With ``reduce_year`` the
    result is ``[reduce_year(year) for year in years]``, so peak memory
    scales with one year's panel plus one chunk; without it (no stage loads
    that way), every kept row is sorted into one whole ``DailyPanel``.
    """
    summary = IngestSummary()
    with open_text(path) as fh, _YearSpill() as spill:
        reader = csv.reader(iter(fh.readline, ""))
        index, width = read_header(reader, PANEL_COLUMNS)
        columns = _PanelColumns(index, width, filt, summary, spill)
        line_base = reader.line_num
        while text := fh.read(_CHUNK_CHARS):
            if not text.endswith("\n"):
                text += fh.readline()
            line_base += columns.add_chunk(text, fh, line_base)
        if reduce_year is None:
            return next(columns.years(whole=True)), summary
        return list(map(reduce_year, columns.years())), summary


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
