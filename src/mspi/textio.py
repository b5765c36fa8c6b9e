"""Text files on the standard library alone: opening an input, reading a
headered CSV or a JSON artifact, and writing a stage's outputs as one unit.

Every reader raises ``DataError`` naming the file and, where there is one,
the line and column; a stage's outputs, not each writer, raise
``ConfigError`` naming the file that could not be written. ``report`` reads
and writes through this module only, so it runs without NumPy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
from collections.abc import Iterator
from pathlib import Path

from .errors import ConfigError, DataError

BIN_COLUMNS = ["model", "bin_lo", "bin_hi", "n", "mean_prob", "stress_rate", "next_vol",
               "next_ret"]


# ---------------------------------------------------------------------------
# Reading.

@contextlib.contextmanager
def open_text(path) -> Iterator[io.TextIOWrapper]:
    """``path`` opened as UTF-8 text, CSV or JSON, past a byte-order mark
    if it starts with one (as Excel writes); a missing file, a
    directory, any other failure to open it (a path through a regular file,
    no permission), bytes that are not UTF-8 or a CSV field over
    ``csv.field_size_limit()`` raise DataError naming it, and so does every
    DataError raised while it is open. An OSError raised while it is open
    (a failed write elsewhere, say) is not the input's and propagates."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot be read: {exc.strerror}") from None
    try:
        with fh:
            yield fh
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def read_header(reader, required: list[str]) -> tuple[dict[str, int], int]:
    """Column positions and width from the first non-comment row of a CSV
    reader; a required column missing from it, or named twice, raises
    DataError."""
    for header in reader:
        if header and not header[0].startswith("#"):
            break
    else:
        raise DataError("empty file")
    names = [name.strip() for name in header]
    repeated = [c for c in required if names.count(c) > 1]
    if repeated:
        raise DataError(f"header names column {repeated[0]!r} more than once")
    index = {name: i for i, name in enumerate(names)}
    missing = [c for c in required if c not in index]
    if missing:
        raise DataError(f"header is missing columns {missing}")
    return index, len(header)


def read_rows(path, required: list[str]) -> tuple[list[int], list[dict[str, str]]]:
    """Line numbers and rows (dicts of the required columns) of a headered
    CSV, skipping comment and blank lines. A missing or unreadable file, a missing
    column or a row with more or fewer fields than the header raises DataError."""
    lines, rows = [], []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        index, width = read_header(reader, required)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) != width:
                raise DataError(f"line {reader.line_num}: {len(row)} fields, "
                                f"the header has {width}")
            lines.append(reader.line_num)
            rows.append({c: row[index[c]] for c in required})
    return lines, rows


def finite_cell(path: Path, line: int, column: str, token: str) -> float:
    """The number in a CSV cell; DataError placing it unless it is finite."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"{path}: line {line}, column {column!r}: "
                        f"expected a finite number, got {token!r}")
    return value


def parse_month(key: str, at: str) -> tuple[int, int]:
    """(year, month) of a 'YYYY-MM' bucket; DataError placed by ``at`` otherwise."""
    if not re.fullmatch(r"[0-9]{4}-(0[1-9]|1[0-2])", key):
        raise DataError(f"{at}: expected a month YYYY-MM, got {key!r}")
    return int(key[:4]), int(key[5:])


def read_bins(path: Path) -> list[dict[str, str]]:
    """bins.csv's rows as written; a bin edge that is not a finite number, or
    another number cell neither blank nor finite, raises DataError naming its
    line and column."""
    lines, rows = read_rows(path, BIN_COLUMNS)
    for line, r in zip(lines, rows):
        for column in BIN_COLUMNS[1:3] + [c for c in BIN_COLUMNS[4:] if r[c]]:
            finite_cell(path, line, column, r[column])
    return rows


def read_json(path: Path, spec: dict) -> dict:
    """A JSON artifact's object; DataError names the file when it cannot be
    opened as text (``open_text``) or parsed as JSON, and the first key at
    which it does not fit ``spec``."""
    with open_text(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"not a UTF-8 JSON file: {exc}") from None
    _check_json(path, payload, spec)
    return payload


_JSON_KINDS = {dict: "object", list: "array", float: "number", str: "string"}


def _check_json(path: Path, value, spec, key: str = ""):
    """Check ``value``, found at ``key``, against ``spec``: a dict of the keys
    an object holds (``"*"``: each of its keys) and their specs, a one-item
    list of the spec of each item of an array, ``float`` for a number, ``str``
    for a string, or None for any value. An object's keys are all checked
    for presence before any value."""
    if spec is None:
        return
    kind = type(spec) if isinstance(spec, (dict, list)) else spec
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        at = f"key {key!r}: " if key else ""
        raise DataError(f"{path}: {at}expected a JSON {_JSON_KINDS[kind]}, "
                        f"got {type(value).__name__}")
    if kind is list:
        spec, value = {"*": spec[0]}, dict(enumerate(value))
    elif kind is not dict:
        return
    prefix = f"{key}." if key else ""
    missing = [name for name in spec if name != "*" and name not in value]
    if missing:
        raise DataError(f"{path}: no key {prefix + missing[0]!r}")
    for name, sub in spec.items():
        for k in value if name == "*" else [name]:
            _check_json(path, value[k], sub, f"{prefix}{k}")


# ---------------------------------------------------------------------------
# Writing.

@contextlib.contextmanager
def staged_outputs(out: Path):
    """A stage's outputs as one unit: ``stage(name)`` gives the path
    ``<out>/<name>.partial`` to write ``<out>/<name>`` at. Once the block
    succeeded, the staged files move onto their names, the first staged
    last. Any exception removes every ``.partial`` file (a directory at a
    ``.partial`` name stays), and an OSError (a directory in the place of an
    output, say) raises ConfigError naming the file being moved, else the
    last one staged."""
    staged: list[Path] = []

    def stage(name: str) -> Path:
        staged.append(out / name)
        return Path(f"{staged[-1]}.partial")

    moving = None
    try:
        yield stage
        for moving in reversed(staged):
            os.replace(f"{moving}.partial", moving)
    except OSError as exc:
        if not staged:  # not a write
            raise
        raise ConfigError(f"cannot write {moving or staged[-1]}: {exc.strerror}") from None
    finally:
        for path in staged:
            with contextlib.suppress(OSError):  # gone, or a directory: leave it
                Path(f"{path}.partial").unlink()


def open_output(path: Path):
    """``path`` opened for writing as UTF-8 text."""
    return open(path, "w", encoding="utf-8", newline="")


def write_json(path: Path, payload: dict, config_hash: str):
    """A JSON artifact: ``payload`` with its ``config_hash`` field."""
    with open_output(path) as fh:
        fh.write(json.dumps({**payload, "config_hash": config_hash}, indent=2, sort_keys=True)
                 + "\n")
