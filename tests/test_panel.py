import csv
import datetime as dt
import tempfile
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import mspi.panel
from mspi.artifacts import write_panel_csv
from mspi.config import PipelineConfig
from mspi.errors import DataError
from mspi.features import DailyStats, compute_daily_stats
from mspi.panel import (
    EligibilityFilter,
    load_daily_panel,
    load_market_series,
    month_key,
    partition_months,
)
from mspi.simulate import simulate

from .oracles import load_daily_panel_rowwise

PANEL_HEADER = "date,security_id,ret,prc,vol,shrout,shrcd_ok,exchcd_ok\n"
FIELDS = ("ret", "prc", "vol", "shrout")


def write_panel(tmp_path, rows, name="panel.csv"):
    path = tmp_path / name
    path.write_text(PANEL_HEADER + "".join(r + "\n" for r in rows), encoding="utf-8")
    return str(path)


def write_market(tmp_path, rows, name="market.csv"):
    path = tmp_path / name
    path.write_text("date,mkt_ret\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return str(path)


class TestLoadDailyPanel:
    def test_price_below_min_dropped(self, tmp_path):
        path = write_panel(tmp_path, [
            "2001-01-02,A,0.01,0.50,100,1000,1,1",
            "2001-01-02,B,0.01,5.00,100,1000,1,1",
        ])
        panel, summary = load_daily_panel(path, EligibilityFilter(min_abs_price=1.0))
        assert panel.dates == [dt.date(2001, 1, 2)] and panel.starts.tolist() == [0, 1]
        assert summary.dropped["price_below_min"] == 1

    def test_missing_ret_dropped(self, tmp_path):
        path = write_panel(tmp_path, [
            "2001-01-02,A,,5.00,100,1000,1,1",
            "2001-01-02,B,0.01,5.00,100,1000,1,1",
        ])
        panel, summary = load_daily_panel(path, EligibilityFilter())
        assert summary.dropped["missing_ret"] == 1
        assert panel.total_observations == 1

    def test_n_d_counts_valid_rows(self, tmp_path):
        path = write_panel(tmp_path, [
            "2001-01-02,A,0.01,5.00,100,1000,1,1",
            "2001-01-02,B,-0.02,6.00,100,1000,1,1",
            "2001-01-02,C,0.03,7.00,100,1000,1,1",
        ])
        panel, summary = load_daily_panel(path, EligibilityFilter())
        assert panel.dates == [dt.date(2001, 1, 2)] and panel.starts.tolist() == [0, 3]
        assert summary.rows_kept == 3

    def test_negative_price_uses_absolute_value(self, tmp_path):
        path = write_panel(tmp_path, ["2001-01-02,A,0.01,-5.00,100,1000,1,1"])
        panel, _ = load_daily_panel(path, EligibilityFilter(min_abs_price=1.0))
        assert panel.total_observations == 1

    def test_flag_filters(self, tmp_path):
        path = write_panel(tmp_path, [
            "2001-01-02,A,0.01,5.00,100,1000,0,1",
            "2001-01-02,B,0.01,5.00,100,1000,1,0",
            "2001-01-02,C,0.01,5.00,100,1000,1,1",
        ])
        _, summary = load_daily_panel(path, EligibilityFilter())
        assert summary.dropped == {"share_class": 1, "exchange": 1}

    def test_malformed_row_names_line_and_column(self, tmp_path):
        path = write_panel(tmp_path, ["2001-01-02,A,zap,5.00,100,1000,1,1"])
        with pytest.raises(DataError) as info:
            load_daily_panel(path, EligibilityFilter())
        assert str(info.value) == f"{path}: line 2, column 'ret': cannot parse number from 'zap'"

    def test_required_column_named_twice_is_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_HEADER.replace("\n", ",ret\n")
                        + "2001-01-02,A,0.01,5.00,100,1000,1,1,0.9\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_daily_panel(str(path), EligibilityFilter())
        assert str(info.value) == f"{path}: header names column 'ret' more than once"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        rows = ["2001-01-02,A,0.01,5.00,100,1000,1,1", "2001-01-03,A,0.02,5.00,,1000,1,1"]
        plain = write_panel(tmp_path, rows)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "panel.csv").read_bytes())
        panel, summary = load_daily_panel(plain, EligibilityFilter())
        marked_panel, marked_summary = load_daily_panel(str(marked), EligibilityFilter())
        assert marked_panel.dates == panel.dates and marked_summary == summary
        for name in FIELDS:
            assert getattr(marked_panel, name).tobytes() == getattr(panel, name).tobytes()

    def test_empty_after_filter_is_error(self, tmp_path):
        path = write_panel(tmp_path, ["2001-01-02,A,0.01,0.10,100,1000,1,1"])
        with pytest.raises(DataError) as info:
            load_daily_panel(path, EligibilityFilter())
        assert str(info.value) == f"{path}: empty panel after filtering"

    def test_missing_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError) as info:
            load_daily_panel(str(path), EligibilityFilter())
        assert str(info.value) == f"missing file: {path}"

    def test_missing_volume_kept_as_nan(self, tmp_path):
        path = write_panel(tmp_path, ["2001-01-02,A,0.01,5.00,,,1,1"])
        panel, _ = load_daily_panel(path, EligibilityFilter())
        assert np.isnan(panel.vol[0]) and np.isnan(panel.shrout[0])

    def test_duplicate_security_on_date_rejected(self, tmp_path):
        path = write_panel(tmp_path, [
            "2001-01-02,A,0.01,5.00,100,1000,1,1",
            "2001-01-02,A,0.02,5.00,100,1000,1,1",
        ])
        with pytest.raises(DataError) as info:
            load_daily_panel(path, EligibilityFilter())
        assert str(info.value) == f"{path}: duplicate security_id 'A' on 2001-01-02"

    def test_filter_idempotent(self, tmp_path):
        path = write_panel(tmp_path, [
            "2001-01-02,A,0.01,5.00,100,1000,1,1",
            "2001-01-02,B,0.01,0.50,100,1000,1,1",
            "2001-01-03,C,0.01,5.00,100,1000,0,1",
            "2001-01-03,D,0.01,5.00,100,1000,1,1",
        ])
        filt = EligibilityFilter()
        panel, _ = load_daily_panel(path, filt)
        # the kept rows, A on the first day and D on the second, written back
        values = zip(*(getattr(panel, name).tolist() for name in FIELDS))
        kept = write_panel(tmp_path, [
            f"{day.isoformat()},{sid},{','.join(map(repr, row))},1,1"
            for day, sid, row in zip(panel.dates, "AD", values)
        ], name="kept.csv")
        reloaded, summary = load_daily_panel(kept, filt)
        assert summary.dropped == {}
        assert reloaded.total_observations == panel.total_observations == 2
        for name in FIELDS:
            assert getattr(reloaded, name).tobytes() == getattr(panel, name).tobytes(), name

    def test_sum_of_counts_equals_total(self, tmp_path):
        rows = [
            f"2001-01-{2+d:02d},{sec},0.01,{2+i}.0,100,1000,1,1"
            for d in range(3)
            for i, sec in enumerate("ABCD"[: d + 2])
        ]
        panel, summary = load_daily_panel(write_panel(tmp_path, rows), EligibilityFilter())
        assert np.diff(panel.starts).tolist() == [2, 3, 4]
        assert panel.total_observations == summary.rows_kept == 9


def messy_panel_lines(rng, n_stocks: int, n_days: int) -> list[str]:
    """Body lines shaped like a real export, one stock after another.

    Stocks come in shuffled order. Rows carry blank and whitespace-only
    fields, padded ids, mixed-case flag tokens, negative and sub-$1 prices,
    non-finite values and a share count that repeats within each stock; a few ids and returns are quoted (some returns
    over two physical lines), and comment and blank lines sit in the body.
    """
    dates = [(dt.date(2001, 1, 1) + dt.timedelta(days=i)).isoformat() for i in range(n_days)]
    true_tokens = ["1", "true", "True", "T", "t", "yes", " YES ", "TRUE"]
    false_tokens = ["0", "false", "F", "no", " No", "FALSE"]
    n = n_stocks * n_days
    ret = rng.normal(0.0, 0.02, n)
    prc = rng.uniform(0.2, 60.0, n) * np.where(rng.random(n) < 0.1, -1.0, 1.0)
    vol = np.round(rng.lognormal(9.0, 1.0, n))
    shrout = np.round(rng.lognormal(8.0, 1.0, n_stocks))  # one count per stock
    u = rng.random((n, 8))
    lines = []
    r = 0
    for s in rng.permutation(n_stocks):
        for day in dates:
            sec = f"X{s:04d}"
            if u[r, 0] < 0.02:
                sec = f" {sec} "
            elif u[r, 0] < 0.025:
                sec = f'"{sec}"'
            ret_s = repr(float(ret[r]))
            if u[r, 1] < 0.02:
                ret_s = ""
            elif u[r, 1] < 0.03:
                ret_s = "  "
            elif u[r, 1] < 0.035:
                ret_s = "nan"
            elif u[r, 1] < 0.04:
                ret_s = f'"{ret_s}\n"'
            prc_s = f"{prc[r]:.4f}" if u[r, 2] > 0.02 else ("" if u[r, 2] < 0.01 else "inf")
            vol_s = f"{vol[r]:.0f}"
            if u[r, 3] < 0.03:
                vol_s = ""
            elif u[r, 3] < 0.05:
                vol_s = "   "
            elif u[r, 3] < 0.06:
                vol_s = f" {vol_s} "
            shrout_s = f"{shrout[s]:.1f}" if u[r, 4] > 0.05 else ("" if u[r, 4] < 0.03 else " ")
            share = false_tokens[r % 6] if u[r, 5] < 0.03 else true_tokens[r % 8]
            exch = false_tokens[r % 5] if u[r, 6] < 0.03 else true_tokens[r % 7]
            lines.append(f"{day},{sec},{ret_s},{prc_s},{vol_s},{shrout_s},{share},{exch}")
            if u[r, 7] < 0.002:
                lines.append("# exported by a desk tool")
            elif u[r, 7] < 0.004:
                lines.append("")
            r += 1
    return lines


def write_lines(tmp_path, lines, ending="\n", name="panel.csv"):
    path = tmp_path / name
    text = "# source=test\n" + PANEL_HEADER + "".join(line + "\n" for line in lines)
    path.write_bytes(text.replace("\n", ending).encode("utf-8"))
    return str(path)


def assert_same_load(path, filt):
    """The chunked loader and the row-by-row oracle agree bit for bit."""
    panel, summary = load_daily_panel(path, filt)
    ref_panel, ref_summary = load_daily_panel_rowwise(path, filt)
    assert panel.dates == ref_panel.dates
    assert panel.starts.tolist() == ref_panel.starts.tolist()
    for name in FIELDS:
        a, b = getattr(panel, name), getattr(ref_panel, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert summary == ref_summary
    return summary


def years_panel_text(order: str) -> str:
    """A panel over four calendar years (1999-11 to 2002-08) whose days hold
    different numbers of stocks, some rows dropped, written date-sorted,
    security-major or shuffled."""
    rng = np.random.default_rng(4)
    lines = []
    for k in range(100):
        day = (dt.date(1999, 11, 1) + dt.timedelta(days=11 * k)).isoformat()
        for s in range(6):
            if (k + s) % 7 == 0:
                continue
            prc = "0.50" if (k * s) % 13 == 5 else f"{5 + s}.25"
            vol = "" if (k + 2 * s) % 11 == 0 else str(100 * (s + 1))
            lines.append(f"{day},S{s},{rng.normal(0.0, 0.03)!r},{prc},{vol},1000,1,1")
    if order == "security_major":
        lines.sort(key=lambda line: line.split(",")[1])  # stable: by date within a stock
    elif order == "shuffled":
        lines = [lines[i] for i in rng.permutation(len(lines))]
    return PANEL_HEADER + "".join(line + "\n" for line in lines)


def load_error(loader, path) -> str:
    with pytest.raises(DataError) as info:
        loader(path, EligibilityFilter())
    return str(info.value)


class TestChunkedLoad:
    """The chunked column-wise loader reproduces the row-by-row oracle."""

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_messy_panel_across_small_chunks(self, tmp_path, monkeypatch, ending):
        path = write_lines(tmp_path, messy_panel_lines(np.random.default_rng(1), 30, 120), ending)
        monkeypatch.setattr(mspi.panel, "_CHUNK_CHARS", 3000)
        summary = assert_same_load(path, EligibilityFilter())
        assert summary.rows_read == 3600
        assert set(summary.dropped) == {
            "missing_ret", "missing_prc", "price_below_min", "share_class", "exchange",
        }
        assert_same_load(path, EligibilityFilter(min_abs_price=0.0))

    def test_messy_panel_across_default_chunks(self, tmp_path):
        lines = messy_panel_lines(np.random.default_rng(2), 80, 500)
        path = write_lines(tmp_path, lines)
        assert (tmp_path / "panel.csv").stat().st_size > 2 * mspi.panel._CHUNK_CHARS
        assert_same_load(path, EligibilityFilter())

    def test_clean_chunks_take_the_columnar_path(self, tmp_path, monkeypatch):
        rows = [f"2001-01-{2 + d:02d},S{i:03d},0.01,{5 + i}.5,100,1000,1,1"
                for i in range(50) for d in range(20)]
        path = write_panel(tmp_path, rows)
        monkeypatch.setattr(mspi.panel, "_CHUNK_CHARS", 2000)

        def no_rowwise(*args):
            raise AssertionError("clean chunk read by csv")

        monkeypatch.setattr(mspi.panel._PanelColumns, "read_fields", no_rowwise)
        panel, summary = load_daily_panel(path, EligibilityFilter())
        assert summary.rows_kept == 1000 and len(panel.dates) == 20

        # empty return, volume and share cells are NaN on the column pass too
        rows = [row if i % 3 else ",".join(fields[:2] + ["", fields[3], "", ""] + fields[6:])
                for i, row in enumerate(rows) for fields in [row.split(",")]]
        path = write_panel(tmp_path, rows, name="blanks.csv")
        summary = assert_same_load(path, EligibilityFilter())
        assert summary.rows_read == 1000 and summary.dropped == {"missing_ret": 334}

    def test_padded_and_malformed_cells_stay_on_the_split_path(self, tmp_path, monkeypatch):
        rows = [f"2001-01-{2 + d:02d},S{i:03d},0.01,{5 + i}.5,{'  ' if i % 4 else 100},1000,1,1"
                for i in range(50) for d in range(20)]
        monkeypatch.setattr(mspi.panel, "_CHUNK_CHARS", 2000)

        def no_csv(*args):
            raise AssertionError("clean chunk read by csv")

        monkeypatch.setattr(mspi.panel._PanelColumns, "read_fields", no_csv)
        panel, summary = load_daily_panel(write_panel(tmp_path, rows), EligibilityFilter())
        assert summary.rows_kept == 1000 and np.isnan(panel.vol).sum() == 740
        rows[700] = rows[700].replace(",0.01,", ", zap ,")
        path = write_panel(tmp_path, rows, name="bad.csv")
        assert load_error(load_daily_panel, path) == (
            f"{path}: line 702, column 'ret': cannot parse number from 'zap'")

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("row, message", [
        ("2001-03-01,X0001,zap,5.00,100,1000,1,1",
         "line {line}, column 'ret': cannot parse number from 'zap'"),
        ("2001-03-01,X0001,0.01,5.00,-100,1000,1,1",
         "line {line}, column 'vol': negative volume -100.0"),
        ("2001-03-01,X0001,0.01,5.00,100,1000,maybe,1",
         "line {line}, column 'shrcd_ok': cannot parse boolean from 'maybe'"),
        ("2001-03-01,X0001,0.01,5.00,100,1000,1",
         "line {line}: expected 8 fields, found 7"),
        # a short line then a long one: the same number of fields in total
        ("2001-03-01,X0001,0.01,5.00,100,1000,1\n1,2001-03-01,X0002,0.01,5.00,100,1000,1,1",
         "line {line}: expected 8 fields, found 7"),
        ("2001-03-01,  ,0.01,5.00,100,1000,1,1",
         "line {line}, column 'security_id': empty identifier"),
    ], ids=["number", "negative_volume", "flag", "ragged", "ragged_pair", "empty_id"])
    def test_bad_row_after_first_chunk(self, tmp_path, ending, row, message):
        lines = [f"2001-01-{2 + d:02d},S{i:04d},0.01,5.00,100,1000,1,1"
                 for d in range(20) for i in range(1600)]
        at = 30_000
        assert len("".join(lines[:at])) > mspi.panel._CHUNK_CHARS  # past the first chunk
        lines.insert(at, row)
        path = write_lines(tmp_path, lines, ending)
        # comment and header lines come first
        expected = f"{path}: " + message.format(line=at + 3)
        assert load_error(load_daily_panel, path) == expected
        assert load_error(load_daily_panel_rowwise, path) == expected

    def test_duplicate_after_first_chunk(self, tmp_path):
        lines = [f"2001-01-{2 + d:02d},S{i:04d},0.01,5.00,100,1000,1,1"
                 for d in range(20) for i in range(1600)]
        lines.insert(30_000, "2001-01-18, S0042 ,0.02,6.00,100,1000,yes,T")
        path = write_lines(tmp_path, lines)
        expected = f"{path}: duplicate security_id 'S0042' on 2001-01-18"
        assert load_error(load_daily_panel, path) == expected
        assert load_error(load_daily_panel_rowwise, path) == expected

    def test_comment_shaped_like_a_row(self, tmp_path):
        # with security_id first, this comment parses as a row unless skipped
        header = "security_id,date,ret,prc,vol,shrout,shrcd_ok,exchcd_ok\n"
        body = "".join(f"S{i:03d},2001-01-02,0.01,5.00,100,1000,1,1\n" for i in range(50))
        path = tmp_path / "panel.csv"
        path.write_text(header + body + "#S999,2001-01-02,0.01,5.00,100,1000,1,1\n")
        summary = assert_same_load(str(path), EligibilityFilter())
        assert summary.rows_read == 50

    @pytest.mark.parametrize("text", [
        PANEL_HEADER + "2001-01-02,A,0.01,5.0,100,1000,1,1\n2001-01-03,A,0.02,5.1,,1000,1,1",
        PANEL_HEADER.replace("\n", "\r") + "2001-01-02,A,0.01,5.0,100,1000,1,1\r"
        "2001-01-02,B,0.01,5.0,100,1000,1,1\r",
        PANEL_HEADER + "2001-01-02,A,0.01,5.0,100,1000,1,1\r\n"
        "2001-01-02,B,0.01,5.0,100,1000,1,1\r2001-01-03,B,x,5.0,100,1000,1,1\n",
        PANEL_HEADER + "2001-01-02,A\rB,0.01,5.0,100,1000,1,1\n",
        PANEL_HEADER.replace("\n", ",note\n") + "2001-01-02,A,0.01,5.0,100,1000,1,1,x\n",
        PANEL_HEADER,
        PANEL_HEADER + "2001-01-02," + "A" * 140_000 + ",0.01,5.0,100,1000,1,1\n",
        years_panel_text("date_sorted"),
        years_panel_text("security_major"),
        years_panel_text("shuffled"),
        # the parse error on the last line wins over the duplicate before it
        PANEL_HEADER + "2001-01-02,A,0.01,5.0,100,1000,1,1\n2001-01-02,A,0.02,5.0,100,1000,1,1\n"
        "2001-01-03,B,x,5.0,100,1000,1,1\n",
        # the 2001 duplicate wins over the 2002 one written before it
        PANEL_HEADER + "2002-03-04,B,0.01,5.0,100,1000,1,1\n2002-03-04,B,0.02,5.0,100,1000,1,1\n"
        "2001-05-07,A,0.01,5.0,100,1000,1,1\n2001-05-07,A,0.02,5.0,100,1000,1,1\n",
        # within a row: the shrout parse error wins over the negative vol
        PANEL_HEADER + "2001-01-02,A,0.01,5.0,-100,zz,1,1\n",
        # within a row: the flag wins over the return
        PANEL_HEADER + "2001-01-02,A,zap,5.0,100,1000,maybe,1\n",
        # in one chunk read by csv: a bad field wins over a later ragged line,
        PANEL_HEADER + "2001-01-02,A,0.01,5.0,100,1000,1,1\n2001-01-02,B,zap,5.0,100,1000,1,1\n"
        "2001-01-02,C,0.01,5.0,100,1000,1\n",
        # and over a later field over the csv limit
        PANEL_HEADER + "2001-01-02,A,0.01,5.0,100,1000,1,1\n2001-01-02,B,zap,5.0,100,1000,1,1\n"
        "2001-01-02," + "C" * 140_000 + ",0.01,5.0,100,1000,1,1\n",
    ], ids=["no_final_newline", "cr_endings", "mixed_endings", "cr_in_field", "extra_column",
            "header_only", "field_over_csv_limit", "years_date_sorted", "years_security_major",
            "years_shuffled", "parse_error_after_duplicate", "duplicates_in_two_years",
            "shrout_error_before_vol_sign", "flag_before_ret", "bad_field_before_ragged_line",
            "bad_field_before_field_over_limit"])
    def test_small_files_match_oracle(self, tmp_path, monkeypatch, text):
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        spill = tmp_path / "tmp"
        spill.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill))

        def outcome(load):
            try:
                result, summary = load()
            except (DataError, csv.Error) as exc:
                return type(exc), str(exc)
            if isinstance(result, DailyStats):
                return [getattr(result, f.name).tobytes() for f in fields(DailyStats)], summary
            arrays = [getattr(result, name).tobytes() for name in FIELDS]
            return result.dates, result.starts.tolist(), arrays, summary

        def whole_panel_stats():
            panel, summary = load_daily_panel_rowwise(str(path), EligibilityFilter())
            return compute_daily_stats(panel), summary

        def year_stats():
            years, summary = load_daily_panel(str(path), EligibilityFilter(), compute_daily_stats)
            return DailyStats.concatenate(years), summary

        expected = outcome(lambda: load_daily_panel_rowwise(str(path), EligibilityFilter()))
        expected_stats = outcome(whole_panel_stats)
        for chunk in (mspi.panel._CHUNK_CHARS, 7):  # 7: every line is its own chunk
            monkeypatch.setattr(mspi.panel, "_CHUNK_CHARS", chunk)
            assert outcome(lambda: load_daily_panel(str(path), EligibilityFilter())) == expected
            assert outcome(year_stats) == expected_stats
            assert not any(spill.iterdir())  # the spill directory is gone, after errors too

    def test_quoted_field_spanning_chunks(self, tmp_path, monkeypatch):
        lines = [f'2001-01-02,S{i:03d},"0.0{i % 10}\n",5.00,100,1000,1,1' for i in range(200)]
        lines.append("2001-01-02,S999,0.01,5.00,100,1000,1,yes?")
        # the chunks that the csv tokeniser gets, and whether each ends
        # inside a quoted field (an odd number of quotes) that it must
        # finish from the file
        open_ends = []
        read_fields = mspi.panel._PanelColumns.read_fields

        def spy(self, text, fh, line_base):
            open_ends.append(text.count('"') % 2 == 1)
            return read_fields(self, text, fh, line_base)

        monkeypatch.setattr(mspi.panel._PanelColumns, "read_fields", spy)
        for chunk in (1000, 1010, 64):
            monkeypatch.setattr(mspi.panel, "_CHUNK_CHARS", chunk)
            path = write_lines(tmp_path, lines)
            expected = f"{path}: line 403, column 'exchcd_ok': cannot parse boolean from 'yes?'"
            assert load_error(load_daily_panel, path) == expected
            assert load_error(load_daily_panel_rowwise, path) == expected
            write_lines(tmp_path, lines[:-1])
            assert_same_load(path, EligibilityFilter())
        assert any(open_ends)

    def test_reducing_load_memory_does_not_grow_with_years(self, tmp_path, monkeypatch):
        # small chunks, so that the rows held, not the chunk, set the peak
        monkeypatch.setattr(mspi.panel, "_CHUNK_CHARS", 1 << 14)
        paths = {}
        for years in (2, 8):
            paths[years] = str(tmp_path / f"panel_{years}.csv")
            sim = simulate(PipelineConfig(sim_n_stocks=30, sim_n_years=years, seed=3))
            write_panel_csv(paths[years], sim, "h")

        def load(path):
            load_daily_panel(path, EligibilityFilter(), compute_daily_stats)

        load(paths[2])  # one-time allocations outside the measured loads
        peaks = []
        for years in (2, 8):
            tracemalloc.start()
            try:
                load(paths[years])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestLoadMarketSeries:
    def test_duplicate_date_rejected(self, tmp_path):
        path = write_market(tmp_path, ["2001-01-02,0.01", "2001-01-02,0.02"])
        with pytest.raises(DataError) as info:
            load_market_series(path)
        assert str(info.value) == f"{path}: line 3: duplicate date 2001-01-02"

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = write_market(tmp_path, ["2001-01-03,0.02", "2001-01-02,0.01"])
        market = load_market_series(path)
        assert market.dates == [dt.date(2001, 1, 2), dt.date(2001, 1, 3)]
        assert market.mkt_ret.tolist() == [0.01, 0.02]

    def test_empty_body_is_error(self, tmp_path):
        path = write_market(tmp_path, [])
        with pytest.raises(DataError, match="empty series"):
            load_market_series(path)

    def test_required_column_named_twice_is_error(self, tmp_path):
        path = tmp_path / "market.csv"
        path.write_text("date,mkt_ret,mkt_ret\n2001-01-02,0.01,0.9\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_market_series(str(path))
        assert str(info.value) == f"{path}: header names column 'mkt_ret' more than once"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = write_market(tmp_path, ["2001-01-03,0.02", "2001-01-02,0.01"])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "market.csv").read_bytes())
        market, marked_market = load_market_series(path), load_market_series(str(marked))
        assert marked_market.dates == market.dates
        assert marked_market.mkt_ret.tobytes() == market.mkt_ret.tobytes()

    def test_non_finite_return_is_error(self, tmp_path):
        path = write_market(tmp_path, ["2001-01-02,nan"])
        with pytest.raises(DataError) as info:
            load_market_series(path)
        assert str(info.value) == f"{path}: line 2, column 'mkt_ret': non-finite return nan"


class TestPartitionMonths:
    def test_month_buckets_and_day_counts(self, tmp_path):
        panel, _ = load_daily_panel(write_panel(tmp_path, [
            "2001-01-02,A,0.01,5.0,100,1000,1,1",
            "2001-01-03,A,0.01,5.0,100,1000,1,1",
            "2001-02-01,A,0.01,5.0,100,1000,1,1",
        ]), EligibilityFilter())
        market = load_market_series(write_market(tmp_path, [
            "2001-01-02,0.0", "2001-01-03,0.0", "2001-02-01,0.0", "2001-02-02,0.0",
        ]))
        part = partition_months(panel.dates, market)
        assert part.months == ["2001-01", "2001-02"]
        assert np.diff(part.starts).tolist() == [2, 1]
        assert part.market_rows.tolist() == [0, 1, 2]

    def test_single_date(self, tmp_path):
        panel, _ = load_daily_panel(
            write_panel(tmp_path, ["2001-01-02,A,0.01,5.0,100,1000,1,1"]), EligibilityFilter()
        )
        market = load_market_series(write_market(tmp_path, ["2001-01-02,0.0"]))
        part = partition_months(panel.dates, market)
        assert part.months == ["2001-01"] and part.starts.tolist() == [0, 1]

    def test_panel_date_missing_from_market(self, tmp_path):
        panel, _ = load_daily_panel(
            write_panel(tmp_path, ["2001-01-02,A,0.01,5.0,100,1000,1,1"]), EligibilityFilter()
        )
        market = load_market_series(write_market(tmp_path, ["2001-01-03,0.0"]))
        with pytest.raises(DataError, match="2001-01-02"):
            partition_months(panel.dates, market)

    def test_partition_covers_every_date_once(self, small_sim):
        sim, _ = small_sim
        part = partition_months(sim.dates, sim.market)
        dates = sim.dates
        assert part.starts[0] == 0 and part.starts[-1] == len(dates)
        assert np.all(np.diff(part.starts) > 0)
        assert [month_key(d) for d in dates] == [
            m for m, n in zip(part.months, np.diff(part.starts)) for _ in range(n)
        ]
        assert len(set(part.months)) == len(part.months)
        assert [sim.market.dates[i] for i in part.market_rows] == dates
