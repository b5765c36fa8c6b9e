import datetime as dt

import numpy as np
import pytest

from mspi.artifacts import (
    read_calendar,
    read_features,
    read_forecasts,
    read_labels,
    write_calendar_csv,
    write_csv,
    write_features_csv,
    write_forecasts_csv,
    write_labels_csv,
    write_panel_csv,
)
from mspi.backtest import ForecastSeries
from mspi.errors import DataError
from mspi.features import FEATURE_NAMES, FeatureMatrix
from mspi.labels import LabelSeries
from mspi.learners import sigmoid
from mspi.panel import (
    PANEL_COLUMNS,
    EligibilityFilter,
    MarketSeries,
    load_daily_panel,
    read_rows,
)
from mspi.simulate import SimOutput, security_ids

from .oracles import sim_panel

FIELDS = ("ret", "prc", "vol", "shrout")


@pytest.fixture
def written(tmp_path):
    """Labels for 1999-12 to 2000-12, two models' forecasts for 2000-01 to
    2000-12 paired with them (the final month has no realization), and the
    forecasts.csv they make."""
    rng = np.random.default_rng(3)
    s = (rng.random(13) < 0.3).astype(np.int64)
    labels = LabelSeries(
        months=["1999-12"] + [f"2000-{m:02d}" for m in range(1, 13)],
        r_mkt=rng.normal(0.004, 0.04, 13), sigma_mkt=rng.lognormal(-2.0, 0.3, 13),
        q_prev=np.full(13, 0.2), s=s,
    )
    raw = rng.normal(-2.0, 1.0, 12)
    fs = ForecastSeries.from_labels(labels, range(1, 13), ("l1", "l2"),
                                    raw={"l1": raw, "l2": raw - 0.5},
                                    prob={"l1": sigmoid(raw), "l2": sigmoid(raw) / 2.0})
    path = tmp_path / "forecasts.csv"
    write_forecasts_csv(path, fs, "test")
    return fs, labels, path


def edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


class TestReadForecasts:
    def test_round_trip_exact(self, written):
        fs, labels, path = written
        got = read_forecasts(path, labels)
        assert got.months == fs.months and got.models == fs.models
        for model in fs.models:
            assert np.array_equal(got.raw[model], fs.raw[model])
            assert np.array_equal(got.prob[model], fs.prob[model])
        for field in ("y_next", "next_vol", "next_ret", "r_mkt", "sigma_mkt"):
            assert np.array_equal(getattr(got, field), getattr(fs, field), equal_nan=True)
        # month t is paired with month t+1's outcomes, none after the last labeled month
        assert got.y_next[:-1].tolist() == labels.s[2:].tolist()
        assert got.next_vol[:-1].tolist() == labels.sigma_mkt[2:].tolist()
        assert got.next_ret[:-1].tolist() == labels.r_mkt[2:].tolist()
        assert np.isnan([got.y_next[-1], got.next_vol[-1], got.next_ret[-1]]).all()
        assert got.r_mkt.tolist() == labels.r_mkt[1:].tolist()

    def test_duplicate_row_rejected(self, written):
        _, labels, path = written
        edit_lines(path, lambda lines: lines + [lines[5]])  # line 0 is the hash comment
        with pytest.raises(DataError, match="duplicate row for month 2000-02 model l2"):
            read_forecasts(path, labels)

    def test_missing_row_rejected(self, written):
        _, labels, path = written
        edit_lines(path, lambda lines: lines[:4] + lines[5:])
        with pytest.raises(DataError, match="1 .month, model. cells have no row"):
            read_forecasts(path, labels)

    @pytest.mark.parametrize("edit, message", [
        # 2000-03's rows (lines 7-8) after 2000-04's (lines 9-10)
        (lambda lines: lines[:6] + lines[8:10] + lines[6:8] + lines[10:],
         "line 7: 2000-04 is not the labeled month after 2000-02"),
        (lambda lines: lines[:6] + lines[8:],
         "line 7: 2000-04 is not the labeled month after 2000-02"),
        (lambda lines: lines[:2] + lines[4:6] + lines[2:4] + lines[6:],
         "line 5: 2000-01 is not the labeled month after 2000-02"),
    ], ids=["swapped", "skipped", "first_two_swapped"])
    def test_month_out_of_order_rejected(self, written, edit, message):
        _, labels, path = written
        edit_lines(path, edit)
        with pytest.raises(DataError) as info:
            read_forecasts(path, labels)
        assert str(info.value) == f"{path}: {message}"

    def test_blank_probability_rejected(self, written):
        # a blank cell, and probabilities outside [0, 1]
        _, labels, path = written
        text = path.read_text()
        for token, expected in [("", "a finite number"), ("1.5", "a probability in [0, 1]"),
                                ("-0.1", "a probability in [0, 1]")]:
            def replace(lines):
                cells = lines[3].split(",")
                cells[3] = token
                return lines[:3] + [",".join(cells)] + lines[4:]

            path.write_text(text)
            edit_lines(path, replace)
            with pytest.raises(DataError) as info:
                read_forecasts(path, labels)
            assert str(info.value) == (f"{path}: line 4, column 'probability': "
                                       f"expected {expected}, got {token!r}")


class TestWritePanelCsv:
    @pytest.fixture
    def block(self):
        """(dates, ret, prc, vol, shrout): a (day × stock) block over two months."""
        rng = np.random.default_rng(5)
        shape = (4, 7)  # (day, stock)
        vol = np.round(rng.lognormal(9.0, 1.0, shape))
        vol[1, :2] = np.nan
        ret = rng.normal(0.0, 0.02, shape)
        ret[:, -1] = -0.0
        prc = rng.uniform(1.0, 90.0, shape) * np.where(rng.random(shape) < 0.3, -1, 1)
        shrout = np.round(rng.lognormal(8, 1, shape[1]))
        shrout[3] = np.nan
        dates = [dt.date(2001, 1, 30), dt.date(2001, 1, 31), dt.date(2001, 2, 1),
                 dt.date(2001, 2, 2)]
        return dates, ret, prc, vol, shrout

    @staticmethod
    def sim(block) -> SimOutput:
        """A simulation whose months yield ``block`` a calendar month at a time."""
        dates, ret, prc, vol, shrout = block
        months = ((dates[a:b], ret[a:b], prc[a:b], vol[a:b]) for a, b in ((0, 2), (2, 4)))
        return SimOutput(dates=dates, shrout=shrout,
                         market=MarketSeries(dates=dates, mkt_ret=np.zeros(len(dates))),
                         true_regime={}, months=months)

    def test_bytes_equal_row_by_row_csv_writer(self, block, tmp_path):
        dates, ret, prc, vol, shrout = block
        ids = security_ids(ret.shape[1])
        rows = ((day.isoformat(), ids[i], ret[d, i], prc[d, i], vol[d, i], shrout[i], 1, 1)
                for d, day in enumerate(dates) for i in range(len(ids)))
        write_panel_csv(tmp_path / "fast.csv", self.sim(block), "h")
        write_csv(tmp_path / "rows.csv", PANEL_COLUMNS, rows, "h")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_round_trip_exact(self, block, tmp_path):
        write_panel_csv(tmp_path / "panel.csv", self.sim(block), "h")
        got, summary = load_daily_panel(str(tmp_path / "panel.csv"),
                                        EligibilityFilter(min_abs_price=0.0))
        panel = sim_panel(self.sim(block))
        assert got.dates == panel.dates == block[0]
        assert got.starts.tolist() == panel.starts.tolist()
        assert summary.rows_kept == 28
        for name in FIELDS:
            a, b = getattr(got, name), getattr(panel, name)
            assert a.tobytes() == b.tobytes(), name


class TestRoundTrips:
    """features.csv, labels.csv and calendar.csv read back exactly what was written."""

    def test_features(self, tmp_path):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((30, len(FEATURE_NAMES))) * np.logspace(-12, 12, 30)[:, None]
        months = [f"{2000 + i // 12}-{i % 12 + 1:02d}" for i in range(30)]
        write_features_csv(tmp_path / "features.csv", FeatureMatrix(months, values), "h")
        got = read_features(tmp_path / "features.csv")
        assert got.months == months
        assert got.values.dtype == values.dtype and got.values.tobytes() == values.tobytes()

    def test_labels(self, tmp_path):
        rng = np.random.default_rng(22)
        s = (rng.random(24) < 0.3).astype(np.int64)
        labels = LabelSeries(
            months=[f"{2001 + i // 12}-{i % 12 + 1:02d}" for i in range(24)],
            r_mkt=rng.normal(0.0, 0.05, 24), sigma_mkt=rng.lognormal(-2.0, 0.5, 24),
            q_prev=rng.lognormal(-2.0, 0.5, 24), s=s,
        )
        write_labels_csv(tmp_path / "labels.csv", labels, "h")
        # Y_next is written from S: the next row's S, blank on the last row
        _, rows = read_rows(tmp_path / "labels.csv", ["Y_next"])
        assert [r["Y_next"] for r in rows] == [*map(str, s[1:].tolist()), ""]
        got = read_labels(tmp_path / "labels.csv")
        assert got.months == labels.months
        for field in ("r_mkt", "sigma_mkt", "q_prev", "s"):
            want, have = getattr(labels, field), getattr(got, field)
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), field

    def test_calendar(self, tmp_path):
        dates = [dt.date(1999, 12, 30), dt.date(1999, 12, 31), dt.date(2000, 1, 3),
                 dt.date(2000, 2, 29)]
        write_calendar_csv(tmp_path / "calendar.csv", dates, "h")
        assert read_calendar(tmp_path / "calendar.csv") == dates

    def test_empty_calendar_rejected(self, tmp_path):
        write_calendar_csv(tmp_path / "calendar.csv", [], "h")
        with pytest.raises(DataError, match="no trading days"):
            read_calendar(tmp_path / "calendar.csv")


class TestOpenOutput:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "features.csv"
        write_csv(path, ["month", "x"], [("2000-01", 1.5), ("2000-02", 2.5)], "old")
        before = path.read_bytes()

        def rows():
            yield ("2000-01", 9.0)
            raise DataError("input ended early")

        with pytest.raises(DataError, match="ended early"):
            write_csv(path, ["month", "x"], rows(), "new")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv"]
