import numpy as np
import pytest

from mspi.artifacts import read_forecasts, write_forecasts_csv
from mspi.errors import DataError
from mspi.labels import LabelSeries

from .test_econometrics import toy_forecasts


@pytest.fixture
def written(tmp_path):
    """A two-model forecast series, its labels, and its forecasts.csv."""
    fs = toy_forecasts(n=12, seed=3)
    fs.models = ("l1", "l2")
    fs.raw["l2"] = fs.raw["l1"] - 0.5
    fs.prob["l2"] = fs.prob["l1"] / 2.0
    fs.y_next[-1] = np.nan  # the final month has no realization
    labels = LabelSeries(
        months=fs.months, r_mkt=fs.r_mkt, sigma_mkt=fs.sigma_mkt,
        q_prev=np.full(12, 0.2), s=np.zeros(12, dtype=np.int64), y_next=fs.y_next,
    )
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

    def test_blank_probability_rejected(self, written):
        _, labels, path = written

        def blank(lines):
            cells = lines[3].split(",")
            cells[3] = ""
            return lines[:3] + [",".join(cells)] + lines[4:]

        edit_lines(path, blank)
        with pytest.raises(DataError, match="month 2000-01 model l2 has probability ''"):
            read_forecasts(path, labels)
