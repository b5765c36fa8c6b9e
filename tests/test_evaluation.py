import math
import tracemalloc

import numpy as np
import pytest

from mspi.artifacts import BIN_COLUMNS, write_csv
from mspi.backtest import ForecastSeries
from mspi.errors import DataError, NumericError
from mspi.evaluation import (
    BOOTSTRAP_BLOCK,
    ECE_BINS,
    METRIC_NAMES,
    auc,
    binned_outcomes,
    block_bootstrap_diff,
    bootstrap_table,
    brier,
    compute_metrics,
    ece,
    log_loss,
    pr_auc,
    pr_points,
    roc_points,
)
from mspi.panel import read_rows

from .oracles import (
    auc_loop,
    bootstrap_deltas_loop,
    ece_loop,
    pairwise_auc,
    pr_auc_loop,
    pr_points_loop,
    roc_points_loop,
    trapezoid_auc,
)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(np.array([0.9, 0.1]), np.array([1.0, 0.0])) == 1.0

    def test_all_ties(self):
        assert auc(np.full(6, 0.3), np.array([1, 0, 1, 0, 0, 1.0])) == 0.5

    def test_pair_enumeration_case(self):
        assert auc(np.array([0.9, 0.8, 0.7]), np.array([1.0, 0.0, 1.0])) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            y = (rng.random(n) < 0.4).astype(float)
            if y.sum() in (0, n):
                continue
            assert auc(scores, y) == pytest.approx(pairwise_auc(scores, y), abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(DataError):
            auc(np.array([0.2, 0.4]), np.array([1.0, 1.0]))

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        scores = np.round(rng.random(60), 2)
        y = (rng.random(60) < 0.3).astype(float)
        assert auc(scores, y) == auc(np.exp(3 * scores) + 5, y)
        assert pr_auc(scores, y) == pr_auc(np.exp(3 * scores) + 5, y)


class TestPrAuc:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        assert pr_auc(scores, y) == 1.0

    def test_two_point_case(self):
        assert pr_auc(np.array([0.9, 0.8]), np.array([0.0, 1.0])) == 0.5

    def test_random_scores_near_event_rate(self):
        rng = np.random.default_rng(2)
        n = 10_000
        scores = rng.random(n)
        y = (rng.random(n) < 0.2).astype(float)
        assert abs(pr_auc(scores, y) - float(np.mean(y))) < 0.02

    def test_no_positives_undefined(self):
        with pytest.raises(DataError):
            pr_auc(np.array([0.2, 0.4]), np.zeros(2))


class TestBrierLogLoss:
    def test_perfect_forecast(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert brier(y, y) == 0.0
        assert log_loss(y, y) == pytest.approx(0.0, abs=1e-10)

    def test_constant_half(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        assert brier(np.full(4, 0.5), y) == 0.25
        assert log_loss(np.full(4, 0.5), y) == pytest.approx(math.log(2), rel=1e-12)

    def test_constant_event_rate_identity(self):
        rng = np.random.default_rng(3)
        y = (rng.random(200) < 0.3).astype(float)
        r = float(np.mean(y))
        assert brier(np.full(200, r), y) == pytest.approx(r * (1 - r), rel=1e-12)

    def test_brier_decomposition_for_constant_forecast(self):
        rng = np.random.default_rng(4)
        y = (rng.random(500) < 0.25).astype(float)
        r = float(np.mean(y))
        for p in (0.1, 0.3, 0.7):
            expected = (p - r) ** 2 + r * (1 - r)
            assert brier(np.full(500, p), y) == pytest.approx(expected, abs=1e-12)


class TestEce:
    def test_perfectly_calibrated_constant(self):
        y = np.array([1.0, 0.0, 0.0, 1.0] * 5)
        value, _, _, count = ece(np.full(20, 0.5), y, 10)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert count.sum() == 20

    def test_maximal_miscalibration(self):
        value, *_ = ece(np.full(20, 1.0 - 1e-12), np.zeros(20), 10)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed_20_points(self):
        probs = np.arange(1, 21) / 20.0
        y = (probs > 0.5).astype(float)
        value, _, _, count = ece(probs, y, 10)
        # bins of 2: |mean prob - rate| sums to 100/40 over 10 bins of weight 1/10
        assert value == pytest.approx(0.25, rel=1e-12)
        assert count.tolist() == [2] * 10

    def test_remainder_spread_over_lowest_bins(self):
        probs = np.linspace(0, 1, 23)
        y = np.zeros(23)
        count = ece(probs, y, 10)[3]
        assert count.tolist() == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_curve_reproduces_value(self):
        rng = np.random.default_rng(5)
        probs = rng.random(137)
        y = (rng.random(137) < probs).astype(float)
        value, mean_prob, event_rate, count = ece(probs, y, 10)
        recon = float(np.sum(count / 137 * np.abs(mean_prob - event_rate)))
        assert value == pytest.approx(recon, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            ece(np.array([0.5]), np.array([1.0]), 10)


class TestCurves:
    def test_roc_trapezoid_equals_auc(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            scores = np.round(rng.random(n), 2)
            y = (rng.random(n) < 0.35).astype(float)
            if y.sum() in (0, n):
                continue
            fpr, tpr = roc_points(scores, y)
            assert trapezoid_auc(fpr, tpr) == pytest.approx(auc(scores, y), abs=1e-12)

    def test_perfect_separation_hits_corner(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        fpr, tpr = roc_points(scores, y)
        assert (0.0, 1.0) in set(zip(fpr, tpr))

    def test_all_ties_two_points(self):
        fpr, tpr = roc_points(np.full(8, 0.4), np.array([1, 0, 1, 0, 1, 0, 0, 1.0]))
        assert fpr.tolist() == [0.0, 1.0] and tpr.tolist() == [0.0, 1.0]
        assert trapezoid_auc(fpr, tpr) == 0.5

    def test_pr_points_start_at_full_precision(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        recall, precision = pr_points(scores, y)
        assert recall[0] == 0.0 and precision[0] == 1.0
        assert recall[-1] == 1.0


class TestBinnedOutcomes:
    def test_boundary_conventions(self, small_forecasts):
        rows = [dict(zip(BIN_COLUMNS, r)) for r in binned_outcomes(small_forecasts, "l1")]
        assert [(r["bin_lo"], r["bin_hi"]) for r in rows] == [
            (0.0, 0.05), (0.05, 0.10), (0.10, 0.20), (0.20, 0.40), (0.40, 1.0)]
        assert {r["model"] for r in rows} == {"l1"}
        assert sum(r["n"] for r in rows) == small_forecasts.observed_mask().sum()

    @staticmethod
    def series(probs) -> ForecastSeries:
        """One model "m" forecasting ``probs``, with alternating outcomes."""
        n = len(probs)
        probs = np.array(probs)
        return ForecastSeries(
            months=[f"2010-{m:02d}" for m in range(1, n + 1)],
            models=("m",),
            raw={"m": probs.copy()},
            prob={"m": probs.copy()},
            y_next=np.arange(n) % 2.0,
            next_vol=np.full(n, 0.1),
            next_ret=np.full(n, 0.0),
            r_mkt=np.zeros(n),
            sigma_mkt=np.full(n, 0.1),
        )

    def test_probability_bin_assignment(self, tmp_path):
        # hand-built forecast series exercising the edge conventions
        fs = self.series([0.049999, 0.05, 0.1, 0.399, 0.4, 1.0 - 1e-12])
        # 0.05 joins the second bin (left-closed), 0.4 and 1.0 the last (closed top)
        assert [r[3] for r in binned_outcomes(fs, "m")] == [1, 1, 1, 1, 2]

        # no forecast in [0.10, 0.20): that bin counts 0 and its means are NaN
        rows = binned_outcomes(self.series([0.01, 0.07, 0.3, 0.5]), "m")
        empty = dict(zip(BIN_COLUMNS, rows[2]))
        assert (empty["bin_lo"], empty["bin_hi"], empty["n"]) == (0.10, 0.20, 0)
        assert all(math.isnan(empty[c]) for c in BIN_COLUMNS[4:])
        # ... which bins.csv writes as blank cells
        write_csv(tmp_path / "bins.csv", BIN_COLUMNS, rows, "h")
        _, written = read_rows(tmp_path / "bins.csv", BIN_COLUMNS)
        assert written[2] == {"model": "m", "bin_lo": "0.1", "bin_hi": "0.2", "n": "0",
                              **dict.fromkeys(BIN_COLUMNS[4:], "")}
        assert all(written[1][c] for c in BIN_COLUMNS[4:])


class TestBlockBootstrap:
    def make_series(self, n=120, seed=7):
        rng = np.random.default_rng(seed)
        y = (rng.random(n) < 0.25).astype(float)
        a = np.clip(0.25 + 0.5 * y - 0.2 * rng.random(n), 0.01, 0.99)
        b = np.clip(rng.random(n), 0.01, 0.99)
        return a, b, y

    def test_identical_series_degenerate(self):
        a, _, y = self.make_series()
        for metric in ("auc", "brier", "log_loss", "ece", "pr_auc"):
            res = block_bootstrap_diff(a, a, y, metric, block_len=12, reps=50, seed=1,
                                       ece_bins=10)
            assert res.delta == 0.0
            assert (res.ci_lo, res.ci_hi) == (0.0, 0.0)
            assert res.p_value == 1.0

    def test_deterministic_under_seed(self):
        a, b, y = self.make_series()
        r1 = block_bootstrap_diff(a, b, y, "auc", block_len=12, reps=100, seed=5, ece_bins=10)
        r2 = block_bootstrap_diff(a, b, y, "auc", block_len=12, reps=100, seed=5, ece_bins=10)
        assert r1 == r2

    def test_better_model_positive_delta(self):
        a, b, y = self.make_series(n=240)
        res = block_bootstrap_diff(a, b, y, "auc", block_len=12, reps=200, seed=2, ece_bins=10)
        assert res.delta > 0.0
        assert res.ci_lo <= res.delta <= res.ci_hi

    def test_rare_outcome_errors_after_redraws(self):
        rng = np.random.default_rng(8)
        y = np.zeros(120)
        y[0] = 1.0  # only the start-of-series block can include the positive
        a = rng.random(120)
        b = rng.random(120)
        with pytest.raises(NumericError, match="too rare"):
            block_bootstrap_diff(a, b, y, "auc", block_len=12, reps=100, seed=3, ece_bins=10)

    def test_working_set_does_not_grow_with_reps(self):
        # the default protocol's 2000 replications of 324 months, traced
        a, b, y = self.make_series(n=324)
        for metric in METRIC_NAMES:
            tracemalloc.start()
            try:
                block_bootstrap_diff(a, b, y, metric, block_len=BOOTSTRAP_BLOCK, reps=2000,
                                     seed=1, ece_bins=ECE_BINS)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (metric, peak)

    def test_table_runs_on_forecasts(self, small_forecasts):
        table = bootstrap_table(small_forecasts, reps=60, seed=4)
        assert (table["benchmark"], table["block_len"], table["replications"]) == (
            "l2", BOOTSTRAP_BLOCK, 60)
        rows = table["rows"]
        models = {r["model"] for r in rows}
        assert models == {"l1", "rf", "gb"}
        assert len(rows) == 15  # 5 metrics x 3 models
        for r in rows:
            assert r["benchmark"] == "l2"
            assert 0.0 <= r["p_value"] <= 1.0
            assert r["ci_lo"] <= r["ci_hi"]
            assert r["block_len"] == BOOTSTRAP_BLOCK


class TestComputeMetrics:
    def test_report_shape(self, small_forecasts):
        report = compute_metrics(small_forecasts)
        assert set(report["models"]) == set(small_forecasts.models)
        assert 0.0 <= report["event_rate"] <= 1.0
        assert report["ece_bins"] == ECE_BINS
        for m in report["models"].values():
            assert 0.0 <= m["auc"] <= 1.0
            assert 0.0 <= m["pr_auc"] <= 1.0
            assert m["log_loss"] >= 0.0
            assert 0.0 <= m["ece"] <= 1.0


def tied_case(rng, n):
    """Scores on a grid of a few values (heavy ties), probabilities with
    repeats, and outcomes with both classes."""
    levels = int(rng.integers(1, 6))
    scores = np.round(rng.random(n) * levels) / levels - 0.5
    probs = np.round(rng.random(n), int(rng.integers(1, 3)))
    y = (rng.random(n) < rng.uniform(0.1, 0.6)).astype(float)
    y[:2] = (0.0, 1.0)
    return scores, probs, y


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    auc, pr_auc, roc_points, pr_points,
    lambda s, y: block_bootstrap_diff(s, np.arange(24.0), y, "auc", 6, 20, 0, 10),
    lambda s, y: block_bootstrap_diff(s, np.arange(24.0), y, "pr_auc", 6, 20, 0, 10),
], ids=["auc", "pr_auc", "roc_points", "pr_points", "bootstrap_auc", "bootstrap_pr_auc"])
def test_non_finite_scores_raise(entry, bad):
    # a NaN is not equal to itself, so it has no place among the tie groups
    scores = np.linspace(0.0, 1.0, 24)
    scores[:2] = bad
    with pytest.raises(DataError, match="scores must be finite"):
        entry(scores, np.tile([1.0, 0.0, 0.0], 8))


class TestMetricsMatchLoops:
    """The row kernels against the per-tie-group and per-bin loops."""

    @staticmethod
    def assert_scores_match(scores, y):
        assert same_bits(auc(scores, y), auc_loop(scores, y))
        assert same_bits(pr_auc(scores, y), pr_auc_loop(scores, y))
        for got, want in zip(roc_points(scores, y), roc_points_loop(scores, y)):
            assert same_bits(got, want)
        for got, want in zip(pr_points(scores, y), pr_points_loop(scores, y)):
            assert same_bits(got, want)

    def test_heavy_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(10, 300))
            scores, probs, y = tied_case(rng, n)
            self.assert_scores_match(scores, y)
            n_bins = int(rng.integers(1, 11))
            value, mean_prob, event_rate, _ = ece(probs, y, n_bins)
            want_value, want_mean, want_rate = ece_loop(probs, y, n_bins)
            assert same_bits(value, want_value)
            assert same_bits(mean_prob, want_mean)
            assert same_bits(event_rate, want_rate)
            assert same_bits(brier(probs, y), np.mean((probs - y) ** 2))
        for _ in range(50):
            n = int(rng.integers(10, 300))
            scores, _, y = tied_case(rng, n)
            # one distinct score; -0.0 tied with 0.0 below the positive scores
            self.assert_scores_match(np.full(n, scores[0]), y)
            signed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            self.assert_scores_match(np.where(scores > 0.0, scores, signed), y)

    def test_all_tied_scores(self):
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        scores = np.full(5, 0.25)
        assert auc(scores, y) == auc_loop(scores, y) == 0.5
        assert pr_auc(scores, y) == pr_auc_loop(scores, y) == 0.4


class TestBootstrapMatchesLoop:
    """block_bootstrap_diff against one resample at a time."""

    LOOP_METRICS = {
        "auc": auc_loop,
        "pr_auc": pr_auc_loop,
        "brier": lambda p, y: float(np.mean((p - y) ** 2)),
        "log_loss": log_loss,
    }

    def expected(self, a, b, y, metric, block_len, reps, seed, ece_bins=10):
        fn = (self.LOOP_METRICS[metric] if metric != "ece"
              else lambda p, yy: ece_loop(p, yy, ece_bins)[0])
        deltas, redraws = bootstrap_deltas_loop(a, b, y, fn, block_len, reps, seed)
        frac_le = float(np.mean(deltas <= 0.0))
        frac_ge = float(np.mean(deltas >= 0.0))
        lo, hi = np.quantile(deltas, [0.025, 0.975], method="linear")
        return (float(fn(a, y) - fn(b, y)), float(lo), float(hi),
                min(2.0 * min(frac_le, frac_ge), 1.0), redraws)

    @staticmethod
    def summary(res):
        return (res.delta, res.ci_lo, res.ci_hi, res.p_value, res.redraws)

    def test_every_metric_with_ties(self):
        rng = np.random.default_rng(31)
        n = 150
        y = (rng.random(n) < 0.3).astype(float)
        a = np.round(np.clip(0.3 + 0.4 * y - 0.3 * rng.random(n), 0.01, 0.99), 2)
        b = np.round(rng.random(n), 1)
        cases = [(a, b, metric) for metric in ("auc", "pr_auc", "brier", "log_loss", "ece")]
        # score levels that sit in the first or last month only, which most
        # 12-month-block resamples lack; one distinct score; -0.0 tied with 0.0
        edged = b.copy()
        edged[0], edged[-1] = 2.0, -1.0
        flat = np.full(n, 0.25)
        signed = np.where(b > 0.5, b, np.where(rng.random(n) < 0.5, -0.0, 0.0))
        cases += [(x, z, metric) for x, z in ((edged, a), (flat, a), (a, flat), (signed, a))
                  for metric in ("auc", "pr_auc")]
        for x, z, metric in cases:
            res = block_bootstrap_diff(x, z, y, metric, block_len=12, reps=300, seed=3,
                                       ece_bins=10)
            want = self.expected(x, z, y, metric, 12, 300, 3)
            assert same_bits(self.summary(res), want), metric

    def test_redraws_match(self):
        # three positives in 120 months: many 12-month-block resamples miss them
        rng = np.random.default_rng(41)
        y = np.zeros(120)
        y[[10, 55, 100]] = 1.0
        a, b = rng.random(120), np.round(rng.random(120), 1)
        for metric in ("auc", "pr_auc"):
            res = block_bootstrap_diff(a, b, y, metric, block_len=12, reps=200, seed=7,
                                       ece_bins=10)
            want = self.expected(a, b, y, metric, 12, 200, 7)
            assert res.redraws > 0
            assert same_bits(self.summary(res), want), metric

    def test_abort_matches(self):
        rng = np.random.default_rng(8)
        y = np.zeros(120)
        y[0] = 1.0
        a, b = rng.random(120), rng.random(120)
        with pytest.raises(DataError):
            bootstrap_deltas_loop(a, b, y, auc_loop, 12, 100, 3)
        with pytest.raises(NumericError, match="more than 50 resamples"):
            block_bootstrap_diff(a, b, y, "auc", block_len=12, reps=100, seed=3, ece_bins=10)

    def test_ece_bins_threaded(self):
        rng = np.random.default_rng(51)
        y = (rng.random(90) < 0.3).astype(float)
        a, b = rng.random(90), rng.random(90)
        res = block_bootstrap_diff(a, b, y, "ece", block_len=6, reps=100, seed=2, ece_bins=4)
        assert same_bits(self.summary(res), self.expected(a, b, y, "ece", 6, 100, 2, 4))
        ten_bins = block_bootstrap_diff(a, b, y, "ece", block_len=6, reps=100, seed=2,
                                        ece_bins=10)
        assert res.delta != ten_bins.delta

    def test_too_few_months_for_ece_bins(self):
        rng = np.random.default_rng(52)
        y = (rng.random(30) < 0.5).astype(float)
        with pytest.raises(DataError, match="ECE needs at least 40 observations, got 30"):
            block_bootstrap_diff(rng.random(30), rng.random(30), y, "ece", block_len=6,
                                 reps=10, seed=0, ece_bins=40)

    def test_table_uses_ece_bins(self, small_forecasts):
        # each ECE row is the kernel at the protocol's block length and bin count
        rows = bootstrap_table(small_forecasts, reps=40, seed=4)["rows"]
        ece_rows = [r for r in rows if r["metric"] == "ece"]
        assert len(ece_rows) == 3
        mask = small_forecasts.observed_mask()
        y = small_forecasts.y_next[mask]
        for r in ece_rows:
            a = small_forecasts.prob[r["model"]][mask]
            b = small_forecasts.prob["l2"][mask]
            res = block_bootstrap_diff(a, b, y, "ece", block_len=BOOTSTRAP_BLOCK, reps=40,
                                       seed=4, ece_bins=ECE_BINS)
            assert r["delta"] == res.delta
            other = block_bootstrap_diff(a, b, y, "ece", block_len=BOOTSTRAP_BLOCK, reps=40,
                                         seed=4, ece_bins=5)
            assert r["delta"] != other.delta
