import math

import numpy as np
import pytest

from mspi.errors import DataError, NumericError
from mspi.evaluation import (
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

from .oracles import pairwise_auc, trapezoid_auc


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
        value, curve = ece(np.full(20, 0.5), y, 10)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert curve.count.sum() == 20

    def test_maximal_miscalibration(self):
        value, _ = ece(np.full(20, 1.0 - 1e-12), np.zeros(20), 10)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed_20_points(self):
        probs = np.arange(1, 21) / 20.0
        y = (probs > 0.5).astype(float)
        value, curve = ece(probs, y, 10)
        # bins of 2: |mean prob - rate| sums to 100/40 over 10 bins of weight 1/10
        assert value == pytest.approx(0.25, rel=1e-12)
        assert curve.count.tolist() == [2] * 10

    def test_remainder_spread_over_lowest_bins(self):
        probs = np.linspace(0, 1, 23)
        y = np.zeros(23)
        _, curve = ece(probs, y, 10)
        assert curve.count.tolist() == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_curve_reproduces_value(self):
        rng = np.random.default_rng(5)
        probs = rng.random(137)
        y = (rng.random(137) < probs).astype(float)
        value, curve = ece(probs, y, 10)
        recon = float(np.sum(curve.count / 137 * np.abs(curve.mean_prob - curve.event_rate)))
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
        bo = binned_outcomes(small_forecasts, "l1")
        assert bo.edges == (0.0, 0.05, 0.10, 0.20, 0.40, 1.0)
        assert bo.n.sum() == small_forecasts.n_observed

    def test_probability_bin_assignment(self):
        # hand-built forecast series exercising the edge conventions
        from mspi.backtest import ForecastSeries

        probs = np.array([0.049999, 0.05, 0.1, 0.399, 0.4, 1.0 - 1e-12])
        fs = ForecastSeries(
            months=[f"2010-{m:02d}" for m in range(1, 7)],
            models=("m",),
            raw={"m": probs.copy()},
            prob={"m": probs.copy()},
            y_next=np.array([0, 1, 0, 1, 0, 1.0]),
            next_vol=np.full(6, 0.1),
            next_ret=np.full(6, 0.0),
            r_mkt=np.zeros(6),
            sigma_mkt=np.full(6, 0.1),
            selected={},
            seed=0,
        )
        bo = binned_outcomes(fs, "m")
        # 0.05 joins the second bin (left-closed), 0.4 and 1.0 the last (closed top)
        assert bo.n.tolist() == [1, 1, 1, 1, 2]

    def test_bad_edges_rejected(self, small_forecasts):
        with pytest.raises(DataError):
            binned_outcomes(small_forecasts, "l1", (0.0, 0.5, 0.4, 1.0))
        with pytest.raises(DataError):
            binned_outcomes(small_forecasts, "l1", (0.1, 0.5, 1.0))


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
            res = block_bootstrap_diff(a, a, y, metric, block_len=12, reps=50, seed=1)
            assert res.delta == 0.0
            assert (res.ci_lo, res.ci_hi) == (0.0, 0.0)
            assert res.p_value == 1.0

    def test_deterministic_under_seed(self):
        a, b, y = self.make_series()
        r1 = block_bootstrap_diff(a, b, y, "auc", reps=100, seed=5)
        r2 = block_bootstrap_diff(a, b, y, "auc", reps=100, seed=5)
        assert r1 == r2

    def test_better_model_positive_delta(self):
        a, b, y = self.make_series(n=240)
        res = block_bootstrap_diff(a, b, y, "auc", reps=200, seed=2)
        assert res.delta > 0.0
        assert res.ci_lo <= res.delta <= res.ci_hi

    def test_rare_outcome_errors_after_redraws(self):
        rng = np.random.default_rng(8)
        y = np.zeros(120)
        y[0] = 1.0  # only the start-of-series block can include the positive
        a = rng.random(120)
        b = rng.random(120)
        with pytest.raises(NumericError, match="too rare"):
            block_bootstrap_diff(a, b, y, "auc", block_len=12, reps=100, seed=3)

    def test_table_runs_on_forecasts(self, small_forecasts):
        rows = bootstrap_table(small_forecasts, benchmark="l2", reps=60, seed=4)
        models = {r.model for r in rows}
        assert models == {"l1", "rf", "gb"}
        assert len(rows) == 15  # 5 metrics x 3 models
        for r in rows:
            assert 0.0 <= r.p_value <= 1.0
            assert r.ci_lo <= r.ci_hi


class TestComputeMetrics:
    def test_report_shape(self, small_forecasts):
        report = compute_metrics(small_forecasts)
        assert set(report.models) == set(small_forecasts.models)
        assert 0.0 <= report.event_rate <= 1.0
        for m in report.models.values():
            assert 0.0 <= m.auc <= 1.0
            assert 0.0 <= m.pr_auc <= 1.0
            assert m.log_loss >= 0.0
            assert 0.0 <= m.ece <= 1.0
