import numpy as np
import pytest

import mspi.learners.calibration as calibration
from mspi.learners.calibration import calibrate_many, fit_platt

from .oracles import newton_logit


class TestFitPlatt:
    def test_identity_when_scores_are_true_probabilities(self):
        # 1e4 Bernoulli draws whose success probabilities equal the scores
        rng = np.random.default_rng(17)
        scores = rng.beta(3.0, 3.0, size=10_000)
        y = (rng.random(10_000) < scores).astype(float)
        cmap = fit_platt(scores, y)
        cal = calibrate_many(cmap, scores)
        assert float(np.mean(np.abs(cal - scores))) < 0.02

    def test_constant_scores_yield_event_rate(self):
        y = np.array([1.0] * 3 + [0.0] * 7)
        cmap = fit_platt(np.full(10, 0.42), y)
        # Laplace-smoothed event rate (3+1)/(10+2)
        assert calibrate_many(cmap, [0.42])[0] == pytest.approx(4 / 12, abs=1e-9)

    def test_positive_association_gives_positive_slope(self):
        rng = np.random.default_rng(18)
        scores = rng.normal(size=500)
        y = (rng.random(500) < 1 / (1 + np.exp(-2 * scores))).astype(float)
        a, _ = fit_platt(scores, y)
        assert a > 0.0

    def test_monotone_when_slope_positive(self):
        rng = np.random.default_rng(19)
        scores = rng.normal(size=300)
        y = (rng.random(300) < 1 / (1 + np.exp(-scores))).astype(float)
        cmap = fit_platt(scores, y)
        grid = np.linspace(-4, 4, 200)
        out = calibrate_many(cmap, grid)
        assert np.all(np.diff(out) > 0.0)

    def test_separable_segment_stays_finite(self):
        scores = np.concatenate([np.linspace(-2, -1, 10), np.linspace(1, 2, 10)])
        y = np.array([0.0] * 10 + [1.0] * 10)
        cmap = fit_platt(scores, y)
        assert np.all(np.isfinite(cmap))
        out = calibrate_many(cmap, scores)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_matches_newton_oracle_on_unscaled_scores(self):
        # rf-style scores: vote shares in [0, 1], not log-odds
        rng = np.random.default_rng(20)
        scores = np.round(rng.random(60), 2)
        y = (rng.random(60) < scores).astype(float)
        got_a, got_b = fit_platt(scores, y)
        b, a = newton_logit(scores[:, None], y, l2=1e-8)
        assert abs(got_a - a) <= 1e-10 * max(1.0, abs(a))
        assert abs(got_b - b) <= 1e-10 * max(1.0, abs(b))

    def test_solver_looked_up_at_module_level(self, monkeypatch):
        # the per-layer benchmark counts Platt solves by patching this name
        calls = []
        real = calibration.fit_logit_l2

        def spy(*args, **kwargs):
            model = real(*args, **kwargs)
            calls.append(model.iterations)
            return model

        monkeypatch.setattr(calibration, "fit_logit_l2", spy)
        rng = np.random.default_rng(21)
        scores = rng.random(30)
        fit_platt(scores, (rng.random(30) < scores).astype(float))
        assert len(calls) == 1 and 0 < calls[0] < 20

    def test_output_clamped(self):
        cmap = (100.0, 0.0)  # (a, b)
        assert calibrate_many(cmap, [10.0])[0] == 1.0 - 1e-12
        assert calibrate_many(cmap, [-10.0])[0] == 1e-12
