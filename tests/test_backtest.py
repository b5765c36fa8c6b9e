import dataclasses
import logging
import os
import re

import numpy as np
import pytest

from mspi import backtest
from mspi.backtest import (
    LEARNERS,
    fit_window,
    forward_chain_cv,
    month_ordinal,
    run_expanding_backtest,
    spawn_keys,
)
from mspi.config import MODEL_NAMES, PipelineConfig
from mspi.errors import ConfigError, DataError
from mspi.features import FEATURE_NAMES, FeatureMatrix
from mspi.labels import LabelSeries
from mspi.learners.logit import clamped_log_loss, sigmoid


def set_cpus(monkeypatch, n):
    """Make the backtest see ``n`` CPUs, so it forks min(n, months) - 1 workers."""
    monkeypatch.setattr(backtest, "_cpu_count", lambda: n)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def synthetic_labels(n, rng, event_rate=0.2):
    months = [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(n)]
    s = (rng.random(n) < event_rate).astype(np.int64)
    return LabelSeries(
        months=months,
        r_mkt=rng.normal(0.005, 0.04, n),
        sigma_mkt=rng.lognormal(-2.0, 0.3, n),
        q_prev=np.full(n, 0.2),
        s=s,
    )


def synthetic_features(labels, rng, signal=0.0):
    """Random features; with ``signal``, column 1 at month t leaks S_{t+1}."""
    n = len(labels.months)
    values = rng.normal(size=(n, len(FEATURE_NAMES)))
    if signal:
        values[:, 1] += signal * np.concatenate([labels.s[1:].astype(float), [0.0]])
    return FeatureMatrix(months=list(labels.months), values=values)


class TestForwardChainCV:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_singleton_grid_short_circuits(self):
        learner = LEARNERS["l1"]
        X = self.rng.normal(size=(60, 4))
        y = (self.rng.random(60) < 0.3).astype(float)
        hyper, info = forward_chain_cv(learner, X, y, [0.5], 5, (0, ()))
        assert hyper == 0.5 and info["folds_used"] == 0

    def test_noise_features_select_max_penalty(self):
        learner = LEARNERS["l1"]
        grid = [1e-3, 1e-2, 1.0]
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            X = rng.normal(size=(120, 16))
            y = (rng.random(120) < 0.25).astype(float)
            hyper, _ = forward_chain_cv(learner, X, y, grid, 5, (seed, ()))
            wins += hyper == 1.0
        assert wins >= 40  # >= 80% of replications

    def test_tie_break_prefers_larger_penalty(self):
        # a stub l2 whose model is its penalty and whose score depends on it alone
        scores = {}
        learner = dataclasses.replace(
            LEARNERS["l2"], warm_started=False, fit=lambda Xz, y, lam, s, i: lam,
            score=lambda lam, Xz: np.full(len(Xz), scores[lam]))
        X = self.rng.normal(size=(60, 4))
        y = np.tile([1.0, 0.0, 0.0], 20)
        grid = [1e5, 1e6]
        # identical fold losses: the entry earlier in preference order wins
        scores.update({1e5: -0.5, 1e6: -0.5})
        hyper, info = forward_chain_cv(learner, X, y, grid, 5, (0, ()))
        assert info["mean_losses"][0] == info["mean_losses"][1]
        assert hyper == 1e6
        # a strictly lower loss wins regardless of preference
        scores.update({1e5: -0.7, 1e6: 2.0})
        hyper, info = forward_chain_cv(learner, X, y, grid, 5, (0, ()))
        assert info["mean_losses"][0] < info["mean_losses"][1]
        assert hyper == 1e5

    def test_duplicate_grid_values_select_cleanly(self):
        learner = LEARNERS["l1"]
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 4))
        y = (rng.random(80) < 0.3).astype(float)
        hyper, info = forward_chain_cv(learner, X, y, [1e6, 1e6], 5, (0, ()))
        assert hyper == 1e6
        assert info["mean_losses"][0] == info["mean_losses"][1]

    def test_staged_gb_losses_equal_per_entry_fits(self):
        learner = LEARNERS["gb"]
        rng = np.random.default_rng(9)
        X = rng.normal(size=(96, 4))
        y = (rng.random(96) < 1 / (1 + np.exp(-1.5 * X[:, 0] + 1.0))).astype(float)
        grid = [8, 15, 3, 15]
        folds, seg = 4, 96 // 8
        hyper, info = forward_chain_cv(learner, X, y, grid, folds, (4, ()))
        assert info["folds_used"] == folds
        fold_seeds = spawn_keys((4, ()), folds)
        losses = np.full((len(grid), folds), np.nan)
        for k in range(folds):
            end = 96 - (folds - k) * seg
            for gi, entry in enumerate(grid):
                fitted = fit_window(learner, X[:end], y[:end], entry, fold_seeds[k])
                probs = fitted.probs(fitted.raw_many(X[end:end + seg]))
                losses[gi, k] = clamped_log_loss(probs, y[end:end + seg])
        assert info["mean_losses"] == [float(v) for v in losses.mean(axis=1)]
        assert hyper == grid[int(np.argmin(losses.mean(axis=1)))]

    def test_window_too_short_for_folds(self):
        learner = LEARNERS["l1"]
        X = self.rng.normal(size=(30, 3))
        y = (self.rng.random(30) < 0.5).astype(float)
        with pytest.raises(DataError, match="validation"):
            forward_chain_cv(learner, X, y, [0.1, 1.0], 5, (0, ()))

    def test_single_class_window_errors(self):
        learner = LEARNERS["l1"]
        X = self.rng.normal(size=(120, 3))
        with pytest.raises(DataError, match="single-class"):
            forward_chain_cv(learner, X, np.zeros(120), [0.1, 1.0], 5, (0, ()))


class TestFitWindow:
    def test_single_class_fallback_probability(self):
        learner = LEARNERS["l1"]
        X = np.random.default_rng(0).normal(size=(30, 4))
        fitted = fit_window(learner, X, np.zeros(30), 0.1, (0, ()))
        assert fitted.fallback
        prob = fitted.probs(fitted.raw_many(X[:1]))[0]
        assert prob == pytest.approx(1 / 32)

    def test_calibrated_learner_produces_probabilities(self):
        learner = LEARNERS["gb"]
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 4))
        y = (rng.random(80) < 1 / (1 + np.exp(-2 * X[:, 0]))).astype(float)
        fitted = fit_window(learner, X, y, 30, (3, ()))
        assert fitted.cmap is not None
        prob = fitted.probs(fitted.raw_many(X[:1]))[0]
        assert 0.0 < prob < 1.0


class TestRunExpandingBacktest:
    def make_inputs(self, n_months=140, seed=0, signal=2.0):
        rng = np.random.default_rng(seed)
        labels = synthetic_labels(n_months, rng)
        features = synthetic_features(labels, rng, signal=signal)
        return features, labels

    def config(self, **kw):
        base = dict(
            models=["l1", "l2"],
            l1_grid=[0.01, 0.1, 1.0],
            l2_grid=[0.01, 0.1, 1.0],
            seed=3,
        )
        base.update(kw)
        return PipelineConfig(**base)

    def test_window_arithmetic_single_forecast(self):
        features, labels = self.make_inputs(n_months=121)
        fs, _ = run_expanding_backtest(features, labels, self.config())
        assert len(fs.months) == 1
        assert fs.months[0] == labels.months[120]
        assert np.isnan(fs.y_next[0])  # last labeled month has no observed target

    def test_forecast_count_and_alignment(self):
        features, labels = self.make_inputs(n_months=150)
        fs, _ = run_expanding_backtest(features, labels, self.config())
        assert len(fs.months) == 30
        observed = fs.observed_mask()
        assert observed.sum() == 29
        assert np.array_equal(fs.y_next[:-1], labels.s[121:].astype(float))
        assert np.array_equal(fs.next_vol[:-1], labels.sigma_mkt[121:])

    def test_no_lookahead_prefix_equality(self, monkeypatch):
        features, labels = self.make_inputs(n_months=160, seed=4)
        config = self.config(models=["l1", "l2", "rf", "gb"], rf_trees=15,
                             gb_stage_grid=[10, 20])
        for cpus in (1, 2):  # in process, and with the rf/gb months forked
            set_cpus(monkeypatch, cpus)
            full, _ = run_expanding_backtest(features, labels, config)
            for cut in (125, 140, 152):
                f2 = FeatureMatrix(months=features.months[:cut], values=features.values[:cut])
                l2 = LabelSeries(
                    months=labels.months[:cut], r_mkt=labels.r_mkt[:cut],
                    sigma_mkt=labels.sigma_mkt[:cut], q_prev=labels.q_prev[:cut],
                    s=labels.s[:cut],
                )
                part, _ = run_expanding_backtest(f2, l2, config)
                k = len(part.months)
                assert part.months == full.months[:k]
                for name in config.models:
                    assert np.array_equal(part.raw[name], full.raw[name][:k])
                    assert np.array_equal(part.prob[name], full.prob[name][:k])

    def test_determinism_same_config(self):
        features, labels = self.make_inputs(n_months=140, seed=2)
        config = self.config(models=["l1", "l2", "rf"], rf_trees=10)
        a, a_provenance = run_expanding_backtest(features, labels, config)
        b, b_provenance = run_expanding_backtest(features, labels, config)
        for name in config.models:
            assert np.array_equal(a.raw[name], b.raw[name])
            assert np.array_equal(a.prob[name], b.prob[name])
        assert a_provenance == b_provenance

    def test_repeated_grid_entries_are_refitted_to_the_same_forecasts(self, monkeypatch):
        # CV fits a repeated entry again: an l1/l2 fit warm-starts from its
        # twin's solution and a gb entry is read off the same largest fit,
        # so each repeat scores its twin's loss and nothing downstream moves
        set_cpus(monkeypatch, 1)
        features, labels = self.make_inputs(n_months=126, seed=6)
        grids = dict(l1_grid=[0.01, 0.1, 1.0], l2_grid=[0.01, 0.1, 1.0], gb_stage_grid=[5, 10])
        repeated = dict(l1_grid=[0.1, 0.01, 0.1, 1.0, 0.01], l2_grid=[1.0, 0.01, 1.0, 0.1],
                        gb_stage_grid=[10, 5, 10, 5])
        runs = [run_expanding_backtest(features, labels, self.config(
            models=["l1", "l2", "gb"], **g)) for g in (grids, repeated)]
        (plain, plain_provenance), (twice, twice_provenance) = runs
        for name in plain.models:
            assert plain.raw[name].tobytes() == twice.raw[name].tobytes()
            assert plain.prob[name].tobytes() == twice.prob[name].tobytes()
        assert (plain_provenance["selected_hyperparameters"]
                == twice_provenance["selected_hyperparameters"])
        for name, field in (("l1", "l1_grid"), ("l2", "l2_grid"), ("gb", "gb_stage_grid")):
            assert plain_provenance["cv"][name]["folds_used"] == 5
            loss = dict(zip(grids[field], plain_provenance["cv"][name]["mean_losses"]))
            assert twice_provenance["cv"][name]["mean_losses"] == [
                loss[entry] for entry in repeated[field]]

    def test_hyperparameters_frozen(self):
        features, labels = self.make_inputs(n_months=150)
        _, provenance = run_expanding_backtest(features, labels, self.config())
        selected = provenance["selected_hyperparameters"]
        assert set(selected) == {"l1", "l2"}
        assert set(selected["l1"]) == {"lambda"}

    def test_one_class_calibration_segment_takes_the_sigmoid(self):
        # The one forecast window's calibration segment, its last 24 targets
        # S_97..S_120, holds no stress month: gb gets no Platt map, and its
        # log-odds score becomes a probability through the sigmoid.
        features, labels = self.make_inputs(n_months=121, seed=5)
        labels.s[97:] = 0
        assert 0 < labels.s[1:97].sum()
        fs, _ = run_expanding_backtest(features, labels, self.config(
            models=["l1", "l2", "gb"], gb_stage_grid=[10]))
        raw = fs.raw["gb"][0]
        assert raw < 0 and fs.prob["gb"][0] == sigmoid(raw)

    def test_too_few_months_raises(self):
        features, labels = self.make_inputs(n_months=120)
        with pytest.raises(DataError, match="121"):
            run_expanding_backtest(features, labels, self.config())

    def test_probabilities_in_unit_interval(self, small_forecasts):
        for name in small_forecasts.models:
            p = small_forecasts.prob[name]
            assert np.all((p > 0.0) & (p < 1.0))

    def test_config_validation(self):
        with pytest.raises(ConfigError, match=r"models: unknown model name\(s\) \['zap'\]"):
            PipelineConfig(models=["l1", "l2", "zap"])

    def test_month_ordinal(self):
        assert month_ordinal("2001-01") == 2001 * 12
        assert month_ordinal("2001-12") - month_ordinal("2001-01") == 11
        with pytest.raises(DataError, match="expected a month YYYY-MM, got '2001-13'"):
            month_ordinal("2001-13")

    def test_seed_keys_name_the_spawn_chains_they_replace(self):
        def stream(key):
            return np.random.SeedSequence(key[0], spawn_key=key[1]).generate_state(4).tobytes()

        rf = backtest._MODEL_CODES["rf"]
        # CV fold k -> its window's sub/full stream -> tree t
        cv = (3, rf, backtest._CV_TAG)
        for k, fold in enumerate(np.random.SeedSequence(list(cv)).spawn(5)):
            fold_key = spawn_keys((cv, ()), 5)[k]
            for w, window in enumerate(fold.spawn(2)):
                window_key = spawn_keys(fold_key, 2)[w]
                for t, tree in enumerate(window.spawn(3)):
                    assert stream(spawn_keys(window_key, 3)[t]) == tree.generate_state(4).tobytes()
        # a forecast month's full-window stream -> the forest fitted from it
        month = (3, rf, month_ordinal("2001-06"))
        full = np.random.SeedSequence(list(month)).spawn(2)[1]
        assert stream(spawn_keys((month, ()), 2)[1]) == full.generate_state(4).tobytes()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = np.tile([0.0, 1.0], 20)
        keyed = LEARNERS["rf"].fit(X, y, 4, spawn_keys((month, ()), 2)[1], None)
        spawned = backtest.fit_random_forest(X, y, 4, full)
        assert backtest.rf_score_many(keyed, X).tobytes() == \
            backtest.rf_score_many(spawned, X).tobytes()


class TestForecastWorkers:
    """The rf and gb forecast months split across forked processes."""

    def test_every_worker_count_gives_the_same_run(self, monkeypatch, caplog):
        rng = np.random.default_rng(6)
        labels = synthetic_labels(124, rng)
        features = synthetic_features(labels, rng, signal=2.0)
        config = PipelineConfig(models=list(MODEL_NAMES), l1_grid=[0.01, 0.1],
                                l2_grid=[0.01, 0.1], rf_trees=8, gb_stage_grid=[5, 10], seed=3)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")  # a platform without fork runs every share here
            set_cpus(m, 16)
            ref, ref_provenance = run_expanding_backtest(features, labels, config)
        # 4 forecast months: 16 CPUs still give 4 processes, one month each
        for cpus, workers in ((1, 1), (2, 2), (3, 3), (16, 4)):
            set_cpus(monkeypatch, cpus)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="mspi.backtest"):
                fs, provenance = run_expanding_backtest(features, labels, config)
            assert_no_children()
            for name in MODEL_NAMES:
                assert fs.raw[name].tobytes() == ref.raw[name].tobytes()
                assert fs.prob[name].tobytes() == ref.prob[name].tobytes()
            assert provenance == ref_provenance
            messages = [r.getMessage() for r in caplog.records]
            assert f"forecast loop: 4 months of rf, gb on {workers} process(es)" in messages
            share = re.compile(r"forecast share (\d+): (\d+) months of rf, gb in [\d.]+ s")
            shares = [(int(m[1]), int(m[2])) for m in map(share.fullmatch, messages) if m]
            assert shares == [(k, len(range(k, 4, workers))) for k in range(workers)]

    def test_chains_alone_fork_nothing(self, monkeypatch, caplog):
        rng = np.random.default_rng(6)
        labels = synthetic_labels(124, rng)
        features = synthetic_features(labels, rng)

        def no_fork():
            raise AssertionError("l1 and l2 months must run in the calling process")

        monkeypatch.setattr(os, "fork", no_fork)
        set_cpus(monkeypatch, 4)
        with caplog.at_level(logging.DEBUG, logger="mspi.backtest"):
            fs, _ = run_expanding_backtest(features, labels, PipelineConfig(
                models=["l1", "l2"], l1_grid=[0.1], l2_grid=[0.1]))
        assert len(fs.months) == 4
        assert not [r for r in caplog.records if r.getMessage().startswith("forecast ")]
