import math

import numpy as np
import pytest

from mspi.errors import DataError
from mspi.learners import (
    GradientBoostingParams,
    RandomForestParams,
    fit_gradient_boosting,
    fit_random_forest,
    gb_score_many,
    rf_score_many,
)
from mspi.learners.trees import build_tree, tree_predict


class TestTree:
    def test_single_feature_split(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        tree = build_tree(X, y, rng=None, max_depth=3, min_leaf=1,
                          n_candidate_features=None, criterion="gini")
        pred = tree_predict(tree, X)
        assert pred.tolist() == y.tolist()

    def test_min_leaf_respected(self):
        X = np.arange(10.0)[:, None]
        y = np.array([0.0] * 9 + [1.0])
        tree = build_tree(X, y, rng=None, max_depth=5, min_leaf=3,
                          n_candidate_features=None, criterion="gini")
        # walk every training row to its leaf; each leaf holds >= 3 rows
        pred_leaf = {}
        for i in range(10):
            node = 0
            while tree.feature[node] >= 0:
                node = tree.left[node] if X[i, tree.feature[node]] <= tree.threshold[node] \
                    else tree.right[node]
            pred_leaf.setdefault(node, 0)
            pred_leaf[node] += 1
        assert min(pred_leaf.values()) >= 3

    def test_pure_node_stops(self):
        X = np.random.default_rng(0).standard_normal((20, 2))
        tree = build_tree(X, np.ones(20), rng=None, max_depth=5, min_leaf=1,
                          n_candidate_features=None, criterion="gini")
        assert len(tree.feature) == 1 and tree.value[0] == 1.0

    def test_regression_tree_fits_means(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([2.0, 4.0, 10.0, 14.0])
        tree = build_tree(X, y, rng=None, max_depth=1, min_leaf=1,
                          n_candidate_features=None, criterion="sse")
        pred = tree_predict(tree, X)
        assert pred.tolist() == [3.0, 3.0, 12.0, 12.0]


class TestRandomForest:
    def test_constant_features_single_leaf(self):
        X = np.ones((20, 3))
        y = np.array([1.0] * 5 + [0.0] * 15)
        model = fit_random_forest(X, y, RandomForestParams(n_trees=10, bootstrap=False), seed=0)
        assert rf_score_many(model, X[:1])[0] == pytest.approx(0.25)

    def test_single_tree_no_bootstrap_separates(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        params = RandomForestParams(n_trees=1, bootstrap=False, max_depth=8, min_leaf=1)
        model = fit_random_forest(X, y, params, seed=0)
        scores = rf_score_many(model, X)
        assert scores.tolist() == y.tolist()

    def test_same_seed_identical(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 5))
        y = (rng.random(60) < 0.3).astype(float)
        m1 = fit_random_forest(X, y, RandomForestParams(n_trees=25), seed=11)
        m2 = fit_random_forest(X, y, RandomForestParams(n_trees=25), seed=11)
        grid = rng.standard_normal((30, 5))
        assert np.array_equal(rf_score_many(m1, grid), rf_score_many(m2, grid))

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 4))
        y = (rng.random(80) < 0.4).astype(float)
        model = fit_random_forest(X, y, RandomForestParams(n_trees=30), seed=3)
        s = rf_score_many(model, rng.standard_normal((50, 4)))
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DataError):
            fit_random_forest(X, np.ones(10), RandomForestParams(n_trees=2), seed=0)


class TestGradientBoosting:
    def test_zero_stages_is_base_rate(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 3))
        y = np.array([1.0] * 10 + [0.0] * 30)
        model = fit_gradient_boosting(X, y, GradientBoostingParams(n_stages=0))
        assert gb_score_many(model, X[:1])[0] == pytest.approx(math.log(0.25 / 0.75))

    def test_zero_shrinkage_matches_base_rate(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 3))
        y = (rng.random(40) < 0.4).astype(float)
        m0 = fit_gradient_boosting(X, y, GradientBoostingParams(n_stages=0))
        mz = fit_gradient_boosting(X, y, GradientBoostingParams(n_stages=20, shrinkage=0.0))
        grid = rng.standard_normal((20, 3))
        assert np.array_equal(gb_score_many(m0, grid), gb_score_many(mz, grid))

    def test_separable_data_drives_loss_down(self):
        x = np.concatenate([np.linspace(0, 1, 20), np.linspace(10, 11, 20)])[:, None]
        y = np.array([0.0] * 20 + [1.0] * 20)
        model = fit_gradient_boosting(
            x, y, GradientBoostingParams(n_stages=100, max_depth=1, shrinkage=0.1)
        )
        assert model.train_loss[-1] < 0.05

    def test_training_loss_monotone(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((100, 5))
        y = (rng.random(100) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
        model = fit_gradient_boosting(X, y, GradientBoostingParams(n_stages=60))
        assert all(b <= a + 1e-12 for a, b in zip(model.train_loss, model.train_loss[1:]))

    def test_scores_finite(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 4))
        y = (rng.random(60) < 0.3).astype(float)
        model = fit_gradient_boosting(X, y, GradientBoostingParams(n_stages=40))
        assert np.all(np.isfinite(gb_score_many(model, rng.standard_normal((30, 4)))))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DataError):
            fit_gradient_boosting(X, np.zeros(10), GradientBoostingParams(n_stages=5))
