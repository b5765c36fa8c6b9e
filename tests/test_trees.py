import math

import numpy as np
import pytest

from mspi.errors import DataError
from mspi.learners.boosting import fit_gradient_boosting, gb_score_many
from mspi.learners.forest import fit_random_forest, rf_score_many
from mspi.learners.trees import Tree, build_tree, leaf_values, presort

from .oracles import descend_one_tree, per_node_sort_tree

TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def same_tree(a, b) -> bool:
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in TREE_FIELDS)


def tree_predict(tree, X):
    return leaf_values([tree], X)[0]


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


class TestPresortedGrowth:
    """Presorted growth builds the trees of a fresh stable argsort per node."""

    @staticmethod
    def design(rng, kind, n, p):
        if kind == "continuous":
            return rng.standard_normal((n, p))
        if kind == "ties":
            return rng.integers(0, 4, (n, p)).astype(float)
        if kind == "resampled":  # bootstrap duplicates of a smaller design
            base = rng.standard_normal((max(2, n // 3), p))
            return base[rng.integers(0, base.shape[0], n)]
        X = rng.standard_normal((n, p)).round(1)
        X[:, rng.integers(p)] = 1.5  # a constant column
        return X

    @pytest.mark.parametrize("criterion", ["gini", "sse"])
    @pytest.mark.parametrize("kind", ["continuous", "ties", "resampled", "constant_column"])
    def test_equal_to_per_node_sort(self, criterion, kind):
        rng = np.random.default_rng([7, len(kind), len(criterion)])
        for trial in range(60):
            n, p = int(rng.integers(2, 90)), int(rng.integers(1, 8))
            X = self.design(rng, kind, n, p)
            if criterion == "gini":
                y = (rng.random(n) < 0.4).astype(float)
            else:
                y = rng.standard_normal(n).round(int(rng.integers(0, 3)))
            min_leaf = trial // 2 % 8
            max_depth = int(rng.integers(1, 9))
            mtry = int(rng.integers(1, p + 1)) if trial % 2 else None
            seed = int(rng.integers(1 << 30))
            expected = per_node_sort_tree(X, y, np.random.default_rng(seed), max_depth,
                                          min_leaf, mtry, criterion)
            got = build_tree(X, y, np.random.default_rng(seed), max_depth, min_leaf, mtry,
                             criterion)
            assert same_tree(got, expected), (trial, n, p, min_leaf, max_depth, mtry)

    def test_shared_presort_and_leaf_rows(self):
        def check(X, y, order):
            leaves = []
            tree = build_tree(X, y, None, 3, 4, None, "sse", presorted=order, leaves=leaves)
            assert same_tree(tree, per_node_sort_tree(X, y, None, 3, 4, None, "sse"))
            leaf_of = np.full(len(y), -1)
            for node, rows in leaves:
                assert np.all(np.diff(rows) > 0)
                leaf_of[rows] = node
            assert np.array_equal(leaf_of, descend_one_tree(tree, X))

        rng = np.random.default_rng(3)
        X = rng.integers(0, 5, (70, 4)).astype(float)
        order = presort(X)
        for _ in range(5):
            check(X, rng.standard_normal(70), order)
        # each child of the root holds one x and both y values: no boundary
        # separates distinct values, so the split search makes it a leaf
        X = np.repeat([[0.0], [1.0]], 12, axis=0)
        check(X, np.tile([0.0, 1.0, 1.0, 0.0], 6), presort(X))


class TestLeafValues:
    def test_stacked_descent_equals_one_tree_at_a_time(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 5, (60, 3)).astype(float)
        y = (rng.random(60) < 0.4).astype(float)
        trees = [build_tree(X, y, np.random.default_rng(s), int(s % 5), 2, 2, "gini")
                 for s in range(12)]
        Z = np.vstack([X, rng.integers(-1, 6, (20, 3)).astype(float)])
        expected = np.array([t.value[descend_one_tree(t, Z)] for t in trees])
        assert leaf_values(trees, Z).tobytes() == expected.tobytes()
        # node ids as leaf values give the leaf index of every row
        ids = [Tree(t.feature, t.threshold, t.left, t.right, np.arange(t.feature.size * 1.0))
               for t in trees]
        assert np.array_equal(leaf_values(ids, Z), [descend_one_tree(t, Z) for t in trees])
        assert leaf_values([], Z).shape == (0, 80)


class TestRandomForest:
    # The forest's tree on its resample: candidate features drawn per node.
    def test_constant_features_single_leaf(self):
        X = np.ones((20, 3))
        y = np.array([1.0] * 5 + [0.0] * 15)
        tree = build_tree(X, y, np.random.default_rng(0), max_depth=8, min_leaf=5,
                          n_candidate_features=2, criterion="gini")
        assert len(tree.feature) == 1
        assert tree_predict(tree, X[:1])[0] == pytest.approx(0.25)

    def test_single_tree_no_bootstrap_separates(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        tree = build_tree(X, y, np.random.default_rng(0), max_depth=8, min_leaf=1,
                          n_candidate_features=1, criterion="gini")
        assert tree_predict(tree, X).tolist() == y.tolist()

    def test_same_seed_identical(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 5))
        y = (rng.random(60) < 0.3).astype(float)
        m1 = fit_random_forest(X, y, 25, np.random.SeedSequence(11))
        m2 = fit_random_forest(X, y, 25, np.random.SeedSequence(11))
        grid = rng.standard_normal((30, 5))
        assert np.array_equal(rf_score_many(m1, grid), rf_score_many(m2, grid))

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 4))
        y = (rng.random(80) < 0.4).astype(float)
        model = fit_random_forest(X, y, 30, np.random.SeedSequence(3))
        s = rf_score_many(model, rng.standard_normal((50, 4)))
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DataError):
            fit_random_forest(X, np.ones(10), 2, np.random.SeedSequence(0))


class TestGradientBoosting:
    def test_zero_stages_is_base_rate(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 3))
        y = np.array([1.0] * 10 + [0.0] * 30)
        model = fit_gradient_boosting(X, y, 0)
        assert gb_score_many(model, X[:1])[0] == pytest.approx(math.log(0.25 / 0.75))

    def test_zero_shrinkage_matches_base_rate(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 3))
        y = (rng.random(40) < 0.4).astype(float)
        m0 = fit_gradient_boosting(X, y, 0)
        mz = fit_gradient_boosting(X, y, 20, shrinkage=0.0)
        grid = rng.standard_normal((20, 3))
        assert np.array_equal(gb_score_many(m0, grid), gb_score_many(mz, grid))

    def test_separable_data_drives_loss_down(self):
        x = np.concatenate([np.linspace(0, 1, 20), np.linspace(10, 11, 20)])[:, None]
        y = np.array([0.0] * 20 + [1.0] * 20)
        model = fit_gradient_boosting(x, y, 100, max_depth=1, shrinkage=0.1)
        assert model.train_loss[-1] < 0.05

    def test_training_loss_monotone(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((100, 5))
        y = (rng.random(100) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
        model = fit_gradient_boosting(X, y, 60)
        assert all(b <= a + 1e-12 for a, b in zip(model.train_loss, model.train_loss[1:]))

    def test_scores_finite(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 4))
        y = (rng.random(60) < 0.3).astype(float)
        model = fit_gradient_boosting(X, y, 40)
        assert np.all(np.isfinite(gb_score_many(model, rng.standard_normal((30, 4)))))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DataError):
            fit_gradient_boosting(X, np.zeros(10), 5)

    def test_prefix_equals_shorter_fit(self):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 6, (90, 4)).astype(float)
        y = (rng.random(90) < 1 / (1 + np.exp(-X[:, 0] + 2.5))).astype(float)
        full = fit_gradient_boosting(X, y, 40)
        grid = rng.standard_normal((25, 4))
        for m in (0, 1, 17, 40):
            short = fit_gradient_boosting(X, y, m)
            prefix = full.prefix(m)
            assert prefix.shrinkage == short.shrinkage and prefix.f0 == short.f0
            assert prefix.train_loss == short.train_loss
            assert len(prefix.trees) == m
            assert all(same_tree(a, b) for a, b in zip(prefix.trees, short.trees))
            assert gb_score_many(prefix, grid).tobytes() == gb_score_many(short, grid).tobytes()
        with pytest.raises(ValueError):
            full.prefix(41)
