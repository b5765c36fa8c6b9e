"""Random forest of Gini classification trees on bootstrap resamples.

Each tree grows on its own bootstrap resample, considering ceil(sqrt(p))
uniformly drawn candidate features per node; leaves store the stress
frequency of their training rows. Trees grow to depth ``MAX_DEPTH`` with
leaves of at least ``MIN_LEAF`` rows; only the tree count is a setting
(``rf_trees``). The forest score is the average leaf frequency across
trees, in [0, 1]. Per-tree random streams are spawned from the fit seed,
so output is bit-deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError
from ..numpy_parts import has_both_classes, numpy_random
from .trees import Tree, build_tree, leaf_values

MAX_DEPTH = 8
MIN_LEAF = 5


def fit_random_forest(
    X: np.ndarray, y: np.ndarray, n_trees: int, seed: np.random.SeedSequence
) -> list[Tree]:
    """Fit ``n_trees`` trees, one per child ``seed`` spawns; requires both
    classes present. The forest is its list of trees."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if not has_both_classes(y):
        raise DataError("random forest needs both classes in the training targets")
    mtry = math.ceil(math.sqrt(p))
    nprandom = numpy_random()
    trees = []
    for child in seed.spawn(n_trees):
        rng = nprandom.Generator(nprandom.PCG64(child))
        idx = rng.integers(0, n, size=n)
        trees.append(
            build_tree(
                X[idx], y[idx], rng,
                max_depth=MAX_DEPTH, min_leaf=MIN_LEAF,
                n_candidate_features=mtry, criterion="gini",
            )
        )
    return trees


def rf_score_many(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """Ensemble-average leaf frequency for each row of X."""
    X = np.asarray(X, dtype=float)
    # running sum over the trees in order, as a loop of acc += leaf values would add
    return np.add.accumulate(leaf_values(trees, X), axis=0)[-1] / len(trees)
