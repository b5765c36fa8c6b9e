"""Random forest of Gini classification trees on bootstrap resamples.

Each tree grows on its own bootstrap resample, considering ceil(sqrt(p))
uniformly drawn candidate features per node; leaves store the stress
frequency of their training rows. The forest score is the average leaf
frequency across trees, in [0, 1]. Per-tree random streams are spawned
from the fit seed, so output is bit-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .trees import Tree, build_tree, leaf_values


@dataclass(frozen=True)
class RandomForestParams:
    n_trees: int = 500
    max_depth: int = 8
    min_leaf: int = 5

    def resolve_mtry(self, p: int) -> int:
        """Candidate features drawn per node."""
        return math.ceil(math.sqrt(p))


@dataclass
class ForestModel:
    trees: list[Tree]


def fit_random_forest(
    X: np.ndarray, y: np.ndarray, params: RandomForestParams, seed: np.random.SeedSequence
) -> ForestModel:
    """Fit one tree per child ``seed`` spawns; requires both classes present."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if np.unique(y).shape[0] < 2:
        raise DataError("random forest needs both classes in the training targets")
    mtry = params.resolve_mtry(p)
    trees = []
    for child in seed.spawn(params.n_trees):
        rng = np.random.Generator(np.random.PCG64(child))
        idx = rng.integers(0, n, size=n)
        trees.append(
            build_tree(
                X[idx], y[idx], rng,
                max_depth=params.max_depth, min_leaf=params.min_leaf,
                n_candidate_features=mtry, criterion="gini",
            )
        )
    return ForestModel(trees=trees)


def rf_score_many(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Ensemble-average leaf frequency for each row of X."""
    X = np.asarray(X, dtype=float)
    # running sum over the trees in order, as a loop of acc += leaf values would add
    return np.add.accumulate(leaf_values(model.trees, X), axis=0)[-1] / len(model.trees)
