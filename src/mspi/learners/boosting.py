"""Gradient-boosted shallow regression trees for the Bernoulli loss.

The score F is additive in log-odds space: F_0 is the logit of the training
event rate, each stage fits a depth-limited regression tree to the negative
gradient (y - p), re-estimates the terminal values with the one-step Newton
update sum(y - p) / sum(p(1-p)), and adds the tree with shrinkage nu. The
raw score for a row is F_M(x); probabilities come from a separately fitted
calibration map.

X is sorted once per fit (``presort``) and every stage's tree grows from
that order. Each stage is a function of the stages before it only, so the
first m stages of a fit are the fit with m stages, bit for bit:
``BoostModel.prefix`` reads the smaller fits of a nested stage grid off
the largest one.

Only the stage count is tuned (``gb_stage_grid``). The depth ``MAX_DEPTH``,
shrinkage ``SHRINKAGE`` and leaf size ``MIN_LEAF`` are constants; the tests
pass ``fit_gradient_boosting`` other depths and shrinkages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericError
from ..numpy_parts import has_both_classes
from .logit import mean_nll, sigmoid
from .trees import Tree, build_tree, leaf_values, presort

MAX_DEPTH = 2
SHRINKAGE = 0.1
MIN_LEAF = 5


@dataclass
class BoostModel:
    f0: float
    trees: list[Tree]
    shrinkage: float
    train_loss: list[float]

    def prefix(self, n_stages: int) -> BoostModel:
        """The model of the first ``n_stages`` stages: equal to a fit with
        ``n_stages`` stages and the same other parameters."""
        if not 0 <= n_stages <= len(self.trees):
            raise ValueError(f"prefix of {n_stages} stages from a {len(self.trees)}-stage model")
        return BoostModel(f0=self.f0, trees=self.trees[:n_stages], shrinkage=self.shrinkage,
                          train_loss=self.train_loss[:n_stages + 1])


def fit_gradient_boosting(X: np.ndarray, y: np.ndarray, n_stages: int,
                          max_depth: int = MAX_DEPTH, shrinkage: float = SHRINKAGE) -> BoostModel:
    """Fit ``n_stages`` stages; requires both classes present."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not has_both_classes(y):
        raise DataError("gradient boosting needs both classes in the training targets")

    rate = float(np.mean(y))
    f0 = math.log(rate / (1.0 - rate))
    f = np.full(y.shape[0], f0)
    presorted = presort(X)
    leaf_of = np.empty(y.shape[0], dtype=np.int64)
    trees: list[Tree] = []
    losses = [mean_nll(f, y)]
    for stage in range(n_stages):
        p = sigmoid(f)
        resid = y - p
        leaves: list = []
        tree = build_tree(
            X, resid, rng=None, max_depth=max_depth, min_leaf=MIN_LEAF,
            n_candidate_features=None, criterion="sse", presorted=presorted, leaves=leaves,
        )
        # one-step Newton terminal values on the Bernoulli loss
        weight = p * (1.0 - p)
        for node, rows in leaves:
            denom = float(np.add.reduce(weight.take(rows)))
            tree.value[node] = float(np.add.reduce(resid.take(rows))) / max(denom, 1e-12)
            leaf_of[rows] = node
        f = f + shrinkage * tree.value.take(leaf_of)
        loss = mean_nll(f, y)
        if not math.isfinite(loss):
            raise NumericError(f"gradient boosting loss became non-finite at stage {stage}")
        trees.append(tree)
        losses.append(loss)
    return BoostModel(f0=f0, trees=trees, shrinkage=shrinkage, train_loss=losses)


def gb_score_many(model: BoostModel, X: np.ndarray) -> np.ndarray:
    """Raw boosted log-odds score for each row of X."""
    X = np.asarray(X, dtype=float)
    steps = model.shrinkage * leaf_values(model.trees, X)
    # F_0 plus the stages in order, as a loop of f += step would add them
    return np.add.accumulate(np.vstack([np.full(X.shape[0], model.f0), steps]), axis=0)[-1]
