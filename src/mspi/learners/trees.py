"""Axis-aligned decision trees used by the forest and boosting learners.

A tree is stored as parallel arrays (feature, threshold, left, right,
value); leaves have feature -1. Split search is exhaustive over midpoints
between consecutive distinct sorted values, minimizing Gini impurity for
classification targets or the sum of squared errors for regression
targets. Rows with x[feature] <= threshold go left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Tree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _best_split(V: np.ndarray, y: np.ndarray, min_leaf: int, criterion: str):
    """Best (column, threshold) over candidate-feature columns V, or None.

    Scores every boundary between consecutive distinct sorted values in all
    columns at once; ties resolve to the earliest boundary, then the
    earliest column, which keeps tree growth deterministic.
    """
    n, k = V.shape
    order = np.argsort(V, axis=0, kind="stable")
    xs = np.take_along_axis(V, order, axis=0)
    ys = y[order]
    left_n = np.arange(1, n, dtype=float)[:, None]
    right_n = n - left_n
    valid = xs[1:] != xs[:-1]
    if min_leaf > 1:
        valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
    if not valid.any():
        return None

    s1 = np.cumsum(ys, axis=0)
    tot1 = s1[-1]
    s1 = s1[:-1]
    if criterion == "gini":
        lp = s1 / left_n
        rp = (tot1 - s1) / right_n
        score = left_n * 2.0 * lp * (1.0 - lp) + right_n * 2.0 * rp * (1.0 - rp)
    else:  # sse
        s2 = np.cumsum(ys * ys, axis=0)
        tot2 = s2[-1]
        s2 = s2[:-1]
        score = (s2 - s1 * s1 / left_n) + ((tot2 - s2) - (tot1 - s1) ** 2 / right_n)

    score = np.where(valid, score, np.inf)
    flat = int(np.argmin(score))
    row, col = divmod(flat, k)
    lo, hi = xs[row, col], xs[row + 1, col]
    thr = (lo + hi) / 2.0
    if thr >= hi:  # adjacent floats: keep the split boundary below the right value
        thr = lo
    return col, float(thr)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator | None,
    max_depth: int,
    min_leaf: int,
    n_candidate_features: int | None,
    criterion: str,
) -> Tree:
    """Grow one tree. Candidate features are drawn uniformly per node when
    ``n_candidate_features`` is given (requires ``rng``); otherwise all
    features are searched. Leaf values are target means.
    """
    n, p = X.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def grow(idx: np.ndarray, depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(np.mean(y[idx])))

        if depth >= max_depth or idx.shape[0] < 2 * min_leaf:
            return node
        yn = y[idx]
        if np.all(yn == yn[0]):
            return node

        if n_candidate_features is not None and n_candidate_features < p:
            cand = np.sort(rng.choice(p, size=n_candidate_features, replace=False))
        else:
            cand = np.arange(p)
        found = _best_split(X[np.ix_(idx, cand)], yn, min_leaf, criterion)
        if found is None:
            return node

        f = int(cand[found[0]])
        thr = found[1]
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(n), 0)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value),
    )


def tree_leaf_index(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Terminal node index for each row of X (2-D) via iterative descent."""
    n = X.shape[0]
    pos = np.zeros(n, dtype=np.int64)
    while True:
        f = tree.feature[pos]
        active = f >= 0
        if not active.any():
            return pos
        rows = np.flatnonzero(active)
        fa = f[rows]
        go_left = X[rows, fa] <= tree.threshold[pos[rows]]
        pos[rows] = np.where(go_left, tree.left[pos[rows]], tree.right[pos[rows]])


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf values for each row of X (2-D)."""
    return tree.value[tree_leaf_index(tree, X)]
