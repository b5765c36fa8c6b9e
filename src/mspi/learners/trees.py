"""Axis-aligned decision trees used by the forest and boosting learners.

A tree is stored as parallel arrays (feature, threshold, left, right,
value); leaves have feature -1. Split search is exhaustive over midpoints
between consecutive distinct sorted values, minimizing Gini impurity for
classification targets or the sum of squared errors for regression
targets. Rows with x[feature] <= threshold go left.

Each column is sorted once per design (``presort``), never per node. A
node carries, for every column, its own rows in that column's sorted
order; a split hands each child its part of those orders by a stable
partition on the go-left mask. The root order is a stable argsort, and a
stable filter keeps equal values in ascending row order, so every node
sees exactly the order a fresh stable argsort of its rows would give, and
the running sums, scores and ties are the same bits. Only the boundaries
that leave ``min_leaf`` rows on each side are scored; ties go to the
earliest boundary, then the earliest column. X must be finite: a split
sends the rows before its boundary in the split column's order left.
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


def presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column orders of X for ``build_tree``: (rows, values).

    ``rows`` is (p+1, n): row j < p lists the rows of X in stable sorted
    order of column j, and row p is 0..n-1 (the rows in ascending order).
    ``values`` is (p, n): column j of X in that sorted order.
    """
    n, p = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    rows = np.empty((p + 1, n), dtype=np.intp)
    rows[:p] = order.T
    rows[p] = np.arange(n)
    values = np.ascontiguousarray(np.take_along_axis(X, order, axis=0).T)
    return rows, values


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator | None,
    max_depth: int,
    min_leaf: int,
    n_candidate_features: int | None,
    criterion: str,
    presorted: tuple[np.ndarray, np.ndarray] | None = None,
    leaves: list | None = None,
) -> Tree:
    """Grow one tree depth first. Candidate features are drawn uniformly
    per node when ``n_candidate_features`` is given (requires ``rng``);
    otherwise all features are searched. Leaf values are target means.

    ``presorted`` is ``presort(X)``, for callers that grow many trees on
    the same X; it is computed here when omitted. When ``leaves`` is a
    list, each leaf appends (node, its training rows in ascending order).
    """
    n, p = X.shape
    rows0, values0 = presort(X) if presorted is None else presorted
    draw = n_candidate_features is not None and n_candidate_features < p
    k = n_candidate_features if draw else p
    gini = criterion == "gini"
    min_leaf = max(min_leaf, 1)  # every child has a row, so 0 acts as 1
    lo = min_leaf - 1  # first boundary with min_leaf rows on the left
    # Left row counts 1..n, one per (boundary, column) pair, boundary-major.
    left_n_all = np.arange(1, n + 1, dtype=float).repeat(k).reshape(n, k)
    left_2n_all = left_n_all * 2.0
    # bound once: a fit runs the per-node code thousands of times
    inf = np.inf
    take = y.take
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    accumulate = np.add.accumulate
    mark = np.zeros(n, dtype=bool)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def grow(idx: np.ndarray, rows: np.ndarray | None, values: np.ndarray | None,
             depth: int) -> int:
        # idx: the node's rows in ascending order; rows/values: its part of
        # presort's arrays, or None when depth or size make the node a leaf
        m = idx.shape[0]
        yn = take(idx)
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(add.reduce(yn) / m))  # the bits of np.mean

        if depth >= max_depth or m < 2 * min_leaf or not np.count_nonzero(yn != yn[0]):
            if leaves is not None:
                leaves.append((node, idx))
            return node

        if draw:
            cand = rng.choice(p, size=k, replace=False)
            cand.sort()
            cand_rows = rows.take(cand, axis=0)
            cand_values = values.take(cand, axis=0)
        else:
            cand = None
            cand_rows = rows[:p]
            cand_values = values
        # (boundary, column) layout: boundary r lies between sorted rows r and r+1
        hi = m - min_leaf
        # The score formulas evaluate
        #   gini: left_n*2*lp*(1-lp) + right_n*2*rp*(1-rp), lp = s1/left_n, rp = (tot1-s1)/right_n
        #   sse:  (s2 - s1*s1/left_n) + ((tot2-s2) - (tot1-s1)**2/right_n)
        # operation by operation in that order, in place to save allocations.
        ys = take(cand_rows.T)
        left_n = left_n_all[lo:hi]
        right_n = m - left_n
        if gini:
            s1 = accumulate(ys, axis=0, out=ys)
            rp = subtract(s1[-1], s1[lo:hi])
            lp = divide(s1[lo:hi], left_n)
            score = multiply(left_2n_all[lo:hi], lp)
            score *= subtract(1.0, lp, out=lp)
            rp /= right_n
            term = multiply(right_n, 2.0, out=right_n)
            term *= rp
            term *= subtract(1.0, rp, out=rp)
            score += term
        else:  # sse
            s2 = accumulate(multiply(ys, ys), axis=0)
            s1 = accumulate(ys, axis=0, out=ys)
            score = multiply(s1[lo:hi], s1[lo:hi])
            score /= left_n
            subtract(s2[lo:hi], score, out=score)
            term = subtract(s1[-1], s1[lo:hi])
            term *= term
            term /= right_n
            rest = subtract(s2[-1], s2[lo:hi], out=right_n)
            rest -= term
            score += rest
        # only boundaries between distinct values are splits
        sorted_x = cand_values.T
        np.putmask(score, np.equal(sorted_x[lo:hi], sorted_x[lo + 1:hi + 1], order="C"), inf)
        # argmin of the boundary-major layout: earliest boundary, then earliest column
        best = int(score.argmin())
        row, col = divmod(best, k)
        if score[row, col] == inf:
            if leaves is not None:
                leaves.append((node, idx))
            return node

        n_left = lo + row + 1
        x_lo, x_hi = sorted_x[n_left - 1, col], sorted_x[n_left, col]
        thr = (x_lo + x_hi) / 2.0
        if thr >= x_hi:  # adjacent floats: keep the split boundary below the right value
            thr = x_lo
        thr = float(thr)
        # x_lo <= thr < x_hi, so the first n_left rows in the sorted column go left
        sorted_rows = cand_rows[col]
        mark[sorted_rows[:n_left]] = True
        mark[sorted_rows[n_left:]] = False
        feature[node] = col if cand is None else int(cand[col])
        threshold[node] = thr
        sizes = (n_left, m - n_left)
        if depth + 1 < max_depth and max(sizes) >= 2 * min_leaf:
            # stable partition of every column's order (and of idx, row p)
            go = mark.take(rows).reshape(-1)
            children = []
            for part_mask, size in zip((go, ~go), sizes):
                part = rows.compress(part_mask).reshape(p + 1, -1)
                if size < 2 * min_leaf:
                    children.append((part[p], None, None))
                else:
                    part_values = values.compress(part_mask[:p * m]).reshape(p, -1)
                    children.append((part[p], part, part_values))
        else:  # both children are leaves: only their rows are needed
            go = mark.take(idx)
            children = [(idx.compress(go), None, None), (idx.compress(~go), None, None)]
        left[node] = grow(*children[0], depth + 1)
        right[node] = grow(*children[1], depth + 1)
        return node

    grow(rows0[p], rows0, values0, 0)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value),
    )


def leaf_values(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """Each tree's leaf value for each row of X (2-D): a (len(trees), n) array.

    The trees descend together: their arrays are stacked with node
    offsets, so a level costs a few array operations however many trees
    there are.
    """
    n = X.shape[0]
    if not trees:
        return np.empty((0, n))
    sizes = [tree.feature.shape[0] for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left for tree in trees]) + offset
    right = np.concatenate([tree.right for tree in trees]) + offset
    pos = np.repeat(roots, n)
    row = np.tile(np.arange(n), len(trees))
    active = np.flatnonzero(feature[pos] >= 0)
    while active.size:
        at = pos[active]
        go_left = X[row[active], feature[at]] <= threshold[at]
        pos[active] = np.where(go_left, left[at], right[at])
        active = active[feature[pos[active]] >= 0]
    return np.concatenate([tree.value for tree in trees])[pos].reshape(len(trees), n)
