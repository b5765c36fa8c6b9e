"""Independent reference implementations used to check the package.

These deliberately use different algorithms from the library code: full
Newton-Raphson for logistic MLEs, accelerated proximal gradient (FISTA)
for the lasso-logit, direct order-statistic interpolation for
quantiles, explicit pair enumeration for ranking metrics, the trapezoid rule
for ROC areas, a literal White covariance formula, a row-by-row panel
CSV loader, a tree grower that sorts every node's rows afresh with a
one-tree-at-a-time descent, and the per-day, per-month, per-tie-group and
per-replicate loops the batched statistics and metrics replaced.

``l1_objective``, the lasso objective at a fitted model, and ``sim_panel``,
a simulation's block as the ``DailyPanel`` its CSV loads to, sit here too:
only the tests read them.
"""

from __future__ import annotations

import csv
import datetime as dt
import math

import numpy as np

from mspi.errors import DataError
from mspi.learners.logit import LogitModel, mean_nll
from mspi.learners.trees import Tree
from mspi.panel import DailyPanel, EligibilityFilter, IngestSummary


def newton_logit(X: np.ndarray, y: np.ndarray, l2: float = 0.0,
                 max_iter: int = 200, tol: float = 1e-14) -> np.ndarray:
    """Full-Newton logistic MLE; returns [intercept, coefs].

    ``l2`` adds a lam*||beta||^2 penalty (intercept unpenalized) on the
    mean-loss scale, matching the library's objective.
    """
    n, p = X.shape
    A = np.column_stack([np.ones(n), X])
    w = np.zeros(p + 1)
    mask = np.concatenate([[0.0], np.ones(p)])
    for _ in range(max_iter):
        z = np.clip(A @ w, -700, 700)
        pr = 1.0 / (1.0 + np.exp(-z))
        g = A.T @ (pr - y) / n + 2.0 * l2 * mask * w
        H = (A * (pr * (1.0 - pr))[:, None]).T @ A / n + 2.0 * l2 * np.diag(mask)
        step = np.linalg.solve(H, g)
        w = w - step
        if np.max(np.abs(step)) < tol:
            return w
    return w


def fista_logit_l1(X: np.ndarray, y: np.ndarray, lam: float, tol: float = 1e-16,
                   step_tol: float = 1e-14, max_iter: int = 200_000) -> np.ndarray:
    """Lasso-logit by FISTA with function-value restarts; returns [intercept, coefs].

    Minimizes mean NLL + lam * ||beta||_1 (intercept unpenalized) by
    soft-thresholded gradient steps with a backtracking step size, and stops
    once the objective decrease is below ``tol`` and the largest parameter
    update below ``step_tol``.
    """
    n, p = X.shape
    A = np.column_stack([np.ones(n), X])

    def smooth(w):
        z = A @ w
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def smooth_grad(w):
        return A.T @ (0.5 * (1.0 + np.tanh(0.5 * (A @ w))) - y) / n

    def total(w):
        return smooth(w) + lam * float(np.sum(np.abs(w[1:])))

    def prox(v, t):
        out = v.copy()
        out[1:] = np.sign(v[1:]) * np.maximum(np.abs(v[1:]) - t * lam, 0.0)
        return out

    step = 4.0 * n / float(np.linalg.eigvalsh(A.T @ A).max())

    def prox_step(point):
        nonlocal step
        f_point, g = smooth(point), smooth_grad(point)
        while True:
            cand = prox(point - step * g, step)
            d = cand - point
            if smooth(cand) <= f_point + float(g @ d) + float(d @ d) / (2.0 * step) + 1e-15:
                return cand, total(cand)
            step *= 0.5

    w = np.zeros(p + 1)
    f_w = total(w)
    z, t_mom = w.copy(), 1.0
    for _ in range(max_iter):
        w_new, f_new = prox_step(z)
        if f_new > f_w:  # momentum overshoot: restart from the last accepted point
            z, t_mom = w, 1.0
            w_new, f_new = prox_step(z)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = w_new + ((t_mom - 1.0) / t_next) * (w_new - w)
        done = f_w - f_new < tol and float(np.max(np.abs(w_new - w))) < step_tol
        w, f_w, t_mom = w_new, f_new, t_next
        if done:
            return w
    raise AssertionError(f"FISTA oracle did not converge in {max_iter} iterations")


def l1_objective(model: LogitModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean-loss lasso objective at the model's parameters."""
    z = model.intercept + np.asarray(X, dtype=float) @ model.coef
    return mean_nll(z, np.asarray(y, dtype=float)) + model.lam * float(np.sum(np.abs(model.coef)))


def sim_panel(sim) -> DailyPanel:
    """The months a ``simulate.SimOutput`` draws, joined into the ``DailyPanel``
    its ``panel.csv`` loads to. This exhausts ``sim.months``."""
    months = list(sim.months)
    dates = [day for days, *_ in months for day in days]
    ret, prc, vol = (np.concatenate([m[k] for m in months]) for k in (1, 2, 3))
    n_days, n = ret.shape
    return DailyPanel(dates, np.arange(0, n_days * n + 1, n), ret.ravel(), prc.ravel(),
                      vol.ravel(), np.tile(sim.shrout, n_days))


def interp_quantile(values, alpha: float) -> float:
    """Order-statistic quantile at position (n-1)*alpha, linearly interpolated."""
    s = sorted(values)
    h = (len(s) - 1) * alpha
    lo = int(np.floor(h))
    if lo == len(s) - 1:
        return float(s[-1])
    frac = h - lo
    return float(s[lo] + frac * (s[lo + 1] - s[lo]))


def pairwise_auc(scores, y) -> float:
    """AUC by explicit pair enumeration with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=float)
    pos = scores[y == 1.0]
    neg = scores[y == 0.0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def white_covariance(X: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Heteroskedasticity-robust covariance, no small-sample correction."""
    meat = (X * (residuals**2)[:, None]).T @ X
    bread = np.linalg.inv(X.T @ X)
    return bread @ meat @ bread


def trapezoid_auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Area under an ROC curve by the trapezoid rule.

    Takes the ``(fpr, tpr)`` pair from ``roc_points``, with ``fpr``
    non-decreasing, and sums the trapezoids between consecutive points. It
    uses only ``np.diff`` and ``np.sum``, so it runs on every NumPy the
    package declares (``trapz`` is gone in 2.x and ``trapezoid`` is new in
    2.0).
    """
    fpr = np.asarray(fpr, dtype=float)
    tpr = np.asarray(tpr, dtype=float)
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


# ---------------------------------------------------------------------------
# Row-by-row panel loader: one csv.reader row and one Python tuple per line,
# sorted per date by a Python key. It defines the values, drop counts and
# error messages the package's chunked column-wise loader must reproduce;
# every message starts with the file's path.

PANEL_COLUMNS = ["date", "security_id", "ret", "prc", "vol", "shrout", "shrcd_ok", "exchcd_ok"]
_TRUE_TOKENS = {"1", "true", "t", "yes"}
_FALSE_TOKENS = {"0", "false", "f", "no"}


# ``at`` is a row's place in the file: "<path>: line <n>".

def _parse_bool(token: str, at: str, column: str) -> bool:
    low = token.strip().lower()
    if low in _TRUE_TOKENS:
        return True
    if low in _FALSE_TOKENS:
        return False
    raise DataError(f"{at}, column '{column}': cannot parse boolean from {token!r}")


def _parse_date(token: str, at: str, column: str) -> dt.date:
    try:
        return dt.date.fromisoformat(token.strip())
    except ValueError as exc:
        raise DataError(f"{at}, column '{column}': {exc}") from None


def _parse_float(token: str, at: str, column: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"{at}, column '{column}': cannot parse number from {token!r}") from None


def _open_rows(path: str, required: list[str]):
    """Yield (line_number, row dict) for a headered CSV, skipping comments;
    a csv.Error raises DataError naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = None
            for row in reader:
                if not row or (row[0].startswith("#") and header is None):
                    continue
                header = row
                break
            if header is None:
                raise DataError(f"{path}: empty file")
            index = {name.strip(): i for i, name in enumerate(header)}
            missing = [c for c in required if c not in index]
            if missing:
                raise DataError(f"{path}: header is missing columns {missing}")
            width = len(header)
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                if len(row) != width:
                    raise DataError(
                        f"{path}: line {reader.line_num}: expected {width} fields, "
                        f"found {len(row)}"
                    )
                yield reader.line_num, {c: row[index[c]] for c in required}
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def load_daily_panel_rowwise(
    path: str, filt: EligibilityFilter
) -> tuple[DailyPanel, IngestSummary]:
    """Load and filter the daily panel CSV one row at a time."""
    summary = IngestSummary()
    by_date: dict[dt.date, list[tuple]] = {}
    for line, row in _open_rows(path, PANEL_COLUMNS):
        summary.rows_read += 1
        at = f"{path}: line {line}"
        day = _parse_date(row["date"], at, "date")
        sec = row["security_id"].strip()
        if not sec:
            raise DataError(f"{at}, column 'security_id': empty identifier")
        share_ok = _parse_bool(row["shrcd_ok"], at, "shrcd_ok")
        exch_ok = _parse_bool(row["exchcd_ok"], at, "exchcd_ok")

        ret_tok = row["ret"].strip()
        prc_tok = row["prc"].strip()
        ret = _parse_float(ret_tok, at, "ret") if ret_tok else math.nan
        prc = _parse_float(prc_tok, at, "prc") if prc_tok else math.nan

        vol_tok = row["vol"].strip()
        shrout_tok = row["shrout"].strip()
        vol = _parse_float(vol_tok, at, "vol") if vol_tok else math.nan
        shrout = _parse_float(shrout_tok, at, "shrout") if shrout_tok else math.nan
        if not math.isnan(vol) and vol < 0:
            raise DataError(f"{at}, column 'vol': negative volume {vol}")
        if not math.isnan(shrout) and shrout < 0:
            raise DataError(f"{at}, column 'shrout': negative shares outstanding {shrout}")

        if not math.isfinite(ret):
            summary.drop("missing_ret", 1)
            continue
        if not math.isfinite(prc):
            summary.drop("missing_prc", 1)
            continue
        if abs(prc) < filt.min_abs_price:
            summary.drop("price_below_min", 1)
            continue
        if not share_ok:
            summary.drop("share_class", 1)
            continue
        if not exch_ok:
            summary.drop("exchange", 1)
            continue

        summary.rows_kept += 1
        by_date.setdefault(day, []).append((sec, ret, prc, vol, shrout))

    if not by_date:
        raise DataError(f"{path}: empty panel after filtering")

    dates = sorted(by_date)
    packed = []
    for day in dates:
        rows = by_date[day]
        rows.sort(key=lambda r: r[0])
        for (a, *_), (b, *_) in zip(rows, rows[1:]):
            if a == b:
                raise DataError(f"{path}: duplicate security_id {a!r} on {day.isoformat()}")
        packed += rows
    starts = np.cumsum([0] + [len(by_date[day]) for day in dates])
    return DailyPanel(
        dates=dates,
        starts=starts,
        ret=np.array([r[1] for r in packed], dtype=float),
        prc=np.array([r[2] for r in packed], dtype=float),
        vol=np.array([r[3] for r in packed], dtype=float),
        shrout=np.array([r[4] for r in packed], dtype=float),
    ), summary


def _per_node_best_split(V: np.ndarray, y: np.ndarray, min_leaf: int, criterion: str):
    """Best (column, threshold) over the columns of V, sorting V's rows here.

    Every boundary between consecutive distinct sorted values is scored in
    all columns at once; ties go to the earliest boundary, then the
    earliest column.
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
    if thr >= hi:
        thr = lo
    return col, float(thr)


def per_node_sort_tree(X, y, rng, max_depth, min_leaf, n_candidate_features, criterion) -> Tree:
    """Depth-first tree growth with a fresh stable argsort of every node's rows.

    Candidate features are drawn per node with ``rng.choice`` when
    ``n_candidate_features`` is below the column count; leaf values are
    target means.
    """
    n, p = X.shape
    feature, threshold, left, right, value = [], [], [], [], []

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
        found = _per_node_best_split(X[np.ix_(idx, cand)], yn, min_leaf, criterion)
        if found is None:
            return node
        f = int(cand[found[0]])
        go_left = X[idx, f] <= found[1]
        feature[node] = f
        threshold[node] = found[1]
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


def descend_one_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Terminal node index for each row of X, descending one tree level by level."""
    pos = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        f = tree.feature[pos]
        active = f >= 0
        if not active.any():
            return pos
        rows = np.flatnonzero(active)
        go_left = X[rows, f[rows]] <= tree.threshold[pos[rows]]
        pos[rows] = np.where(go_left, tree.left[pos[rows]], tree.right[pos[rows]])


# ---------------------------------------------------------------------------
# Per-item loops: one NumPy call sequence per trading day, per month, per tie
# group and per bootstrap replicate. They define the values the package's
# batched kernels must reproduce bit for bit.

def _day_stats(r, prc, vol, shrout, tau: float) -> tuple:
    """One day's statistics, in the field order of DailyStats."""
    n = r.shape[0]
    mean = float(np.mean(r))
    dev = r - mean
    var = float(np.mean(dev * dev))
    std = math.sqrt(var)
    degenerate = std == 0.0
    if degenerate:
        skew = 0.0
        kurt = 0.0
    else:
        dev2 = dev * dev
        skew = float(np.mean(dev2 * dev)) / (var * std)
        kurt = float(np.mean(dev2 * dev2)) / (var * var)

    vol_ok = np.isfinite(vol)
    mean_log_vol = float(np.mean(np.log1p(vol[vol_ok]))) if vol_ok.any() else math.nan
    mean_dollar_vol = (
        float(np.mean(np.abs(prc[vol_ok]) * vol[vol_ok])) if vol_ok.any() else math.nan
    )
    turn_ok = vol_ok & np.isfinite(shrout) & (shrout > 0)
    mean_turnover = float(np.mean(vol[turn_ok] / shrout[turn_ok])) if turn_ok.any() else math.nan
    return (
        n, std, skew, kurt, float(np.mean(np.abs(r))),
        float(np.mean(r <= -tau)), float(np.mean(r >= tau)),
        mean_log_vol, mean_dollar_vol, mean_turnover,
    )


def daily_stats_per_day(panel: DailyPanel, tau: float) -> list[np.ndarray]:
    """Every day's statistics by one ``_day_stats`` call per day slice, one
    array per DailyStats field."""
    bounds = panel.starts.tolist()
    rows = [
        _day_stats(panel.ret[a:b], panel.prc[a:b], panel.vol[a:b], panel.shrout[a:b], tau)
        for a, b in zip(bounds, bounds[1:])
    ]
    return [np.array(column) for column in zip(*rows)]


def monthly_means_per_month(daily_stats, partition, feature_names) -> np.ndarray:
    """Monthly feature matrix by one ``np.mean`` per (month, feature)."""
    rows = np.empty((len(partition.months), len(feature_names)))
    bounds = partition.starts.tolist()
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        for j, name in enumerate(feature_names):
            values = getattr(daily_stats, name)[a:b]
            if name in ("xs_skew", "xs_kurt"):
                values = values[daily_stats.xs_std[a:b] != 0.0]
            rows[i, j] = float(np.mean(values[~np.isnan(values)]))
    return rows


def auc_loop(scores: np.ndarray, y: np.ndarray) -> float:
    """Midrank AUC with one Python pass per tie group."""
    n_pos = int(np.sum(y))
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: need both classes")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(y.shape[0])
    sorted_scores = scores[order]
    i = 0
    while i < sorted_scores.shape[0]:
        j = i
        while j + 1 < sorted_scores.shape[0] and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = float(np.sum(ranks[y == 1.0])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _desc_tie_groups(scores: np.ndarray, y: np.ndarray):
    """(last position, positives in the group) of each tie group, scores
    in descending order."""
    order = np.argsort(-scores, kind="stable")
    ys = y[order]
    ss = scores[order]
    i = 0
    n = ys.shape[0]
    while i < n:
        j = i
        while j + 1 < n and ss[j + 1] == ss[i]:
            j += 1
        yield j, float(np.sum(ys[i : j + 1]))
        i = j + 1


def pr_auc_loop(scores: np.ndarray, y: np.ndarray) -> float:
    """Average precision, pooled per tie group, summed group by group."""
    n_pos = int(np.sum(y))
    if n_pos == 0:
        raise DataError("PR-AUC undefined: no positives")
    total = 0.0
    cum_pos = 0
    for j, group_pos in _desc_tie_groups(scores, y):
        cum_pos += group_pos
        total += cum_pos / (j + 1) * group_pos
    return total / n_pos


def roc_points_loop(scores: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_pos = int(np.sum(y))
    n_neg = y.shape[0] - n_pos
    fpr, tpr = [0.0], [0.0]
    tp = fp = 0.0
    i = 0
    for j, group_pos in _desc_tie_groups(scores, y):
        tp += group_pos
        fp += (j - i + 1) - group_pos
        fpr.append(fp / n_neg)
        tpr.append(tp / n_pos)
        i = j + 1
    return np.array(fpr), np.array(tpr)


def pr_points_loop(scores: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_pos = int(np.sum(y))
    recall, precision = [0.0], [1.0]
    cum_pos = 0.0
    for j, group_pos in _desc_tie_groups(scores, y):
        cum_pos += group_pos
        recall.append(cum_pos / n_pos)
        precision.append(cum_pos / (j + 1))
    return np.array(recall), np.array(precision)


def ece_loop(probs: np.ndarray, y: np.ndarray, n_bins: int = 10):
    """(ECE, mean probability per bin, event rate per bin), bin by bin."""
    n = probs.shape[0]
    if n < n_bins:
        raise DataError(f"ECE needs at least {n_bins} observations, got {n}")
    order = np.argsort(probs, kind="stable")
    base, extra = divmod(n, n_bins)
    mean_prob = np.empty(n_bins)
    event_rate = np.empty(n_bins)
    start = 0
    total = 0.0
    for b in range(n_bins):
        size = base + (1 if b < extra else 0)
        idx = order[start : start + size]
        start += size
        mean_prob[b] = float(np.mean(probs[idx]))
        event_rate[b] = float(np.mean(y[idx]))
        total += size / n * abs(mean_prob[b] - event_rate[b])
    return total, mean_prob, event_rate


def bootstrap_deltas_loop(values_a, values_b, y, metric_fn, block_len: int, reps: int,
                          seed: int) -> tuple[np.ndarray, int]:
    """(deltas, redraws) of the moving-block bootstrap, one resample at a
    time; ``metric_fn`` raising DataError marks an undefined resample."""
    n = y.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    n_blocks = math.ceil(n / block_len)
    deltas = np.empty(reps)
    redraws = 0
    r = 0
    while r < reps:
        starts = rng.integers(0, n - block_len + 1, size=n_blocks)
        idx = np.concatenate([np.arange(s, s + block_len) for s in starts])[:n]
        try:
            deltas[r] = metric_fn(values_a[idx], y[idx]) - metric_fn(values_b[idx], y[idx])
        except DataError:
            redraws += 1
            if redraws > reps // 2:
                raise
            continue
        r += 1
    return deltas, redraws
