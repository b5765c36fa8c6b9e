"""Forecast evaluation: discrimination, probability accuracy, and inference.

Ranking metrics (AUC, PR-AUC) consume raw model scores; probability metrics
(Brier, log loss, ECE) consume probability forecasts. Sampling uncertainty
in metric differences is assessed with a moving-block bootstrap over months
so serial dependence is preserved.

The evaluation protocol is fixed: ``ECE_BINS`` equal-mass bins for the ECE
and the calibration curve, the probability bins ``BIN_EDGES`` of
``bins.csv`` and ``BOOTSTRAP_BLOCK``-month bootstrap blocks that compare
each model with ``config.BENCHMARK_MODEL``. No run sets another value,
so they are constants, not config settings. The stage entry points read
them; only the kernels ``ece`` and ``block_bootstrap_diff`` take them as
arguments, so their tests can check other bin counts and blocks.

Each stage entry point returns the rows or payload of its artifact, which
``cli`` writes as they are.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import BENCHMARK_MODEL
from .errors import DataError, NumericError
from .labels import ForecastSeries
from .learners.logit import clamped_log_loss
from .numpy_parts import numpy_random

ECE_BINS = 10
BIN_EDGES = (0.0, 0.05, 0.10, 0.20, 0.40, 1.0)
BOOTSTRAP_BLOCK = 12  # months

METRIC_NAMES = ("auc", "pr_auc", "brier", "log_loss", "ece")
# Ranking metrics read raw scores; probability metrics read probabilities.
SCORE_METRICS = {"auc", "pr_auc"}


def _check_binary(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("outcomes must be binary 0/1")
    return y


# ---------------------------------------------------------------------------
# Row kernels: each metric of every row of a (m, n) matrix of values against
# the same row of outcomes. The one-row case defines the scalar metrics, so
# ``evaluate`` and ``bootstrap`` share one definition (the log loss is
# ``learners.logit.clamped_log_loss``, shared with the CV). AUC and PR-AUC read
# each score's level, its place among the series' distinct scores, so a
# level is a tie group and they need only each level's positives and months.
# Those counts, their cumulative sums and U are integers and halves, exact
# in any order; every other sum runs in the order the per-group loop used.

def _levels(values: np.ndarray) -> np.ndarray:
    """Each score's place among the distinct scores of its series."""
    if not np.all(np.isfinite(values)):
        raise DataError("scores must be finite")
    return np.unique(values, return_inverse=True)[1]


def _level_counts(levels: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positives and months at each level of each row, highest level first."""
    m = levels.shape[0]
    k = int(levels.max(initial=0)) + 1
    at = (k * np.arange(1, m + 1)[:, None] - 1 - levels).ravel()
    pos = np.bincount(at, weights=y.ravel(), minlength=m * k).reshape(m, k)
    return pos, np.bincount(at, minlength=m * k).reshape(m, k)


def _auc_rows(levels: np.ndarray, y: np.ndarray) -> np.ndarray:
    # U counts each (positive, negative) pair with the positive above, ties as half
    pos, rows = _level_counts(levels, y)
    neg = rows - pos
    n_pos = pos.sum(axis=1)
    n_neg = y.shape[1] - n_pos
    u = n_pos * n_neg - np.sum(pos * (np.cumsum(neg, axis=1) - 0.5 * neg), axis=1)
    return u / (n_pos * n_neg)


def _pr_auc_rows(levels: np.ndarray, y: np.ndarray) -> np.ndarray:
    pos, rows = _level_counts(levels, y)
    cum_pos = np.cumsum(pos, axis=1)
    # one term per level, added in rank order as the group loop did; an absent level adds 0
    precision = np.divide(cum_pos, np.cumsum(rows, axis=1), out=np.zeros_like(cum_pos),
                          where=rows > 0)
    return np.cumsum(precision * pos, axis=1)[:, -1] / cum_pos[:, -1]


def _brier_rows(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.mean((probs - y) ** 2, axis=1)


def _ece_rows(probs: np.ndarray, y: np.ndarray, n_bins: int):
    """ECE of each row, with each bin's mean probability and event rate."""
    order = np.argsort(probs, axis=1, kind="stable")
    ps = np.take_along_axis(probs, order, axis=1)
    ys = np.take_along_axis(y, order, axis=1)
    n = probs.shape[1]
    base, extra = divmod(n, n_bins)
    mean_prob = np.empty((probs.shape[0], n_bins))
    event_rate = np.empty_like(mean_prob)
    total = np.zeros(probs.shape[0])
    start = 0
    for b in range(n_bins):
        size = base + (1 if b < extra else 0)
        mean_prob[:, b] = np.mean(ps[:, start:start + size], axis=1)
        event_rate[:, b] = np.mean(ys[:, start:start + size], axis=1)
        total += size / n * np.abs(mean_prob[:, b] - event_rate[:, b])
        start += size
    return total, mean_prob, event_rate


def _defined_rows(metric: str, y: np.ndarray) -> np.ndarray:
    """Rows of outcomes on which the metric is defined: AUC needs both
    classes, PR-AUC a positive."""
    n_pos = y.sum(axis=1)
    if metric == "auc":
        return (n_pos > 0) & (n_pos < y.shape[1])
    if metric == "pr_auc":
        return n_pos > 0
    return np.ones(y.shape[0], dtype=bool)


def auc(scores: np.ndarray, y: np.ndarray) -> float:
    """Probability a random positive outranks a random negative (midrank ties)."""
    scores = np.asarray(scores, dtype=float)
    y = _check_binary(y)
    if not _defined_rows("auc", y[None])[0]:
        raise DataError("AUC undefined: need both classes")
    return float(_auc_rows(_levels(scores)[None], y[None])[0])


def pr_auc(scores: np.ndarray, y: np.ndarray) -> float:
    """Average precision with pooled-precision tie groups."""
    scores = np.asarray(scores, dtype=float)
    y = _check_binary(y)
    if not _defined_rows("pr_auc", y[None])[0]:
        raise DataError("PR-AUC undefined: no positives")
    return float(_pr_auc_rows(_levels(scores)[None], y[None])[0])


def brier(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean squared probability error."""
    probs = np.asarray(probs, dtype=float)
    y = _check_binary(y)
    return float(_brier_rows(probs[None], y[None])[0])


def log_loss(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean negative Bernoulli log-likelihood, probabilities clamped."""
    probs = np.asarray(probs, dtype=float)
    y = _check_binary(y)
    return float(clamped_log_loss(probs, y))


def ece(probs: np.ndarray, y: np.ndarray,
        n_bins: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Expected calibration error over equal-mass (quantile) bins, and the bins'
    mean probability, event rate and count: ``(value, mean_prob, event_rate, count)``.

    Observations are sorted by probability and split into ``n_bins`` bins;
    any remainder is spread one extra element each over the lowest bins.
    """
    probs = np.asarray(probs, dtype=float)
    y = _check_binary(y)
    n = probs.shape[0]
    if n < n_bins:
        raise DataError(f"ECE needs at least {n_bins} observations, got {n}")
    total, mean_prob, event_rate = _ece_rows(probs[None], y[None], n_bins)
    base, extra = divmod(n, n_bins)
    count = np.full(n_bins, base, dtype=np.int64)
    count[:extra] += 1
    return float(total[0]), mean_prob[0], event_rate[0], count


def roc_points(scores: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ROC curve: one (FPR, TPR) point per distinct threshold plus the origin.

    The trapezoidal integral of these points equals the midrank AUC.
    """
    scores = np.asarray(scores, dtype=float)
    y = _check_binary(y)
    n_pos = int(np.sum(y))
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC undefined: need both classes")
    pos, rows = _level_counts(_levels(scores)[None], y[None])
    tp, rows = np.cumsum(pos[0]), np.cumsum(rows[0])
    fpr = np.concatenate(([0.0], (rows - tp) / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    return fpr, tpr


def pr_points(scores: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Precision-recall curve points per distinct threshold, left endpoint (0, 1)."""
    scores = np.asarray(scores, dtype=float)
    y = _check_binary(y)
    n_pos = int(np.sum(y))
    if n_pos == 0:
        raise DataError("PR curve undefined: no positives")
    pos, rows = _level_counts(_levels(scores)[None], y[None])
    cum_pos, rows = np.cumsum(pos[0]), np.cumsum(rows[0])
    recall = np.concatenate(([0.0], cum_pos / n_pos))
    precision = np.concatenate(([1.0], cum_pos / rows))
    return recall, precision


def compute_metrics(forecasts: ForecastSeries) -> dict:
    """The ``metrics.json`` payload: each model's metrics over the months
    with an observed outcome, their event rate and count, and the ECE bins."""
    mask = forecasts.observed_mask()
    if not mask.any():
        raise DataError("no months with observed outcomes to evaluate")
    y = forecasts.y_next[mask]
    models = {}
    for name in forecasts.models:
        raw = forecasts.raw[name][mask]
        prob = forecasts.prob[name][mask]
        models[name] = {
            "auc": auc(raw, y),
            "pr_auc": pr_auc(raw, y),
            "brier": brier(prob, y),
            "log_loss": log_loss(prob, y),
            "ece": ece(prob, y, ECE_BINS)[0],
            "mean_prob": float(np.mean(prob)),
        }
    return {"models": models, "event_rate": float(np.mean(y)), "n": int(mask.sum()),
            "ece_bins": ECE_BINS}


def compute_curves(forecasts: ForecastSeries) -> list[tuple]:
    """The ``curves.csv`` rows (model, curve, x, y, count): each model's ROC
    and PR points, then its calibration bins with their counts."""
    mask = forecasts.observed_mask()
    y = forecasts.y_next[mask]
    rows = []
    for name in forecasts.models:
        raw = forecasts.raw[name][mask]
        prob = forecasts.prob[name][mask]
        for curve, points in (("roc", roc_points(raw, y)), ("pr", pr_points(raw, y))):
            rows += [(name, curve, *point, "") for point in zip(*points)]
        rows += [(name, "calibration", p, rate, int(c))
                 for p, rate, c in zip(*ece(prob, y, ECE_BINS)[1:])]
    return rows


def binned_outcomes(forecasts: ForecastSeries, model: str) -> list[tuple]:
    """The ``bins.csv`` rows of ``model`` (``textio.BIN_COLUMNS``): months
    binned by forecast probability at ``BIN_EDGES``, bins [lo, hi) with the
    last closed, and each bin's count and mean probability, stress rate,
    next-month volatility and return (NaN for an empty bin)."""
    mask = forecasts.observed_mask()
    probs = forecasts.prob[model][mask]
    columns = (probs, forecasts.y_next[mask], forecasts.next_vol[mask],
               forecasts.next_ret[mask])
    k = len(BIN_EDGES) - 1
    which = np.minimum(np.searchsorted(BIN_EDGES, probs, side="right") - 1, k - 1)
    rows = []
    for b in range(k):
        sel = which == b
        n = int(sel.sum())
        means = [float(np.mean(c[sel])) if n else math.nan for c in columns]
        rows.append((model, BIN_EDGES[b], BIN_EDGES[b + 1], n, *means))
    return rows


# ---------------------------------------------------------------------------
# Moving-block bootstrap for metric differences.

_ROW_METRICS = {
    "auc": _auc_rows,
    "pr_auc": _pr_auc_rows,
    "brier": _brier_rows,
    "log_loss": clamped_log_loss,
}
# Replications evaluated at once: the bootstrap's working set is a few
# (_BOOTSTRAP_ROWS, months) matrices, whatever the number of replications.
_BOOTSTRAP_ROWS = 128


@dataclass(frozen=True)
class BootstrapResult:
    metric: str
    delta: float
    ci_lo: float
    ci_hi: float
    p_value: float
    block_len: int
    reps: int
    seed: int
    redraws: int


def block_bootstrap_diff(
    values_a: np.ndarray,
    values_b: np.ndarray,
    y: np.ndarray,
    metric: str,
    block_len: int,
    reps: int,
    seed: int,
    ece_bins: int,
) -> BootstrapResult:
    """Moving-block bootstrap of metric(values_a) - metric(values_b).

    ``delta`` is that difference on the full sample, from the same row
    kernels as ``compute_metrics``, so it equals the difference of the two
    models' metrics; the replicates give the interval and the p-value.

    Each replication concatenates ceil(N / block_len) blocks of consecutive
    months with uniformly random starts (with replacement), truncated to N;
    both inputs are evaluated on the identical resample. Replications where
    the metric is undefined (e.g. a single-class resample) are redrawn; more
    than reps/2 redraws aborts, since the outcome is then too rare for this
    block design.

    Each round draws the block starts of the replications still needed
    ``_BOOTSTRAP_ROWS`` rows at a time, which takes the same random stream
    as one draw per replication, and evaluates the metric on each chunk's
    defined rows; replication r is the r-th defined row. AUC and PR-AUC
    resample each series' levels, so no replicate is sorted. The row
    kernels reduce each row on its own, in the order the one-resample
    metric adds, so every replicate is bit-identical to evaluating the
    resamples one at a time.
    """
    values_a = np.asarray(values_a, dtype=float)
    values_b = np.asarray(values_b, dtype=float)
    y = _check_binary(y)
    n = y.shape[0]
    if values_a.shape[0] != n or values_b.shape[0] != n:
        raise DataError("series and outcomes must be aligned")
    if n < block_len:
        raise DataError(f"need at least block_len={block_len} months, got {n}")
    if reps < 1:
        raise DataError(f"need at least one replication, got reps={reps}")
    if metric not in METRIC_NAMES:
        raise DataError(f"unknown metric {metric!r}; expected one of {sorted(METRIC_NAMES)}")
    if metric == "ece":
        if n < ece_bins:
            raise DataError(f"ECE needs at least {ece_bins} observations, got {n}")
        fn = lambda v, ys: _ece_rows(v, ys, ece_bins)[0]  # noqa: E731
    else:
        fn = _ROW_METRICS[metric]
    if metric in SCORE_METRICS:
        values_a, values_b = _levels(values_a), _levels(values_b)

    nprandom = numpy_random()
    rng = nprandom.Generator(nprandom.PCG64(seed))
    n_blocks = math.ceil(n / block_len)
    offsets = np.arange(block_len)
    rounds = []
    done = 0
    redraws = 0
    max_redraws = reps // 2
    while done < reps:
        need = reps - done
        for first in range(0, need, _BOOTSTRAP_ROWS):
            rows = min(_BOOTSTRAP_ROWS, need - first)
            starts = rng.integers(0, n - block_len + 1, size=(rows, n_blocks))
            idx = (starts[:, :, None] + offsets).reshape(rows, -1)[:, :n]
            ys = y[idx]
            ok = _defined_rows(metric, ys)
            redraws += rows - int(ok.sum())
            if redraws > max_redraws:
                raise NumericError(
                    f"block bootstrap: metric {metric!r} undefined in more than "
                    f"{max_redraws} resamples; outcome too rare for this block design"
                )
            idx, ys = idx[ok], ys[ok]
            rounds.append(fn(values_a[idx], ys) - fn(values_b[idx], ys))
            done += idx.shape[0]
    deltas = np.concatenate(rounds)
    delta = fn(values_a[None], y[None])[0] - fn(values_b[None], y[None])[0]

    frac_le = float(np.mean(deltas <= 0.0))
    frac_ge = float(np.mean(deltas >= 0.0))
    p = min(2.0 * min(frac_le, frac_ge), 1.0)
    lo, hi = np.quantile(deltas, [0.025, 0.975], method="linear")
    return BootstrapResult(metric=metric, delta=float(delta), ci_lo=float(lo), ci_hi=float(hi),
                           p_value=p, block_len=block_len, reps=reps, seed=seed, redraws=redraws)


def bootstrap_table(forecasts: ForecastSeries, reps: int, seed: int) -> dict:
    """The ``bootstrap.json`` payload: bootstrap deltas of every other model
    against ``BENCHMARK_MODEL``, one row per metric and model."""
    mask = forecasts.observed_mask()
    y = forecasts.y_next[mask]
    rows = []
    for metric in METRIC_NAMES:
        scores = forecasts.raw if metric in SCORE_METRICS else forecasts.prob
        for name in forecasts.models:
            if name == BENCHMARK_MODEL:
                continue
            res = block_bootstrap_diff(scores[name][mask], scores[BENCHMARK_MODEL][mask], y,
                                       metric, BOOTSTRAP_BLOCK, reps, seed, ECE_BINS)
            rows.append({"model": name, "benchmark": BENCHMARK_MODEL, **asdict(res)})
    return {"benchmark": BENCHMARK_MODEL, "block_len": BOOTSTRAP_BLOCK, "replications": reps,
            "rows": rows}
