"""Forecast evaluation: discrimination, probability accuracy, and inference.

Ranking metrics (AUC, PR-AUC) consume raw model scores; probability metrics
(Brier, log loss, ECE) consume probability forecasts. Sampling uncertainty
in metric differences is assessed with a moving-block bootstrap over months
so serial dependence is preserved.

The evaluation protocol is fixed: ``ECE_BINS`` equal-mass bins for the ECE
and the calibration curve, the probability bins ``BIN_EDGES`` of
``bins.csv`` and ``BOOTSTRAP_BLOCK``-month bootstrap blocks. No run sets
another value, so they are constants, not config settings; the functions
below take them as arguments, so the tests can vary them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .backtest import ForecastSeries
from .errors import DataError, NumericError
from .learners import clamped_log_loss

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
# ``learners.clamped_log_loss``, shared with the CV). Rank sums and counts
# are sums of integers and halves, exact in any order; every other sum runs
# in the order the per-row loop it replaced used.

def _ranked(values: np.ndarray, y: np.ndarray, descending: bool = False):
    """Each row stably sorted, its outcomes in that order, and for every
    position the first and last position of its tie group."""
    order = np.argsort(-values if descending else values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    ys = np.take_along_axis(y, order, axis=1)
    n = values.shape[1]
    pos = np.broadcast_to(np.arange(n), values.shape)
    new = np.ones(values.shape, dtype=bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    first = np.maximum.accumulate(np.where(new, pos, 0), axis=1)
    end = np.ones(values.shape, dtype=bool)
    end[:, :-1] = new[:, 1:]
    last = np.minimum.accumulate(np.where(end, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    return ys, first, last


def _auc_rows(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    ys, first, last = _ranked(scores, y)
    midranks = 0.5 * (first + last) + 1.0  # 1-based
    n_pos = ys.sum(axis=1)
    n_neg = y.shape[1] - n_pos
    u = np.sum(midranks * ys, axis=1) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _pr_auc_rows(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    ys, first, last = _ranked(scores, y, descending=True)
    cum_pos = np.cumsum(ys, axis=1)
    before = np.where(first > 0, np.take_along_axis(cum_pos, np.maximum(first - 1, 0), axis=1),
                      0.0)
    pos = np.arange(1, y.shape[1] + 1)
    # one term per tie group, added in rank order as the group loop did
    terms = np.where(last == pos - 1, cum_pos / pos * (cum_pos - before), 0.0)
    return np.cumsum(terms, axis=1)[:, -1] / cum_pos[:, -1]


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
    return float(_auc_rows(scores[None], y[None])[0])


def pr_auc(scores: np.ndarray, y: np.ndarray) -> float:
    """Average precision with pooled-precision tie groups."""
    scores = np.asarray(scores, dtype=float)
    y = _check_binary(y)
    if not _defined_rows("pr_auc", y[None])[0]:
        raise DataError("PR-AUC undefined: no positives")
    return float(_pr_auc_rows(scores[None], y[None])[0])


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


@dataclass(frozen=True)
class CalibrationCurve:
    """Equal-mass calibration bins: mean probability, realized rate, count."""

    mean_prob: np.ndarray
    event_rate: np.ndarray
    count: np.ndarray


def ece(probs: np.ndarray, y: np.ndarray, n_bins: int) -> tuple[float, CalibrationCurve]:
    """Expected calibration error over equal-mass (quantile) bins.

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
    return float(total[0]), CalibrationCurve(mean_prob=mean_prob[0], event_rate=event_rate[0],
                                             count=count)


def _group_ends(scores: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positives ranked at or above the end of each tie group, scores in
    descending order, and the number of rows ranked there."""
    ys, _, last = _ranked(scores[None], y[None], descending=True)
    rows = np.flatnonzero(last[0] == np.arange(y.shape[0])) + 1
    return np.cumsum(ys[0])[rows - 1], rows


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
    tp, rows = _group_ends(scores, y)
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
    cum_pos, rows = _group_ends(scores, y)
    recall = np.concatenate(([0.0], cum_pos / n_pos))
    precision = np.concatenate(([1.0], cum_pos / rows))
    return recall, precision


@dataclass(frozen=True)
class ModelMetrics:
    auc: float
    pr_auc: float
    brier: float
    log_loss: float
    ece: float
    mean_prob: float


@dataclass(frozen=True)
class MetricsReport:
    models: dict[str, ModelMetrics]
    event_rate: float
    n: int
    ece_bins: int


def compute_metrics(forecasts: ForecastSeries, ece_bins: int) -> MetricsReport:
    """Table of per-model metrics over months with an observed outcome."""
    mask = forecasts.observed_mask()
    if not mask.any():
        raise DataError("no months with observed outcomes to evaluate")
    y = forecasts.y_next[mask]
    models = {}
    for name in forecasts.models:
        raw = forecasts.raw[name][mask]
        prob = forecasts.prob[name][mask]
        e, _ = ece(prob, y, ece_bins)
        models[name] = ModelMetrics(
            auc=auc(raw, y),
            pr_auc=pr_auc(raw, y),
            brier=brier(prob, y),
            log_loss=log_loss(prob, y),
            ece=e,
            mean_prob=float(np.mean(prob)),
        )
    return MetricsReport(
        models=models, event_rate=float(np.mean(y)), n=int(mask.sum()), ece_bins=ece_bins
    )


@dataclass(frozen=True)
class CurveSet:
    """Curve point sets for one model, in plottable long form."""

    model: str
    roc: tuple[np.ndarray, np.ndarray]
    pr: tuple[np.ndarray, np.ndarray]
    calibration: CalibrationCurve


def compute_curves(forecasts: ForecastSeries, ece_bins: int) -> list[CurveSet]:
    mask = forecasts.observed_mask()
    y = forecasts.y_next[mask]
    out = []
    for name in forecasts.models:
        raw = forecasts.raw[name][mask]
        prob = forecasts.prob[name][mask]
        _, curve = ece(prob, y, ece_bins)
        out.append(CurveSet(model=name, roc=roc_points(raw, y), pr=pr_points(raw, y),
                            calibration=curve))
    return out


@dataclass(frozen=True)
class BinnedOutcomes:
    """Realized outcomes grouped by forecast-probability bin."""

    model: str
    edges: tuple[float, ...]
    n: np.ndarray
    mean_prob: np.ndarray
    stress_rate: np.ndarray
    next_vol: np.ndarray
    next_ret: np.ndarray


def check_bin_edges(edges) -> tuple[float, ...]:
    """The edges as floats; DataError unless they rise strictly from 0 to 1."""
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2 or edges[0] != 0.0 or edges[-1] != 1.0:
        raise DataError(f"bin edges must cover [0, 1], got {edges}")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise DataError(f"bin edges must be strictly increasing, got {edges}")
    return edges


def binned_outcomes(
    forecasts: ForecastSeries, model: str, edges: tuple[float, ...]
) -> BinnedOutcomes:
    """Bin months by forecast probability; bins are [lo, hi), last bin closed."""
    edges = check_bin_edges(edges)
    mask = forecasts.observed_mask()
    probs = forecasts.prob[model][mask]
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise DataError("probabilities outside [0, 1]")
    y = forecasts.y_next[mask]
    vol = forecasts.next_vol[mask]
    ret = forecasts.next_ret[mask]

    k = len(edges) - 1
    n = np.zeros(k, dtype=np.int64)
    mean_prob = np.full(k, np.nan)
    stress_rate = np.full(k, np.nan)
    vol_mean = np.full(k, np.nan)
    ret_mean = np.full(k, np.nan)
    which = np.minimum(np.searchsorted(edges, probs, side="right") - 1, k - 1)
    for b in range(k):
        sel = which == b
        n[b] = int(sel.sum())
        if n[b]:
            mean_prob[b] = float(np.mean(probs[sel]))
            stress_rate[b] = float(np.mean(y[sel]))
            vol_mean[b] = float(np.mean(vol[sel]))
            ret_mean[b] = float(np.mean(ret[sel]))
    return BinnedOutcomes(
        model=model, edges=edges, n=n, mean_prob=mean_prob,
        stress_rate=stress_rate, next_vol=vol_mean, next_ret=ret_mean,
    )


# ---------------------------------------------------------------------------
# Moving-block bootstrap for metric differences.

_ROW_METRICS = {
    "auc": _auc_rows,
    "pr_auc": _pr_auc_rows,
    "brier": _brier_rows,
    "log_loss": clamped_log_loss,
}


@dataclass(frozen=True)
class BootstrapResult:
    metric: str
    model: str
    benchmark: str
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

    Each replication concatenates ceil(N / block_len) blocks of consecutive
    months with uniformly random starts (with replacement), truncated to N;
    both inputs are evaluated on the identical resample. Replications where
    the metric is undefined (e.g. a single-class resample) are redrawn; more
    than reps/2 redraws aborts, since the outcome is then too rare for this
    block design.

    Each round draws the block starts of all replications still needed as
    one (need, n_blocks) matrix, which takes the same random stream as one
    draw per replication, and evaluates the metric on every defined row at
    once; replication r is the r-th defined row. The row kernels add in the
    order the one-resample metric does, so every delta is bit-identical to
    evaluating the resamples one at a time.
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

    rng = np.random.Generator(np.random.PCG64(seed))
    n_blocks = math.ceil(n / block_len)
    offsets = np.arange(block_len)
    rounds = []
    done = 0
    redraws = 0
    max_redraws = reps // 2
    while done < reps:
        need = reps - done
        starts = rng.integers(0, n - block_len + 1, size=(need, n_blocks))
        idx = (starts[:, :, None] + offsets).reshape(need, -1)[:, :n]
        ys = y[idx]
        ok = _defined_rows(metric, ys)
        redraws += need - int(ok.sum())
        if redraws > max_redraws:
            raise NumericError(
                f"block bootstrap: metric {metric!r} undefined in more than "
                f"{max_redraws} resamples; outcome too rare for this block design"
            )
        idx, ys = idx[ok], ys[ok]
        rounds.append(fn(values_a[idx], ys) - fn(values_b[idx], ys))
        done += idx.shape[0]
    deltas = np.concatenate(rounds)

    frac_le = float(np.mean(deltas <= 0.0))
    frac_ge = float(np.mean(deltas >= 0.0))
    p = min(2.0 * min(frac_le, frac_ge), 1.0)
    lo, hi = np.quantile(deltas, [0.025, 0.975], method="linear")
    return BootstrapResult(
        metric=metric, model="a", benchmark="b", delta=float(np.mean(deltas)),
        ci_lo=float(lo), ci_hi=float(hi), p_value=p, block_len=block_len,
        reps=reps, seed=seed, redraws=redraws,
    )


def bootstrap_table(
    forecasts: ForecastSeries,
    benchmark: str,
    block_len: int,
    reps: int,
    seed: int,
    ece_bins: int,
) -> list[BootstrapResult]:
    """Bootstrap deltas of every non-benchmark model against the benchmark."""
    if benchmark not in forecasts.models:
        raise DataError(f"benchmark model {benchmark!r} not in forecasts")
    mask = forecasts.observed_mask()
    y = forecasts.y_next[mask]
    rows = []
    for metric in METRIC_NAMES:
        use_raw = metric in SCORE_METRICS
        bench_vals = (forecasts.raw if use_raw else forecasts.prob)[benchmark][mask]
        for name in forecasts.models:
            if name == benchmark:
                continue
            vals = (forecasts.raw if use_raw else forecasts.prob)[name][mask]
            res = block_bootstrap_diff(vals, bench_vals, y, metric, block_len, reps, seed,
                                       ece_bins)
            rows.append(replace(res, model=name, benchmark=benchmark))
    return rows
