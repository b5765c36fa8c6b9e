"""Forecast evaluation: discrimination, probability accuracy, and inference.

Ranking metrics (AUC, PR-AUC) consume raw model scores; probability metrics
(Brier, log loss, ECE) consume probability forecasts. Sampling uncertainty
in metric differences is assessed with a moving-block bootstrap over months
so serial dependence is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backtest import ForecastSeries
from .errors import DataError, NumericError
from .learners import PROB_CLAMP

DEFAULT_BIN_EDGES = (0.0, 0.05, 0.10, 0.20, 0.40, 1.0)
METRIC_NAMES = ("auc", "pr_auc", "brier", "log_loss", "ece")
# Ranking metrics read raw scores; probability metrics read probabilities.
SCORE_METRICS = {"auc", "pr_auc"}


def _check_binary(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("outcomes must be binary 0/1")
    return y


def auc(scores: np.ndarray, y: np.ndarray) -> float:
    """Probability a random positive outranks a random negative (midrank ties)."""
    scores = np.asarray(scores, dtype=float)
    y = _check_binary(y)
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
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    u = float(np.sum(ranks[y == 1.0])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def pr_auc(scores: np.ndarray, y: np.ndarray) -> float:
    """Average precision with pooled-precision tie groups."""
    scores = np.asarray(scores, dtype=float)
    y = _check_binary(y)
    n_pos = int(np.sum(y))
    if n_pos == 0:
        raise DataError("PR-AUC undefined: no positives")
    order = np.argsort(-scores, kind="stable")
    ys = y[order]
    ss = scores[order]
    total = 0.0
    cum_pos = 0
    i = 0
    n = ys.shape[0]
    while i < n:
        j = i
        while j + 1 < n and ss[j + 1] == ss[i]:
            j += 1
        group_pos = float(np.sum(ys[i : j + 1]))
        cum_pos += group_pos
        precision = cum_pos / (j + 1)
        total += precision * group_pos
        i = j + 1
    return total / n_pos


def brier(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean squared probability error."""
    probs = np.asarray(probs, dtype=float)
    y = _check_binary(y)
    return float(np.mean((probs - y) ** 2))


def log_loss(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean negative Bernoulli log-likelihood, probabilities clamped."""
    p = np.clip(np.asarray(probs, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = _check_binary(y)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


@dataclass(frozen=True)
class CalibrationCurve:
    """Equal-mass calibration bins: mean probability, realized rate, count."""

    mean_prob: np.ndarray
    event_rate: np.ndarray
    count: np.ndarray


def ece(probs: np.ndarray, y: np.ndarray, n_bins: int = 10) -> tuple[float, CalibrationCurve]:
    """Expected calibration error over equal-mass (quantile) bins.

    Observations are sorted by probability and split into ``n_bins`` bins;
    any remainder is spread one extra element each over the lowest bins.
    """
    probs = np.asarray(probs, dtype=float)
    y = _check_binary(y)
    n = probs.shape[0]
    if n < n_bins:
        raise DataError(f"ECE needs at least {n_bins} observations, got {n}")
    order = np.argsort(probs, kind="stable")
    base, extra = divmod(n, n_bins)
    mean_prob = np.empty(n_bins)
    event_rate = np.empty(n_bins)
    count = np.empty(n_bins, dtype=np.int64)
    start = 0
    total = 0.0
    for b in range(n_bins):
        size = base + (1 if b < extra else 0)
        idx = order[start : start + size]
        start += size
        mean_prob[b] = float(np.mean(probs[idx]))
        event_rate[b] = float(np.mean(y[idx]))
        count[b] = size
        total += size / n * abs(mean_prob[b] - event_rate[b])
    return total, CalibrationCurve(mean_prob=mean_prob, event_rate=event_rate, count=count)


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
    order = np.argsort(-scores, kind="stable")
    ys = y[order]
    ss = scores[order]
    fpr = [0.0]
    tpr = [0.0]
    tp = fp = 0.0
    i = 0
    n = ys.shape[0]
    while i < n:
        j = i
        while j + 1 < n and ss[j + 1] == ss[i]:
            j += 1
        tp += float(np.sum(ys[i : j + 1]))
        fp += (j - i + 1) - float(np.sum(ys[i : j + 1]))
        fpr.append(fp / n_neg)
        tpr.append(tp / n_pos)
        i = j + 1
    return np.array(fpr), np.array(tpr)


def pr_points(scores: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Precision-recall curve points per distinct threshold, left endpoint (0, 1)."""
    scores = np.asarray(scores, dtype=float)
    y = _check_binary(y)
    n_pos = int(np.sum(y))
    if n_pos == 0:
        raise DataError("PR curve undefined: no positives")
    order = np.argsort(-scores, kind="stable")
    ys = y[order]
    ss = scores[order]
    recall = [0.0]
    precision = [1.0]
    cum_pos = 0.0
    i = 0
    n = ys.shape[0]
    while i < n:
        j = i
        while j + 1 < n and ss[j + 1] == ss[i]:
            j += 1
        cum_pos += float(np.sum(ys[i : j + 1]))
        recall.append(cum_pos / n_pos)
        precision.append(cum_pos / (j + 1))
        i = j + 1
    return np.array(recall), np.array(precision)


@dataclass(frozen=True)
class ModelMetrics:
    auc: float
    pr_auc: float
    brier: float
    log_loss: float
    ece: float
    mean_prob: float

    def to_dict(self) -> dict:
        return {
            "auc": self.auc, "pr_auc": self.pr_auc, "brier": self.brier,
            "log_loss": self.log_loss, "ece": self.ece, "mean_prob": self.mean_prob,
        }


@dataclass(frozen=True)
class MetricsReport:
    models: dict[str, ModelMetrics]
    event_rate: float
    n: int
    ece_bins: int

    def to_dict(self) -> dict:
        return {
            "models": {name: m.to_dict() for name, m in self.models.items()},
            "event_rate": self.event_rate,
            "n": self.n,
            "ece_bins": self.ece_bins,
        }


def compute_metrics(forecasts: ForecastSeries, ece_bins: int = 10) -> MetricsReport:
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


def compute_curves(forecasts: ForecastSeries, ece_bins: int = 10) -> list[CurveSet]:
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


def binned_outcomes(
    forecasts: ForecastSeries, model: str, edges: tuple[float, ...] = DEFAULT_BIN_EDGES
) -> BinnedOutcomes:
    """Bin months by forecast probability; bins are [lo, hi), last bin closed."""
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2 or edges[0] != 0.0 or edges[-1] != 1.0:
        raise DataError(f"bin edges must cover [0, 1], got {edges}")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise DataError(f"bin edges must be strictly increasing, got {edges}")
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

_METRIC_FNS = {
    "auc": auc,
    "pr_auc": pr_auc,
    "brier": brier,
    "log_loss": log_loss,
    "ece": lambda v, y: ece(v, y)[0],
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

    def to_dict(self) -> dict:
        return {
            "metric": self.metric, "model": self.model, "benchmark": self.benchmark,
            "delta": self.delta, "ci_lo": self.ci_lo, "ci_hi": self.ci_hi,
            "p_value": self.p_value, "block_len": self.block_len, "reps": self.reps,
            "seed": self.seed, "redraws": self.redraws,
        }


def block_bootstrap_diff(
    values_a: np.ndarray,
    values_b: np.ndarray,
    y: np.ndarray,
    metric: str,
    block_len: int = 12,
    reps: int = 2000,
    seed: int = 0,
) -> BootstrapResult:
    """Moving-block bootstrap of metric(values_a) - metric(values_b).

    Each replication concatenates ceil(N / block_len) blocks of consecutive
    months with uniformly random starts (with replacement), truncated to N;
    both inputs are evaluated on the identical resample. Replications where
    the metric is undefined (e.g. a single-class resample) are redrawn; more
    than reps/2 redraws aborts, since the outcome is then too rare for this
    block design.
    """
    values_a = np.asarray(values_a, dtype=float)
    values_b = np.asarray(values_b, dtype=float)
    y = _check_binary(y)
    n = y.shape[0]
    if values_a.shape[0] != n or values_b.shape[0] != n:
        raise DataError("series and outcomes must be aligned")
    if n < block_len:
        raise DataError(f"need at least block_len={block_len} months, got {n}")
    if metric not in _METRIC_FNS:
        raise DataError(f"unknown metric {metric!r}; expected one of {sorted(_METRIC_FNS)}")
    fn = _METRIC_FNS[metric]

    rng = np.random.Generator(np.random.PCG64(seed))
    n_blocks = math.ceil(n / block_len)
    deltas = np.empty(reps)
    redraws = 0
    max_redraws = reps // 2
    r = 0
    while r < reps:
        starts = rng.integers(0, n - block_len + 1, size=n_blocks)
        idx = np.concatenate([np.arange(s, s + block_len) for s in starts])[:n]
        try:
            deltas[r] = fn(values_a[idx], y[idx]) - fn(values_b[idx], y[idx])
        except DataError:
            redraws += 1
            if redraws > max_redraws:
                raise NumericError(
                    f"block bootstrap: metric {metric!r} undefined in more than "
                    f"{max_redraws} resamples; outcome too rare for this block design"
                )
            continue
        r += 1

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
    benchmark: str = "l2",
    metrics: tuple[str, ...] = METRIC_NAMES,
    block_len: int = 12,
    reps: int = 2000,
    seed: int = 0,
) -> list[BootstrapResult]:
    """Bootstrap deltas of every non-benchmark model against the benchmark."""
    if benchmark not in forecasts.models:
        raise DataError(f"benchmark model {benchmark!r} not in forecasts")
    mask = forecasts.observed_mask()
    y = forecasts.y_next[mask]
    rows = []
    for metric in metrics:
        use_raw = metric in SCORE_METRICS
        bench_vals = (forecasts.raw if use_raw else forecasts.prob)[benchmark][mask]
        for name in forecasts.models:
            if name == benchmark:
                continue
            vals = (forecasts.raw if use_raw else forecasts.prob)[name][mask]
            res = block_bootstrap_diff(vals, bench_vals, y, metric, block_len, reps, seed)
            rows.append(
                BootstrapResult(
                    metric=metric, model=name, benchmark=benchmark, delta=res.delta,
                    ci_lo=res.ci_lo, ci_hi=res.ci_hi, p_value=res.p_value,
                    block_len=block_len, reps=reps, seed=seed, redraws=res.redraws,
                )
            )
    return rows
