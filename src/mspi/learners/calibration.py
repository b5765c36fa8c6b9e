"""Platt scaling: a logistic map from raw scores to probabilities.

The map p = sigmoid(a*s + b) is fitted by maximum likelihood on a held-out
calibration segment (Platt 1999) with Newton's method on (a, b), as Lin,
Lin and Weng (2007) recommend: ``fit_logit_l2``, with a tiny ridge term so
separable segments stay finite, reaches the exact optimum in a handful of
iterations. The segment must hold both classes, or the solver raises
``DataError``; the backtest checks that before it fits a map, and a window
whose segment does not gets none and takes the learner's uncalibrated rule.
A constant-score segment yields the Laplace-smoothed event rate.
"""

from __future__ import annotations

import numpy as np

from .logit import PROB_CLAMP, fit_logit_l2, laplace_log_odds, sigmoid

_RIDGE = 1e-8


def fit_platt(scores: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Maximum-likelihood calibration map ``(a, b)``, p = sigmoid(a*s + b), on
    a segment of (score, outcome) pairs; ``y`` holds both classes."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(np.max(scores) - np.min(scores)) == 0.0:
        return 0.0, laplace_log_odds(y)
    model = fit_logit_l2(scores[:, None], y, lam=_RIDGE)
    return float(model.coef[0]), model.intercept


def calibrate_many(cmap: tuple[float, float], scores: np.ndarray) -> np.ndarray:
    a, b = cmap
    p = sigmoid(a * np.asarray(scores, dtype=float) + b)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
