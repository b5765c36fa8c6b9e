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

from dataclasses import dataclass

import numpy as np

from .logit import PROB_CLAMP, fit_logit_l2, laplace_log_odds, sigmoid

_RIDGE = 1e-8


@dataclass(frozen=True)
class CalibrationMap:
    """Logistic score-to-probability map p = sigmoid(a*s + b)."""

    a: float
    b: float


def fit_platt(scores: np.ndarray, y: np.ndarray) -> CalibrationMap:
    """Maximum-likelihood calibration map on a segment of (score, outcome)
    pairs; ``y`` holds both classes."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(np.max(scores) - np.min(scores)) == 0.0:
        return CalibrationMap(a=0.0, b=laplace_log_odds(y))
    model = fit_logit_l2(scores[:, None], y, lam=_RIDGE)
    return CalibrationMap(a=float(model.coef[0]), b=model.intercept)


def calibrate_many(cmap: CalibrationMap, scores: np.ndarray) -> np.ndarray:
    p = sigmoid(cmap.a * np.asarray(scores, dtype=float) + cmap.b)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
