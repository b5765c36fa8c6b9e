"""Within-window feature standardization (z-scoring).

Means and population (divide-by-n) standard deviations are estimated on the
training window only. Zero-variance features are dropped: the parameters
record the retained columns, so the same columns are kept in any matrix
they are applied to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError

_ZERO_VAR_RTOL = 1e-13


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature location/scale plus the indices of retained columns."""

    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray
    n_features: int


def standardize_fit(X: np.ndarray) -> StandardizationParams:
    """Estimate standardization parameters on a training window."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("standardization needs at least 2 training rows")
    mean = np.mean(X, axis=0)
    std = np.std(X, axis=0)  # population convention
    # Constant columns can carry float-noise dispersion; treat near-zero
    # relative spread as zero variance.
    zero = std <= np.maximum(np.abs(mean), 1.0) * _ZERO_VAR_RTOL
    kept = np.flatnonzero(~zero)
    if kept.size == 0:
        raise DataError("all features have zero variance in the training window")
    return StandardizationParams(mean=mean[kept], std=std[kept], kept=kept, n_features=X.shape[1])


def standardize_apply(params: StandardizationParams, X: np.ndarray) -> np.ndarray:
    """Z-score the rows of a matrix using fitted parameters; drops the
    columns the fit did not keep."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != params.n_features:
        raise DataError(f"matrix has {X.shape[1]} features, expected {params.n_features}")
    return (X[:, params.kept] - params.mean) / params.std
