"""Expanding-window real-time forecasting protocol.

At each forecast month t the pipeline standardizes, fits, and (for the tree
learners) calibrates using only months <= t: the training pairs are
(X_tau, S_{tau+1}) for tau <= t-1, so the most recent pair consumes the
label that became known at t. Hyperparameters are chosen once by
forward-chaining cross-validation inside the initial window and then held
fixed. Random streams are keyed on (master seed, model, absolute month), so
forecasts for a given month are bit-identical whether or not later data
exist in the input.

Model lineup:

    l1  lasso-logit on the 10 fragility signals (the index itself)
    l2  ridge-logit on lagged market return and realized volatility
    rf  random forest on the fragility signals, Platt-calibrated
    gb  gradient-boosted trees on the fragility signals, Platt-calibrated
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .features import FeatureMatrix
from .labels import LabelSeries
from .learners import (
    CalibrationMap,
    GradientBoostingParams,
    PROB_CLAMP,
    RandomForestParams,
    calibrate_many,
    fit_gradient_boosting,
    fit_logit_l1,
    fit_logit_l2,
    fit_platt,
    fit_random_forest,
    gb_score_many,
    laplace_base_rate,
    rf_score_many,
    sigmoid,
    standardize_apply,
    standardize_fit,
)

logger = logging.getLogger(__name__)

MODEL_NAMES = ("l1", "l2", "rf", "gb")
_MODEL_CODES = {"l1": 1, "l2": 2, "rf": 3, "gb": 4}
_CV_TAG = 1_000_003  # distinguishes CV streams from forecast streams


def _default_lambda_grid() -> tuple[float, ...]:
    return tuple(float(v) for v in np.logspace(-4.0, 0.0, 20))


@dataclass(frozen=True)
class BacktestConfig:
    """Protocol settings: window length, CV layout, grids, model list, seed."""

    initial_window_months: int = 120
    cv_folds: int = 5
    min_validation_months: int = 6
    l1_grid: tuple[float, ...] = field(default_factory=_default_lambda_grid)
    l2_grid: tuple[float, ...] = field(default_factory=_default_lambda_grid)
    rf_trees: int = 500
    rf_max_depth: int = 8
    rf_min_leaf: int = 5
    gb_stage_grid: tuple[int, ...] = (50, 100, 200, 400)
    gb_max_depth: int = 2
    gb_shrinkage: float = 0.1
    models: tuple[str, ...] = MODEL_NAMES
    seed: int = 7
    calibration_fraction: float = 0.2
    calibration_min_months: int = 12

    def validate(self):
        for name in ("cv_folds", "min_validation_months", "rf_trees", "rf_max_depth",
                     "rf_min_leaf", "gb_max_depth", "calibration_min_months"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.gb_shrinkage <= 1:
            raise ConfigError(f"gb_shrinkage must be in (0,1], got {self.gb_shrinkage}")
        if not 0 < self.calibration_fraction < 1:
            raise ConfigError(
                f"calibration_fraction must be in (0,1), got {self.calibration_fraction}"
            )
        if self.initial_window_months < self.cv_folds + 1:
            raise ConfigError(
                "initial_window_months must be >= cv_folds + 1, got "
                f"{self.initial_window_months} with {self.cv_folds} folds"
            )
        if not self.l1_grid or not self.l2_grid or not self.gb_stage_grid:
            raise ConfigError("hyperparameter grids must be non-empty")
        if not all(lam >= 0 for lam in self.l1_grid + self.l2_grid):
            raise ConfigError("l1_grid and l2_grid entries must be >= 0")
        if min(self.gb_stage_grid) < 1:
            raise ConfigError(f"gb_stage_grid entries must be >= 1, got {min(self.gb_stage_grid)}")
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown:
            raise ConfigError(f"models: unknown model name(s) {unknown}")
        if not self.models:
            raise ConfigError("models: need at least one model")


def month_ordinal(month: str) -> int:
    year, mm = month.split("-")
    return int(year) * 12 + int(mm) - 1


# ---------------------------------------------------------------------------
# Model adapters: one uniform fit/score surface per model name.

class _Adapter:
    name: str
    uses_market_features = False
    needs_calibration = False
    supports_warm_start = False
    # Every grid entry's fit is read off the fit of the largest (``restrict``).
    nested_grid = False

    def grid(self, config: BacktestConfig) -> list:
        raise NotImplementedError

    def preference_key(self, hyper):
        """Sort key; earlier entries win ties (stronger regularization first)."""
        raise NotImplementedError

    def hyper_dict(self, hyper) -> dict:
        raise NotImplementedError

    def fit(self, Xz, y, hyper, seed_seq, init=None):
        raise NotImplementedError

    def raw_scores(self, model, Xz) -> np.ndarray:
        raise NotImplementedError

    def restrict(self, model, hyper):
        """The fit for ``hyper`` from a fit for a larger entry of a nested grid."""
        raise NotImplementedError

    def default_probs(self, raw: np.ndarray) -> np.ndarray:
        """Score-to-probability map used when no calibration segment exists."""
        return np.clip(raw, PROB_CLAMP, 1.0 - PROB_CLAMP)


class _LogitAdapter(_Adapter):
    supports_warm_start = True

    def __init__(self, name: str, penalty: str):
        self.name = name
        self.penalty = penalty
        self.uses_market_features = penalty == "l2"

    def grid(self, config):
        return list(config.l1_grid if self.penalty == "l1" else config.l2_grid)

    def preference_key(self, hyper):
        return -float(hyper)

    def hyper_dict(self, hyper):
        return {"lambda": float(hyper)}

    def fit(self, Xz, y, hyper, seed_seq, init=None):
        solve = fit_logit_l1 if self.penalty == "l1" else fit_logit_l2
        return solve(Xz, y, lam=float(hyper), init=init)

    def raw_scores(self, model, Xz):
        return model.intercept + Xz @ model.coef

    def default_probs(self, raw):
        return np.clip(sigmoid(raw), PROB_CLAMP, 1.0 - PROB_CLAMP)


class _ForestAdapter(_Adapter):
    name = "rf"
    needs_calibration = True

    def grid(self, config):
        return [RandomForestParams(
            n_trees=config.rf_trees, max_depth=config.rf_max_depth, min_leaf=config.rf_min_leaf,
        )]

    def preference_key(self, hyper: RandomForestParams):
        return (hyper.max_depth, hyper.n_trees, -hyper.min_leaf)

    def hyper_dict(self, hyper: RandomForestParams):
        return {"n_trees": hyper.n_trees, "max_depth": hyper.max_depth, "min_leaf": hyper.min_leaf}

    def fit(self, Xz, y, hyper, seed_seq, init=None):
        return fit_random_forest(Xz, y, hyper, seed_seq)

    def raw_scores(self, model, Xz):
        return rf_score_many(model, Xz)


class _BoostAdapter(_Adapter):
    name = "gb"
    needs_calibration = True
    nested_grid = True  # entries differ only in n_stages; a fit's prefixes are the smaller fits

    def grid(self, config):
        return [
            GradientBoostingParams(
                n_stages=m, max_depth=config.gb_max_depth, shrinkage=config.gb_shrinkage,
            )
            for m in config.gb_stage_grid
        ]

    def preference_key(self, hyper: GradientBoostingParams):
        return (hyper.n_stages, hyper.max_depth)

    def hyper_dict(self, hyper: GradientBoostingParams):
        return {"n_stages": hyper.n_stages, "max_depth": hyper.max_depth,
                "shrinkage": hyper.shrinkage}

    def fit(self, Xz, y, hyper, seed_seq, init=None):
        return fit_gradient_boosting(Xz, y, hyper)

    def raw_scores(self, model, Xz):
        return gb_score_many(model, Xz)

    def restrict(self, model, hyper: GradientBoostingParams):
        return model.prefix(hyper.n_stages)

    def default_probs(self, raw):
        return np.clip(sigmoid(raw), PROB_CLAMP, 1.0 - PROB_CLAMP)


ADAPTERS: dict[str, _Adapter] = {
    "l1": _LogitAdapter("l1", "l1"),
    "l2": _LogitAdapter("l2", "l2"),
    "rf": _ForestAdapter(),
    "gb": _BoostAdapter(),
}


# ---------------------------------------------------------------------------
# One window's fitted pipeline.

@dataclass
class WindowFit:
    adapter: _Adapter
    params: object | None
    model: object
    cmap: CalibrationMap | None
    fallback: bool
    # (sub-model, standardized calibration rows, their targets) behind cmap
    calibration: tuple | None = None

    def raw_many(self, X_raw: np.ndarray) -> np.ndarray:
        if self.fallback:
            return np.full(X_raw.shape[0], self.model.intercept)
        Xz = standardize_apply(self.params, X_raw)
        return self.adapter.raw_scores(self.model, Xz)

    def probs(self, raw: np.ndarray) -> np.ndarray:
        """Probabilities for raw scores of this fit."""
        if self.fallback:
            return np.clip(sigmoid(raw), PROB_CLAMP, 1.0 - PROB_CLAMP)
        if self.cmap is not None:
            return calibrate_many(self.cmap, raw)
        return self.adapter.default_probs(raw)

    def prob_many(self, X_raw: np.ndarray) -> np.ndarray:
        return self.probs(self.raw_many(X_raw))

    def predict_one(self, x_raw: np.ndarray) -> tuple[float, float]:
        raw = self.raw_many(np.asarray(x_raw, dtype=float)[None, :])
        return float(raw[0]), float(self.probs(raw)[0])

    def restricted(self, hyper) -> WindowFit:
        """This window's fit for a smaller entry of a nested grid: the
        adapter restricts the full model and the calibration sub-model,
        and the Platt map is refitted on the restricted sub-model's scores.
        """
        cmap = calibration = None
        if self.calibration is not None:
            sub_model, cal_Xz, cal_y = self.calibration
            sub_model = self.adapter.restrict(sub_model, hyper)
            calibration = (sub_model, cal_Xz, cal_y)
            cmap = fit_platt(self.adapter.raw_scores(sub_model, cal_Xz), cal_y)
        model = self.adapter.restrict(self.model, hyper)
        return WindowFit(self.adapter, self.params, model, cmap, False, calibration)


def fit_window(
    adapter: _Adapter,
    X_raw: np.ndarray,
    y: np.ndarray,
    hyper,
    seed_seq: np.random.SeedSequence,
    cal_fraction: float,
    cal_min_months: int,
    init=None,
) -> WindowFit:
    """Fit one training window: standardize, fit, and calibrate if needed.

    Single-class targets return a flagged Laplace base-rate pipeline instead
    of failing, so early quiet windows keep the forecast series contiguous.
    ``init`` is an optional (intercept, coef, kept_columns) triple that
    warm-starts solvers supporting it; it is ignored when the retained
    feature set differs from the one it was produced on.
    """
    y = np.asarray(y, dtype=float)
    if np.unique(y).shape[0] < 2:
        return WindowFit(adapter, None, laplace_base_rate(y, 0, "none", 0.0), None, True)

    params = standardize_fit(X_raw)
    Xz = standardize_apply(params, X_raw)
    sub_seed, full_seed = seed_seq.spawn(2)

    cmap = calibration = None
    if adapter.needs_calibration:
        n = y.shape[0]
        cal_len = max(cal_min_months, math.ceil(cal_fraction * n))
        k = n - cal_len
        if k >= 2 and np.unique(y[:k]).shape[0] == 2:
            sub_params = standardize_fit(X_raw[:k])
            sub_model = adapter.fit(standardize_apply(sub_params, X_raw[:k]), y[:k], hyper, sub_seed)
            cal_Xz = standardize_apply(sub_params, X_raw[k:])
            calibration = (sub_model, cal_Xz, y[k:])
            cmap = fit_platt(adapter.raw_scores(sub_model, cal_Xz), y[k:])
        # else: window too short/quiet to calibrate; raw scores fall back to
        # the adapter's default probability map.

    start = None
    if init is not None and np.array_equal(init[2], params.kept):
        start = (init[0], init[1])
    model = adapter.fit(Xz, y, hyper, full_seed, init=start)
    return WindowFit(adapter, params, model, cmap, False, calibration)


# ---------------------------------------------------------------------------
# Forward-chaining cross-validation.

def _log_loss(probs: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def forward_chain_cv(
    adapter: _Adapter,
    X_raw: np.ndarray,
    y: np.ndarray,
    grid: list,
    folds: int,
    seed_seq: np.random.SeedSequence,
    cal_fraction: float,
    cal_min_months: int,
    min_validation_months: int = 6,
) -> tuple[object, dict]:
    """Select a hyperparameter by forward-chaining CV on the initial window.

    The second half of the window is cut into ``folds`` contiguous
    validation segments, each preceded by the growing training prefix (so
    even the first fold trains on half the window). Selection minimizes
    mean validation log loss; exact ties go to the entry that sorts earlier
    under the adapter's preference key (stronger regularization / smaller
    model).

    Each entry is fitted once per fold, except on a nested grid (gb's stage
    counts): there the largest entry is fitted once per fold and every
    other entry is read off it as a prefix (``WindowFit.restricted``),
    which gives the same models, calibration maps and losses bit for bit.
    A non-finite boosting stage raises ``NumericError`` from that one fit,
    as it would from the largest entry's own fit.
    """
    if not grid:
        raise ConfigError(f"{adapter.name}: empty hyperparameter grid")
    order = sorted(range(len(grid)), key=lambda i: adapter.preference_key(grid[i]))
    if len(grid) == 1:
        return grid[0], {"selected": adapter.hyper_dict(grid[0]), "folds_used": 0,
                         "mean_losses": [None]}

    n = y.shape[0]
    seg = n // (2 * folds)
    if seg < min_validation_months:
        raise DataError(
            f"initial window of {n} months cannot host {folds} validation "
            f"segments of >= {min_validation_months} months"
        )
    prefix0 = n - folds * seg
    fold_seeds = seed_seq.spawn(folds)
    usable = []
    for k in range(folds):
        train_end = prefix0 + k * seg
        if np.unique(y[:train_end]).shape[0] < 2:
            logger.warning("%s CV fold %d skipped: single-class training prefix", adapter.name, k)
            continue
        usable.append((k, train_end, train_end + seg))
    if not usable:
        raise DataError(f"{adapter.name}: every CV fold had a single-class training prefix")

    # Folds outer, grid inner in preference order: penalized solvers are
    # warm-started along the regularization path, which keeps weakly
    # penalized fits on quasi-separable prefixes cheap.
    loss_matrix = np.full((len(grid), len(usable)), np.nan)
    for col, (k, train_end, val_end) in enumerate(usable):
        init = None
        prev: int | None = None
        top = None
        if adapter.nested_grid:
            largest = grid[order[-1]]
            top = fit_window(
                adapter, X_raw[:train_end], y[:train_end], largest, fold_seeds[k],
                cal_fraction, cal_min_months,
            )
        for gi in order:
            if prev is not None and grid[gi] == grid[prev]:
                loss_matrix[gi, col] = loss_matrix[prev, col]
                continue
            if top is None:
                fitted = fit_window(
                    adapter, X_raw[:train_end], y[:train_end], grid[gi], fold_seeds[k],
                    cal_fraction, cal_min_months, init=init,
                )
            else:
                fitted = top if grid[gi] == largest else top.restricted(grid[gi])
            if adapter.supports_warm_start and not fitted.fallback:
                init = (fitted.model.intercept, fitted.model.coef, fitted.params.kept)
            probs = fitted.prob_many(X_raw[train_end:val_end])
            loss_matrix[gi, col] = _log_loss(probs, y[train_end:val_end])
            prev = gi
    mean_losses = [float(v) for v in loss_matrix.mean(axis=1)]

    best_i = select_by_preference(mean_losses, order)
    return grid[best_i], {
        "selected": adapter.hyper_dict(grid[best_i]),
        "folds_used": len(usable),
        "mean_losses": mean_losses,
    }


def select_by_preference(losses: list[float], order: list[int]) -> int:
    """Index of the lowest loss; exact ties keep the earliest preference."""
    best = order[0]
    for i in order[1:]:
        if losses[i] < losses[best]:
            best = i
    return best


# ---------------------------------------------------------------------------
# The expanding-window run.

@dataclass
class ForecastSeries:
    """Out-of-sample forecasts for every model, plus aligned realizations."""

    months: list[str]
    models: tuple[str, ...]
    raw: dict[str, np.ndarray]
    prob: dict[str, np.ndarray]
    y_next: np.ndarray
    next_vol: np.ndarray
    next_ret: np.ndarray
    r_mkt: np.ndarray
    sigma_mkt: np.ndarray
    selected: dict[str, dict]
    seed: int
    warnings: list[str] = field(default_factory=list)
    cv: dict[str, dict] = field(default_factory=dict)  # per model: selected, folds_used, mean_losses

    @property
    def n_observed(self) -> int:
        return int(np.sum(np.isfinite(self.y_next)))

    def observed_mask(self) -> np.ndarray:
        return np.isfinite(self.y_next)


def _model_matrix(name: str, features_rows: np.ndarray, labels: LabelSeries) -> np.ndarray:
    if ADAPTERS[name].uses_market_features:
        return np.column_stack([labels.r_mkt, labels.sigma_mkt])
    return features_rows


def run_expanding_backtest(
    features: FeatureMatrix,
    labels: LabelSeries,
    config: BacktestConfig,
) -> ForecastSeries:
    """Execute the protocol described in the module docstring."""
    config.validate()
    missing = [m for m in labels.months if m not in features.months]
    if missing:
        raise DataError(f"labeled months missing from feature matrix: {missing[:5]}")

    feat_idx = [features.months.index(m) for m in labels.months]
    features_rows = features.values[feat_idx]
    months = labels.months
    s = labels.s.astype(float)
    n_months = len(months)
    w = config.initial_window_months
    if n_months < w + 1:
        raise DataError(
            f"need at least {w + 1} labeled months for a {w}-month initial window, got {n_months}"
        )

    x_by_model = {name: _model_matrix(name, features_rows, labels) for name in config.models}
    y_pairs = s[1:]  # y_pairs[j] = S_{j+1}, the target paired with month j

    selected: dict[str, dict] = {}
    cv_info: dict[str, dict] = {}
    for name in config.models:
        adapter = ADAPTERS[name]
        cv_seed = np.random.SeedSequence([config.seed, _MODEL_CODES[name], _CV_TAG])
        hyper, info = forward_chain_cv(
            adapter, x_by_model[name][:w], y_pairs[:w], adapter.grid(config),
            config.cv_folds, cv_seed, config.calibration_fraction,
            config.calibration_min_months, config.min_validation_months,
        )
        selected[name] = hyper
        cv_info[name] = info
        logger.info("%s: selected %s", name, info["selected"])

    # Forecast months run in order; penalized solvers warm-start from the
    # previous month's solution (one extra training row rarely moves the
    # optimum far). The chain always begins at the first forecast month, so
    # truncated inputs reproduce the full run's prefix bit for bit.
    forecast_idx = list(range(w, n_months))
    warnings: list[str] = []
    raw = {name: np.empty(len(forecast_idx)) for name in config.models}
    prob = {name: np.empty(len(forecast_idx)) for name in config.models}
    chain: dict[str, tuple | None] = {name: None for name in config.models}
    for j, i in enumerate(forecast_idx):
        for name in config.models:
            adapter = ADAPTERS[name]
            seed = np.random.SeedSequence(
                [config.seed, _MODEL_CODES[name], month_ordinal(months[i])]
            )
            X = x_by_model[name]
            try:
                fitted = fit_window(
                    adapter, X[:i], y_pairs[:i], selected[name], seed,
                    config.calibration_fraction, config.calibration_min_months,
                    init=chain[name] if adapter.supports_warm_start else None,
                )
            except NumericError as exc:
                fitted = WindowFit(
                    adapter, None, laplace_base_rate(y_pairs[:i], 0, "none", 0.0), None, True
                )
                msg = f"{months[i]} {name}: {exc}; base-rate fallback used"
                warnings.append(msg)
                logger.warning("%s", msg)
            if adapter.supports_warm_start:
                chain[name] = (
                    None if fitted.fallback
                    else (fitted.model.intercept, fitted.model.coef, fitted.params.kept)
                )
            raw[name][j], prob[name][j] = fitted.predict_one(X[i])

    y_next = np.full(len(forecast_idx), np.nan)
    next_vol = np.full(len(forecast_idx), np.nan)
    next_ret = np.full(len(forecast_idx), np.nan)
    for j, i in enumerate(forecast_idx):
        if i + 1 < n_months:
            y_next[j] = s[i + 1]
            next_vol[j] = labels.sigma_mkt[i + 1]
            next_ret[j] = labels.r_mkt[i + 1]

    return ForecastSeries(
        months=[months[i] for i in forecast_idx],
        models=tuple(config.models),
        raw=raw,
        prob=prob,
        y_next=y_next,
        next_vol=next_vol,
        next_ret=next_ret,
        r_mkt=labels.r_mkt[w:].copy(),
        sigma_mkt=labels.sigma_mkt[w:].copy(),
        selected={name: ADAPTERS[name].hyper_dict(selected[name]) for name in config.models},
        seed=config.seed,
        warnings=warnings,
        cv=cv_info,
    )
