"""Expanding-window real-time forecasting protocol.

At each forecast month t the pipeline standardizes, fits, and (for the tree
learners) calibrates using only months <= t: the training pairs are
(X_tau, S_{tau+1}) for tau <= t-1, so the most recent pair consumes the
label that became known at t. Hyperparameters are chosen once by
forward-chaining cross-validation inside the initial window and then held
fixed. Random streams are keyed on (master seed, model, absolute month), so
forecasts for a given month are bit-identical whether or not later data
exist in the input.

Forward-chaining CV and the l1/l2 forecast chains run serially in the
calling process: each l1/l2 month warm-starts from the month before. The rf
and gb months depend on no other month, so they are split across forked
processes, one per CPU this process may run on (at most one per month).
Worker w of W takes the forecast months j with j mod W = w; the caller is
worker 0 and runs its share after the chains. A month's fit is the same
computation on the same data with the same random stream in whichever
process runs it, and the results are put back by (month, model), so the
forecasts and the order of the fallback warnings do not depend on W.

Model lineup, one ``Learner`` record each in ``LEARNERS``:

    l1  lasso-logit on the 10 fragility signals (the index itself)
    l2  ridge-logit on lagged market return and realized volatility
    rf  random forest on the fragility signals, Platt-calibrated
    gb  gradient-boosted trees on the fragility signals, Platt-calibrated

A record holds how its model is fitted, scored and tuned, and the facts
the protocol branches on: calibrated, warm-started, reads the market
features, raw scores are log-odds. Without a Platt map a score becomes a
probability through the clipped sigmoid, or is only clipped when it is
already a frequency (rf).
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, MspiError, NumericError
from .features import FeatureMatrix
from .labels import LabelSeries, market_controls
from .learners import (
    CalibrationMap,
    GradientBoostingParams,
    PROB_CLAMP,
    RandomForestParams,
    calibrate_many,
    clamped_log_loss,
    fit_gradient_boosting,
    fit_logit_l1,
    fit_logit_l2,
    fit_platt,
    fit_random_forest,
    gb_score_many,
    laplace_log_odds,
    rf_score_many,
    sigmoid,
    standardize_apply,
    standardize_fit,
)
from .panel import parse_month

logger = logging.getLogger(__name__)

MODEL_NAMES = ("l1", "l2", "rf", "gb")
_MODEL_CODES = {"l1": 1, "l2": 2, "rf": 3, "gb": 4}
_CV_TAG = 1_000_003  # distinguishes CV streams from forecast streams


def _default_lambda_grid() -> tuple[float, ...]:
    return tuple(float(v) for v in np.logspace(-4.0, 0.0, 20))


# Constants of the forecast design, not settings. A calibrated learner's
# Platt map is fitted on the last 20% of its training window, and on at
# least 12 months: a shorter segment of a short window would rarely hold a
# stress month, and a segment without one gets no map (``fit_window``). Each
# CV validation segment spans at least 6 months, so no fold's log loss rests
# on a few months.
CALIBRATION_FRACTION = 0.2
CALIBRATION_MIN_MONTHS = 12
MIN_VALIDATION_MONTHS = 6


@dataclass(frozen=True)
class BacktestConfig:
    """Protocol settings: window length, CV layout, grids, model list, seed.

    The rf tree shape and gb's depth and shrinkage are the learners' own
    parameter defaults; only the forest size and gb's stage counts are set.
    """

    initial_window_months: int = 120
    cv_folds: int = 5
    l1_grid: tuple[float, ...] = field(default_factory=_default_lambda_grid)
    l2_grid: tuple[float, ...] = field(default_factory=_default_lambda_grid)
    rf_trees: int = RandomForestParams.n_trees
    gb_stage_grid: tuple[int, ...] = (50, 100, 200, 400)
    models: tuple[str, ...] = MODEL_NAMES
    seed: int = 7

    def __post_init__(self):
        for name in ("cv_folds", "rf_trees"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
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
        if len(set(self.models)) < len(self.models):
            raise ConfigError(f"models: each model may be listed once, got {list(self.models)}")
        # forward_chain_cv's segment rule, checked here for the grids it will tune
        if (self.initial_window_months // (2 * self.cv_folds) < MIN_VALIDATION_MONTHS
                and any(len(LEARNERS[m].grid(self)) > 1 for m in self.models)):
            raise ConfigError(
                f"initial_window_months must be >= {2 * MIN_VALIDATION_MONTHS * self.cv_folds} "
                f"to host cv_folds = {self.cv_folds} validation segments of >= "
                f"{MIN_VALIDATION_MONTHS} months, got {self.initial_window_months}"
            )


def month_ordinal(month: str) -> int:
    year, mm = parse_month(month, "month_ordinal")
    return year * 12 + mm - 1


# ---------------------------------------------------------------------------
# The learner table: how the protocol fits, scores and tunes each model.

@dataclass(frozen=True)
class Learner:
    """One model as the protocol sees it.

    ``fit(Xz, y, hyper, seed_seq, init)`` returns a fitted model, where
    ``init`` is an (intercept, coef) warm start or None; ``score(model,
    Xz)`` gives its raw scores. ``grid(config)`` lists the CV candidates,
    ``key(hyper)`` orders them (earlier entries win exact ties: stronger
    regularization or a smaller model) and ``describe(hyper)`` records one
    in the provenance. ``restrict(model, hyper)``, set only for a nested
    grid, reads a smaller entry's fit off a larger entry's fit.

    The learner functions are named inside lambdas, so they are looked up
    in this module when called, not when the table is built: a patched
    module attribute (a tracer's wrapper, a test's stub) takes effect.
    """

    name: str
    fit: Callable
    score: Callable
    grid: Callable
    key: Callable
    describe: Callable
    calibrated: bool = False       # Platt-map the scores on a held-out segment
    warm_started: bool = False     # each forecast month starts from the last
    market_features: bool = False  # lagged market return and volatility
    log_odds: bool = True          # raw scores are log-odds, not frequencies
    restrict: Callable | None = None


def _logit(name: str, fit: Callable, market_features: bool) -> Learner:
    return Learner(
        name=name,
        fit=fit,
        score=lambda model, Xz: model.intercept + Xz @ model.coef,
        grid=lambda config: list(getattr(config, f"{name}_grid")),
        key=lambda lam: -float(lam),
        describe=lambda lam: {"lambda": float(lam)},
        warm_started=True,
        market_features=market_features,
    )


LEARNERS: dict[str, Learner] = {
    "l1": _logit("l1", lambda Xz, y, lam, seed_seq, init:
                 fit_logit_l1(Xz, y, lam=float(lam), init=init), market_features=False),
    "l2": _logit("l2", lambda Xz, y, lam, seed_seq, init:
                 fit_logit_l2(Xz, y, lam=float(lam), init=init), market_features=True),
    "rf": Learner(
        name="rf",
        fit=lambda Xz, y, hyper, seed_seq, init: fit_random_forest(Xz, y, hyper, seed_seq),
        score=lambda model, Xz: rf_score_many(model, Xz),
        grid=lambda config: [RandomForestParams(n_trees=config.rf_trees)],
        key=lambda hyper: 0,  # the grid has one entry, so no two are compared
        describe=asdict,
        calibrated=True,
        log_odds=False,  # the score is already a mean leaf frequency
    ),
    "gb": Learner(
        name="gb",
        fit=lambda Xz, y, hyper, seed_seq, init: fit_gradient_boosting(Xz, y, hyper),
        score=lambda model, Xz: gb_score_many(model, Xz),
        grid=lambda config: [GradientBoostingParams(n_stages=m) for m in config.gb_stage_grid],
        key=lambda hyper: hyper.n_stages,
        describe=lambda hyper: {"n_stages": hyper.n_stages, "max_depth": hyper.max_depth,
                                "shrinkage": hyper.shrinkage},
        calibrated=True,
        # entries differ only in n_stages: a fit's prefixes are the smaller fits
        restrict=lambda model, hyper: model.prefix(hyper.n_stages),
    ),
}


# ---------------------------------------------------------------------------
# One window's fitted pipeline.

@dataclass
class WindowFit:
    learner: Learner
    params: object | None
    model: object  # a fallback's model is its intercept
    cmap: CalibrationMap | None
    fallback: bool
    # (sub-model, standardized calibration rows, their targets) behind cmap
    calibration: tuple | None = None

    @classmethod
    def base_rate(cls, learner: Learner, y: np.ndarray) -> WindowFit:
        """The flagged fallback for a window that cannot be fitted: the
        constant Laplace log-odds (``laplace_log_odds``) of its stress months."""
        return cls(learner, None, laplace_log_odds(y), None, True)

    def raw_many(self, X_raw: np.ndarray) -> np.ndarray:
        if self.fallback:
            return np.full(X_raw.shape[0], self.model)
        Xz = standardize_apply(self.params, X_raw)
        return self.learner.score(self.model, Xz)

    def probs(self, raw: np.ndarray) -> np.ndarray:
        """Probabilities for raw scores of this fit: the Platt map if there is
        one, else the clipped scores, through the sigmoid if they are log-odds
        (a fallback's intercept always is)."""
        if self.cmap is not None:
            return calibrate_many(self.cmap, raw)
        if self.fallback or self.learner.log_odds:
            raw = sigmoid(raw)
        return np.clip(raw, PROB_CLAMP, 1.0 - PROB_CLAMP)

    def prob_many(self, X_raw: np.ndarray) -> np.ndarray:
        return self.probs(self.raw_many(X_raw))

    def predict_one(self, x_raw: np.ndarray) -> tuple[float, float]:
        raw = self.raw_many(np.asarray(x_raw, dtype=float)[None, :])
        return float(raw[0]), float(self.probs(raw)[0])

    def restricted(self, hyper) -> WindowFit:
        """This window's fit for a smaller entry of a nested grid: the
        learner restricts the full model and the calibration sub-model,
        and the Platt map is refitted on the restricted sub-model's scores.
        """
        cmap = calibration = None
        if self.calibration is not None:
            sub_model, cal_Xz, cal_y = self.calibration
            sub_model = self.learner.restrict(sub_model, hyper)
            calibration = (sub_model, cal_Xz, cal_y)
            cmap = fit_platt(self.learner.score(sub_model, cal_Xz), cal_y)
        model = self.learner.restrict(self.model, hyper)
        return WindowFit(self.learner, self.params, model, cmap, False, calibration)


def fit_window(
    learner: Learner,
    X_raw: np.ndarray,
    y: np.ndarray,
    hyper,
    seed_seq: np.random.SeedSequence,
    init: WindowFit | None = None,
) -> WindowFit:
    """Fit one training window: standardize, fit, and calibrate if needed.

    Single-class targets return a flagged Laplace base-rate pipeline instead
    of failing, so early quiet windows keep the forecast series contiguous.
    A calibrated learner gets a Platt map, fitted on the window's last months
    as scored by a sub-model of the months before them, only when both parts
    hold both classes; otherwise its scores take the uncalibrated rule.
    A warm-started learner starts from the solution of ``init``, an earlier
    fit, unless that fit is a fallback or retained other feature columns.
    """
    y = np.asarray(y, dtype=float)
    if np.unique(y).shape[0] < 2:
        return WindowFit.base_rate(learner, y)

    params = standardize_fit(X_raw)
    Xz = standardize_apply(params, X_raw)
    sub_seed, full_seed = seed_seq.spawn(2)

    cmap = calibration = None
    if learner.calibrated:
        n = y.shape[0]
        cal_len = max(CALIBRATION_MIN_MONTHS, math.ceil(CALIBRATION_FRACTION * n))
        k = n - cal_len
        if k >= 2 and np.unique(y[:k]).shape[0] == 2 and np.unique(y[k:]).shape[0] == 2:
            sub_params = standardize_fit(X_raw[:k])
            sub_model = learner.fit(standardize_apply(sub_params, X_raw[:k]), y[:k], hyper,
                                    sub_seed, None)
            cal_Xz = standardize_apply(sub_params, X_raw[k:])
            calibration = (sub_model, cal_Xz, y[k:])
            cmap = fit_platt(learner.score(sub_model, cal_Xz), y[k:])

    start = None
    if (learner.warm_started and init is not None and not init.fallback
            and np.array_equal(init.params.kept, params.kept)):
        start = (init.model.intercept, init.model.coef)
    model = learner.fit(Xz, y, hyper, full_seed, start)
    return WindowFit(learner, params, model, cmap, False, calibration)


# ---------------------------------------------------------------------------
# Forward-chaining cross-validation.

def forward_chain_cv(
    learner: Learner,
    X_raw: np.ndarray,
    y: np.ndarray,
    grid: list,
    folds: int,
    seed_seq: np.random.SeedSequence,
) -> tuple[object, dict]:
    """Select a hyperparameter by forward-chaining CV on the initial window.

    The second half of the window is cut into ``folds`` contiguous
    validation segments, each preceded by the growing training prefix (so
    even the first fold trains on half the window). Selection minimizes
    mean validation log loss; exact ties go to the entry that sorts earlier
    under the learner's ``key`` (stronger regularization / smaller model).

    Each entry is fitted once per fold, except on a nested grid (gb's stage
    counts): there the largest entry is fitted once per fold and every
    other entry is read off it as a prefix (``WindowFit.restricted``),
    which gives the same models, calibration maps and losses bit for bit.
    A non-finite boosting stage raises ``NumericError`` from that one fit,
    as it would from the largest entry's own fit.
    """
    if not grid:
        raise ConfigError(f"{learner.name}: empty hyperparameter grid")
    if len(grid) == 1:
        return grid[0], {"selected": learner.describe(grid[0]), "folds_used": 0,
                         "mean_losses": [None]}
    order = sorted(range(len(grid)), key=lambda i: learner.key(grid[i]))

    n = y.shape[0]
    seg = n // (2 * folds)
    if seg < MIN_VALIDATION_MONTHS:
        raise DataError(
            f"initial window of {n} months cannot host {folds} validation "
            f"segments of >= {MIN_VALIDATION_MONTHS} months"
        )
    prefix0 = n - folds * seg
    fold_seeds = seed_seq.spawn(folds)
    usable = []
    for k in range(folds):
        train_end = prefix0 + k * seg
        if np.unique(y[:train_end]).shape[0] < 2:
            logger.warning("%s CV fold %d skipped: single-class training prefix", learner.name, k)
            continue
        usable.append((k, train_end, train_end + seg))
    if not usable:
        raise DataError(f"{learner.name}: every CV fold had a single-class training prefix")

    # Folds outer, grid inner in preference order: penalized solvers are
    # warm-started along the regularization path, which keeps weakly
    # penalized fits on quasi-separable prefixes cheap.
    largest = grid[order[-1]]
    loss_matrix = np.full((len(grid), len(usable)), np.nan)
    for col, (k, train_end, val_end) in enumerate(usable):
        fitted = top = prev = None
        if learner.restrict is not None:
            top = fit_window(learner, X_raw[:train_end], y[:train_end], largest, fold_seeds[k])
        for gi in order:
            if prev is not None and grid[gi] == grid[prev]:
                loss_matrix[gi, col] = loss_matrix[prev, col]
                continue
            if top is None:
                fitted = fit_window(learner, X_raw[:train_end], y[:train_end], grid[gi],
                                    fold_seeds[k], init=fitted)
            else:
                fitted = top if grid[gi] == largest else top.restricted(grid[gi])
            probs = fitted.prob_many(X_raw[train_end:val_end])
            loss_matrix[gi, col] = clamped_log_loss(probs, y[train_end:val_end])
            prev = gi
    mean_losses = [float(v) for v in loss_matrix.mean(axis=1)]

    best_i = select_by_preference(mean_losses, order)
    return grid[best_i], {
        "selected": learner.describe(grid[best_i]),
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

    @classmethod
    def from_labels(cls, labels: LabelSeries, positions, models, raw: dict[str, np.ndarray],
                    prob: dict[str, np.ndarray]) -> ForecastSeries:
        """The forecasts made at the label months ``positions``, each month t
        paired with its outcomes: y_next = S_{t+1}, and next_vol and next_ret,
        month t+1's realized volatility and return, all NaN at the last
        labeled month; r_mkt and sigma_mkt are month t's."""
        idx = np.asarray(positions, dtype=np.int64)

        def ahead(values: np.ndarray) -> np.ndarray:
            return np.append(values, np.nan)[idx + 1]

        return cls(
            months=[labels.months[i] for i in idx.tolist()], models=tuple(models),
            raw=raw, prob=prob, y_next=ahead(labels.s), next_vol=ahead(labels.sigma_mkt),
            next_ret=ahead(labels.r_mkt), r_mkt=labels.r_mkt[idx],
            sigma_mkt=labels.sigma_mkt[idx],
        )

    def observed_mask(self) -> np.ndarray:
        return np.isfinite(self.y_next)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _serve_share(k: int, run_share, read_fd: int, write_fd: int):
    """A forked worker: run share k, send its result (or the exception it
    raised) to the parent through the pipe, and exit without returning."""
    status = 1
    try:
        os.close(read_fd)
        try:
            result = ("ok", run_share(k))
        except Exception as exc:
            result = ("error", exc)
        with open(write_fd, "wb") as pipe:
            pickle.dump(result, pipe)
        status = 0
    finally:
        os._exit(status)


def _run_shares(workers: int, run_share, parent_work) -> tuple[object, list]:
    """``parent_work()`` and ``run_share(k)`` for k = 0..workers-1.

    Shares 1..workers-1 run in forked children, started before the parent
    does ``parent_work`` and share 0. Returns (parent_work's result, the
    shares' results in share order). A share's exception is raised again
    here; a child that exits without a result raises ``MspiError``. Whatever
    fails, no child outlives the call: unreaped children are killed and
    reaped before the error propagates.
    """
    children = []  # (k, pid, read end of its pipe), unreaped
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read_fd)
                os.close(write_fd)
                raise MspiError(f"cannot start forecast worker {k}: {exc}") from None
            if pid == 0:
                _serve_share(k, run_share, read_fd, write_fd)
            os.close(write_fd)
            children.append((k, pid, open(read_fd, "rb")))
        first = parent_work()
        shares = [run_share(0)]
        while children:
            k, pid, pipe = children[0]
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            pipe.close()
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                raise MspiError(f"forecast worker {k} (pid {pid}) ended with {how} "
                                "without sending its forecasts")
            kind, value = pickle.loads(payload)
            if kind == "error":
                raise value
            shares.append(value)
        return first, shares
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_expanding_backtest(
    features: FeatureMatrix,
    labels: LabelSeries,
    config: BacktestConfig,
) -> tuple[ForecastSeries, dict]:
    """Execute the protocol described in the module docstring; returns the
    forecasts and their provenance, the ``provenance.json`` payload."""
    missing = [m for m in labels.months if m not in features.months]
    if missing:
        raise DataError(f"labeled months missing from feature matrix: {missing[:5]}")

    feat_idx = [features.months.index(m) for m in labels.months]
    features_rows = features.values[feat_idx]
    months = labels.months
    n_months = len(months)
    w = config.initial_window_months
    if n_months < w + 1:
        raise DataError(
            f"need at least {w + 1} labeled months for a {w}-month initial window, got {n_months}"
        )

    x_by_model = {name: market_controls(labels) if LEARNERS[name].market_features
                  else features_rows for name in config.models}
    y_pairs = labels.s[1:].astype(float)  # y_pairs[j] = S_{j+1}, the target paired with month j

    selected: dict[str, dict] = {}
    cv_info: dict[str, dict] = {}
    for name in config.models:
        learner = LEARNERS[name]
        cv_seed = np.random.SeedSequence([config.seed, _MODEL_CODES[name], _CV_TAG])
        hyper, info = forward_chain_cv(learner, x_by_model[name][:w], y_pairs[:w],
                                       learner.grid(config), config.cv_folds, cv_seed)
        selected[name] = hyper
        cv_info[name] = info
        logger.info("%s: selected %s", name, info["selected"])

    n_forecasts = n_months - w

    def forecast(name: str, j: int, init: WindowFit | None = None) -> tuple[WindowFit, tuple]:
        """Fit and score forecast month j of one model: (fit, cell), where a
        cell is (j, model, raw score, probability, fallback message or None)."""
        i = w + j
        learner = LEARNERS[name]
        seed = np.random.SeedSequence([config.seed, _MODEL_CODES[name], month_ordinal(months[i])])
        X = x_by_model[name]
        msg = None
        try:
            fitted = fit_window(learner, X[:i], y_pairs[:i], selected[name], seed, init=init)
        except NumericError as exc:
            fitted = WindowFit.base_rate(learner, y_pairs[:i])
            msg = f"{months[i]} {name}: {exc}; base-rate fallback used"
        return fitted, (j, name, *fitted.predict_one(X[i]), msg)

    # Penalized solvers warm-start from the previous month's solution (one
    # extra training row rarely moves the optimum far). A chain always begins
    # at the first forecast month, so truncated inputs reproduce the full
    # run's prefix bit for bit.
    def run_chains() -> list[tuple]:
        cells = []
        for name in config.models:
            if not LEARNERS[name].warm_started:
                continue
            fitted = None
            for j in range(n_forecasts):
                fitted, cell = forecast(name, j, fitted)
                cells.append(cell)
        return cells

    free = [name for name in config.models if not LEARNERS[name].warm_started]
    workers = min(_cpu_count(), n_forecasts) if free and hasattr(os, "fork") else 1

    def run_share(k: int) -> tuple[list[tuple], float]:
        start = time.perf_counter()
        cells = [forecast(name, j)[1] for j in range(k, n_forecasts, workers) for name in free]
        return cells, time.perf_counter() - start

    cells, shares = _run_shares(workers, run_share, run_chains)
    if free:
        logger.info("forecast loop: %d months of %s on %d process(es)",
                    n_forecasts, ", ".join(free), workers)
        for k, (_, wall) in enumerate(shares):
            logger.debug("forecast share %d: %d months of %s in %.2f s",
                         k, len(range(k, n_forecasts, workers)), ", ".join(free), wall)
    cells += [cell for share_cells, _ in shares for cell in share_cells]

    position = {name: m for m, name in enumerate(config.models)}
    cells.sort(key=lambda cell: (cell[0], position[cell[1]]))
    warnings: list[str] = []
    raw = {name: np.empty(n_forecasts) for name in config.models}
    prob = {name: np.empty(n_forecasts) for name in config.models}
    for j, name, raw_j, prob_j, msg in cells:
        raw[name][j], prob[name][j] = raw_j, prob_j
        if msg is not None:
            warnings.append(msg)
            logger.warning("%s", msg)

    forecasts = ForecastSeries.from_labels(labels, range(w, n_months), config.models, raw, prob)
    return forecasts, {
        "seed": config.seed,
        "selected_hyperparameters": {name: LEARNERS[name].describe(selected[name])
                                     for name in config.models},
        "n_forecast_months": n_forecasts,
        "first_month": forecasts.months[0],
        "last_month": forecasts.months[-1],
        "models": list(config.models),
        "warnings": warnings,
        "cv": cv_info,
    }
