"""Applied regressions on the forecast series.

OLS with Newey-West (Bartlett kernel) standard errors underpins four
designs: a predictive regression of next-month realized volatility on the
stress probability, a downside-indicator regression (linear probability
plus a logistic variant), an innovation extraction that projects the index
on its own lag and lagged market controls, and horizon-by-horizon local
projections of market volatility on those innovations.

The inference protocol is fixed: Newey-West lag ``HAC_LAG``, crash cutoff
``CRASH_CUTOFF`` on the next month's market return, and local projections
out to ``LP_HORIZON`` months, all on the probabilities of the index,
``backtest.INDEX_MODEL``. No run sets another value, so they are constants,
not config settings. The regressions on the forecast series read them; only
the kernels take them as arguments: ``ols_hac`` its lag, which
``local_projections`` sets per horizon, and ``local_projections`` its
horizon, which its tests shorten.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .backtest import INDEX_MODEL, ForecastSeries
from .errors import DataError, NumericError
from .labels import market_controls
from .learners import LogitModel, fit_logit_l2

logger = logging.getLogger(__name__)

HAC_LAG = 6
CRASH_CUTOFF = -0.05
LP_HORIZON = 12


@dataclass(frozen=True)
class RegressionResult:
    """OLS fit with HAC covariance."""

    names: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray
    residuals: np.ndarray
    r2: float
    n: int
    hac_lag: int

    def coefficient(self, name: str) -> float:
        return float(self.coef[self.names.index(name)])

    def std_error(self, name: str) -> float:
        return float(self.se[self.names.index(name)])

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "coef": self.coef.tolist(),
            "se": self.se.tolist(),
            "r2": self.r2,
            "n": self.n,
            "hac_lag": self.hac_lag,
        }


def _first_dependent_column(X: np.ndarray, names: tuple[str, ...]) -> str:
    """Name of the first column linearly dependent on its predecessors."""
    for j in range(1, X.shape[1] + 1):
        if np.linalg.matrix_rank(X[:, :j]) < j:
            return names[j - 1]
    return names[-1]


def hac_covariance(X: np.ndarray, residuals: np.ndarray, lag: int) -> np.ndarray:
    """Newey-West covariance of OLS coefficients with Bartlett weights.

    lag = 0 reduces to the heteroskedasticity-robust (White) form; no
    small-sample correction is applied.
    """
    v = X * residuals[:, None]
    s = v.T @ v
    for ell in range(1, lag + 1):
        w = 1.0 - ell / (lag + 1.0)
        gamma = v[ell:].T @ v[:-ell]
        s += w * (gamma + gamma.T)
    xtx_inv = np.linalg.inv(X.T @ X)
    return xtx_inv @ s @ xtx_inv


def ols_hac(
    y: np.ndarray, X: np.ndarray, hac_lag: int, names: tuple[str, ...]
) -> RegressionResult:
    """OLS via least squares with HAC standard errors.

    ``X`` must already include the intercept column if one is wanted; a
    rank-deficient design raises DataError naming the dependent column.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("design matrix must be 2-D")
    n, p = X.shape
    if len(names) != p:
        raise DataError(f"{p} columns but {len(names)} names")
    if n <= p:
        raise DataError(f"need more observations ({n}) than regressors ({p})")
    if hac_lag < 0:
        raise DataError(f"hac_lag must be >= 0, got {hac_lag}")

    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < p:
        raise DataError(f"rank-deficient design: column '{_first_dependent_column(X, names)}' "
                        "is linearly dependent")
    residuals = y - X @ coef
    cov = hac_covariance(X, residuals, hac_lag)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    has_intercept = any(np.all(X[:, j] == X[0, j]) and X[0, j] != 0 for j in range(p))
    baseline = y - np.mean(y) if has_intercept else y
    sst = float(baseline @ baseline)
    ssr = float(residuals @ residuals)
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return RegressionResult(
        names=tuple(names), coef=coef, se=se, residuals=residuals,
        r2=r2, n=n, hac_lag=hac_lag,
    )


@dataclass(frozen=True)
class PredictiveVolResult:
    regression: RegressionResult
    gamma: float
    r2_controls_only: float
    delta_r2: float

    def to_dict(self) -> dict:
        return {
            "regression": self.regression.to_dict(),
            "gamma": self.gamma,
            "r2_controls_only": self.r2_controls_only,
            "delta_r2": self.delta_r2,
        }


def predictive_vol_regression(forecasts: ForecastSeries) -> PredictiveVolResult:
    """Regress next-month realized volatility on the stress probability.

    Controls are the current month's market return and realized volatility;
    delta_r2 reports the fit gain over the controls-only regression.
    """
    mask = forecasts.observed_mask()
    prob = forecasts.prob[INDEX_MODEL][mask]
    vol_next = forecasts.next_vol[mask]
    ones = np.ones(prob.shape[0])
    z = market_controls(forecasts)[mask]
    r2_controls = ols_hac(vol_next, np.column_stack([ones, z]), HAC_LAG,
                          ("intercept", "r_mkt", "sigma_mkt")).r2
    reg = ols_hac(vol_next, np.column_stack([ones, prob, z]), HAC_LAG,
                  ("intercept", "mspi", "r_mkt", "sigma_mkt"))
    return PredictiveVolResult(
        regression=reg, gamma=reg.coefficient("mspi"),
        r2_controls_only=r2_controls, delta_r2=reg.r2 - r2_controls,
    )


@dataclass(frozen=True)
class CrashRegressionResult:
    linear: RegressionResult
    logistic: LogitModel | None
    cutoff: float
    crash_rate: float
    warning: str | None

    def to_dict(self) -> dict:
        return {
            "linear": self.linear.to_dict(),
            "logistic": self.logistic.to_dict() if self.logistic is not None else None,
            "cutoff": self.cutoff,
            "crash_rate": self.crash_rate,
            "warning": self.warning,
        }


def crash_regression(forecasts: ForecastSeries) -> CrashRegressionResult:
    """Downside-indicator regressions: Crash_{t+1} = 1{R_{t+1} <= CRASH_CUTOFF}.

    Fits a linear probability model with HAC errors and, when both crash
    classes are present and the unpenalized logistic MLE exists (the design
    does not separate them), a logistic variant on the same design.
    """
    mask = forecasts.observed_mask()
    prob = forecasts.prob[INDEX_MODEL][mask]
    crash = (forecasts.next_ret[mask] <= CRASH_CUTOFF).astype(float)
    X = np.column_stack([np.ones(prob.shape[0]), prob, market_controls(forecasts)[mask]])
    linear = ols_hac(crash, X, HAC_LAG, ("intercept", "mspi", "r_mkt", "sigma_mkt"))

    logistic = None
    warning = None
    if np.unique(crash).shape[0] < 2:
        warning = "single-class crash indicator; logistic variant skipped"
        logger.warning("%s", warning)
    else:
        try:
            logistic = fit_logit_l2(X[:, 1:], crash, lam=0.0)
        except NumericError as exc:
            # quasi-separable crash indicator: the unpenalized MLE is at infinity
            warning = f"logistic variant skipped: {exc}"
            logger.warning("%s", warning)
    return CrashRegressionResult(
        linear=linear, logistic=logistic, cutoff=CRASH_CUTOFF,
        crash_rate=float(np.mean(crash)), warning=warning,
    )


def mspi_innovations(forecasts: ForecastSeries) -> RegressionResult:
    """Project the index on its lag and lagged market controls; the
    residuals are the index's innovations, its 'news'.

    Zero-variance regressors (a constant index or control) are dropped
    before the projection; a constant index then has all-zero innovations.
    """
    prob = forecasts.prob[INDEX_MODEL]
    if prob.shape[0] < 3:
        raise DataError("need at least 3 forecast months to form innovations")
    z = market_controls(forecasts)
    y = prob[1:]
    X = np.column_stack([np.ones(y.shape[0]), prob[:-1], z[:-1]])
    names = ["intercept", "mspi_lag", "r_mkt_lag", "sigma_mkt_lag"]
    keep = [0] + [j for j in range(1, X.shape[1]) if np.ptp(X[:, j]) > 0.0]
    return ols_hac(y, X[:, keep], HAC_LAG, tuple(names[j] for j in keep))


@dataclass(frozen=True)
class LocalProjectionResult:
    horizons: list[int]
    b: np.ndarray
    se: np.ndarray
    n_obs: np.ndarray


def local_projections(
    u: np.ndarray,
    y: np.ndarray,
    controls: np.ndarray,
    max_horizon: int,
) -> LocalProjectionResult:
    """Horizon-by-horizon regressions y_{t+h} = a_h + b_h u_t + G_h' W_{t-1}.

    ``u``, ``y`` and the rows of the (n, k) ``controls`` are aligned on t, with
    ``controls`` already lagged by the caller. HAC lag at horizon h is
    h + 1, covering the moving-average order induced by overlapping
    horizons. Horizons that exhaust the sample are omitted with a warning.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    n = u.shape[0]
    if y.shape[0] != n:
        raise DataError("u and y must be aligned")
    if controls.shape[0] != n:
        raise DataError("controls must be aligned with u")
    if max_horizon < 0:
        raise DataError(f"max_horizon must be >= 0, got {max_horizon}")

    horizons = []
    bs, ses, ns = [], [], []
    k_controls = controls.shape[1]
    names = ("intercept", "u", *(f"w{j}" for j in range(k_controls)))
    for h in range(max_horizon + 1):
        m = n - h
        if m <= 2 + k_controls:
            logger.warning("local projection horizon %d omitted: sample exhausted", h)
            continue
        X = np.column_stack([np.ones(m), u[:m], controls[:m]])
        reg = ols_hac(y[h:], X, hac_lag=h + 1, names=names)
        horizons.append(h)
        bs.append(reg.coefficient("u"))
        ses.append(reg.std_error("u"))
        ns.append(m)
    return LocalProjectionResult(
        horizons=horizons, b=np.array(bs), se=np.array(ses),
        n_obs=np.array(ns, dtype=np.int64),
    )


def innovation_projections(forecasts: ForecastSeries) -> LocalProjectionResult:
    """Local projections of market volatility on the index's innovations,
    out to ``LP_HORIZON`` months: the innovations start at the second forecast
    month, the controls are lagged one month more."""
    u = mspi_innovations(forecasts).residuals[1:]
    controls = market_controls(forecasts)[1:-1]
    return local_projections(u, forecasts.sigma_mkt[2:], controls, LP_HORIZON)
