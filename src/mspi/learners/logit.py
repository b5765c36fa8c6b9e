"""Penalized logistic regression: ridge by damped Newton, lasso by FISTA.

The loss is the mean negative Bernoulli log-likelihood (mean, not sum, so a
penalty weight is comparable across training windows of different length;
for a sum-scale weight use lambda_sum = n * lambda_mean). The intercept is
never penalized.

The ridge objective is smooth and, where the pipeline uses it (Platt maps,
the lagged-return/volatility benchmark, the crash logit), has two to four
parameters, so ``fit_logit_l2`` takes Newton steps on the (p+1)x(p+1)
Hessian with Armijo step halving and stops once a step falls below 1e-12
relative to the parameters (or the gradient is down to its rounding
error). It converges quadratically, in a handful of iterations, to the
exact optimum.

The lasso is solved by accelerated proximal gradient (FISTA): the L1
penalty is handled by a soft-thresholding step on the coefficients, step
sizes come from a backtracking line search on the smooth part, and
iteration stops once the objective decrease falls below ``tol`` and the
parameter update stabilizes below ``step_tol`` (both are required: the
objective flattens well before the coefficients settle).

Either solver raises ``NumericError`` rather than return an unconverged or
non-finite fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericError

PROB_CLAMP = 1e-12
MAX_ITER_DEFAULT = 10_000
NEWTON_MAX_ITER = 100
_NEWTON_STEP_TOL = 1e-12
_ARMIJO = 1e-4
_ROUNDING = 1e-14  # relative objective change below which a step is rounding noise
_MIN_DAMPING = 1e-10


@dataclass(frozen=True)
class LogitModel:
    """Fitted logistic model: intercept, coefficients, penalty, diagnostics."""

    intercept: float
    coef: np.ndarray
    penalty: str  # "l1" | "l2" | "none"
    lam: float
    iterations: int
    objective: float
    fallback: bool = False  # single-class target: Laplace base-rate model

    def to_dict(self) -> dict:
        return {
            "kind": "logit",
            "penalty": self.penalty,
            "lambda": self.lam,
            "intercept": self.intercept,
            "coef": self.coef.tolist(),
            "iterations": self.iterations,
            "objective": self.objective,
            "fallback": self.fallback,
        }


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mean_nll(z: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood at linear predictor z: softplus(z) - y*z."""
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def laplace_base_rate(y: np.ndarray, n_features: int, penalty: str, lam: float) -> LogitModel:
    """Base-rate model for single-class targets: p = (k+1)/(n+2)."""
    n = y.shape[0]
    p = (float(np.sum(y)) + 1.0) / (n + 2.0)
    b0 = math.log(p / (1.0 - p))
    return LogitModel(
        intercept=b0, coef=np.zeros(n_features), penalty=penalty, lam=lam,
        iterations=0, objective=mean_nll(np.full(n, b0), y), fallback=True,
    )


def _check_targets(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Float copies of (X, y) and whether y holds a single class."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape[0] != X.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise DataError("targets must be binary 0/1")
    return X, y, classes.shape[0] < 2


def _start(p: int, init: tuple[float, np.ndarray] | None) -> np.ndarray:
    if init is None:
        return np.zeros(p + 1)
    return np.concatenate([[float(init[0])], np.asarray(init[1], dtype=float)])


def fit_logit_l1(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-8,
    step_tol: float = 1e-10,
    max_iter: int = MAX_ITER_DEFAULT,
    init: tuple[float, np.ndarray] | None = None,
) -> LogitModel:
    """Lasso-logit: mean NLL + lam * ||coef||_1, intercept unpenalized.

    Accelerated proximal gradient (FISTA with function-value restarts).
    Parameters are (intercept, coef) stacked as w = [b0, beta]; the proximal
    step soft-thresholds beta only. Momentum restarts whenever the
    accelerated candidate would raise the objective, so the objective
    decreases monotonically and the stopping rule (objective decrease below
    ``tol`` and parameter update below ``step_tol``) is sound. Fragility
    features are nearly collinear, which makes the unaccelerated iteration
    impractically slow on long windows. Raises ``NumericError`` if the rule
    is not met within ``max_iter`` iterations.
    """
    if lam < 0:
        raise DataError(f"penalty weight must be >= 0, got {lam}")
    X, y, single_class = _check_targets(X, y)
    n, p = X.shape
    if single_class:
        return laplace_base_rate(y, p, "l1", lam)

    aug = np.column_stack([np.ones(n), X])
    w = _start(p, init)

    def smooth(w_):
        return mean_nll(aug @ w_, y)

    def smooth_grad(w_):
        return aug.T @ (sigmoid(aug @ w_) - y) / n

    def nonsmooth(w_):
        return lam * float(np.sum(np.abs(w_[1:])))

    def prox(v, t):
        out = v.copy()
        out[1:] = _soft_threshold(v[1:], t * lam)
        return out

    # Inverse Lipschitz bound on the smooth gradient (logistic curvature
    # <= 1/4); backtracking only ever shrinks the step.
    lips = float(np.linalg.eigvalsh(aug.T @ aug).max()) / (4.0 * n)
    step = 1.0 / max(lips, 1e-12)

    f_w = smooth(w) + nonsmooth(w)
    z = w.copy()
    t_mom = 1.0
    for iters in range(1, max_iter + 1):
        def prox_step(point):
            nonlocal step
            f_point = smooth(point)
            g = smooth_grad(point)
            while True:
                cand = prox(point - step * g, step)
                d = cand - point
                quad = f_point + float(g @ d) + float(d @ d) / (2.0 * step)
                f_cand_smooth = smooth(cand)
                if f_cand_smooth <= quad + 1e-15:
                    return cand, f_cand_smooth + nonsmooth(cand)
                step *= 0.5
                if step < 1e-20:
                    raise DataError("line search failed: step size underflow")

        w_new, f_new = prox_step(z)
        if f_new > f_w:
            # momentum overshoot: restart from the last accepted point
            z = w
            t_mom = 1.0
            w_new, f_new = prox_step(z)

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = w_new + ((t_mom - 1.0) / t_next) * (w_new - w)
        delta_obj = f_w - f_new
        max_update = float(np.max(np.abs(w_new - w)))
        w, f_w, t_mom = w_new, f_new, t_next
        if delta_obj < tol and max_update < step_tol:
            break
    else:
        raise NumericError(f"lasso-logit (lambda={lam:g}) did not converge in {max_iter} iterations")

    return LogitModel(
        intercept=float(w[0]), coef=w[1:], penalty="l1", lam=lam,
        iterations=iters, objective=f_w,
    )


def fit_logit_l2(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iter: int = NEWTON_MAX_ITER,
    init: tuple[float, np.ndarray] | None = None,
) -> LogitModel:
    """Ridge-logit: mean NLL + lam * ||coef||_2^2, intercept unpenalized.

    Damped Newton: each iteration solves H d = -g on the full Hessian and
    halves the step until the Armijo condition holds, allowing for rounding
    in the objective so that steps at the solution's last digits are taken
    whole. Stops once max|d| <= 1e-12 * max(1, max|w|), or once every
    gradient component is within its rounding bound (on an ill-conditioned
    Hessian the step cannot shrink further than that). Raises
    ``NumericError`` on a singular Hessian, a non-finite step, a failed line
    search or ``max_iter`` iterations without convergence; with ``lam`` = 0
    a separable design ends in one of these, since its optimum is at
    infinity. A solve from ``init`` that fails is retried once from the cold
    start (all zeros), since a start deep in the saturated region can stall
    where the cold start converges; the error is raised only if that fails
    too.
    """
    if lam < 0:
        raise DataError(f"penalty weight must be >= 0, got {lam}")
    X, y, single_class = _check_targets(X, y)
    n, p = X.shape
    if single_class:
        return laplace_base_rate(y, p, "l2", lam)
    if init is not None:
        try:
            return _newton_l2(X, y, lam, max_iter, _start(p, init))
        except NumericError:
            pass
    return _newton_l2(X, y, lam, max_iter, _start(p, None))


def _newton_l2(X: np.ndarray, y: np.ndarray, lam: float, max_iter: int,
               w: np.ndarray) -> LogitModel:
    """The damped Newton solve of ``fit_logit_l2`` from the start ``w``."""
    n, p = X.shape
    aug = np.column_stack([np.ones(n), X])
    abs_aug = np.abs(aug)
    ridge = np.full(p + 1, 2.0 * lam)
    ridge[0] = 0.0
    # Work with q = sigmoid(sign * z), the probability of the class not
    # observed: p - y = sign * q, p(1 - p) = q(1 - q) and the row's NLL is
    # softplus(sign * z). All three stay exact for well-classified rows,
    # where p rounds to y, which keeps the solve sound on (quasi-)separable
    # designs.
    sign = 1.0 - 2.0 * y
    grad_noise = n * np.finfo(float).eps

    def objective(w_):
        return float(np.mean(np.logaddexp(0.0, sign * (aug @ w_)))) + lam * float(w_[1:] @ w_[1:])

    f_w = objective(w)
    for iters in range(1, max_iter + 1):
        q = sigmoid(sign * (aug @ w))
        grad = aug.T @ (sign * q) / n + ridge * w
        if np.all(np.abs(grad) <= grad_noise * (abs_aug.T @ q / n + ridge * np.abs(w))):
            break  # the gradient is zero to within its rounding error
        hess = (aug * (q * (1.0 - q))[:, None]).T @ aug / n + np.diag(ridge)
        try:
            d = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise NumericError(f"ridge-logit (lambda={lam:g}): singular Hessian") from None
        if not np.all(np.isfinite(d)):
            raise NumericError(f"ridge-logit (lambda={lam:g}): non-finite Newton step")
        if float(np.max(np.abs(d))) <= _NEWTON_STEP_TOL * max(1.0, float(np.max(np.abs(w)))):
            break
        slope = float(grad @ d)
        slack = _ROUNDING * abs(f_w)
        t = 1.0
        while True:
            w_new = w + t * d
            f_new = objective(w_new)
            if f_new <= f_w + _ARMIJO * t * slope + slack:
                break
            t *= 0.5
            if t < _MIN_DAMPING:
                raise NumericError(f"ridge-logit (lambda={lam:g}): line search failed")
        w, f_w = w_new, f_new
    else:
        raise NumericError(
            f"ridge-logit (lambda={lam:g}) did not converge in {max_iter} Newton iterations"
        )

    return LogitModel(
        intercept=float(w[0]), coef=w[1:], penalty="l2", lam=lam,
        iterations=iters, objective=f_w,
    )


def l1_objective(model: LogitModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean-loss lasso objective at the model's parameters."""
    z = model.intercept + np.asarray(X, dtype=float) @ model.coef
    return mean_nll(z, np.asarray(y, dtype=float)) + model.lam * float(np.sum(np.abs(model.coef)))
