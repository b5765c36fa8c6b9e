"""Penalized logistic regression: every logit by Newton.

The loss is the mean negative Bernoulli log-likelihood (mean, not sum, so a
penalty weight is comparable across training windows of different length;
for a sum-scale weight use lambda_sum = n * lambda_mean). The intercept is
never penalized.

Where the pipeline uses them, the models have two to eleven parameters (the
Platt maps, the lagged-return/volatility benchmark and the crash logit
under the ridge; the lasso index on the ten fragility signals), so both
solvers work on the full (p+1)x(p+1) Hessian and reach the exact optimum in
a handful of iterations:

* ``fit_logit_l2`` takes damped Newton steps.
* ``fit_logit_l1`` takes damped proximal Newton steps (newGLMNET; Yuan, Ho
  and Lin 2012): each step minimizes the quadratic model of the likelihood
  plus the exact L1 penalty, a small lasso QP that feature-sign search
  (Lee, Battle, Raina and Ng 2007) solves exactly by active sets.

Each step is halved until the Armijo condition holds on the true objective.
A solve stops once a step falls below 1e-12 relative to the parameters, or
once the optimality conditions hold to within their rounding error. Either
solver raises ``NumericError`` rather than return an unconverged or
non-finite fit, and ``DataError`` for a single-class target, as the tree
learners do (a window the backtest cannot fit takes ``WindowFit.base_rate``).
``clamped_log_loss`` is the log loss of the CV, the evaluation and the bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericError
from ..numpy_parts import has_both_classes

PROB_CLAMP = 1e-12
NEWTON_MAX_ITER = 100
_NEWTON_STEP_TOL = 1e-12
_ARMIJO = 1e-4
_ROUNDING = 1e-14  # relative objective change below which a step is rounding noise
_MIN_DAMPING = 1e-10
_QP_ROUNDING = 1e3 * np.finfo(float).eps  # relative slack of the QP's optimality tests


@dataclass(frozen=True)
class LogitModel:
    """Fitted logistic model: intercept, coefficients, penalty, diagnostics."""

    intercept: float
    coef: np.ndarray
    penalty: str  # "l1" | "l2"
    lam: float
    iterations: int
    objective: float

    def to_dict(self) -> dict:
        return {
            "kind": "logit",
            "penalty": self.penalty,
            "lambda": self.lam,
            "intercept": self.intercept,
            "coef": self.coef.tolist(),
            "iterations": self.iterations,
            "objective": self.objective,
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


def laplace_log_odds(y: np.ndarray) -> float:
    """Log-odds of the Laplace-smoothed event rate p = (k+1)/(n+2) of the k
    events among the n 0/1 targets ``y``."""
    p = (float(np.sum(y)) + 1.0) / (y.shape[0] + 2.0)
    return math.log(p / (1.0 - p))


def clamped_log_loss(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean negative Bernoulli log-likelihood along the last axis, the
    probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP]: a float for one
    series, one value per row of a matrix."""
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)), axis=-1)


def _check_targets(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of (X, y); DataError unless y holds both classes, 0 and 1."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape[0] != X.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("targets must be binary 0/1")
    if not has_both_classes(y):
        raise DataError("logistic regression needs both classes in the training targets")
    return X, y


def _start(p: int, init: tuple[float, np.ndarray] | None) -> np.ndarray:
    if init is None:
        return np.zeros(p + 1)
    return np.concatenate([[float(init[0])], np.asarray(init[1], dtype=float)])


def fit_logit_l1(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iter: int = NEWTON_MAX_ITER,
    init: tuple[float, np.ndarray] | None = None,
) -> LogitModel:
    """Lasso-logit: mean NLL + lam * ||coef||_1, intercept unpenalized.

    Damped proximal Newton (see the module docstring); ``iterations``
    counts Newton steps. Stops once max|d| <= 1e-12 * max(1, max|w|), or
    once the intercept's gradient, each nonzero coefficient's gradient plus
    lam * sign and each zero coefficient's gradient beyond lam are within
    their rounding bounds. Raises ``NumericError`` on a non-finite step, a
    failed line search, a QP that does not terminate or ``max_iter``
    iterations without convergence; a failed solve from ``init`` is retried
    from the cold start, as in ``fit_logit_l2``.
    """
    return _fit(X, y, lam, "l1", max_iter, init)


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
    return _fit(X, y, lam, "l2", max_iter, init)


def _fit(X, y, lam: float, penalty: str, max_iter: int,
         init: tuple[float, np.ndarray] | None) -> LogitModel:
    """Checks and the warm start with its cold retry."""
    if lam < 0:
        raise DataError(f"penalty weight must be >= 0, got {lam}")
    X, y = _check_targets(X, y)
    p = X.shape[1]
    if init is not None:
        try:
            return _newton(X, y, lam, penalty, max_iter, _start(p, init))
        except NumericError:
            pass
    return _newton(X, y, lam, penalty, max_iter, _start(p, None))


def _newton(X: np.ndarray, y: np.ndarray, lam: float, penalty: str, max_iter: int,
            w: np.ndarray) -> LogitModel:
    """The damped (proximal) Newton solve of ``fit_logit_l1``/``fit_logit_l2``
    from the start ``w``."""
    n, p = X.shape
    l1 = penalty == "l1"
    name = "lasso-logit" if l1 else "ridge-logit"
    aug = np.column_stack([np.ones(n), X])
    abs_aug = np.abs(aug)
    ridge = np.full(p + 1, 0.0 if l1 else 2.0 * lam)
    ridge[0] = 0.0
    # Work with q = sigmoid(sign * z), the probability of the class not
    # observed: p - y = sign * q, p(1 - p) = q(1 - q) and the row's NLL is
    # softplus(sign * z). All three stay exact for well-classified rows,
    # where p rounds to y, which keeps the solve sound on (quasi-)separable
    # designs.
    sign = 1.0 - 2.0 * y
    grad_noise = n * np.finfo(float).eps

    def penalty_value(w_):
        if l1:
            return lam * float(np.sum(np.abs(w_[1:])))
        return lam * float(w_[1:] @ w_[1:])

    def objective(w_):
        return float(np.mean(np.logaddexp(0.0, sign * (aug @ w_)))) + penalty_value(w_)

    f_w = objective(w)
    for iters in range(1, max_iter + 1):
        q = sigmoid(sign * (aug @ w))
        grad = aug.T @ (sign * q) / n + ridge * w
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"{name} (lambda={lam:g}): non-finite gradient")
        noise = grad_noise * (abs_aug.T @ q / n + ridge * np.abs(w))
        if l1:
            # distance of -grad from the subdifferential of the penalty
            theta = np.sign(w)
            theta[0] = 0.0
            resid = np.abs(grad + lam * theta)
            zero = theta == 0.0
            zero[0] = False
            resid[zero] = np.maximum(resid[zero] - lam, 0.0)
            noise[1:] += grad_noise * lam
        else:
            resid = np.abs(grad)
        if np.all(resid <= noise):
            break  # optimal to within the gradient's rounding error
        hess = (aug * (q * (1.0 - q))[:, None]).T @ aug / n + np.diag(ridge)
        if l1:
            d = _lasso_qp(hess, grad - hess @ w, lam, w, name) - w
        else:
            try:
                d = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                raise NumericError(f"{name} (lambda={lam:g}): singular Hessian") from None
        if not np.all(np.isfinite(d)):
            raise NumericError(f"{name} (lambda={lam:g}): non-finite Newton step")
        if float(np.max(np.abs(d))) <= _NEWTON_STEP_TOL * max(1.0, float(np.max(np.abs(w)))):
            break
        slope = float(grad @ d)
        if l1:
            slope += penalty_value(w + d) - penalty_value(w)
        slack = _ROUNDING * abs(f_w)
        t = 1.0
        while True:
            w_new = w + t * d
            f_new = objective(w_new)
            if f_new <= f_w + _ARMIJO * t * slope + slack:
                break
            t *= 0.5
            if t < _MIN_DAMPING:
                raise NumericError(f"{name} (lambda={lam:g}): line search failed")
        w, f_w = w_new, f_new
    else:
        steps = "iterations" if l1 else "Newton iterations"
        raise NumericError(f"{name} (lambda={lam:g}) did not converge in {max_iter} {steps}")

    return LogitModel(
        intercept=float(w[0]), coef=w[1:], penalty=penalty, lam=lam,
        iterations=iters, objective=f_w,
    )


def _lasso_qp(hess: np.ndarray, c: np.ndarray, lam: float, x: np.ndarray,
              name: str) -> np.ndarray:
    """Exact minimizer of 0.5 x'Hx + c'x + lam * ||x[1:]||_1 (H positive
    semidefinite) by feature-sign search, starting from ``x``.

    x[0] is unpenalized and always active. Each step minimizes the quadratic
    over the active coordinates with their signs held fixed (least squares,
    so a singular active block, as exactly duplicated columns give, has a
    solution; ``lstsq``'s rank tells a singular block from a regular one),
    then moves there or to the best point on the way at which a coordinate
    reaches zero; a coordinate at zero leaves the active set. Once a step
    reaches its target with no sign change, the active coordinates are
    stationary, and the zero coordinate whose gradient exceeds lam by most
    joins, with the sign that lowers the objective; once none does, ``x`` is
    optimal. No step may raise the objective by more than its rounding
    error, so no active set recurs and the search ends. ``NumericError`` is
    raised when no candidate point of a step keeps to that, or when the
    search has not ended after 20 steps per coordinate.
    """
    x = x.copy()
    theta = np.sign(x)
    theta[0] = 0.0
    active = theta != 0.0
    active[0] = True
    abs_hess = np.abs(hess)
    stationary = False
    for _ in range(20 * x.shape[0]):
        if stationary:
            g = hess @ x + c
            excess = np.abs(g) - lam - _QP_ROUNDING * (abs_hess @ np.abs(x) + np.abs(c) + lam)
            excess[active] = 0.0
            j = int(np.argmax(excess))
            if excess[j] <= 0.0:
                return x
            active[j] = True
            theta[j] = -np.sign(g[j])
        idx = np.flatnonzero(active)
        h = hess[np.ix_(idx, idx)]
        b = c[idx] + lam * theta[idx]
        target, _, rank, _ = np.linalg.lstsq(h, -b, rcond=None)
        residual = h @ target + b
        xa = x[idx]
        consistent = rank == idx.shape[0] or np.all(
            np.abs(residual) <= _QP_ROUNDING * (np.abs(h) @ np.abs(target) + np.abs(b)))
        d = target - xa if consistent else -residual
        crossing = theta[idx] * d < 0.0
        hits = np.full(idx.shape[0], np.inf)
        hits[crossing] = -xa[crossing] / d[crossing]
        stationary = consistent and not np.any(hits < 1.0)
        if consistent:
            steps = {*hits[hits < 1.0].tolist(), 1.0}
        elif crossing.any():
            # No point of this orthant is stationary: h is singular and the
            # objective falls linearly along -residual, a null direction of
            # h, up to the first zero crossing.
            steps = {float(np.min(hits))}
        else:
            raise NumericError(f"{name} (lambda={lam:g}): unbounded lasso subproblem")
        best, best_f = xa, math.inf
        for t in sorted(steps):
            v = xa + t * d
            v[hits == t] = 0.0
            f = _qp_objective(h, c[idx], lam, v)
            if f < best_f:
                best, best_f = v, f
        # a step may not raise the objective by more than its rounding error;
        # a step that does not move (as from x = 0) keeps it exactly
        a = np.abs(xa)
        slack = _QP_ROUNDING * float(a @ np.abs(h) @ a + np.abs(c[idx]) @ a + lam * np.sum(a[1:]))
        if best_f > _qp_objective(h, c[idx], lam, xa) + slack:
            raise NumericError(f"{name} (lambda={lam:g}): lasso QP step raised the objective")
        x[idx] = best
        theta = np.sign(x)
        theta[0] = 0.0
        active = theta != 0.0
        active[0] = True
    raise NumericError(f"{name} (lambda={lam:g}): active-set QP did not terminate")


def _qp_objective(h: np.ndarray, c: np.ndarray, lam: float, v: np.ndarray) -> float:
    """0.5 v'hv + c'v + lam * ||v[1:]||_1."""
    return 0.5 * float(v @ h @ v) + float(c @ v) + lam * float(np.sum(np.abs(v[1:])))
