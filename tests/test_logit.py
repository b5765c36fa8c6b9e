import json
import math

import numpy as np
import pytest

from mspi.backtest import LEARNERS, WindowFit
from mspi.errors import DataError, NumericError
from mspi.learners.logit import (
    _QP_ROUNDING,
    NEWTON_MAX_ITER,
    LogitModel,
    _lasso_qp,
    _newton,
    fit_logit_l1,
    fit_logit_l2,
    mean_nll,
    sigmoid,
)
from mspi.learners.standardize import StandardizationParams, standardize_apply, standardize_fit
from mspi.numpy_parts import has_both_classes

from .oracles import fista_logit_l1, l1_objective, newton_logit


def logistic_sample(rng, n, p, beta=None, intercept=-1.0):
    X = rng.standard_normal((n, p))
    if beta is None:
        beta = rng.standard_normal(p)
    prob = 1.0 / (1.0 + np.exp(-(X @ beta + intercept)))
    y = (rng.random(n) < prob).astype(float)
    return X, y


class TestStandardize:
    def test_two_point_column(self):
        params = standardize_fit(np.array([[1.0], [3.0]]))
        z = standardize_apply(params, np.array([[1.0], [3.0]]))
        assert z[:, 0].tolist() == [-1.0, 1.0]  # population std = 1

    def test_constant_column_dropped(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        params = standardize_fit(X)
        assert params.kept.tolist() == [1]
        z = standardize_apply(params, X)
        assert z.shape == (10, 1)

    def test_training_columns_zero_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 2.0, size=(40, 6))
        params = standardize_fit(X)
        z = standardize_apply(params, X)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-12)

    def test_all_constant_errors(self):
        with pytest.raises(DataError, match="zero variance"):
            standardize_fit(np.ones((5, 3)))


class TestLogitL1:
    def test_huge_penalty_gives_base_rate(self):
        rng = np.random.default_rng(1)
        X, _ = logistic_sample(rng, 40, 4)
        y = np.array([1.0] * 10 + [0.0] * 30)  # event rate 0.25
        model = fit_logit_l1(X, y, lam=1e6)
        assert np.all(model.coef == 0.0)
        assert model.intercept == pytest.approx(math.log(1 / 3), abs=1e-8)

    def test_unpenalized_matches_newton(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X, y = logistic_sample(rng, 50, 5)
            w = newton_logit(X, y)
            model = fit_logit_l1(X, y, lam=0.0)
            got = np.concatenate([[model.intercept], model.coef])
            assert np.max(np.abs(got - w)) < 1e-6

    def test_duplicated_rows_leave_solution_unchanged(self):
        rng = np.random.default_rng(2)
        X, y = logistic_sample(rng, 60, 4)
        m1 = fit_logit_l1(X, y, lam=0.03)
        m2 = fit_logit_l1(np.vstack([X, X]), np.concatenate([y, y]), lam=0.03)
        assert abs(m1.intercept - m2.intercept) < 1e-8
        assert np.max(np.abs(m1.coef - m2.coef)) < 1e-8

    def test_local_optimality_against_perturbations(self):
        rng = np.random.default_rng(3)
        X, y = logistic_sample(rng, 80, 6)
        model = fit_logit_l1(X, y, lam=0.05)
        base = l1_objective(model, X, y)
        for _ in range(100):
            bumped = model.coef + rng.uniform(-1e-3, 1e-3, size=model.coef.shape)
            z = model.intercept + X @ bumped
            perturbed = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.05 * np.sum(np.abs(bumped))
            assert base <= perturbed + 1e-12

    def test_monotone_sparsity_on_fixtures(self):
        for seed in (4, 5, 6):
            rng = np.random.default_rng(seed)
            X, y = logistic_sample(rng, 90, 8)
            lams = [1e-4, 1e-3, 1e-2, 0.05, 0.2, 1.0]
            nnz = [int(np.sum(fit_logit_l1(X, y, lam).coef != 0.0)) for lam in lams]
            assert all(a >= b for a, b in zip(nnz, nnz[1:]))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(DataError, match="needs both classes"):
            fit_logit_l1(X, np.zeros(10), lam=0.1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DataError):
            fit_logit_l1(np.zeros((4, 1)), np.array([0.0, 1, 0, 1]), lam=-1.0)

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(13)
        X, y = logistic_sample(rng, 60, 4)
        with pytest.raises(NumericError, match="did not converge in 3 iterations"):
            fit_logit_l1(X, y, lam=0.01, max_iter=3)


def lasso_gradient(model, X, y):
    """Gradient of the mean NLL at the model's parameters, intercept first."""
    aug = np.column_stack([np.ones(X.shape[0]), X])
    p = sigmoid(aug @ np.concatenate([[model.intercept], model.coef]))
    return aug.T @ (p - y) / X.shape[0]


class TestProximalNewtonL1:
    """The lasso solve is exact: it agrees with a tightly converged FISTA run."""

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
    def test_matches_fista_oracle(self, lam):
        for seed in range(4):
            rng = np.random.default_rng(500 + seed)
            X, y = logistic_sample(rng, 80, 6)
            model = fit_logit_l1(X, y, lam=lam)
            assert_matches_oracle(model, fista_logit_l1(X, y, lam), tol=1e-9)
            assert model.iterations < 20

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(19)
        X, y = logistic_sample(rng, 120, 8)
        X[:, 1] = X[:, 0] + 0.05 * X[:, 1]  # collinear pair
        for lam in (1e-4, 3e-3, 0.03, 0.3):
            model = fit_logit_l1(X, y, lam=lam)
            g = lasso_gradient(model, X, y)
            nonzero = model.coef != 0.0
            assert abs(g[0]) <= 1e-12
            assert np.all(np.abs(g[1:][nonzero] + lam * np.sign(model.coef[nonzero])) <= 1e-12)
            assert np.all(np.abs(g[1:][~nonzero]) <= lam + 1e-12)

    def test_large_penalty_leaves_intercept_exact(self):
        # The penalty weight must not loosen the intercept's stationarity test.
        for seed in range(10):
            rng = np.random.default_rng(600 + seed)
            X, _ = logistic_sample(rng, 40, 4)
            y = (rng.random(40) < 0.25).astype(float)
            for lam in (10.0, 1e3, 1e6):
                model = fit_logit_l1(X, y, lam=lam)
                assert np.all(model.coef == 0.0)
                assert abs(lasso_gradient(model, X, y)[0]) <= 1e-12

    def test_warm_and_cold_start_same_optimum(self):
        rng = np.random.default_rng(20)
        X, y = logistic_sample(rng, 90, 5)
        cold = fit_logit_l1(X, y, lam=0.01)
        w = np.concatenate([[cold.intercept], cold.coef])
        other = fit_logit_l1(X, y, lam=0.2)
        for init in [(1.5, np.array([-1.0, 2.0, 0.5, 0.0, 3.0])), (other.intercept, other.coef)]:
            assert_matches_oracle(fit_logit_l1(X, y, lam=0.01, init=init), w)
        again = fit_logit_l1(X, y, lam=0.01, init=(cold.intercept, cold.coef))
        assert again.iterations <= 2
        assert_matches_oracle(again, w)

    def test_small_chain_first_cv_fold(self, small_chain):
        # The first forward-chaining CV fold of the l1 model in the small
        # backtest, warm-started down the penalty grid as the CV does. A
        # projected Newton step without the exact subproblem cycles between
        # active sets on this fold.
        _, features, labels = small_chain
        rows = [features.months.index(m) for m in labels.months]
        X = features.values[rows][:60]
        y = labels.s[1:61].astype(float)
        assert int(y.sum()) == 6
        Xz = standardize_apply(standardize_fit(X), X)
        init = None
        for lam in np.logspace(-3, 0, 6)[::-1]:
            model = fit_logit_l1(Xz, y, lam=float(lam), init=init)
            init = (model.intercept, model.coef)
            assert model.iterations < 20
        assert model.lam == 1e-3
        assert_matches_oracle(model, fista_logit_l1(Xz, y, 1e-3), tol=1e-9)

    def test_duplicated_column_reaches_optimum(self):
        rng = np.random.default_rng(23)
        X, y = logistic_sample(rng, 100, 4, beta=np.array([1.5, -1.0, 0.5, 0.0]))
        Xd = np.column_stack([X, X[:, 0]])  # an exact copy: singular active block
        w = fista_logit_l1(X, y, 0.01)
        best = mean_nll(w[0] + X @ w[1:], y) + 0.01 * float(np.sum(np.abs(w[1:])))
        # from a start with opposite signs on the copies, no point of the
        # start's orthant is stationary
        for init in [None, (0.0, np.array([2.0, 0.0, 0.0, 0.0, -1.0]))]:
            model = fit_logit_l1(Xd, y, lam=0.01, init=init)
            assert abs(l1_objective(model, Xd, y) - best) <= 1e-12
            merged = np.concatenate([[model.intercept], model.coef[:4]])
            merged[1] += model.coef[4]
            assert np.max(np.abs(merged - w)) <= 1e-8

    @pytest.mark.parametrize("design", ["duplicated", "zero_column"])
    def test_unpenalized_rank_deficient_optimum_or_numeric_error(self, design):
        rng = np.random.default_rng(25)
        X, y = logistic_sample(rng, 60, 3)
        extra = X[:, 0] if design == "duplicated" else np.zeros(60)
        try:
            model = fit_logit_l1(np.column_stack([X, extra]), y, lam=0.0)
        except NumericError:
            return
        w = newton_logit(X, y)
        got = np.concatenate([[model.intercept], model.coef[:3]])
        got[1] += model.coef[3] if design == "duplicated" else 0.0
        assert np.max(np.abs(got - w)) <= 1e-8

    def test_non_finite_input_raises(self):
        rng = np.random.default_rng(26)
        X, y = logistic_sample(rng, 30, 2)
        X[3, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            fit_logit_l1(X, y, lam=0.1)


# A proximal Newton QP of a lasso-logit fit (373 training months, 9 kept
# columns, from an l1/l2 backtest of a simulator variant that draws its regime
# path from its own stream) on which the active set once cycled with period 4
# until the step cap: a full-rank block was judged singular by its residual,
# and the singular-case step raised the objective.
_CYCLING_QP_HESS = np.array([
    [0.12172931445848768, 0.018737365273864607, -0.00216311242481561, -0.006518679024901158,
     0.01831399829029595, 0.01784691295712906, 0.01845608954237928, 0.018756891459211333,
     0.0002503637215194942, 0.018732559184287168],
    [0.018737365273864603, 0.2049400937368786, -0.024095318585589304, -0.07183235352999136,
     0.2017237910753353, 0.19956479814135392, 0.19932489385647809, 0.20460481385945656,
     0.0006147349236715942, 0.20417417290828083],
    [-0.00216311242481561, -0.024095318585589304, 0.12074827840209915, -0.09102035224213255,
     -0.020004679848730982, -0.022717968203052927, -0.012729961809651042,
     -0.019869270611130214, 0.011917884270203136, -0.01903556572141206],
    [-0.006518679024901161, -0.07183235352999137, -0.09102035224213255, 0.12966575263609437,
     -0.07325932831453104, -0.07160511410598382, -0.07390188116344663, -0.07492966344328511,
     -0.009086174618770954, -0.07520206547589472],
    [0.018313998290295945, 0.20172379107533525, -0.020004679848730975, -0.07325932831453104,
     0.20140527673377207, 0.1981006913668263, 0.19979578612785873, 0.2015631149192063,
     0.0017927238767466414, 0.2014260268715501],
    [0.01784691295712906, 0.1995647981413539, -0.022717968203052927, -0.07160511410598382,
     0.1981006913668263, 0.19789427467272078, 0.19302105727742652, 0.199256132299221,
     0.005554616992659261, 0.19895019799417507],
    [0.01845608954237928, 0.19932489385647809, -0.012729961809651042, -0.07390188116344663,
     0.19979578612785875, 0.19302105727742647, 0.20827645027238378, 0.19990077192234787,
     -0.0012189842267792252, 0.20049799633865995],
    [0.018756891459211337, 0.20460481385945656, -0.019869270611130217, -0.07492966344328511,
     0.2015631149192063, 0.199256132299221, 0.19990077192234787, 0.20517726437991374,
     0.001208333343879812, 0.2046967936731639],
    [0.00025036372151949457, 0.0006147349236715975, 0.011917884270203136,
     -0.009086174618770952, 0.0017927238767466414, 0.005554616992659261,
     -0.0012189842267792252, 0.0012083333438798088, 0.12192208486346325, 0.002606394026993979],
    [0.018732559184287168, 0.20417417290828083, -0.019035565721412056, -0.07520206547589472,
     0.2014260268715501, 0.19895019799417507, 0.20049799633865995, 0.2046967936731639,
     0.0026063940269939806, 0.20485853227640793],
])
_CYCLING_QP_C = np.array([
    0.20062069086151332, -0.10733085852297666, -0.015085242884356954, 0.06240361816556232,
    -0.11007615657502316, -0.11202534371450903, -0.10908302854014104, -0.10955567556316856,
    -0.0371160034790461, -0.11149390100698275
])
_CYCLING_QP_LAM = 0.03359818286283781
_CYCLING_QP_X = np.array([
    -1.7295299430863615, 0.0, 0.0, -0.0017453768288108185, 0.0, 0.46851153532563705,
    0.02406056510315274, 0.0, 0.009794051174075762, 0.05903347872491387
])


def qp_objective(hess, c, lam, x) -> float:
    return 0.5 * float(x @ hess @ x) + float(c @ x) + lam * float(np.sum(np.abs(x[1:])))


def assert_qp_optimal(hess, c, lam, x):
    """The QP's optimality conditions at x, each within its rounding bound:
    a zero gradient for the intercept, gradient + lam * sign for a nonzero
    coefficient, a gradient of at most lam for a zero one."""
    g = hess @ x + c
    theta = np.sign(x)
    theta[0] = 0.0
    resid = np.abs(g + lam * theta)
    zero = theta == 0.0
    zero[0] = False
    resid[zero] = np.maximum(resid[zero] - lam, 0.0)
    bound = _QP_ROUNDING * (np.abs(hess) @ np.abs(x) + np.abs(c) + lam)
    assert np.all(resid <= bound), resid / bound


def conditioned_qp(rng, cond):
    """A lasso-logit Newton QP (H, c, lam, x) as ``_newton`` builds it, at the
    iterate x, on a standardized 200 x 9 design whose singular values span
    sqrt(cond)."""
    n, p = 200, 9
    u = np.linalg.qr(rng.standard_normal((n, p)))[0]
    v = np.linalg.qr(rng.standard_normal((p, p)))[0]
    X = (u * np.logspace(0.0, -0.5 * math.log10(cond), p)) @ v
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = (rng.random(n) < sigmoid(X @ rng.normal(0.0, 0.5, p) - 1.5)).astype(float)
    aug = np.column_stack([np.ones(n), X])
    x = np.concatenate([[rng.normal(-1.5, 0.3)], rng.normal(0.0, 0.3, p) * (rng.random(p) < 0.5)])
    q = sigmoid(aug @ x)
    hess = (aug * (q * (1.0 - q))[:, None]).T @ aug / n
    lam = math.exp(rng.uniform(math.log(1e-3), math.log(0.1)))
    return hess, aug.T @ (q - y) / n - hess @ x, lam, x


class TestLassoQP:
    def test_formerly_cycling_qp_reaches_its_optimum(self):
        args = (_CYCLING_QP_HESS, _CYCLING_QP_C, _CYCLING_QP_LAM)
        x = _lasso_qp(*args, _CYCLING_QP_X, "q")
        assert_qp_optimal(*args, x)
        assert qp_objective(*args, x) < qp_objective(*args, _CYCLING_QP_X)

    def test_a_step_that_raises_the_objective_ends_the_search(self, monkeypatch):
        # Judged by its residual alone, the full-rank block is singular and
        # its step raises the objective: the search stops there at once.
        lstsq = np.linalg.lstsq

        def rank_deficient(a, b, rcond=None):
            target, res, rank, sv = lstsq(a, b, rcond=rcond)
            return target, res, rank - 1, sv

        monkeypatch.setattr(np.linalg, "lstsq", rank_deficient)
        with pytest.raises(NumericError, match="lasso QP step raised the objective"):
            _lasso_qp(_CYCLING_QP_HESS, _CYCLING_QP_C, _CYCLING_QP_LAM, _CYCLING_QP_X, "q")

    def test_cold_start_on_balanced_labels(self):
        # From w = 0 with half the labels 1 the intercept's gradient is
        # exactly 0, so the first QP step does not move; it must be accepted
        # and the search go on to the coefficients. The expected model is the
        # one the search gave before steps were checked against the objective.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 4))
        y = np.array([0.0, 1.0] * 30)
        lam = 0.5 * float(np.max(np.abs(X.T @ (y - 0.5)))) / y.size
        model = fit_logit_l1(X, y, lam)
        assert model.iterations == 4
        assert model.intercept == pytest.approx(-0.0029468378183105824, rel=1e-9)
        np.testing.assert_allclose(
            model.coef, [-0.22235440592956887, -0.1035510642913489, 0.0, 0.0], rtol=1e-9)
        assert np.all(model.coef[2:] == 0.0)

    def test_ill_conditioned_designs_reach_their_optimum(self):
        # A step that would raise the objective beyond rounding raises
        # NumericError, so each return shows that no step did.
        rng = np.random.default_rng(31)
        conds = []
        for _ in range(200):
            hess, c, lam, x0 = conditioned_qp(rng, 10.0 ** rng.uniform(2.0, 5.0))
            conds.append(np.linalg.cond(hess))
            x = _lasso_qp(hess, c, lam, x0, "q")
            assert_qp_optimal(hess, c, lam, x)
            a = np.abs(x0)
            slack = _QP_ROUNDING * (a @ np.abs(hess) @ a + np.abs(c) @ a + lam * np.sum(a[1:]))
            assert qp_objective(hess, c, lam, x) <= qp_objective(hess, c, lam, x0) + slack
        assert min(conds) < 1e3 and max(conds) > 1e4


class TestLogitL2:
    def test_huge_penalty_shrinks_to_base_rate(self):
        rng = np.random.default_rng(7)
        X, _ = logistic_sample(rng, 40, 3)
        y = np.array([1.0] * 20 + [0.0] * 20)
        model = fit_logit_l2(X, y, lam=1e8)
        assert np.max(np.abs(model.coef)) < 1e-4
        assert model.intercept == pytest.approx(0.0, abs=1e-6)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(DataError, match="needs both classes"):
            fit_logit_l2(X, np.ones(10), lam=0.1)

    def test_unpenalized_matches_newton(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            X, y = logistic_sample(rng, 50, 5)
            w = newton_logit(X, y)
            model = fit_logit_l2(X, y, lam=0.0)
            got = np.concatenate([[model.intercept], model.coef])
            assert np.max(np.abs(got - w)) < 1e-6

    def test_ridge_matches_newton_ridge(self):
        rng = np.random.default_rng(8)
        X, y = logistic_sample(rng, 70, 4)
        w = newton_logit(X, y, l2=0.05)
        model = fit_logit_l2(X, y, lam=0.05)
        got = np.concatenate([[model.intercept], model.coef])
        assert np.max(np.abs(got - w)) < 1e-7

    def test_unique_optimum_from_two_starts(self):
        rng = np.random.default_rng(9)
        X, y = logistic_sample(rng, 60, 5)
        m1 = fit_logit_l2(X, y, lam=0.01)
        m2 = fit_logit_l2(X, y, lam=0.01, init=(0.7, np.full(5, -0.4)))
        assert abs(m1.intercept - m2.intercept) < 1e-8
        assert np.max(np.abs(m1.coef - m2.coef)) < 1e-8

    def test_feature_permutation_symmetry(self):
        rng = np.random.default_rng(10)
        X, y = logistic_sample(rng, 60, 5)
        perm = np.array([3, 0, 4, 1, 2])
        m1 = fit_logit_l2(X, y, lam=0.02)
        m2 = fit_logit_l2(X[:, perm], y, lam=0.02)
        assert np.max(np.abs(m2.coef - m1.coef[perm])) < 1e-7


def assert_matches_oracle(model, w, tol=1e-10):
    got = np.concatenate([[model.intercept], model.coef])
    assert np.max(np.abs(got - w)) <= tol * max(1.0, float(np.max(np.abs(w))))


class TestNewtonL2:
    """The ridge solve is exact: it agrees with the oracle to 1e-10."""

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.05, 1.0])
    def test_matches_newton_oracle(self, lam):
        for seed in range(4):
            rng = np.random.default_rng(300 + seed)
            X, y = logistic_sample(rng, 80, 4)
            model = fit_logit_l2(X, y, lam=lam)
            assert_matches_oracle(model, newton_logit(X, y, l2=lam))
            assert model.iterations < 20

    def test_unscaled_design_matches_oracle(self):
        # crash-logit shape: a probability and two raw market controls
        rng = np.random.default_rng(14)
        n = 240
        prob = np.clip(rng.beta(2.0, 8.0, n), 0.01, 0.99)
        X = np.column_stack([prob, rng.normal(0.004, 0.04, n), rng.lognormal(-2.0, 0.3, n)])
        y = (rng.normal(0.005, 0.04 + 0.05 * prob) <= -0.05).astype(float)
        assert_matches_oracle(fit_logit_l2(X, y, lam=0.0), newton_logit(X, y))

    def test_platt_shape_matches_oracle(self):
        # one unscaled rf-style score in [0, 1] at Platt's ridge, including
        # a separable segment whose optimum is large but finite
        for seed in range(6):
            rng = np.random.default_rng(400 + seed)
            s = rng.random(40) ** (1 + seed % 3)
            y = (rng.random(40) < s).astype(float)
            if seed == 5:
                y = (s > np.median(s)).astype(float)
            model = fit_logit_l2(s[:, None], y, lam=1e-8)
            assert_matches_oracle(model, newton_logit(s[:, None], y, l2=1e-8))

    def test_warm_and_cold_start_same_optimum(self):
        rng = np.random.default_rng(15)
        X, y = logistic_sample(rng, 90, 3)
        cold = fit_logit_l2(X, y, lam=0.02)
        w = newton_logit(X, y, l2=0.02)
        for init in [(1.5, np.array([-1.0, 2.0, 0.5])), (cold.intercept, cold.coef)]:
            warm = fit_logit_l2(X, y, lam=0.02, init=init)
            assert_matches_oracle(warm, w)
        again = fit_logit_l2(X, y, lam=0.02, init=(cold.intercept, cold.coef))
        assert again.iterations <= 2

    def test_far_warm_start_restarts_cold(self):
        # crash-logit shape (a probability and two raw market controls): from
        # this start the line search fails, while the cold start converges
        rng = np.random.default_rng(24)
        n = 60
        prob = np.clip(rng.beta(2.0, 8.0, n), 0.01, 0.99)
        X = np.column_stack([prob, rng.normal(0.004, 0.04, n), rng.lognormal(-2.0, 0.3, n)])
        y = (rng.normal(0.005, 0.04 + 0.05 * prob) <= -0.05).astype(float)
        start = np.array([3.0, -20.0, 50.0, 100.0])
        with pytest.raises(NumericError, match="line search failed"):
            _newton(X, y, 0.0, "l2", NEWTON_MAX_ITER, start.copy())
        cold = fit_logit_l2(X, y, lam=0.0)
        warm = fit_logit_l2(X, y, lam=0.0, init=(start[0], start[1:]))
        assert_matches_oracle(warm, np.concatenate([[cold.intercept], cold.coef]))
        assert_matches_oracle(warm, newton_logit(X, y))

    def test_separable_unpenalized_raises(self):
        x = np.concatenate([np.linspace(-2, -1, 10), np.linspace(1, 2, 10)])
        y = np.array([0.0] * 10 + [1.0] * 10)
        for init in [None, (0.5, np.array([3.0]))]:  # a warm start's cold retry fails too
            with pytest.raises(NumericError):
                fit_logit_l2(x[:, None], y, lam=0.0, init=init)

    def test_singular_hessian_raises(self):
        rng = np.random.default_rng(16)
        X, y = logistic_sample(rng, 30, 2)
        X[:, 1] = 0.0  # no curvature along an unpenalized coefficient
        with pytest.raises(NumericError, match="singular Hessian"):
            fit_logit_l2(X, y, lam=0.0)

    def test_non_finite_input_raises(self):
        rng = np.random.default_rng(17)
        X, y = logistic_sample(rng, 30, 2)
        X[3, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            fit_logit_l2(X, y, lam=0.1)

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(18)
        X, y = logistic_sample(rng, 50, 3)
        with pytest.raises(NumericError, match="did not converge in 1 Newton iterations"):
            fit_logit_l2(X, y, lam=0.01, max_iter=1)


def scoring(model: LogitModel) -> WindowFit:
    """The backtest's scoring path around ``model``, with unit standardization."""
    p = model.coef.shape[0]
    params = StandardizationParams(mean=np.zeros(p), std=np.ones(p), kept=np.arange(p),
                                   n_features=p)
    return WindowFit(LEARNERS["l1"], params, model, None, False)


class TestPredict:
    def test_midpoint(self):
        model = LogitModel(intercept=0.0, coef=np.zeros(2), penalty="l1", lam=0.0,
                           iterations=0, objective=0.0)
        fit = scoring(model)
        assert fit.probs(fit.raw_many(np.zeros((1, 2))))[0] == 0.5

    def test_saturation_clamped(self):
        model = LogitModel(intercept=50.0, coef=np.zeros(1), penalty="l1", lam=0.0,
                           iterations=0, objective=0.0)
        fit = scoring(model)
        assert fit.probs(fit.raw_many(np.zeros((1, 1))))[0] == 1.0 - 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        z = rng.normal(0, 3, 100)
        assert np.max(np.abs(sigmoid(z) + sigmoid(-z) - 1.0)) < 1e-14

    def test_dimension_mismatch(self):
        model = LogitModel(intercept=0.0, coef=np.zeros(3), penalty="l1", lam=0.0,
                           iterations=0, objective=0.0)
        with pytest.raises(DataError):
            scoring(model).raw_many(np.zeros((1, 2)))

    def test_round_trip_json(self):
        rng = np.random.default_rng(12)
        X, y = logistic_sample(rng, 40, 3)
        model = fit_logit_l1(X, y, lam=0.02)
        clone = json.loads(json.dumps(model.to_dict()))
        assert clone["intercept"] == model.intercept
        assert np.array_equal(np.array(clone["coef"]), model.coef)


class TestTargets:
    @pytest.mark.parametrize("y", [[], [0.0], [1.0], [0.0] * 6, [1.0] * 6, [0.0, 0.0, 1.0],
                                   [1.0, 0.0, 1.0, 1.0]],
                             ids=["empty", "one", "one_1", "all_0", "all_1", "mixed", "mixed_1"])
    def test_two_class_check_agrees_with_unique(self, y):
        y = np.array(y, dtype=float)
        assert has_both_classes(y) == (np.unique(y).shape[0] >= 2)

    # the binary check comes first: an all-NaN target holds a single class too
    @pytest.mark.parametrize("y", [[0.0, 1.0, 2.0, 0.0], [math.nan] * 4], ids=["two", "nan"])
    @pytest.mark.parametrize("fit", [fit_logit_l1, fit_logit_l2], ids=["l1", "l2"])
    def test_non_binary_targets_rejected(self, fit, y):
        with pytest.raises(DataError, match="targets must be binary 0/1"):
            fit(np.zeros((4, 1)), np.array(y), lam=0.1)
