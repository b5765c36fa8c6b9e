import json

import numpy as np
import pytest

from mspi.artifacts import write_forecasts_csv, write_labels_csv
from mspi.cli import main
from mspi.econometrics import (
    CRASH_CUTOFF,
    LP_HORIZON,
    crash_regression,
    hac_covariance,
    innovation_projections,
    local_projections,
    mspi_innovations,
    ols_hac,
    predictive_vol_regression,
)
from mspi.errors import DataError
from mspi.labels import ForecastSeries, LabelSeries, market_controls
from mspi.learners.logit import fit_logit_l2

from .oracles import white_covariance


def toy_forecasts(n=120, seed=0, link=0.0):
    """Forecast series with controllable link from probability to next vol."""
    rng = np.random.default_rng(seed)
    prob = np.clip(rng.beta(2, 8, n), 0.01, 0.99)
    sigma = rng.lognormal(-2.0, 0.3, n)
    next_vol = np.abs(0.1 + link * prob + 0.02 * rng.standard_normal(n))
    next_ret = rng.normal(0.005, 0.04, n)
    y_next = (rng.random(n) < prob).astype(float)
    return ForecastSeries(
        months=[f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(n)],
        models=("l1",),
        raw={"l1": np.log(prob / (1 - prob))},
        prob={"l1": prob},
        y_next=y_next,
        next_vol=next_vol,
        next_ret=next_ret,
        r_mkt=rng.normal(0.004, 0.04, n),
        sigma_mkt=sigma,
    )


def paired(fs):
    """(labels, forecasts) as the pipeline pairs them, for ``fs`` written to
    files: the label series runs one month past ``fs``, and its month t+1
    holds the stress state, volatility and return ``fs`` pairs with month t;
    the forecasts are ``fs``'s scores on the first n of its months."""
    n = len(fs.months)
    year, month = map(int, fs.months[-1].split("-"))
    labels = LabelSeries(
        months=[*fs.months, f"{year + month // 12:04d}-{month % 12 + 1:02d}"],
        r_mkt=np.append(fs.r_mkt[:1], fs.next_ret),
        sigma_mkt=np.append(fs.sigma_mkt[:1], fs.next_vol),
        q_prev=np.full(n + 1, 0.2),
        s=np.append(0, fs.y_next).astype(np.int64),
    )
    return labels, ForecastSeries.from_labels(labels, range(n), fs.models, fs.raw, fs.prob)


def column_names(X):
    """x0, x1, ...: one name per column of ``X``."""
    return tuple(f"x{j}" for j in range(X.shape[1]))


def coefficient(reg, name):
    """(coefficient, standard error) of column ``name`` in a regression payload."""
    j = reg["names"].index(name)
    return reg["coef"][j], reg["se"][j]


class TestOlsHac:
    def test_exact_fit(self):
        x = np.arange(1.0, 21.0)
        X = np.column_stack([np.ones(20), x])
        reg, residuals = ols_hac(2.0 * x, X, hac_lag=3, names=("intercept", "x"))
        b, se = coefficient(reg, "x")
        assert b == pytest.approx(2.0, abs=1e-12)
        assert np.max(np.abs(residuals)) < 1e-10
        assert se == pytest.approx(0.0, abs=1e-10)
        assert reg["r2"] == pytest.approx(1.0)

    def test_lag_zero_matches_white(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = X @ np.array([0.5, 1.0, -2.0]) + rng.standard_normal(50) * (1 + 0.5 * np.abs(X[:, 1]))
        reg, residuals = ols_hac(y, X, hac_lag=0, names=column_names(X))
        expected = white_covariance(X, residuals)
        got = hac_covariance(X, residuals, 0)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.max(np.abs(np.array(reg["se"]) - np.sqrt(np.diag(expected)))) < 1e-12

    def test_column_permutation_symmetry(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
        y = rng.standard_normal(60)
        coef = np.array(ols_hac(y, X, hac_lag=2, names=column_names(X))[0]["coef"])
        perm = [0, 2, 3, 1]
        coef_p = np.array(ols_hac(y, X[:, perm], hac_lag=2, names=column_names(X))[0]["coef"])
        assert np.max(np.abs(coef_p - coef[perm])) < 1e-10

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(80), rng.standard_normal((80, 4))])
        y = rng.standard_normal(80)
        _, residuals = ols_hac(y, X, hac_lag=4, names=column_names(X))
        assert np.max(np.abs(X.T @ residuals)) < 1e-8

    def test_rank_deficient_names_column(self):
        x = np.arange(1.0, 31.0)
        X = np.column_stack([np.ones(30), x, 2 * x])
        with pytest.raises(DataError, match="'double_x'"):
            ols_hac(np.ones(30), X, 0, names=("intercept", "x", "double_x"))

    def test_hac_psd(self):
        rng = np.random.default_rng(4)
        for lag in (0, 3, 6, 12):
            X = np.column_stack([np.ones(90), rng.standard_normal((90, 3))])
            e = rng.standard_normal(90)
            cov = hac_covariance(X, e, lag)
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= -1e-10
            assert np.max(np.abs(cov - cov.T)) < 1e-14


class TestPredictiveVolRegression:
    def test_identity_regressor(self):
        fs = toy_forecasts(seed=5)
        fs.next_vol[:] = fs.prob["l1"]  # index equals next-month volatility
        res = predictive_vol_regression(fs)
        assert res["gamma"] == pytest.approx(1.0, abs=1e-10)
        assert res["regression"]["r2"] == pytest.approx(1.0)

    def test_noise_index_insignificant(self):
        hits = 0
        for seed in range(100):
            fs = toy_forecasts(n=150, seed=seed, link=0.0)
            b, se = coefficient(predictive_vol_regression(fs)["regression"], "mspi")
            hits += abs(b / se) < 2.0
        assert hits >= 90

    def test_linked_index_positive_gamma(self):
        fs = toy_forecasts(n=200, seed=6, link=0.3)
        res = predictive_vol_regression(fs)
        assert res["gamma"] > 0.0
        assert res["delta_r2"] > 0.0


class TestCrashRegression:
    def test_all_zero_indicator_skips_logistic(self):
        fs = toy_forecasts(seed=7)
        fs.next_ret[:] = np.maximum(fs.next_ret, CRASH_CUTOFF + 0.01)  # no crash month
        res = crash_regression(fs)
        assert res["logistic"] is None and res["warning"] is not None
        assert res["crash_rate"] == 0.0

    def test_two_level_regressor_matches_group_rates(self):
        fs = toy_forecasts(n=200, seed=8)
        fs.prob["l1"][:] = np.where(np.arange(200) % 2 == 0, 0.2, 0.6)
        fs.next_ret[:] = np.where(
            (np.arange(200) % 2 == 0) & (np.arange(200) < 100), -0.06, 0.01
        )
        res = crash_regression(fs)
        # the intercept and a two-level index span the group indicators, so the
        # residuals sum to zero within each group, controls or not: the mean
        # fitted value of a group is its crash rate
        crash = (fs.next_ret <= CRASH_CUTOFF).astype(float)
        X = np.column_stack([np.ones(200), fs.prob["l1"], market_controls(fs)])
        fitted = X @ np.array(res["linear"]["coef"])
        for level in (0.2, 0.6):
            group = fs.prob["l1"] == level
            assert float(np.mean(fitted[group])) == pytest.approx(
                float(np.mean(crash[group])), abs=1e-10)

    @staticmethod
    def separable_forecasts():
        fs = toy_forecasts(n=120, seed=9)
        high = fs.prob["l1"] > np.median(fs.prob["l1"])
        fs.next_ret[:] = np.where(high, -0.10, 0.02)  # crash iff the index is high
        return fs

    def test_separable_design_skips_logistic(self):
        res = crash_regression(self.separable_forecasts())
        assert res["logistic"] is None and "logistic variant skipped" in res["warning"]
        assert res["crash_rate"] == pytest.approx(0.5)

    def test_logistic_variant_fitted_on_the_linear_design(self):
        fs = toy_forecasts(n=200, seed=19)
        crash = (fs.next_ret <= CRASH_CUTOFF).astype(float)
        assert 0 < np.sum(crash) < 200  # two classes, not separated by the design
        X = np.column_stack([np.ones(200), fs.prob["l1"], market_controls(fs)])
        res = crash_regression(fs)
        assert res["warning"] is None
        assert res["logistic"] == fit_logit_l2(X[:, 1:], crash, lam=0.0).to_dict()

    def test_separable_design_regress_stage_exits_zero(self, tmp_path, capsys):
        labels, fs = paired(self.separable_forecasts())
        write_labels_csv(tmp_path / "labels.csv", labels, "test")
        write_forecasts_csv(tmp_path / "forecasts.csv", fs, "test")
        assert main(["regress", "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        crash = json.loads((tmp_path / "regression.json").read_text())["crash"]
        assert crash["logistic"] is None and "logistic variant skipped" in crash["warning"]

    def test_synthetic_backtest_positive_coefficient(self, small_forecasts):
        res = crash_regression(small_forecasts)
        assert coefficient(res["linear"], "mspi")[0] > -1e-9 or res["crash_rate"] < 0.02


class TestInnovations:
    def test_constant_index_zero_innovations(self):
        fs = toy_forecasts(seed=9)
        fs.prob["l1"][:] = 0.25
        _, residuals = mspi_innovations(fs)
        assert np.max(np.abs(residuals)) < 1e-12

    def test_white_noise_index_keeps_variance(self):
        fs = toy_forecasts(n=500, seed=10)
        _, residuals = mspi_innovations(fs)
        ratio = np.std(residuals) / np.std(fs.prob["l1"])
        assert abs(ratio - 1.0) < 0.10

    def test_orthogonality_to_lagged_index(self):
        fs = toy_forecasts(n=300, seed=11)
        _, residuals = mspi_innovations(fs)
        lagged = fs.prob["l1"][:-1]
        corr = float(np.dot(residuals - residuals.mean(), lagged - lagged.mean()))
        assert abs(corr) / len(lagged) < 1e-8

    def test_residuals_sum_to_zero(self):
        fs = toy_forecasts(n=200, seed=12)
        _, residuals = mspi_innovations(fs)
        assert abs(float(np.sum(residuals))) < 1e-8

    def test_control_rescaling_invariance(self):
        fs = toy_forecasts(n=200, seed=13)
        _, residuals1 = mspi_innovations(fs)
        fs2 = toy_forecasts(n=200, seed=13)
        fs2.r_mkt[:] = 100.0 * fs2.r_mkt + 0.5
        fs2.sigma_mkt[:] = 3.0 * fs2.sigma_mkt - 0.2
        _, residuals2 = mspi_innovations(fs2)
        assert np.max(np.abs(residuals1 - residuals2)) < 1e-8


def no_controls(u):
    """A control matrix of no columns, aligned with ``u``."""
    return np.empty((u.shape[0], 0))


def lp_columns(rows):
    """The h, b_h, se_h and n_h columns of local projection rows, as arrays."""
    return tuple(np.array(column) for column in zip(*rows))


class TestLocalProjections:
    def test_identity_projection(self):
        rng = np.random.default_rng(14)
        u = rng.standard_normal(100)
        [(_, b, se, _)] = local_projections(u, u.copy(), no_controls(u), max_horizon=0)
        assert b == pytest.approx(1.0, abs=1e-10)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_lagged_dependence_spike_at_one(self):
        rng = np.random.default_rng(15)
        u = rng.standard_normal(500)
        y = np.concatenate([[0.0], u[:-1]])  # y_t = u_{t-1}
        _, b, _, _ = lp_columns(local_projections(u, y, no_controls(u), max_horizon=3))
        assert b[1] == pytest.approx(1.0, abs=1e-8)
        assert abs(b[0]) < 0.15 and abs(b[2]) < 0.15

    def test_null_coverage(self):
        inside = 0
        total = 0
        for seed in range(100):
            rng = np.random.default_rng(300 + seed)
            u = rng.standard_normal(150)
            y = rng.standard_normal(150)
            h, b, se, _ = lp_columns(local_projections(u, y, no_controls(u), max_horizon=4))
            inside += int(np.sum(np.abs(b) < 2.0 * se))
            total += len(h)
        assert inside / total >= 0.90

    def test_horizon_counts(self):
        rng = np.random.default_rng(16)
        u = rng.standard_normal(60)
        y = rng.standard_normal(60)
        rows = local_projections(u, y, no_controls(u), max_horizon=5)
        assert [row[0] for row in rows] == list(range(6))
        assert [row[3] for row in rows] == [60 - h for h in range(6)]

    def test_h0_equals_direct_ols(self):
        rng = np.random.default_rng(17)
        u = rng.standard_normal(80)
        y = 0.4 * u + rng.standard_normal(80)
        [(_, b, se, _)] = local_projections(u, y, no_controls(u), max_horizon=0)
        direct, _ = ols_hac(y, np.column_stack([np.ones(80), u]), hac_lag=1,
                            names=("intercept", "u"))
        assert (b, se) == coefficient(direct, "u")

    def test_sample_exhausting_horizon_omitted(self):
        u = np.arange(6.0)
        y = np.arange(6.0)
        rows = local_projections(u, y, no_controls(u), max_horizon=5)
        assert max(row[0] for row in rows) < 5

    def test_innovation_projections_date_each_month(self):
        # month t's volatility h months on, on month t's innovation (its first
        # is the second forecast month's) and month t-1's market controls
        fs = toy_forecasts(n=60, seed=18)
        months = fs.months
        innovation = dict(zip(months[1:], mspi_innovations(fs)[1]))
        sigma = dict(zip(months, fs.sigma_mkt))
        controls = dict(zip(months, market_controls(fs)))
        t = months[2:]
        want = local_projections(np.array([innovation[m] for m in t]),
                                 np.array([sigma[m] for m in t]),
                                 np.array([controls[prev] for prev in months[1:-1]]), LP_HORIZON)
        rows = innovation_projections(fs)
        assert [row[0] for row in rows] == list(range(LP_HORIZON + 1))
        assert rows[0][3] == len(months) - 2
        assert rows == want
