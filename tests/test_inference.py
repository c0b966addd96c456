"""Fisher information, Wald tests, quantile residuals."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr
from scipy.stats import chi2

from rayreg import (
    DesignMatrix,
    FitResult,
    ModelSpec,
    RobustConfig,
    distribution,
    dummy_design,
    fisher_information,
    fit_both,
    fit_mle,
    fit_wmle,
    ground_type_detect,
    quantile_residuals,
    wald_test,
)
from rayreg.inference import RESIDUAL_CLAMP_EPS, quantile_residuals_from_mean
from rayreg.regression import spd_solve

CHI2_1_95 = 3.841458820694124
P_REFERENCE_CASE = 0.024971546225560044  # sf of (0.1168/0.0521)^2 on one dof


def _fitted(seed=1, n=240, beta=(0.5, 0.15), eps=0.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.random(n)])
    mu = np.exp(X @ np.asarray(beta))
    y = distribution.quantile(rng.random(n), mu)
    m = int(eps * n)
    if m:
        y[rng.permutation(n)[:m]] = 10.0
    spec = ModelSpec.build(X, y)
    return spec, fit_mle(spec)


_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _spd_systems(draw):
    """A random SPD ``a`` (k = 1..5) and a 1-D or k x k right-hand side."""
    k = draw(st.integers(1, 5))
    m = draw(arrays(np.float64, (k, k), elements=_ENTRIES))
    ridge = draw(st.floats(1e-3, 10.0))
    a = m @ m.T + ridge * np.eye(k)
    b = draw(arrays(np.float64, draw(st.sampled_from([(k,), (k, k)])), elements=_ENTRIES))
    return a, b


class TestSpdSolve:
    @settings(max_examples=200, deadline=None)
    @given(_spd_systems())
    def test_bitwise_equal_to_cho_solve(self, system):
        a, b = system
        got = spd_solve(a, b)
        want = cho_solve(cho_factor(a), b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(_spd_systems())
    def test_not_positive_definite_raises_linalg_error(self, system):
        a, b = system
        with pytest.raises(np.linalg.LinAlgError):
            spd_solve(-a, b)

    @settings(max_examples=50, deadline=None)
    @given(_spd_systems(), st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans(),
           st.integers(0, 24))
    def test_non_finite_raises_plain_value_error(self, system, bad, in_a, pos):
        a, b = system
        target = a if in_a else b
        target.flat[pos % target.size] = bad
        with pytest.raises(ValueError) as exc:
            spd_solve(a, b)
        assert not isinstance(exc.value, np.linalg.LinAlgError)


class TestFisherInformation:
    @pytest.mark.parametrize("mu, message", [
        (np.ones(239), r"mu must have shape \(240,\), got \(239,\)"),
        (np.ones((240, 1)), r"mu must have shape \(240,\)"),
        (np.zeros(240), "mu must be strictly positive"),
        (np.r_[np.ones(239), -1.0], "mu must be strictly positive"),
    ], ids=["short", "column", "zero", "negative"])
    def test_malformed_mean_refused(self, mu, message):
        spec, _ = _fitted(2)
        with pytest.raises(ValueError, match=message):
            fisher_information(spec, mu)

    def test_log_link_is_four_xtx(self):
        spec, fit = _fitted(2)
        X = spec.design.X
        info = fisher_information(spec, fit.mu_hat)
        assert np.array_equal(info, X.T @ (np.full((X.shape[0], 1), 4.0) * X))
        # Independent of mu entirely under the log link.
        other = fisher_information(spec, np.full(spec.n_obs, 0.123))
        assert np.array_equal(info, other)

    def test_log_link_information_is_kept_on_the_design(self):
        spec, fit = _fitted(3)
        design = spec.design
        info = fisher_information(spec, fit.mu_hat)
        assert info is design.log_information and fit.fisher_info is info
        assert not info.flags.writeable
        # The fit forms its covariance on first read and keeps it.
        assert "covariance" not in vars(fit) and "std_errors" not in vars(fit)
        cov = fit.covariance
        assert not cov.flags.writeable and fit.covariance is cov
        assert np.array_equal(cov, spd_solve(info, np.eye(2)))
        assert np.array_equal(fit.std_errors, np.sqrt(np.diag(cov)))
        assert not fit.std_errors.flags.writeable and fit.std_errors is fit.std_errors
        wmle = fit_both(spec)[1]
        assert wmle.fisher_info is info

    def test_intercept_only_value_and_se(self):
        y = distribution.quantile(np.random.default_rng(3).random(100), 1.0)
        spec = ModelSpec.build(np.ones((100, 1)), y)
        fit = fit_mle(spec)
        assert np.array_equal(fit.fisher_info, np.array([[400.0]]))
        assert fit.std_errors[0] == pytest.approx(0.05, rel=1e-12)

    def test_identity_link_weight(self):
        # Per-observation weight (4/mu^2)(dmu/deta)^2 equals 1 at mu = 2.
        X = np.ones((2, 1))
        spec = ModelSpec(design=DesignMatrix(X), link="identity", response=np.array([2.0, 2.0]))
        info = fisher_information(spec, np.array([2.0, 2.0]))
        assert np.allclose(info, [[2.0]])  # two observations, 1 each

    def test_same_matrix_for_mle_and_wmle(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(200), rng.random(200)])
        y = distribution.quantile(rng.random(200), np.exp(X @ [0.5, 0.15]))
        y[:10] = 10.0
        spec = ModelSpec.build(X, y)
        mle, wmle = fit_both(spec, RobustConfig(delta=0.001))
        assert np.array_equal(mle.fisher_info, wmle.fisher_info)


class TestWaldTest:
    def test_zero_statistic_at_null(self):
        _, fit = _fitted(5)
        report = wald_test(fit, (0, 1), fit.beta_hat.copy(), pfa=0.05)
        assert report.statistic == pytest.approx(0.0, abs=1e-18)
        assert not report.reject_null
        assert report.p_value == pytest.approx(1.0)

    def test_chi2_threshold_one_dof(self):
        _, fit = _fitted(6)
        report = wald_test(fit, (1,), np.zeros(1), pfa=0.05)
        assert report.dof == 1
        assert report.threshold == pytest.approx(CHI2_1_95, abs=1e-3)

    def test_single_coefficient_equals_z_squared(self):
        _, fit = _fitted(7)
        report = wald_test(fit, (1,), np.zeros(1))
        z2 = (fit.beta_hat[1] / fit.std_errors[1]) ** 2
        assert report.statistic == pytest.approx(z2, rel=1e-10)

    def test_reference_case_p_value(self):
        # One coefficient estimated at 0.1168 with standard error 0.0521.
        se = 0.0521
        fit = FitResult(method="MLE", beta_hat=np.array([0.1168]),
                        fisher_info=np.array([[1.0 / se**2]]), weights=np.ones(2),
                        mu_hat=np.ones(2), loglik=0.0, converged=True, iterations=1,
                        grad_norm=0.0, column_names=("x",))
        assert fit.std_errors[0] == pytest.approx(se, rel=1e-14)
        report = wald_test(fit, (0,), np.zeros(1))
        assert report.statistic == pytest.approx((0.1168 / se) ** 2, rel=1e-12)
        assert report.p_value == pytest.approx(P_REFERENCE_CASE, rel=1e-10)
        assert report.p_value == pytest.approx(0.025, abs=2e-3)

    def test_consistency_of_decision_fields(self):
        _, fit = _fitted(8, eps=0.02)
        for pfa in (0.01, 0.05, 0.2):
            rep = wald_test(fit, (1,), np.zeros(1), pfa=pfa)
            assert rep.reject_null == (rep.statistic > rep.threshold)
            assert rep.reject_null == (rep.p_value < pfa)

    def test_p_value_monotone_in_statistic(self):
        # Nulls moving away from the estimate: the statistic grows and the
        # p-value falls, from 1 at the estimate itself.
        _, fit = _fitted(11)
        reports = [wald_test(fit, (0, 1), fit.beta_hat + shift)
                   for shift in np.linspace(0.0, 0.3, 200)]
        stats = np.array([r.statistic for r in reports])
        p = np.array([r.p_value for r in reports])
        assert np.all(np.diff(stats) > 0)
        assert np.all(np.diff(p) <= 0)
        assert p[0] == 1.0 and p[-1] < 1e-40

    def test_threshold_and_p_value_match_scipy_stats_chi2(self):
        # wald_test evaluates the chi-square quantile and survival function
        # with scipy.special; scipy.stats.chi2 gives the same bits.
        rng = np.random.default_rng(21)
        k = 7
        X = np.column_stack([np.ones(300), rng.random((300, k - 1))])
        y = distribution.quantile(rng.random(300), np.exp(X @ rng.uniform(-0.2, 0.2, k)))
        fit = fit_mle(ModelSpec.build(X, y))
        pfas = (1e-12, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9, 0.999999)
        for dof in range(1, k + 1):
            interest = tuple(range(dof))
            for shift in (0.0, 0.02, 0.1, 0.5, 3.0):
                null = fit.beta_hat[:dof] + shift
                for pfa in pfas:
                    rep = wald_test(fit, interest, null, pfa=pfa)
                    assert rep.threshold == float(chi2.ppf(1.0 - pfa, dof)), (dof, pfa)
                    assert rep.p_value == float(chi2.sf(rep.statistic, dof)), (dof, shift)

    def test_refuses_unconverged_fit(self):
        spec, _ = _fitted(9)
        bad = fit_mle(spec, RobustConfig(max_iter=1, grad_tol=1e-15))
        assert not bad.converged
        with pytest.raises(ValueError, match="unconverged"):
            wald_test(bad, (1,), np.zeros(1))

    def test_input_validation(self):
        _, fit = _fitted(10)
        with pytest.raises(ValueError, match="pfa"):
            wald_test(fit, (1,), np.zeros(1), pfa=1.5)
        with pytest.raises(ValueError, match="empty"):
            wald_test(fit, (), np.zeros(0))
        with pytest.raises(ValueError, match="distinct"):
            wald_test(fit, (1, 1), np.zeros(2))
        with pytest.raises(ValueError, match="match"):
            wald_test(fit, (1,), np.zeros(2))

    @pytest.mark.parametrize("interest", [(2,), (-1,), (0, 5)])
    def test_interest_index_out_of_range_refused(self, interest):
        _, fit = _fitted(10)
        with pytest.raises(ValueError, match=r"interest indices must lie in \[0, 2\)"):
            wald_test(fit, interest, np.zeros(len(interest)))

    def test_singular_interest_block_refused(self):
        # This information is positive definite, but its inverse rounds to
        # [[1 + 2^52, -2^52], [-2^52, 2^52]], whose second Cholesky pivot
        # is exactly zero.
        _, fit = _fitted(10)
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]])
        with pytest.raises(ValueError, match=r"^interest block of the covariance is singular$"):
            wald_test(replace(fit, fisher_info=near), (0, 1), np.zeros(2))

    def test_indefinite_information_refused(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        _, fit = _fitted(10)
        with pytest.raises(ValueError, match=r"^Fisher information is not positive definite$"):
            wald_test(replace(fit, fisher_info=indefinite), (1,), np.zeros(1))

    @pytest.mark.parametrize("info, message", [
        ([[1.0, 2.0], [2.0, 1.0]], "Fisher information is not positive definite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "Fisher information is not finite at the optimum"),
        ([[1.0, np.nan], [np.nan, 1.0]], "Fisher information is not finite at the optimum"),
    ])
    def test_covariance_refused_on_first_read(self, info, message):
        # A fit holds any information; the covariance, the standard errors
        # and the Wald test refuse one that has no inverse, each time.
        _, fit = _fitted(10)
        bad = FitResult(method="MLE", beta_hat=fit.beta_hat, fisher_info=np.array(info),
                        weights=fit.weights, mu_hat=fit.mu_hat, loglik=fit.loglik,
                        converged=True, iterations=fit.iterations, grad_norm=fit.grad_norm,
                        column_names=fit.column_names)
        assert np.array_equal(bad.beta_hat, fit.beta_hat)
        for _ in range(2):
            for read in (lambda: bad.covariance, lambda: bad.std_errors,
                         lambda: wald_test(bad, (1,), np.zeros(1))):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    read()
        assert "covariance" not in vars(bad) and "std_errors" not in vars(bad)

    def test_invariance_under_covariate_scaling(self):
        # Rescaling a covariate by c and its coefficient by 1/c is the same
        # model; the Wald statistic must not move (log link).
        rng = np.random.default_rng(11)
        n = 300
        x = rng.random(n)
        y = distribution.quantile(rng.random(n), np.exp(0.5 + 0.15 * x))
        spec1 = ModelSpec.build(np.column_stack([np.ones(n), x]), y)
        spec2 = ModelSpec.build(np.column_stack([np.ones(n), 10.0 * x]), y)
        f1, f2 = fit_mle(spec1), fit_mle(spec2)
        t1 = wald_test(f1, (1,), np.zeros(1)).statistic
        t2 = wald_test(f2, (1,), np.zeros(1)).statistic
        assert t1 == pytest.approx(t2, abs=1e-8 * max(1.0, t1))


class TestGroundTypeDetect:
    def test_one_report_per_dummy(self):
        rng = np.random.default_rng(12)
        labels = ["A"] * 120 + ["B"] * 120 + ["C"] * 120
        design = dummy_design(labels, "A")
        mu = np.exp(design.X @ np.array([-1.67, 0.4, -0.5]))
        y = distribution.quantile(rng.random(360), mu)
        spec = ModelSpec(design=design, link="log", response=y)
        fit = fit_wmle(spec)
        reports = ground_type_detect(fit, pfa=0.05)
        assert [r.names[0] for r in reports] == ["is_B", "is_C"]
        assert all(r.dof == 1 for r in reports)
        assert reports[0].reject_null and reports[1].reject_null

    def test_intercept_only_warns_empty(self):
        y = distribution.quantile(np.random.default_rng(13).random(50), 1.0)
        spec = ModelSpec.build(np.ones((50, 1)), y)
        fit = fit_mle(spec)
        with pytest.warns(UserWarning, match="intercept-only"):
            assert ground_type_detect(fit) == []

    def test_exact_zero_coefficient_not_significant(self):
        _, fit = _fitted(14)
        beta = fit.beta_hat.copy()
        beta[1] = 0.0
        pinned = replace(fit, beta_hat=beta)
        report = ground_type_detect(pinned, pfa=0.05)[0]
        assert report.statistic == 0.0
        assert not report.reject_null


class TestQuantileResiduals:
    def test_zero_at_fitted_median(self):
        mu = np.array([0.7, 1.3, 2.9])
        y = 2.0 * mu * math.sqrt(math.log(2.0) / math.pi)
        res = quantile_residuals_from_mean(y, mu)
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_three_sigma_probability(self):
        mu = 1.0
        y = distribution.quantile(0.99865, mu)
        res = quantile_residuals_from_mean(np.array([y]), mu)
        assert res[0] == pytest.approx(3.0, abs=1e-3)

    def test_clamping_keeps_residuals_finite(self):
        res, clamped = quantile_residuals_from_mean(
            np.array([1e6, 1.0]), np.array([1.0, 1.0]), return_clamped=True
        )
        assert list(clamped) == [0]
        assert res[0] == pytest.approx(7.941444487415979, rel=1e-12)
        assert np.isfinite(res).all()

    def test_composition_recovers_probability(self):
        spec, fit = _fitted(15)
        res = quantile_residuals(spec, fit)
        prob = distribution.cdf(spec.response, fit.mu_hat)
        assert np.allclose(ndtr(res), prob, atol=1e-10)

    def test_clamp_epsilon_value(self):
        assert RESIDUAL_CLAMP_EPS == 1e-15

    def test_approximate_normality_on_clean_data(self):
        rng = np.random.default_rng(16)
        n = 5000
        X = np.column_stack([np.ones(n), rng.random(n)])
        y = distribution.quantile(rng.random(n), np.exp(X @ [0.5, 0.15]))
        spec = ModelSpec.build(X, y)
        res = quantile_residuals(spec, fit_mle(spec))
        assert abs(res.mean()) <= 0.05
        assert 0.9 <= res.var() <= 1.1
