"""Estimator oracles: finite differences, closed forms, weight rules, pipelines."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rayreg import (
    ModelSpec,
    RobustConfig,
    compute_weights,
    distribution,
    fit_both,
    fit_mle,
    fit_wmle,
    predict_mean,
    score,
    weighted_loglik,
)
from rayreg.estimation import _make_objective
from rayreg.scenes import make_scene
from rayreg.optim import maximize_bfgs

from closed_form_oracle import closed_form_fits, coefficients

LOGPDF_AT_1_1 = -0.333815458107993444889465615925


def _simulated_spec(seed, n=200, beta=(0.5, 0.15), link="log", eps=0.0, outlier=10.0):
    rng = np.random.default_rng(seed)
    k = len(beta)
    X = np.column_stack([np.ones(n)] + [rng.random(n) for _ in range(k - 1)])
    from rayreg import get_link

    mu = get_link(link).inverse(X @ np.asarray(beta))
    y = distribution.quantile(rng.random(n), mu)
    m = int(eps * n)
    if m:
        y[rng.permutation(n)[:m]] = outlier
    return ModelSpec.build(X, y, link=link)


def _finite_difference_score(spec, beta, weights=None):
    beta = np.asarray(beta, dtype=float)
    out = np.empty_like(beta)
    for i in range(beta.size):
        h = 1e-6 * (1.0 + abs(beta[i]))
        up, dn = beta.copy(), beta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (weighted_loglik(spec, up, weights) - weighted_loglik(spec, dn, weights)) / (
            2.0 * h
        )
    return out


class TestWeightedLoglik:
    def test_zero_weights_give_zero(self):
        spec = _simulated_spec(1)
        assert weighted_loglik(spec, [0.4, 0.1], np.zeros(spec.n_obs)) == 0.0

    def test_single_observation_anchor(self):
        spec = ModelSpec.build(np.ones((2, 1)), np.array([1.0, 1.0]))
        # mu = 1 for beta = 0; each term equals logpdf(1; 1)
        assert weighted_loglik(spec, [0.0], np.array([1.0, 0.0])) == pytest.approx(
            LOGPDF_AT_1_1, rel=1e-14
        )

    def test_unit_weights_reduce_to_plain_loglik(self):
        spec = _simulated_spec(2)
        beta = np.array([0.3, 0.2])
        mu = predict_mean(spec, beta)
        expected = float(np.sum(distribution.logpdf(spec.response, mu)))
        assert weighted_loglik(spec, beta, np.ones(spec.n_obs)) == pytest.approx(expected, rel=1e-12)
        assert weighted_loglik(spec, beta) == pytest.approx(expected, rel=1e-12)

    def test_rejects_out_of_range_weights(self):
        spec = _simulated_spec(3)
        with pytest.raises(ValueError, match="weights"):
            weighted_loglik(spec, [0.4, 0.1], np.full(spec.n_obs, 1.5))


class TestScore:
    def test_zero_at_score_neutral_response(self):
        # v[n] vanishes when y = 2 mu / sqrt(pi); every component is then zero.
        y0 = 2.0 / math.sqrt(math.pi)
        spec = ModelSpec.build(np.ones((2, 1)), np.array([y0, y0]))
        assert np.allclose(score(spec, [0.0]), 0.0, atol=1e-14)

    @pytest.mark.parametrize("link", ["log", "identity"])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_finite_differences(self, link, seed):
        rng = np.random.default_rng(seed)
        if link == "log":
            spec = _simulated_spec(seed, link="log")
            beta = np.array([rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 0.5)])
        else:
            spec = _simulated_spec(seed, beta=(2.0, 0.5), link="identity")
            beta = np.array([rng.uniform(1.5, 2.5), rng.uniform(-0.3, 0.3)])
        w = rng.uniform(0.0, 1.0, size=spec.n_obs)
        analytic = score(spec, beta, w)
        numeric = _finite_difference_score(spec, beta, w)
        assert np.all(np.abs(analytic - numeric) <= 1e-5 * np.maximum(1.0, np.abs(numeric)))

    def test_small_at_optimum(self):
        spec = _simulated_spec(21, eps=0.05)
        fit = fit_mle(spec)
        assert fit.converged
        assert np.max(np.abs(score(spec, fit.beta_hat))) <= 1e-6


class TestComputeWeights:
    def test_middle_branch_is_one(self):
        mu = 1.0
        y_mid = distribution.quantile(0.5, mu)
        spec = ModelSpec.build(np.ones((2, 1)), np.array([y_mid, y_mid]))
        assert np.array_equal(compute_weights(spec, np.ones(2), 0.001), np.ones(2))

    def test_lower_branch_value(self):
        # F = 0.0005 with delta = 0.001 sits halfway down the lower ramp.
        y = distribution.quantile(0.0005, 1.0)
        spec = ModelSpec.build(np.ones((2, 1)), np.array([y, y]))
        w = compute_weights(spec, np.ones(2), 0.001)
        assert w == pytest.approx([0.5, 0.5], rel=1e-10)

    def test_upper_tail_goes_to_zero(self):
        spec = ModelSpec.build(np.ones((2, 1)), np.array([50.0, 80.0]))
        w = compute_weights(spec, np.ones(2), 0.001)
        assert np.all(w >= 0.0) and np.all(w < 1e-12)

    def test_unit_weight_iff_central_band(self):
        delta = 0.01
        probs = np.array([1e-6, delta * 0.999, delta, 0.5, 1 - delta, 1 - delta * 0.5, 1 - 1e-9])
        y = distribution.quantile(probs, 2.0)
        spec = ModelSpec.build(np.ones((len(y), 1)), y)
        w = compute_weights(spec, np.full(len(y), 2.0), delta)
        inside = (probs >= delta) & (probs <= 1 - delta)
        assert np.array_equal(w == 1.0, inside)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_bounds_on_random_data(self):
        rng = np.random.default_rng(5)
        y = distribution.quantile(rng.random(500), 1.3)
        spec = ModelSpec.build(np.ones((500, 1)), y)
        for delta in (0.001, 0.01, 0.3):
            w = compute_weights(spec, np.full(500, 1.3), delta)
            assert np.all((w >= 0.0) & (w <= 1.0))


class TestFitMle:
    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(99)
        y = distribution.quantile(rng.random(300), 2.0)
        spec = ModelSpec.build(np.ones((300, 1)), y)
        fit = fit_mle(spec)
        mu_hat = math.sqrt(math.pi * float(np.sum(y**2)) / (4 * 300))
        assert fit.converged
        assert fit.beta_hat[0] == pytest.approx(math.log(mu_hat), abs=1e-8)

    def test_constant_response_closed_form(self):
        c = 3.7
        spec = ModelSpec.build(np.ones((50, 1)), np.full(50, c))
        fit = fit_mle(spec)
        assert fit.beta_hat[0] == pytest.approx(math.log(c * math.sqrt(math.pi) / 2.0), abs=1e-8)

    def test_weights_are_all_one(self):
        fit = fit_mle(_simulated_spec(31))
        assert fit.method == "MLE"
        assert np.array_equal(fit.weights, np.ones(fit.weights.size))

    def test_std_errors_match_fisher_inverse(self):
        fit = fit_mle(_simulated_spec(32))
        cov = np.linalg.inv(fit.fisher_info)
        assert np.allclose(fit.std_errors, np.sqrt(np.diag(cov)), rtol=1e-10)

    def test_rank_deficient_design_raises(self):
        x = np.random.default_rng(1).random(30)
        X = np.column_stack([np.ones(30), x, x])
        y = distribution.quantile(np.random.default_rng(2).random(30), 1.0)
        spec = ModelSpec.build(X, y)
        with pytest.raises(ValueError, match="rank deficient"):
            fit_mle(spec)

    def test_nonconvergence_reported_not_raised(self):
        spec = _simulated_spec(33, eps=0.05)
        fit = fit_mle(spec, RobustConfig(max_iter=1, grad_tol=1e-14))
        assert not fit.converged

    def test_identity_link_fit(self):
        spec = _simulated_spec(34, beta=(2.0, 0.8), link="identity")
        fit = fit_mle(spec)
        assert fit.converged
        assert fit.beta_hat == pytest.approx([2.0, 0.8], abs=0.35)


class TestFitWmle:
    def test_zero_reweight_rounds_bitwise_equal(self):
        spec = _simulated_spec(41, eps=0.02)
        cfg = RobustConfig(reweight_iterations=0)
        mle = fit_mle(spec, cfg)
        wmle = fit_wmle(spec, cfg)
        assert wmle.method == "WMLE"
        for field in ("beta_hat", "std_errors", "fisher_info", "weights", "mu_hat"):
            assert np.array_equal(getattr(mle, field), getattr(wmle, field))
        assert mle.loglik == wmle.loglik
        assert mle.iterations == wmle.iterations

    def test_all_weights_one_reduces_to_mle(self):
        # Responses pinned inside the central band: no tail to downweight.
        rng = np.random.default_rng(42)
        mu = 2.0
        y = distribution.quantile(rng.uniform(0.3, 0.7, size=80), mu)
        spec = ModelSpec.build(np.ones((80, 1)), y)
        cfg = RobustConfig(delta=0.05)
        mle, wmle = fit_both(spec, cfg)
        assert np.array_equal(wmle.weights, np.ones(80))
        assert np.array_equal(wmle.beta_hat, mle.beta_hat)

    def test_downweights_outliers(self):
        spec = _simulated_spec(43, n=400, eps=0.05)
        mle, wmle = fit_both(spec, RobustConfig(delta=0.001))
        assert wmle.method == "WMLE"
        assert wmle.n_downweighted >= 20 * 0.8  # most injected outliers caught
        # Robust fit sits closer to the truth on the contaminated signal.
        truth = np.array([0.5, 0.15])
        assert np.linalg.norm(wmle.beta_hat - truth) < np.linalg.norm(mle.beta_hat - truth)

    def test_weight_bounds_always(self):
        for seed in range(44, 48):
            spec = _simulated_spec(seed, eps=0.03)
            wmle = fit_wmle(spec)
            assert np.all((wmle.weights >= 0.0) & (wmle.weights <= 1.0))

    def test_scene_training_strip_takes_alike_steps(self):
        # The weighted fit on a scene's 100 000-pixel training strip, where
        # steps with the expected information converge only linearly.
        counts = []
        for seed in range(4):
            scene = make_scene(200, 2000, seed=seed)
            r0, c0, r1, c1 = scene.training_region
            X = np.column_stack([np.ones(50 * 2000), scene.covariate[r0:r1, c0:c1].ravel()])
            spec = ModelSpec.build(X, scene.interest[r0:r1, c0:c1].ravel())
            wmle = fit_wmle(spec)
            assert wmle.converged
            counts.append(wmle.iterations)
        assert max(counts) - min(counts) <= 2, counts

    def test_iterated_reweighting_runs(self):
        spec = _simulated_spec(49, eps=0.05)
        w1 = fit_wmle(spec, RobustConfig(reweight_iterations=1))
        w3 = fit_wmle(spec, RobustConfig(reweight_iterations=3))
        assert w3.converged
        assert not np.array_equal(w1.weights, w3.weights)


def _group_spec(seed, means, sizes, outliers, outlier_value, link):
    """Treatment-coded groups (rows shuffled) and their labels; the first
    ``outliers[g]`` rows of group ``g`` are set to ``outlier_value``."""
    rng = np.random.default_rng(seed)
    groups = np.repeat(np.arange(len(sizes)), sizes)
    y = rng.rayleigh(np.asarray(means)[groups] * math.sqrt(2.0 / math.pi))
    starts = np.cumsum([0] + list(sizes[:-1]))
    for start, count in zip(starts, outliers):
        y[start : start + count] = outlier_value
    order = rng.permutation(groups.size)
    groups, y = groups[order], y[order]
    X = (groups[:, None] == np.arange(len(sizes))).astype(np.float64)
    X[:, 0] = 1.0
    return ModelSpec.build(X, y, link=link), groups


# Largest misses of the closed form allowed: relative on the means, on the
# coefficients relative to the largest of them (at least 1), and absolute
# on the weights.
_CLOSED_FORM_TOL = 5e-6


@st.composite
def _group_cases(draw):
    n_groups = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(10, 90), min_size=n_groups, max_size=n_groups))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        means=draw(st.lists(st.floats(0.5, 5.0), min_size=n_groups, max_size=n_groups)),
        sizes=sizes,
        outliers=[draw(st.integers(0, size // 8)) for size in sizes],
        outlier_value=draw(st.floats(10.0, 30.0)),
        link=draw(st.sampled_from(["log", "identity"])),
    )


class TestClosedFormOracle:
    @settings(deadline=None, max_examples=80)
    @given(case=_group_cases())
    # Identity link, low means, outliers near 30: BFGS ran out of iterations
    # here with the means off by a factor of 30 or more.
    @example(case=dict(seed=2, means=[0.5, 0.5], sizes=[88, 58], outliers=[2, 2],
                       outlier_value=29.46182874463188, link="identity"))
    @example(case=dict(seed=1947, means=[0.5], sizes=[64], outliers=[2],
                       outlier_value=29.0, link="identity"))
    def test_fits_match_closed_form(self, case):
        spec, groups = _group_spec(**case)
        cfg = RobustConfig()
        mle, wmle = fit_both(spec, cfg)
        mu_mle, mu_wmle, weights = closed_form_fits(
            spec.response, groups, len(case["sizes"]), cfg.delta
        )
        for fit, mu in ((mle, mu_mle), (wmle, mu_wmle)):
            assert fit.converged
            mu_gap = np.max(np.abs(fit.mu_hat - mu[groups]) / mu[groups])
            beta = coefficients(mu, case["link"])
            scale = max(1.0, float(np.max(np.abs(beta))))
            beta_gap = np.max(np.abs(fit.beta_hat - beta)) / scale
            assert mu_gap <= _CLOSED_FORM_TOL, (fit.method, mu_gap)
            assert beta_gap <= _CLOSED_FORM_TOL, (fit.method, beta_gap)
        assert np.max(np.abs(wmle.weights - weights)) <= _CLOSED_FORM_TOL


class TestOptimizerBehavior:
    def test_objective_ascends_over_accepted_steps(self):
        spec = _simulated_spec(51, eps=0.05)
        trace = []
        fun = _make_objective(spec, np.ones(spec.n_obs))
        res = maximize_bfgs(fun, np.zeros(2), trace=trace)
        assert res.converged
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_permutation_invariance(self):
        spec = _simulated_spec(52, eps=0.02)
        fit = fit_mle(spec)
        rng = np.random.default_rng(0)
        perm = rng.permutation(spec.n_obs)
        shuffled = ModelSpec.build(spec.design.X[perm], spec.response[perm], link="log")
        fit_p = fit_mle(shuffled)
        assert np.allclose(fit.beta_hat, fit_p.beta_hat, atol=1e-8)

    def test_start_point_robustness(self):
        spec = _simulated_spec(53)
        fit = fit_mle(spec)
        fun = _make_objective(spec, np.ones(spec.n_obs))
        rng = np.random.default_rng(3)
        for _ in range(5):
            start = fit.beta_hat + rng.uniform(-0.5, 0.5, size=2)
            res = maximize_bfgs(fun, start)
            assert res.converged
            assert np.allclose(res.x, fit.beta_hat, atol=1e-6)

    @pytest.mark.parametrize("link, beta", [("log", (0.5, 0.15)), ("identity", (2.0, 0.5))])
    def test_iterations_do_not_hinge_on_rounding(self, link, beta):
        # At N = 100 000 the log-likelihood no longer resolves the last steps
        # to the optimum, so a solver that accepts steps on ascent alone
        # meets the gradient tolerance only by chance.  Steps there are
        # accepted on a falling gradient, so alike signals take alike
        # iteration counts.
        counts = []
        for seed in range(4):
            spec = _simulated_spec(seed, n=100_000, beta=beta, link=link, eps=0.05)
            mle, wmle = fit_both(spec)
            assert mle.converged and wmle.converged
            counts.append((mle.iterations, wmle.iterations))
        assert np.all(np.ptp(np.array(counts), axis=0) <= 2), counts

    def test_falls_back_to_fisher_scoring(self):
        # Well above the data the identity link's observed information is
        # negative, so its Newton step points away from the optimum and no
        # halving of it is accepted.  The solver steps with the expected
        # information 4/mu^2 per row instead, and the full step is taken.
        rng = np.random.default_rng(55)
        y = distribution.quantile(rng.random(50), 1.0)
        spec = ModelSpec.build(np.ones((50, 1)), y, link="identity")
        w = np.ones(50)
        assert spec.link.observed_weight(np.full(50, 2.0), y).sum() < 0.0
        fun = _make_objective(spec, w)
        _, g0, _ = fun(np.array([2.0]))
        first = maximize_bfgs(fun, np.array([2.0]), max_iter=1)
        assert first.x[0] == pytest.approx(2.0 + g0[0] / (50 * 4.0 / 2.0**2), rel=1e-12)
        res = maximize_bfgs(fun, np.array([2.0]))
        assert res.converged and res.iterations >= 1
        assert res.x[0] < 2.0
        assert res.x[0] == pytest.approx(math.sqrt(math.pi / 4 * np.mean(y**2)), rel=1e-8)

    def test_infeasible_identity_start_recovers(self):
        # Least-squares init can be infeasible under the identity link when
        # the response dips near zero at one design edge.
        rng = np.random.default_rng(54)
        n = 120
        x = np.linspace(0, 1, n)
        mu = 0.05 + 2.0 * x
        y = distribution.quantile(rng.random(n), mu)
        spec = ModelSpec.build(np.column_stack([np.ones(n), x]), y, link="identity")
        fit = fit_mle(spec)
        assert fit.converged
        assert np.all(predict_mean(spec, fit.beta_hat) > 0.0)


class TestRobustConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": 0.5},
            {"reweight_iterations": -1},
            {"max_iter": 0},
            {"grad_tol": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RobustConfig(**kwargs)

    def test_fit_result_immutable(self):
        fit = fit_mle(_simulated_spec(55))
        with pytest.raises(ValueError):
            fit.beta_hat[0] = 0.0
        clone = replace(fit, method="WMLE")
        assert clone.method == "WMLE"
