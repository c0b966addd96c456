"""Estimator oracles: finite differences, closed forms, weight rules, pipelines."""

import math
import pickle
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rayreg import (
    DesignMatrix,
    FitResult,
    ModelSpec,
    RobustConfig,
    compute_weights,
    distribution,
    fit_both,
    fit_mle,
    fit_wmle,
    get_link,
    predict_mean,
    score,
    weighted_loglik,
)
import rayreg.estimation
import rayreg.optim
import rayreg.regression
from rayreg.optim import InfeasibleStartError, _direction, maximize_bfgs
from rayreg.regression import _MAX_LOG_MEAN
from rayreg.scenes import make_scene
from rayreg.simulation import _next_start

from closed_form_oracle import closed_form_fits, coefficients

LOGPDF_AT_1_1 = -0.333815458107993444889465615925


def _simulated_spec(seed, n=200, beta=(0.5, 0.15), link="log", eps=0.0, outlier=10.0):
    rng = np.random.default_rng(seed)
    k = len(beta)
    X = np.column_stack([np.ones(n)] + [rng.random(n) for _ in range(k - 1)])
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

    @pytest.mark.parametrize("fn", [weighted_loglik, score])
    @pytest.mark.parametrize("extra", [1, -1])
    def test_rejects_weights_of_another_length(self, fn, extra):
        spec = _simulated_spec(3)
        weights = np.ones(spec.n_obs + extra)
        with pytest.raises(ValueError, match=rf"weights must have shape \({spec.n_obs},\)"):
            fn(spec, [0.4, 0.1], weights)


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


class TestObjective:
    """The solver's fused evaluation against the public definitions."""

    @pytest.mark.parametrize("link", ["log", "identity"])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_matches_loglik_score_and_hessian(self, link, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        if link == "log":
            spec = _simulated_spec(seed, link="log", eps=0.05)
            beta = np.array([rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 0.5)])
        else:
            spec = _simulated_spec(seed, beta=(2.0, 0.5), link="identity", eps=0.05)
            beta = np.array([rng.uniform(1.5, 2.5), rng.uniform(-0.3, 0.3)])
        # Zero, fractional and unit weights.
        w = rng.uniform(0.0, 1.0, size=spec.n_obs)
        w[:50], w[50:100] = 0.0, 1.0
        infos, steps = [], []

        def recording_direction(info, *args):
            infos.append(info)
            steps.append(_direction(info, *args))
            return steps[-1]

        monkeypatch.setattr(rayreg.optim, "_direction", recording_direction)
        # No step taken: the value, gradient and linear predictor at beta,
        # with its intercept profiled out under the log link.
        at = maximize_bfgs(spec, w, beta, max_iter=0)
        assert not infos  # the information waits for a step
        maximize_bfgs(spec, w, beta, max_iter=1)
        expected = _direction(infos[0], at.grad, spec.design, w, spec.link, at.x)
        assert np.array_equal(steps[0], expected)
        assert at.x[1] == beta[1] and (at.x[0] != beta[0]) == (link == "log")
        beta = at.x
        assert at.fval == pytest.approx(weighted_loglik(spec, beta, w), rel=1e-12)
        assert np.array_equal(spec.link.inverse(at.eta), predict_mean(spec, beta))
        reference = score(spec, beta, w)
        assert np.max(np.abs(at.grad - reference)) <= 1e-12 * np.max(np.abs(reference))

        # -Hessian of the weighted log-likelihood by central differences.
        h = 1e-4
        numeric = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                def ll(di, dj):
                    b = beta.copy()
                    b[i] += di * h
                    b[j] += dj * h
                    return weighted_loglik(spec, b, w)

                numeric[i, j] = -(ll(1, 1) - ll(1, -1) - ll(-1, 1) + ll(-1, -1)) / (4 * h * h)
        assert len(infos) == 1
        assert np.allclose(infos[0], numeric, rtol=1e-5, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), zeros=st.floats(0.0, 0.9),
           unit=st.booleans())
    def test_profiled_point_matches_the_definitions(self, seed, k, zeros, unit):
        # A design with a column of ones somewhere, a response drawn away from
        # beta, and weights with zeros among them: the evaluation returns the
        # point with the intercept at its optimum given the rest, and its
        # value, gradient and information are those of that point.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k + 2, 80))
        X = rng.uniform(-2.0, 2.0, (n, k))
        ones = int(rng.integers(k))
        X[:, ones] = 1.0
        design = DesignMatrix(X)
        beta = rng.uniform(-2.0, 2.0, k)
        y = distribution.quantile(rng.random(n), np.exp(X @ rng.uniform(-2.0, 2.0, k)))
        spec = ModelSpec(design=design, link="log", response=y)
        if unit:
            w = design.unit_weights
        else:
            w = rng.uniform(0.0, 1.0, n) * (rng.random(n) >= zeros)
        evaluate, information = spec.link.objective(design, w, spec.link.response_terms(y))
        value, grad, point, state = evaluate(beta.tolist())
        point = np.array(point)
        assert np.array_equal(np.delete(point, ones), np.delete(beta, ones))
        mu = predict_mean(spec, point)
        quad = math.pi / 4 * (y / mu) ** 2
        terms = math.log(math.pi / 2) + np.log(y) - 2.0 * np.log(mu) - quad
        assert abs(value - weighted_loglik(spec, point, w)) <= 1e-12 * float(w @ np.abs(terms))
        # Each component against the sum of its terms' magnitudes.
        scale = 2.0 * np.abs(X).T @ (w * (quad + 1.0))
        assert np.all(np.abs(np.array(grad) - score(spec, point, w)) <= 1e-12 * scale)
        assert abs(grad[ones]) <= 2.0 * rayreg.regression._ROUNDING * float(np.sum(w))
        assert np.allclose(information(state), design.gram(4.0 * w * quad), rtol=1e-12,
                           atol=1e-12 * float(np.max(design.gram(4.0 * w * quad))))

    def test_design_without_ones_keeps_its_fits(self):
        # No column of ones, so no intercept to profile out: the fits are
        # those, to the bit, of the evaluation that never moved it.
        rng = np.random.default_rng(77)
        n = 300
        X = np.column_stack([rng.uniform(0.5, 1.5, n), rng.random(n)])
        y = distribution.quantile(rng.random(n), np.exp(X @ np.array([0.5, 0.15])))
        y[rng.permutation(n)[:9]] = 10.0
        mle, wmle = fit_both(ModelSpec.build(X, y))
        assert mle.beta_hat.tolist() == [0.6708879377344502, 0.27788184685927564]
        assert (mle.iterations, mle.loglik, mle.grad_norm) == (4, -510.6205007158274,
                                                                1.8746959540294483e-09)
        assert wmle.beta_hat.tolist() == [0.4710599383613282, 0.19471809257443595]
        assert (wmle.iterations, wmle.loglik, wmle.grad_norm) == (5, -354.44824066419494,
                                                                  2.2737367544323206e-13)

    # One observation is infeasible, the others have mean 1.
    @pytest.mark.parametrize("weight", [0.0, 1.0])
    @pytest.mark.parametrize(
        "link, beta",
        [
            ("identity", (1.0, -1.0)),  # mean exactly 0
            ("identity", (1.0, -1.5)),  # negative mean
            ("log", (0.0, 1000.0)),  # exp overflows to inf
            ("log", (0.0, -1000.0)),  # exp underflows to 0
        ],
        ids=["identity-zero", "identity-negative", "log-overflow", "log-underflow"],
    )
    def test_rejects_every_infeasible_point(self, link, beta, weight):
        n = 20
        X = np.column_stack([np.ones(n), np.eye(n)[0]])
        y = distribution.quantile(np.random.default_rng(8).random(n), 1.0)
        spec = ModelSpec.build(X, y, link=link)
        w = np.ones(n)
        w[0] = weight
        feasible = np.array([1.0 if link == "identity" else 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solver silences numpy's warnings itself
            assert math.isfinite(maximize_bfgs(spec, w, feasible, max_iter=0).fval)
            with pytest.raises(ValueError, match="not finite at the starting point"):
                maximize_bfgs(spec, w, np.array(beta), max_iter=0)


    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), edge=st.floats(-1.0, 1.0),
           on_bound=st.booleans(), mixed=st.booleans(), unit=st.booleans())
    def test_infeasible_exactly_where_the_reference_says(self, k, seed, edge, on_bound, mixed, unit):
        # |x| up to 1e3, and beta scaled so that the largest eta, or the
        # design's bound sum_i max|x_i| |beta_i| on every |eta|, lies within
        # 1 of log(DBL_MAX).  Below log(DBL_MAX) - 1 the bound skips the
        # check on eta; the reference always makes it.  Columns of one sign
        # keep eta from the far negative side, where exp(-2 eta) overflows.
        rng = np.random.default_rng(seed)
        n = 30
        scale = 10.0 ** rng.uniform(-3.0, 3.0, k) * rng.choice([-1.0, 1.0], k)
        design = DesignMatrix(rng.uniform(-1.0 if mixed else 0.0, 1.0, (n, k)) * scale)
        X = design.X
        beta = rng.uniform(-1.0, 1.0, k)
        if on_bound:
            beta *= (_MAX_LOG_MEAN + edge) / (np.abs(X).max(axis=0) @ np.abs(beta))
        else:
            beta *= math.copysign(1.0, np.max(X @ beta))
            beta *= (_MAX_LOG_MEAN + edge) / np.max(X @ beta)
        link = get_link("log")
        y = distribution.quantile(rng.random(n), 1.0)
        log_y, log_scale = link.response_terms(y)
        w = design.unit_weights if unit else rng.uniform(0.0, 1.0, n)
        evaluate, _ = link.objective(design, w, (log_y, log_scale))
        with np.errstate(over="ignore", invalid="ignore"):
            point = evaluate(beta.tolist())
            eta = np.dot(X, beta)
            wq = w * np.exp(log_scale - 2.0 * eta)
            xtw = np.dot(X.T, w)
            grad = 2.0 * (np.dot(X.T, wq) - xtw)
            infeasible = (np.max(eta) > _MAX_LOG_MEAN or not math.isfinite(np.add.reduce(wq))
                          or not np.isfinite(grad).all())
        assert (point is None) == infeasible

class TestComputeWeights:
    @pytest.mark.parametrize("delta", [0.0, 0.5, -0.1, math.nan])
    def test_delta_outside_zero_to_one_half_refused(self, delta):
        spec = ModelSpec.build(np.ones((2, 1)), np.ones(2))
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 0.5\)"):
            compute_weights(spec, np.ones(2), delta)

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
        for _ in range(3):  # a failed rank check is never kept
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

    def test_identity_link_start_blends_towards_the_flat_fit(self, monkeypatch):
        # A signal that drops to near zero halfway: the least-squares line
        # crosses zero before the last rows, so the start is blended halfway
        # towards the flat fit at the response mean, and the fit converges
        # from there.
        x = np.linspace(0.0, 1.0, 60)
        y = np.where(x < 0.5, 5.0 - 9.0 * x, 0.05) * (1.0 + 0.1 * np.sin(np.arange(60)))
        spec = ModelSpec.build(np.column_stack([np.ones(60), x]), y, link="identity")
        pinv = spec.design.pinv
        beta_ls = pinv @ y
        with pytest.raises(rayreg.regression.NonpositiveMeanError, match="at index 46 "):
            predict_mean(spec, beta_ls)
        beta_flat = pinv @ np.full(60, np.mean(y))
        start = rayreg.estimation._initial_beta(spec)
        assert np.array_equal(start, 0.5 * beta_ls + 0.5 * beta_flat)
        assert np.all(predict_mean(spec, start) > 0.0)
        starts = []

        def recording_maximize(spec, weights, start, **kwargs):
            starts.append(np.array(start))
            return maximize_bfgs(spec, weights, start, **kwargs)

        monkeypatch.setattr(rayreg.estimation, "maximize_bfgs", recording_maximize)
        mle, wmle = fit_both(spec)
        assert np.array_equal(starts[0], start)
        assert mle.converged and wmle.converged
        away = fit_both(spec, start=(beta_flat, beta_flat))[0]
        np.testing.assert_allclose(mle.beta_hat, away.beta_hat, rtol=1e-6)

    def test_information_overflow_is_refused_on_read(self):
        # Responses of 1e-300 put the identity link's fitted means where its
        # expected weights overflow: the fits return their estimates, and
        # the covariance refuses the information when it is read.
        X = np.column_stack([np.ones(40), np.arange(40.0) % 4])
        spec = ModelSpec.build(X, np.full(40, 1e-300), link="identity")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mle, wmle = fit_both(spec)
        for fit in (mle, wmle):
            assert np.all(np.isfinite(fit.beta_hat))
            assert not np.all(np.isfinite(fit.fisher_info))
            for name in ("covariance", "std_errors"):
                with pytest.raises(ValueError, match="^Fisher information is not finite at the optimum$"):
                    getattr(fit, name)


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

    def test_reweighting_stops_at_a_fixed_point(self, monkeypatch):
        # Rounds reach a round that returns its start; every later round
        # repeats it to the bit, so a count of 10**9 ends there too, with the
        # result of 30 rounds.
        spec = _simulated_spec(0, n=2000, eps=0.02)
        rounds = []

        def counted(*args):
            rounds.append(1)
            assert len(rounds) < 100, "reweighting did not stop"
            return compute_weights(*args)

        monkeypatch.setattr(rayreg.estimation, "compute_weights", counted)
        few, many = (fit_wmle(spec, RobustConfig(reweight_iterations=n)) for n in (30, 10**9))
        for field in fields(FitResult):
            a, b = getattr(few, field.name), getattr(many, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name
        w = compute_weights(spec, many.mu_hat, RobustConfig().delta)
        assert np.array_equal(w, many.weights)
        again = maximize_bfgs(spec, w, many.beta_hat)
        assert np.array_equal(again.x, many.beta_hat) and again.iterations == many.iterations
        assert len(rounds) < 2 * 30

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
            assert np.array_equal(fit.mu_hat, predict_mean(spec, fit.beta_hat))
            mu_gap = np.max(np.abs(fit.mu_hat - mu[groups]) / mu[groups])
            beta = coefficients(mu, case["link"])
            scale = max(1.0, float(np.max(np.abs(beta))))
            beta_gap = np.max(np.abs(fit.beta_hat - beta)) / scale
            assert mu_gap <= _CLOSED_FORM_TOL, (fit.method, mu_gap)
            assert beta_gap <= _CLOSED_FORM_TOL, (fit.method, beta_gap)
        assert np.max(np.abs(wmle.weights - weights)) <= _CLOSED_FORM_TOL


class TestOptimizerBehavior:
    def test_direction_solved_only_where_the_solver_steps_from(self, monkeypatch):
        # Rejected trial points and the converged point need no direction.
        solves = []

        def counting_direction(*args):
            solves.append(args)
            return _direction(*args)

        monkeypatch.setattr(rayreg.optim, "_direction", counting_direction)
        mle, wmle = fit_both(_simulated_spec(54, eps=0.05))
        assert mle.converged and wmle.converged
        assert len(solves) == mle.iterations + wmle.iterations

    def test_objective_ascends_over_accepted_steps(self):
        # The solver is deterministic, so the runs stopped after 0, 1, ...
        # steps trace one run's accepted steps.
        spec = _simulated_spec(51, eps=0.05)
        res = maximize_bfgs(spec, np.ones(spec.n_obs), np.zeros(2))
        assert res.converged and res.iterations > 1
        trace = [maximize_bfgs(spec, np.ones(spec.n_obs), np.zeros(2), max_iter=i).fval
                 for i in range(res.iterations + 1)]
        assert trace[-1] == res.fval
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
        rng = np.random.default_rng(3)
        for _ in range(5):
            start = fit.beta_hat + rng.uniform(-0.5, 0.5, size=2)
            res = maximize_bfgs(spec, np.ones(spec.n_obs), start)
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

    def test_falls_back_to_fisher_scoring(self, monkeypatch):
        # Well above the data the identity link's observed information is
        # negative, so its Newton step points away from the optimum and no
        # halving of it is accepted.  The solver steps with the expected
        # information 4/mu^2 per row instead, and the full step is taken.
        rng = np.random.default_rng(55)
        y = distribution.quantile(rng.random(50), 1.0)
        spec = ModelSpec.build(np.ones((50, 1)), y, link="identity")
        w = np.ones(50)
        mu = np.full(50, 2.0)
        assert spec.link.newton_terms(mu, math.pi / 4 * (y / mu) ** 2)[1].sum() < 0.0
        g0 = maximize_bfgs(spec, w, np.array([2.0]), max_iter=0).grad
        steps = []

        def recording_direction(*args):
            steps.append(_direction(*args))
            return steps[-1]

        monkeypatch.setattr(rayreg.optim, "_direction", recording_direction)
        first = maximize_bfgs(spec, w, np.array([2.0]), max_iter=1)
        assert steps[0][0] == pytest.approx(g0[0] / (50 * 4.0 / 2.0**2), rel=1e-12)
        assert first.x[0] == pytest.approx(2.0 + g0[0] / (50 * 4.0 / 2.0**2), rel=1e-12)
        res = maximize_bfgs(spec, w, np.array([2.0]))
        assert res.converged and res.iterations >= 1
        assert res.x[0] < 2.0
        assert res.x[0] == pytest.approx(math.sqrt(math.pi / 4 * np.mean(y**2)), rel=1e-8)

    @pytest.mark.parametrize("link, fallback", [("log", "fisher"), ("identity", "gradient")])
    def test_non_finite_information_falls_back(self, link, fallback):
        # The information solve refuses a non-finite matrix with ValueError,
        # as it does an indefinite one.  At mu = 1e-160 the observed weight
        # overflows under both links; the expected weight stays 4 under the
        # log link (Fisher scoring) and overflows under the identity link
        # (the gradient).
        n = 4
        design, w, y = DesignMatrix(np.ones((n, 1))), np.ones(n), np.ones(n)
        mu = np.full(n, 1e-160)
        grad = np.array([3.0])
        link = get_link(link)
        with np.errstate(over="ignore"):  # as inside the solver
            _, observed = link.newton_terms(mu, math.pi / 4 * (y / mu) ** 2)
            assert not np.isfinite(observed).all()
            # beta = (1e-160,): the linear predictor is mu on every row.
            step = _direction(design.gram(w * observed), grad, design, w, link, mu[:1])
            fisher_finite = np.isfinite(link.fisher_weight(mu)).all()
        if fallback == "fisher":
            assert step[0] == pytest.approx(grad[0] / (4.0 * n), rel=1e-15)
        else:
            assert not fisher_finite
            assert step is grad

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


class TestOverflowingResponse:
    """A response whose likelihood term overflows at the starting point is
    named with its row, not reported as a solver fault."""

    @staticmethod
    def _spec():
        rng = np.random.default_rng(23)
        n = 1000
        X = np.column_stack([np.ones(n), rng.random(n)])
        y = distribution.quantile(rng.random(n), np.exp(0.5 + 0.15 * X[:, 1]))
        y[17] = 1e200
        return ModelSpec.build(X, y)

    @pytest.mark.parametrize("fit", [fit_both, fit_mle])
    def test_names_row_and_value(self, fit):
        with pytest.raises(InfeasibleStartError, match=r"^response 1e\+200 at row 17 overflows "
                                                       r"the log-likelihood") as info:
            fit(self._spec())
        assert info.value.row == 17


def _neighbours(link, seed):
    """A contaminated signal and the same one with one value moved."""
    beta = (0.5, 0.15) if link == "log" else (2.0, 0.5)
    spec = _simulated_spec(seed, n=300, beta=beta, link=link, eps=0.03)
    y = spec.response.copy()
    y[7] = 4.0 * y.max()
    return spec, ModelSpec(design=spec.design, link=link, response=y)


class TestContinuationStart:
    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("link", ["log", "identity"])
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_warm_start_matches_cold(self, link, rounds, seed):
        before, after = _neighbours(link, seed)
        for grad_tol in (1e-6, 1e-10):
            cfg = RobustConfig(reweight_iterations=rounds, grad_tol=grad_tol)
            start = tuple(fit.beta_hat for fit in fit_both(before, cfg))
            for cold, warm in zip(fit_both(after, cfg), fit_both(after, cfg, start=start)):
                assert cold.converged and warm.converged
                assert cold.method == warm.method
                assert warm.n_downweighted == cold.n_downweighted
                if grad_tol < 1e-6:
                    # Both at the one optimum, to rounding.
                    np.testing.assert_allclose(warm.beta_hat, cold.beta_hat, rtol=1e-8, atol=0)
                else:
                    # Two points whose gradient sup-norms are at most grad_tol
                    # lie within about 2 grad_tol |I^-1| 1 of each other.
                    cov = np.linalg.inv(cold.fisher_info)
                    bound = 2.0 * grad_tol * np.abs(cov).sum(axis=1)
                    assert np.all(np.abs(warm.beta_hat - cold.beta_hat) <= bound)

    def test_warm_start_saves_iterations(self):
        # On the sweep the breakdown study warm-starts: nested outliers at
        # counts 5 to 40, each count's fits started from those before it.
        counts = (5, 10, 15, 20, 30, 40)
        steps = {"cold": 0, "warm": 0}
        for seed in range(61, 71):
            spec = _simulated_spec(seed, n=500)
            perm = np.random.default_rng(seed).permutation(spec.n_obs)
            fits = []
            for count in counts:
                y = spec.response.copy()
                y[perm[:count]] = 10.0
                after = ModelSpec(design=spec.design, link="log", response=y)
                warm = fit_both(after, start=_next_start(counts, fits))
                fits.append(np.array([fit.beta_hat for fit in warm]))
                for kind, pair in (("cold", fit_both(after)), ("warm", warm)):
                    steps[kind] += sum(fit.iterations for fit in pair)
        assert steps["warm"] < steps["cold"], steps

    @pytest.mark.parametrize("bad", ["nan", "infeasible", "shape"])
    def test_unusable_start_falls_back_to_cold(self, bad):
        before, after = _neighbours("identity", 64)
        mle, wmle = fit_both(after)
        if bad == "nan":
            start = (np.array([np.nan, 0.5]), np.array([2.0, np.inf]))
        elif bad == "infeasible":
            # A nonpositive mean at every row whose covariate exceeds 0.5.
            start = (np.array([1.0, -2.0]), np.array([-1.0, 0.0]))
            assert (after.design.X @ start[0] <= 0.0).any() and (after.design.X @ start[1] <= 0.0).all()
        else:
            start = (np.ones(3), np.ones(1))
        for cold, warm in zip((mle, wmle), fit_both(after, start=start)):
            assert warm.converged
            assert np.array_equal(warm.beta_hat, cold.beta_hat)
            assert warm.iterations == cold.iterations

    def test_one_usable_half_is_kept(self):
        # A NaN MLE start (a diverged neighbour) leaves the WMLE start in use.
        before, after = _neighbours("log", 65)
        mle, wmle = fit_both(before)
        cold = fit_both(after)
        warm = fit_both(after, start=(np.full(2, np.nan), wmle.beta_hat))
        assert np.array_equal(warm[0].beta_hat, cold[0].beta_hat)
        np.testing.assert_allclose(warm[1].beta_hat, cold[1].beta_hat, rtol=1e-8, atol=0)

    def test_fit_counts_are_unchanged(self, monkeypatch):
        calls = []
        for name in ("maximize_bfgs", "fisher_information", "compute_weights"):
            original = getattr(rayreg.estimation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(rayreg.estimation, name, counted)
        before, after = _neighbours("log", 66)
        start = tuple(fit.beta_hat for fit in fit_both(before))
        calls.clear()
        fit_both(after, start=start)
        assert sorted(calls) == ["compute_weights", "fisher_information", "fisher_information",
                                 "maximize_bfgs", "maximize_bfgs"]


class TestRobustConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": 0.5},
            {"reweight_iterations": -1},
            {"max_iter": 0},
            {"grad_tol": 0.0},
            {"delta": math.nan},
            {"reweight_iterations": math.nan},
            {"reweight_iterations": math.inf},
            {"max_iter": math.nan},
            {"max_iter": math.inf},
            {"grad_tol": math.nan},
            {"grad_tol": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RobustConfig(**kwargs)

    def test_fit_result_arrays_stay_read_only(self):
        # The plain fits share the design's unit weights; a pickled fit's
        # arrays are frozen again.
        spec = _simulated_spec(57, eps=0.05)
        mle, wmle = fit_both(spec)
        _, plain = fit_both(spec, RobustConfig(reweight_iterations=0))
        assert mle.weights is plain.weights is spec.design.unit_weights
        for fit in (mle, wmle, plain):
            for held in (fit, pickle.loads(pickle.dumps(fit))):
                for name in ("beta_hat", "std_errors", "fisher_info", "weights", "mu_hat"):
                    assert not getattr(held, name).flags.writeable, (fit.method, name)

    def test_fit_result_immutable(self):
        fit = fit_mle(_simulated_spec(55))
        with pytest.raises(ValueError):
            fit.beta_hat[0] = 0.0
        clone = replace(fit, method="WMLE")
        assert clone.method == "WMLE"
