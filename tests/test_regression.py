"""Links, design matrices, model specification, dummy coding."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from rayreg import (
    DesignMatrix,
    ModelSpec,
    NonpositiveMeanError,
    distribution,
    dummy_design,
    fit_mle,
    get_link,
    predict_mean,
)
from rayreg.regression import _LOG_MEAN_BIAS

EXP_065 = 1.91554082901389607014669819268


def _newton_terms(link, mu, y) -> tuple:
    """Each observation's score factor and observed weight, as the solver's
    fused evaluation ``link.objective`` gives them: on a design of unit rows,
    and one more row of weight 0, its gradient is the score factors and its
    information the diagonal matrix of the observed weights."""
    n = mu.size
    spec = ModelSpec.build(np.vstack([np.eye(n), np.eye(n)[:1]]), np.append(y, y[0]), link=link)
    w = np.append(np.ones(n), 0.0)
    evaluate, information = spec.link.objective(spec.design, w, spec.response_terms)
    beta = spec.link.link(mu).tolist()
    _, grad, point, state = evaluate(beta)
    assert point == beta  # no column of ones, so no intercept is profiled
    info = information(state)
    assert np.array_equal(info, np.diag(np.diag(info)))
    return np.array(grad), np.diag(info)


class TestLinks:
    @pytest.mark.parametrize("name", ["log", "identity"])
    def test_round_trip(self, name):
        link = get_link(name)
        mu = 10.0 ** np.linspace(-8, 8, 321)
        back = link.inverse(link.link(mu))
        assert np.allclose(back, mu, rtol=1e-12, atol=0)

    def test_log_derivatives(self):
        link = get_link("log")
        mu = np.array([0.5, 1.0, 4.0])
        y = np.array([0.3, 1.0, 7.0])
        # d mu / d eta = mu times d log f / d mu.
        v = math.pi * y * y / (2.0 * mu**3) - 2.0 / mu
        assert np.allclose(_newton_terms("log", mu, y)[0], mu * v)
        assert np.array_equal(link.fisher_weight(mu), np.full(3, 4.0))

    def test_identity_derivatives(self):
        link = get_link("identity")
        mu = np.array([0.5, 2.0])
        y = np.array([0.3, 7.0])
        v = math.pi * y * y / (2.0 * mu**3) - 2.0 / mu
        score_factor = _newton_terms("identity", mu, y)[0]
        assert np.allclose(score_factor, v)
        # d mu / d eta is 1 here and mu under the log link.
        assert np.allclose(score_factor, _newton_terms("log", mu, y)[0] / mu, rtol=1e-14)
        assert np.allclose(link.fisher_weight(mu), 4.0 / mu**2)

    @pytest.mark.parametrize("name", ["log", "identity"])
    def test_observed_weight_is_minus_second_derivative(self, name):
        # -d^2 log f(y; g^{-1}(eta)) / d eta^2 by central differences; the
        # first row is negative under the identity link.
        link = get_link(name)
        mu = np.array([0.3, 1.0, 2.5, 2.5])
        y = np.array([0.1, 1.0, 0.4, 6.0])
        eta = link.link(mu)
        h = 1e-4

        def ll(e):
            return distribution.logpdf(y, link.inverse(e))

        numeric = -(ll(eta + h) - 2.0 * ll(eta) + ll(eta - h)) / h**2
        assert np.allclose(_newton_terms(name, mu, y)[1], numeric, rtol=1e-5)

    def test_log_mean_bias(self):
        # E[log Y] = log mu - kappa, kappa = gamma/2 - log(2/sqrt(pi)).
        assert _LOG_MEAN_BIAS == pytest.approx(
            -digamma(1.0) / 2 - math.log(2.0 / math.sqrt(math.pi)), rel=1e-15
        )
        rng = np.random.default_rng(17)
        mu = 2.5
        y = distribution.quantile(rng.random(10**6), mu)
        gap = np.log(y) - math.log(mu)
        assert abs(gap.mean() + _LOG_MEAN_BIAS) < 4.0 * gap.std() / 1e3
        # So the log link's start transform is unbiased for log mu.
        shifted = get_link("log").unbiased_link(y) - math.log(mu)
        assert abs(shifted.mean()) < 4.0 * gap.std() / 1e3

    def test_unknown_link(self):
        with pytest.raises(ValueError, match="unknown link"):
            get_link("probit")


def _spec(X, y, link="log", names=()):
    return ModelSpec.build(np.asarray(X, dtype=float), y, link=link, column_names=names)


class TestDesignMatrix:
    def test_requires_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="more observations"):
            DesignMatrix(np.ones((2, 2)))

    @pytest.mark.parametrize("X, names, message", [
        (np.ones(5), (), "design matrix must be 2-D"),
        (np.ones((5, 2, 1)), (), "design matrix must be 2-D"),
        (np.ones((5, 0)), (), "at least one column"),
        (np.array([[1.0, 0.5], [1.0, math.nan], [1.0, 2.0]]), (), "non-finite"),
        (np.array([[1.0, 0.5], [1.0, math.inf], [1.0, 2.0]]), (), "non-finite"),
        (np.ones((5, 2)) * [1.0, 0.5], ("a", "b", "c"), "expected 2 column names, got 3"),
    ], ids=["1-d", "3-d", "no-columns", "nan", "inf", "names-length"])
    def test_malformed_design_refused(self, X, names, message):
        with pytest.raises(ValueError, match=message):
            DesignMatrix(X, names)

    def test_rank_check_catches_duplicate_column(self):
        x = np.random.default_rng(0).random(20)
        d = DesignMatrix(np.column_stack([np.ones(20), x, x]))
        with pytest.raises(ValueError, match="rank deficient"):
            d.assert_full_rank()

    def test_passed_check_runs_one_svd(self, monkeypatch):
        d = DesignMatrix(np.column_stack([np.ones(20), np.arange(20.0)]))
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for _ in range(3):
            d.assert_full_rank()
        assert len(calls) == 1
        # The least-squares start comes from the same decomposition.
        d.pinv
        assert len(calls) == 1
        # A design that fails the check keeps its decomposition too.
        x = np.arange(20.0)
        bad = DesignMatrix(np.column_stack([np.ones(20), x, 2.0 * x]))
        for _ in range(2):
            with pytest.raises(ValueError, match="rank deficient"):
                bad.assert_full_rank()
        assert len(calls) == 2

    def test_kept_products_match_their_definitions(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(30), rng.random(30), rng.normal(size=30)])
        d = DesignMatrix(X)
        w = rng.random(30)
        w[:5] = 0.0
        gram = d.gram(w)
        assert np.array_equal(gram, gram.T)
        assert np.allclose(gram, X.T @ (w[:, None] * X), rtol=1e-13, atol=0)
        t = rng.normal(size=30)
        lstsq = np.linalg.lstsq(X, t, rcond=None)[0]
        assert np.allclose(d.pinv @ t, lstsq, rtol=1e-12, atol=1e-14)
        with pytest.raises(ValueError, match="rank deficient"):
            DesignMatrix(np.column_stack([X, X[:, 1]])).pinv

    def test_checked_design_pickles(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(40), rng.random(40)])
        y = distribution.quantile(rng.random(40), 1.0)
        d = DesignMatrix(X, ("intercept", "x"))
        d.assert_full_rank()
        clone = pickle.loads(pickle.dumps(d))
        assert np.array_equal(clone.X, d.X) and not clone.X.flags.writeable
        assert clone.column_names == d.column_names
        clone.assert_full_rank()
        # A rank-deficient design still fails the check after the round trip.
        bad = DesignMatrix(np.column_stack([X, 3.0 * X[:, 1]]))
        with pytest.raises(ValueError, match="rank deficient"):
            bad.assert_full_rank()
        with pytest.raises(ValueError, match="rank deficient"):
            pickle.loads(pickle.dumps(bad)).assert_full_rank()
        fits = [fit_mle(ModelSpec(design=dm, link="log", response=y)) for dm in (d, clone)]
        assert fits[0].beta_hat.tobytes() == fits[1].beta_hat.tobytes()

    def test_pickled_arrays_stay_read_only(self):
        # A fit fills the design's kept arrays: X, the pseudo-inverse, row
        # outer products, the unit weights and the log link's Fisher
        # information (its SVD factors, a tuple, are checked in
        # test_pickled_svd_factors_stay_read_only).  The fit holds four
        # arrays, and six once its covariance and standard errors are read.
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(40), rng.random(40)])
        spec = ModelSpec.build(X, distribution.quantile(rng.random(40), 1.0))
        fit = fit_mle(spec)

        def check(obj, n_arrays):
            clone = pickle.loads(pickle.dumps(obj))
            arrays = {k: v for k, v in vars(clone).items() if isinstance(v, np.ndarray)}
            assert len(arrays) == n_arrays, sorted(arrays)
            for name, arr in arrays.items():
                assert np.array_equal(arr, getattr(obj, name))
                assert not arr.flags.writeable, (type(obj).__name__, name)
            return clone

        check(spec.design, 5)
        check(fit, 4)
        fit.std_errors
        check(fit, 6)
        # The spec's response terms, a tuple of arrays, are frozen again too.
        clone = check(spec, 1)
        for kept, held in zip(spec.response_terms, vars(clone)["response_terms"]):
            assert np.array_equal(kept, held) and not held.flags.writeable

    def test_pickled_svd_factors_stay_read_only(self):
        # The rank check keeps the SVD's factors as one tuple, and the
        # pseudo-inverse is built from them, so they are frozen too.
        d = DesignMatrix(np.column_stack([np.ones(20), np.arange(20.0)]))
        d.assert_full_rank()
        clone = pickle.loads(pickle.dumps(d))
        held = [a for v in vars(clone).values() for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray)]
        assert len({id(a) for a in held}) == 4  # X and the three factors
        assert not any(a.flags.writeable for a in held)
        assert np.array_equal(clone.pinv, d.pinv)

    def test_readonly(self):
        d = DesignMatrix(np.ones((5, 1)))
        with pytest.raises(ValueError):
            d.X[0, 0] = 2.0

    def test_default_names(self):
        d = DesignMatrix(np.ones((5, 2)) * [1.0, 0.5])
        assert d.column_names == ("x1", "x2")


class TestModelSpec:
    def test_rejects_nonpositive_response(self):
        X = np.ones((6, 1))
        with pytest.raises(ValueError, match=r"3 offending value\(s\)"):
            _spec(X, [1.0, 0.0, 2.0, -1.0, 3.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            _spec(np.ones((5, 1)), np.ones(4))

    @pytest.mark.parametrize("response", [np.ones((5, 1)), np.ones((1, 5)), np.float64(1.0)])
    def test_rejects_a_response_that_is_not_a_vector(self, response):
        with pytest.raises(ValueError, match="response must be a 1-D vector"):
            _spec(np.ones((5, 1)), response)


class TestPredictMean:
    def test_log_intercept_zero_is_one(self):
        spec = _spec(np.ones((8, 1)), np.ones(8))
        assert np.allclose(predict_mean(spec, [0.0]), 1.0)

    def test_log_two_covariate_anchor(self):
        X = np.column_stack([np.ones(4), np.ones(4)])
        spec = ModelSpec(design=DesignMatrix(X), link="log", response=np.ones(4))
        mu = predict_mean(spec, [0.5, 0.15])
        assert np.allclose(mu, EXP_065, rtol=1e-14)

    def test_identity_constant(self):
        spec = _spec(np.ones((5, 1)), np.ones(5), link="identity")
        assert np.allclose(predict_mean(spec, [2.0]), 2.0)

    def test_identity_nonpositive_names_index(self):
        X = np.column_stack([np.ones(4), np.array([0.0, 1.0, 2.0, 3.0])])
        spec = ModelSpec(design=DesignMatrix(X), link="identity", response=np.ones(4))
        with pytest.raises(NonpositiveMeanError, match="index 2"):
            predict_mean(spec, [1.0, -0.5])  # eta = 1, 0.5, 0, -0.5

    @given(
        b0=st.floats(min_value=-30, max_value=30),
        b1=st.floats(min_value=-30, max_value=30),
    )
    @settings(deadline=None, max_examples=60)
    def test_log_link_always_positive(self, b0, b1):
        X = np.column_stack([np.ones(6), np.linspace(0, 1, 6)])
        spec = ModelSpec(design=DesignMatrix(X), link="log", response=np.ones(6))
        assert np.all(predict_mean(spec, [b0, b1]) > 0.0)

    def test_shape_and_finite_checks(self):
        spec = _spec(np.ones((5, 1)), np.ones(5))
        with pytest.raises(ValueError, match="shape"):
            predict_mean(spec, [1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            predict_mean(spec, [math.nan])


class TestDummyDesign:
    def test_three_regions(self):
        labels = ["A", "A", "B", "B", "C", "C"]
        d = dummy_design(labels, "A")
        assert d.column_names == ("intercept", "is_B", "is_C")
        expected = np.array(
            [
                [1, 0, 0],
                [1, 0, 0],
                [1, 1, 0],
                [1, 1, 0],
                [1, 0, 1],
                [1, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(d.X, expected)

    def test_first_appearance_ordering(self):
        d = dummy_design(["C", "A", "B", "A", "C"], "A")
        assert d.column_names == ("intercept", "is_C", "is_B")

    def test_two_categories_exact(self):
        d = dummy_design(["A", "A", "B"], "A")
        assert np.array_equal(d.X, np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))

    def test_single_category_degenerate(self):
        with pytest.raises(ValueError, match="single category"):
            dummy_design(["A", "A", "A"], "A")

    def test_missing_reference(self):
        with pytest.raises(ValueError, match="does not occur"):
            dummy_design(["A", "B"], "Z")

    def test_full_rank_with_one_obs_per_category(self):
        d = dummy_design(["A", "B", "C", "D", "A"], "A")
        d.assert_full_rank()
