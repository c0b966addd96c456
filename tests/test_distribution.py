"""Distribution oracles: quadrature, inversion identities, sampling checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from rayreg import distribution

# High-precision evaluations of the closed forms (30-digit arithmetic).
PDF_AT_1_1 = 0.716185936340569152781584102534
LOGPDF_AT_1_1 = -0.333815458107993444889465615925
LOGPDF_AT_2_2 = -1.02696263866793875430669773738
MEDIAN_MU1 = 0.93943727869965133377234032841


class TestPdf:
    def test_vanishes_at_zero(self):
        assert distribution.pdf(0.0, 1.0) == 0.0
        assert distribution.pdf(0.0, 3.7) == 0.0

    def test_frozen_value(self):
        assert distribution.pdf(1.0, 1.0) == pytest.approx(PDF_AT_1_1, rel=1e-14)

    @pytest.mark.parametrize("mu", [0.2, 0.65, 1.0, 2.7, 5.5, 40.0])
    def test_normalization_by_quadrature(self, mu):
        total, err = quad(lambda y: distribution.pdf(y, mu), 0.0, 50.0 * mu, limit=200)
        assert 1.0 - 1e-8 <= total <= 1.0 + 1e-10
        assert err < 1e-9

    @pytest.mark.parametrize("mu", [0.3, 1.0, 5.5])
    def test_mean_identity_by_quadrature(self, mu):
        mean, _ = quad(lambda y: y * distribution.pdf(y, mu), 0.0, 60.0 * mu, limit=200)
        assert mean == pytest.approx(mu, rel=1e-6)

    def test_rejects_negative_y(self):
        # A NaN beside a negative value does not hide it.
        for bad in (-0.1, [math.nan, -0.1]):
            for fn in (distribution.pdf, distribution.cdf):
                with pytest.raises(ValueError):
                    fn(bad, 1.0)


class TestLogPdf:
    def test_frozen_values(self):
        assert distribution.logpdf(1.0, 1.0) == pytest.approx(LOGPDF_AT_1_1, rel=1e-14)
        assert distribution.logpdf(2.0, 2.0) == pytest.approx(LOGPDF_AT_2_2, rel=1e-14)

    def test_matches_log_of_pdf(self):
        rng = np.random.default_rng(42)
        mu = 10.0 ** rng.uniform(-2, 2, size=200)
        y = mu * rng.uniform(0.05, 4.0, size=200)
        dense = distribution.pdf(y, mu)
        keep = dense > 1e-300
        assert np.allclose(
            distribution.logpdf(y[keep], mu[keep]), np.log(dense[keep]), rtol=1e-12, atol=0
        )

    def test_rejects_nonpositive_y(self):
        for bad in (0.0, -1.0, [math.nan, 0.0]):
            with pytest.raises(ValueError):
                distribution.logpdf(bad, 1.0)


class TestCdfQuantile:
    def test_boundaries(self):
        assert distribution.cdf(0.0, 3.7) == 0.0
        assert distribution.quantile(0.0, 5.0) == 0.0
        # Empty inputs pass the argument checks, and a NaN point propagates.
        for fn in (distribution.pdf, distribution.logpdf, distribution.cdf, distribution.quantile):
            assert fn(np.array([]), 1.0).shape == (0,)
            assert fn(np.array([]), np.array([])).shape == (0,)
            assert fn(np.zeros((0, 3)), np.ones(3)).shape == (0, 3)
            assert math.isnan(fn(math.nan, 1.0))

    def test_median(self):
        assert distribution.cdf(2.0 * math.sqrt(math.log(2.0) / math.pi), 1.0) == pytest.approx(
            0.5, abs=1e-15
        )
        assert distribution.quantile(0.5, 1.0) == pytest.approx(MEDIAN_MU1, rel=1e-14)

    @pytest.mark.parametrize("u", [0.01, 0.5, 0.999])
    def test_cdf_of_quantile(self, u):
        assert distribution.cdf(distribution.quantile(u, 2.3), 2.3) == pytest.approx(u, rel=1e-12)

    # The composed round trip holds at 1e-10 only while the upper tail
    # probability stays resolvable in float64 (one ulp of F near 1 is
    # ~1.1e-16, so cancellation in 1-F dominates past y ~ 4.7 mu, and F
    # rounds to exactly one past y ~ 6.9 mu).
    @pytest.mark.parametrize("y", [0.1, 1.0, 4.0])
    def test_quantile_of_cdf(self, y):
        back = distribution.quantile(distribution.cdf(y, 1.0), 1.0)
        assert abs(back - y) <= 1e-10 * (1.0 + y)

    def test_round_trip_dense_grid(self):
        mu = 1.7
        y = np.linspace(1e-3, 4.5 * mu, 4001)
        back = distribution.quantile(distribution.cdf(y, mu), mu)
        assert np.all(np.abs(back - y) <= 1e-10 * (1.0 + y))

    def test_monotonicity_on_grids(self):
        y = np.linspace(0.0, 40.0, 5001)
        assert np.all(np.diff(distribution.cdf(y, 2.2)) >= 0.0)
        u = np.linspace(0.0, 0.999999, 5001)
        assert np.all(np.diff(distribution.quantile(u, 2.2)) >= 0.0)

    def test_quantile_domain(self):
        for bad in (-0.01, 1.0, 1.5, [math.nan, 1.5], [math.nan, -0.01]):
            with pytest.raises(ValueError):
                distribution.quantile(bad, 1.0)

    @given(
        u=st.floats(min_value=0.0, max_value=0.999999, exclude_max=False),
        mu=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(deadline=None, max_examples=80)
    def test_inverse_identity_property(self, u, mu):
        assert distribution.cdf(distribution.quantile(u, mu), mu) == pytest.approx(
            u, rel=1e-9, abs=1e-12
        )


class TestSampling:
    def test_deterministic_given_seed(self):
        a = distribution.sample(2.0, np.random.default_rng(123), size=50)
        b = distribution.sample(2.0, np.random.default_rng(123), size=50)
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        mu = 2.0
        n = 100_000
        draws = distribution.sample(mu, np.random.default_rng(2024), size=n)
        sigma = mu * math.sqrt(4.0 / math.pi - 1.0)
        assert abs(draws.mean() - mu) <= 3.0 * sigma / math.sqrt(n)

    def test_kolmogorov_smirnov(self):
        draws = distribution.sample(1.3, np.random.default_rng(7), size=10_000)
        stat = kstest(draws, lambda y: distribution.cdf(y, 1.3))
        assert stat.pvalue > 0.01

    def test_positive_draws(self):
        draws = distribution.sample(0.05, np.random.default_rng(0), size=1000)
        assert np.all(draws >= 0.0)

    def test_array_mean_without_size_draws_its_shape(self):
        mu = np.array([[0.5, 1.0, 2.0], [4.0, 8.0, 16.0]])
        draws = distribution.sample(mu, np.random.default_rng(5))
        u = np.random.default_rng(5).random(mu.shape)
        assert draws.shape == mu.shape
        assert np.array_equal(draws, distribution.quantile(u, mu))


class TestRayleighMean:
    """The mean-parameterized law as a whole: its moments and its check on mu."""

    def test_moments(self):
        # Var(Y) = mu^2 (4/pi - 1), as the module docstring states.
        mu = 3.0
        second, _ = quad(lambda y: y * y * distribution.pdf(y, mu), 0.0, 60.0 * mu, limit=200)
        assert second - mu * mu == pytest.approx(mu * mu * (4.0 / math.pi - 1.0), rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_invalid_mu(self, bad):
        for fn in (distribution.pdf, distribution.logpdf, distribution.cdf, distribution.quantile):
            for mu in (bad, [1.0, bad], [[bad], [2.0]]):
                with pytest.raises(ValueError):
                    fn(0.5, mu)
        with pytest.raises(ValueError):
            distribution.sample(bad, np.random.default_rng(0))
