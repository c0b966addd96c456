"""The solver's float-state iteration: its Cholesky step against LAPACK, and
its silence on numpy's floating-point warnings."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayreg import DesignMatrix, ModelSpec, distribution, dummy_design, fit_both, get_link
from rayreg.optim import _cholesky_solve, _direction
from rayreg.regression import spd_solve
from rayreg.simulation import ScenarioConfig, breakdown_curve, sensitivity_curve


def _lapack_direction(info, grad, design, w, link, eta):
    """The step as the solver chose it with LAPACK's Cholesky (``spd_solve``):
    Newton, else Fisher scoring, else the gradient."""
    try:
        return spd_solve(np.asarray(info), np.asarray(grad))
    except ValueError:
        pass
    try:
        return spd_solve(design.gram(w * link.fisher_weight(link.inverse(eta))), np.asarray(grad))
    except ValueError:
        return grad


def _unit(k):
    return st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)


@st.composite
def _spd_systems(draw):
    """A k x k symmetric positive-definite matrix of condition number below
    about 400, scaled as an information summed over 1e-3 to 1e6 rows, and a
    right-hand side."""
    k = draw(st.integers(1, 20))
    m = np.array([draw(_unit(k)) for _ in range(k)])
    scale = 10.0 ** draw(st.floats(-3.0, 6.0))
    a = scale * (m @ m.T + draw(st.floats(0.1, 10.0)) * np.eye(k))
    b = scale * np.array(draw(_unit(k)))
    return a, b


@st.composite
def _refused_informations(draw):
    """A symmetric k x k matrix the Cholesky step must refuse: an indefinite
    one, with a clearly negative eigenvalue, or a positive-definite one with
    a non-finite entry."""
    k = draw(st.integers(1, 6))
    q, _ = np.linalg.qr(np.array([draw(_unit(k)) for _ in range(k)]) + 3.0 * np.eye(k))
    eigen = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k)))
    indefinite = draw(st.booleans())
    if indefinite:
        eigen[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-1.0, -0.3, -0.1]))
    a = (q * eigen) @ q.T
    a = 0.5 * (a + a.T)
    if not indefinite:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        a[i, j] = a[j, i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return a


def _design(k, seed=0):
    rng = np.random.default_rng(seed)
    return DesignMatrix(np.column_stack([np.ones(3 * k + 5)] + [rng.random(3 * k + 5)
                                                                 for _ in range(k - 1)]))


class TestCholeskyStep:
    @settings(max_examples=200, deadline=None)
    @given(system=_spd_systems())
    def test_matches_spd_solve(self, system):
        a, b = system
        expected = spd_solve(a, b)
        for info in (a, a.tolist()):
            step = _cholesky_solve(info, b.tolist())
            assert isinstance(step, list) and len(step) == b.size
            assert np.max(np.abs(np.array(step) - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=200, deadline=None)
    @given(info=_refused_informations(), link=st.sampled_from(["log", "identity"]),
           weights=st.sampled_from(["ones", "zeros"]), eta=st.sampled_from([0.5, 1e-160]))
    def test_refused_information_takes_the_same_fallback(self, info, link, weights, eta):
        # Fisher scoring where the expected information is positive
        # definite, and the gradient itself where zero weights or the
        # identity link's overflowing weights 4 / mu^2 leave it singular or
        # non-finite.
        k = info.shape[0]
        design, link = _design(k), get_link(link)
        w = np.ones(design.n_obs) if weights == "ones" else np.zeros(design.n_obs)
        beta = np.zeros(k)
        beta[0] = eta  # the intercept: eta on every row
        grad = np.linspace(1.0, 2.0, k)
        assert _cholesky_solve(info, grad) is None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in the solver
            step = _direction(info, grad, design, w, link, beta)
            expected = _lapack_direction(info, grad, design, w, link, np.full(design.n_obs, eta))
        if expected is grad:
            assert step is grad
        else:
            assert np.max(np.abs(np.array(step) - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_ten_coefficient_dummy_fit_is_unchanged(self):
        # Ten regions, 16 of 400 values scaled tenfold.  The fits are those
        # the solver gave with LAPACK's Cholesky, the plain one at a gradient
        # tolerance of 1e-11 (its five steps now reach that optimum).
        rng = np.random.default_rng(2024)
        labels = [f"r{j}" for j in range(10) for _ in range(40)]
        mu = np.exp(-1.0 + 0.2 * np.array([int(label[1:]) for label in labels]))
        y = distribution.quantile(rng.random(len(labels)), mu)
        y[rng.permutation(len(labels))[:16]] *= 10.0
        spec = ModelSpec(design=dummy_design(labels, "r0"), link="log", response=y)
        mle, wmle = fit_both(spec)
        expected = {
            "MLE": [0.11255581396647246, -0.667489285761215, 0.0700368052427531,
                    -0.2965786000505941, -0.04303589159248969, 0.1427199519864884,
                    1.321892244458852, 0.7962508845663507, 1.2654954234002687,
                    0.674732703674428],
            "WMLE": [-1.052123346373417, 0.04626319736592061, 0.5983058279841729,
                     0.6224300937705017, 0.9502709625735973, 1.0767207647273713,
                     1.895249824909643, 1.420546645110807, 1.8729526262681935,
                     1.8394118640143173],
        }
        for fit in (mle, wmle):
            assert fit.converged and fit.iterations == 5
            np.testing.assert_allclose(fit.beta_hat, expected[fit.method], rtol=1e-9, atol=0)


class TestNoWarningsEscape:
    """Infeasible trial points overflow ``exp(-2 eta)`` or take the log of a
    nonpositive mean; the solver silences those warnings, and none may
    reach the caller."""

    def test_monte_carlo_curves(self):
        cfg = ScenarioConfig(beta_true=(0.5, 0.15), n_obs=60, replications=4, master_seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sensitivity_curve(cfg, (1.0, 10.0, 100.0, 1e6))
            breakdown_curve(cfg, (0, 3, 12, 30))

    @pytest.mark.parametrize("link", ["log", "identity"])
    def test_fits_from_infeasible_leaning_starts(self, link):
        rng = np.random.default_rng(9)
        n = 80
        x = rng.random(n)
        X = np.column_stack([np.ones(n), x])
        beta = (0.5, 0.15) if link == "log" else (1.0, 2.0)
        y = distribution.quantile(rng.random(n), get_link(link).inverse(X @ np.array(beta)))
        y[:4] = 30.0
        spec = ModelSpec.build(X, y, link=link)
        if link == "log":
            # Means of e^5 and e^20 make the first Newton steps overflow
            # exp(-2 eta); -400 overflows it at the start itself.
            starts = [(5.0, 0.0), (20.0, -10.0), (-400.0, 0.0), (0.0, 800.0)]
        else:
            # Means near zero at x = 0 or x = 1, a negative one, and one whose
            # quad overflows.
            starts = [(1e-3, 3.0), (3.0, -2.999), (-1.0, 0.5), (1e-200, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = fit_both(spec)
            for start in starts:
                mle, wmle = fit_both(spec, start=(np.array(start), np.array(start)))
                # The robust fit's weights come from the plain one.
                if mle.converged:
                    np.testing.assert_allclose(mle.beta_hat, cold[0].beta_hat, rtol=1e-5)
                    if wmle.converged:
                        np.testing.assert_allclose(wmle.beta_hat, cold[1].beta_hat, rtol=1e-5)
