"""Large-sample inference: Fisher information, Wald tests, quantile residuals.

A single Fisher matrix serves the weighted and unweighted estimators.  At
``delta = 0.001`` they share an asymptotic covariance to within Monte Carlo
error (clean WMLE Wald size 0.047 at pfa 0.05), but not as ``delta`` grows:
the size is 0.0565 at ``delta = 0.01`` and 0.0703 at 0.05.  Under the log link
the matrix reduces to ``4 * X.T @ X`` and does not depend on the fitted
mean at all.  Its inverse is the fit's ``covariance``, formed on first read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import distribution
from .regression import LogLink, ModelSpec, spd_solve

__all__ = [
    "WaldReport",
    "fisher_information",
    "wald_test",
    "ground_type_detect",
    "quantile_residuals",
    "quantile_residuals_from_mean",
    "RESIDUAL_CLAMP_EPS",
    "spd_solve",
]

#: Probability clamp for residuals at numerically extreme pixels.  Keeps the
#: normal quantile finite (about +-7.94) without disturbing decisions at the
#: conventional control limit of 3.
RESIDUAL_CLAMP_EPS = 1e-15


@dataclass(frozen=True)
class WaldReport:
    """Outcome of one Wald test at a configured false-alarm probability."""

    interest: tuple
    names: tuple
    statistic: float
    dof: int
    p_value: float
    threshold: float
    reject_null: bool
    pfa: float


def fisher_information(spec: ModelSpec, mu) -> np.ndarray:
    """Expected information ``X.T @ diag(4/mu^2 * (dmu/deta)^2) @ X``.

    Under the log link every weight is 4, and this is the design's kept
    :attr:`~rayreg.regression.DesignMatrix.log_information`.  A mean near
    the smallest double overflows the identity link's weight without a
    warning; the fit's ``covariance`` refuses the matrix when it is read."""
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (spec.n_obs,):
        raise ValueError(f"mu must have shape ({spec.n_obs},), got {mu.shape}")
    if np.minimum.reduce(mu) <= 0.0:
        raise ValueError("mu must be strictly positive")
    if isinstance(spec.link, LogLink):
        return spec.design.log_information
    X = spec.design.X
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = spec.link.fisher_weight(mu)
        return X.T @ (w[:, None] * X)


def wald_test(fit, interest, beta_null, pfa: float = 0.05) -> WaldReport:
    """Test H0: beta[interest] == beta_null against the two-sided alternative.

    ``interest`` holds coefficient indices; the statistic compares against
    the chi-square distribution whose degrees of freedom equal the number
    of tested coefficients, with the rejection threshold set by ``pfa``.

    Raises
    ------
    ValueError
        If the fit did not converge (a Wald statistic from an unconverged
        fit is meaningless), if its Fisher information has no covariance
        (see :attr:`~rayreg.estimation.FitResult.covariance`), or on
        malformed inputs.
    """
    from scipy.special import chdtrc, gammaincinv
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie in (0, 1)")
    if not fit.converged:
        raise ValueError(
            "refusing to test an unconverged fit "
            f"(method={fit.method}, iterations={fit.iterations}, "
            f"grad_norm={fit.grad_norm:.3e})"
        )
    interest = tuple(int(i) for i in interest)
    if not interest:
        raise ValueError("interest set must not be empty")
    k = fit.beta_hat.shape[0]
    if any(i < 0 or i >= k for i in interest):
        raise ValueError(f"interest indices must lie in [0, {k})")
    if len(set(interest)) != len(interest):
        raise ValueError("interest indices must be distinct")
    beta_null = np.asarray(beta_null, dtype=np.float64)
    if beta_null.shape != (len(interest),):
        raise ValueError("beta_null must match the interest set length")

    idx = np.asarray(interest)
    block = fit.covariance[np.ix_(idx, idx)]
    diff = fit.beta_hat[idx] - beta_null
    try:
        t_w = float(diff @ spd_solve(block, diff))
    except np.linalg.LinAlgError as exc:
        raise ValueError("interest block of the covariance is singular") from exc

    # The chi-square quantile and survival function as scipy.stats.chi2
    # evaluates them, without importing scipy.stats (about 0.6 s of CPU and
    # 29 MB per process).
    dof = len(interest)
    threshold = float(2.0 * gammaincinv(dof / 2, 1.0 - pfa))
    p_value = float(chdtrc(dof, t_w))
    names = tuple(fit.column_names[i] for i in interest)
    return WaldReport(
        interest=interest,
        names=names,
        statistic=t_w,
        dof=dof,
        p_value=p_value,
        threshold=threshold,
        reject_null=bool(t_w > threshold),
        pfa=float(pfa),
    )


def ground_type_detect(fit, pfa: float = 0.05) -> list[WaldReport]:
    """One single-coefficient Wald test per non-intercept coefficient.

    Intended for treatment-coded designs (see ``dummy_design``): a region
    is declared distinct from the reference when its indicator
    coefficient rejects H0: beta_i = 0.
    """
    k = fit.beta_hat.shape[0]
    if k == 1:
        warnings.warn("intercept-only model: no ground types to test", stacklevel=2)
        return []
    return [wald_test(fit, (i,), np.zeros(1), pfa=pfa) for i in range(1, k)]


def quantile_residuals_from_mean(y, mu, return_clamped: bool = False):
    """Normal-quantile residuals ``ndtri(F(y; mu))`` for given means.

    Probabilities numerically at 0 or 1 are clamped to
    ``RESIDUAL_CLAMP_EPS`` so the residual stays finite; set
    ``return_clamped`` to also receive the indices that were clamped.
    """
    from scipy.special import ndtri
    prob = distribution.cdf(y, mu)
    prob = np.atleast_1d(np.asarray(prob, dtype=np.float64))
    clamped = np.flatnonzero((prob < RESIDUAL_CLAMP_EPS) | (prob > 1.0 - RESIDUAL_CLAMP_EPS))
    if clamped.size:
        prob = np.clip(prob, RESIDUAL_CLAMP_EPS, 1.0 - RESIDUAL_CLAMP_EPS)
    res = ndtri(prob)
    if return_clamped:
        return res, clamped
    return res


def quantile_residuals(spec: ModelSpec, fit, return_clamped: bool = False):
    """Residuals of a fitted model; approximately standard normal when the
    model is correctly specified."""
    return quantile_residuals_from_mean(spec.response, fit.mu_hat, return_clamped=return_clamped)
