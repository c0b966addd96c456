"""Maximum-likelihood and weighted-maximum-likelihood fitting.

Both estimators maximize the weighted Rayleigh log-likelihood
(:func:`weighted_loglik`) with :func:`rayreg.optim.maximize_bfgs`, from the
least-squares fit of the link's unbiased transform of the response.  The
robust estimator downweights observations whose fitted probability falls
in the extreme ``delta`` tails: weights are computed from a plain
maximum-likelihood pass and the weighted likelihood is then re-maximized
from that solution.  With ``reweight_iterations=0`` no reweighting happens
and the result is numerically identical to the plain fit.  A sweep of
nearby signals can start each :func:`fit_both` from the fit before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import distribution
from .inference import fisher_information
from .optim import InfeasibleStartError, maximize_bfgs
from .regression import (ModelSpec, NonpositiveMeanError, ReadOnlyArrays, predict_mean,
                         readonly_array, spd_solve)

__all__ = [
    "RobustConfig",
    "FitResult",
    "weighted_loglik",
    "score",
    "compute_weights",
    "fit_mle",
    "fit_wmle",
    "fit_both",
]


@dataclass(frozen=True)
class RobustConfig:
    """Tuning knobs for the fitting pipeline.

    ``delta`` bounds the central probability band kept at full weight
    (typical values 0.001 and 0.01); ``reweight_iterations=0`` disables
    reweighting entirely and reproduces the plain estimator.
    """

    delta: float = 0.001
    reweight_iterations: int = 1
    max_iter: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 0.5), got {self.delta}")
        if not 0 <= self.reweight_iterations < math.inf:
            raise ValueError(f"reweight_iterations must be nonnegative, got {self.reweight_iterations}")
        if not 1 <= self.max_iter < math.inf:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")


@dataclass(frozen=True)
class FitResult(ReadOnlyArrays):
    """Estimates, robustness weights, and convergence diagnostics.

    The covariance and standard errors are formed from ``fisher_info`` on
    first read and kept: the Monte Carlo studies read only ``beta_hat``.
    """

    method: str  # 'MLE' or 'WMLE'
    beta_hat: np.ndarray
    fisher_info: np.ndarray
    weights: np.ndarray
    mu_hat: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    grad_norm: float
    column_names: tuple

    def __post_init__(self):
        # Float64 arrays, fresh from the fit or kept by the design: frozen in place.
        for name in ("beta_hat", "fisher_info", "weights", "mu_hat"):
            getattr(self, name).setflags(write=False)

    @cached_property
    def covariance(self) -> np.ndarray:
        """The large-sample covariance, the inverse of ``fisher_info`` by
        :func:`spd_solve`; raises ValueError if that is not positive definite
        or not finite."""
        try:
            return readonly_array(spd_solve(self.fisher_info, np.eye(len(self.fisher_info))))
        except np.linalg.LinAlgError as exc:
            raise ValueError("Fisher information is not positive definite") from exc
        except ValueError as exc:  # spd_solve refuses a non-finite matrix
            raise ValueError("Fisher information is not finite at the optimum") from exc

    @cached_property
    def std_errors(self) -> np.ndarray:
        """Square roots of the covariance's diagonal."""
        return readonly_array(np.sqrt(self.covariance.diagonal()))

    @property
    def n_downweighted(self) -> int:
        """Observations with weight strictly below one."""
        return int(np.count_nonzero(self.weights < 1.0))


def _check_weights(spec: ModelSpec, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (spec.n_obs,):
        raise ValueError(f"weights must have shape ({spec.n_obs},), got {w.shape}")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ValueError("weights must lie in [0, 1]")
    return w


def weighted_loglik(spec: ModelSpec, beta, weights=None) -> float:
    """Weighted log-likelihood ``sum_n w[n] log f(y[n]; mu[n])``, with ``mu =
    g^{-1}(X beta)``; with unit weights, the ordinary one."""
    terms = distribution.logpdf(spec.response, predict_mean(spec, beta))
    if weights is None:
        return float(np.sum(terms))
    w = _check_weights(spec, weights)
    return float(w @ terms)


def score(spec: ModelSpec, beta, weights=None) -> np.ndarray:
    """Gradient of :func:`weighted_loglik` with respect to ``beta``."""
    mu = predict_mean(spec, beta)
    link = spec.link
    s, _ = link.newton_terms(link.link(mu), distribution._QUARTER_PI * (spec.response / mu) ** 2)
    if weights is None:
        return spec.design.X.T @ s
    w = _check_weights(spec, weights)
    return spec.design.X.T @ (w * s)


def compute_weights(spec: ModelSpec, mu_ref, delta: float) -> np.ndarray:
    """Robustness weights from fitted probabilities under ``mu_ref``.

    Observations inside the central band ``[delta, 1 - delta]`` keep
    weight one; the tails are linearly downweighted towards zero:

        w = F/delta         if F < delta,
        w = 1               if delta <= F <= 1 - delta,
        w = (1 - F)/delta   if F > 1 - delta,

    that is ``w = min(min(F, 1 - F)/delta, 1)``.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    # distribution.cdf, but for its check of y, which the response has passed
    prob = distribution._cdf(spec.response, distribution._check_mu(mu_ref))
    w = np.minimum(prob, 1.0 - prob)
    w /= delta
    return np.minimum(w, 1.0, out=w)


def _initial_beta(spec: ModelSpec) -> np.ndarray:
    """Least squares of the link's unbiased transform of the response on
    the design: ``log y + kappa`` under the log link, where ``E[log Y] =
    log mu - kappa``, and ``y`` under the identity link."""
    pinv = spec.design.pinv
    beta0 = pinv @ spec.link.unbiased_link(spec.response)
    try:
        predict_mean(spec, beta0)
        return beta0
    except NonpositiveMeanError:
        pass
    # Identity link can start infeasible; blend towards the flat fit at the
    # response mean, which is feasible whenever any fit is.
    beta_flat = pinv @ np.full(spec.n_obs, spec.link.link(float(np.mean(spec.response))))
    predict_mean(spec, beta_flat)  # raises if even the flat fit is infeasible
    frac = 0.5
    for _ in range(60):
        candidate = frac * beta0 + (1.0 - frac) * beta_flat
        try:
            predict_mean(spec, candidate)
            return candidate
        except NonpositiveMeanError:
            frac *= 0.5
    return beta_flat


def _maximize(spec, weights, cfg, method, cold, warm=None) -> FitResult:
    """One maximization, from ``warm`` where that is a finite β of this model
    at which the objective is finite, and otherwise from ``cold()``."""
    optres = None
    if warm is not None and warm.shape == (spec.n_params,) and all(map(math.isfinite, warm.tolist())):
        try:
            optres = maximize_bfgs(spec, weights, warm, max_iter=cfg.max_iter, grad_tol=cfg.grad_tol)
        except InfeasibleStartError:
            pass
    if optres is None:
        start = cold()
        try:
            optres = maximize_bfgs(spec, weights, start, max_iter=cfg.max_iter, grad_tol=cfg.grad_tol)
        except InfeasibleStartError:  # name the first response whose (y/mu)^2 overflows
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                mu = spec.link.inverse(spec.design.X @ start)
                rows = np.flatnonzero(np.isinf((spec.response / mu) ** 2))
            if not rows.size:
                raise
            row = int(rows[0])
            raise InfeasibleStartError(f"response {float(spec.response[row])!r} at row {row} "
                                       "overflows the log-likelihood at the starting point", row) from None
    mu_hat = spec.link.inverse(optres.eta)
    return FitResult(
        method=method,
        beta_hat=optres.x,
        fisher_info=fisher_information(spec, mu_hat),
        weights=weights,
        mu_hat=mu_hat,
        loglik=optres.fval,
        converged=optres.converged,
        iterations=optres.iterations,
        grad_norm=optres.grad_norm,
        column_names=spec.design.column_names,
    )


def fit_mle(spec: ModelSpec, cfg: RobustConfig | None = None) -> FitResult:
    """Plain maximum-likelihood fit (all weights one).

    A fit that exhausts ``cfg.max_iter`` is returned with
    ``converged=False`` rather than raised, so simulation studies can
    count failures.
    """
    return _fit_mle(spec, cfg or RobustConfig())


def _fit_mle(spec, cfg, warm=None) -> FitResult:
    spec.design.assert_full_rank()
    return _maximize(spec, spec.design.unit_weights, cfg, "MLE", lambda: _initial_beta(spec), warm)


def fit_wmle(spec: ModelSpec, cfg: RobustConfig | None = None) -> FitResult:
    """Robust fit: plain fit, tail-based weights, weighted re-maximization.

    Weights come from the latest fitted means and the likelihood is
    re-maximized from the previous solution, ``cfg.reweight_iterations``
    times or until a round after the first returns its start, a fixed
    point.  The default single round freezes weights at the plain fit.
    """
    _, wmle = fit_both(spec, cfg)
    return wmle


def fit_both(spec: ModelSpec, cfg: RobustConfig | None = None, start=None):
    """Plain and robust fits sharing one base pass; returns (mle, wmle).

    Useful for paired comparisons where both estimators must see the
    identical signal without paying for the base fit twice.

    ``start``, an ``(mle_beta, wmle_beta)`` pair from a neighbouring fit
    (a signal that differs in a few values), is a continuation start: the
    plain fit starts at ``mle_beta`` instead of the least-squares start,
    and the first reweighting round at ``wmle_beta`` instead of the plain
    fit's β.  A start that is not a finite β of this model, or at which the
    objective is not finite, is replaced by the usual one.  The results
    agree with those of the usual start to within the solver's tolerance
    ``cfg.grad_tol``.
    """
    cfg = cfg or RobustConfig()
    mle_start, wmle_start = (None, None) if start is None else (
        np.asarray(b, dtype=np.float64) for b in start
    )
    mle = _fit_mle(spec, cfg, mle_start)
    fit = mle
    for rounds in range(cfg.reweight_iterations):
        w = compute_weights(spec, fit.mu_hat, cfg.delta)
        last, fit = fit, _maximize(spec, w, cfg, "WMLE", fit.beta_hat.copy, wmle_start)
        if rounds and np.array_equal(fit.beta_hat, last.beta_hat):
            break  # a fixed point: every later round repeats this one to the bit
        wmle_start = None  # later rounds start from the round before
    if fit is mle:
        fit = replace(mle, method="WMLE")
    return mle, fit
