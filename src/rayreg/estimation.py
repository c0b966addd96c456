"""Maximum-likelihood and weighted-maximum-likelihood fitting.

The weighted log-likelihood is

    ll_w(beta) = sum_n w[n] * (log(pi/2) + log y[n] - 2 log mu[n]
                               - pi y[n]^2 / (4 mu[n]^2)),

with ``mu = g^{-1}(X beta)``.  Its gradient has the closed matrix form
``X.T @ (w * t * v)`` where ``v[n] = pi y[n]^2 / (2 mu[n]^3) - 2 / mu[n]``
and ``t[n] = d mu / d eta``.  Both estimators maximize it by damped Newton
steps (:func:`rayreg.optim.maximize_bfgs`) with the observed information
``X.T @ diag(w * h) @ X``, ``h = link.observed_weight``.  That is positive
definite under the log link, where the log-likelihood is strictly concave
in ``beta``; where it is not, as can happen under the identity link, the
step is Fisher scoring with the expected information
``h = link.fisher_weight`` (McCullagh & Nelder, *Generalized Linear
Models*, ch. 2).

The robust estimator downweights observations whose fitted probability
falls in the extreme ``delta`` tails: weights are computed from a plain
maximum-likelihood pass and the weighted likelihood is then re-maximized
from that solution.  With ``reweight_iterations=0`` no reweighting happens
and the result is numerically identical to the plain fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import distribution
from .inference import fisher_information
from .optim import maximize_bfgs
from .regression import ModelSpec, NonpositiveMeanError, predict_mean

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

_LOG_HALF_PI = math.log(math.pi / 2.0)
_QUARTER_PI = math.pi / 4.0

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
        if self.reweight_iterations < 0:
            raise ValueError("reweight_iterations must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class FitResult:
    """Estimates, robustness weights, and convergence diagnostics."""

    method: str  # 'MLE' or 'WMLE'
    beta_hat: np.ndarray
    std_errors: np.ndarray
    fisher_info: np.ndarray
    weights: np.ndarray
    mu_hat: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    grad_norm: float
    column_names: tuple

    def __post_init__(self):
        for name in ("beta_hat", "std_errors", "fisher_info", "weights", "mu_hat"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_downweighted(self) -> int:
        """Observations with weight strictly below one."""
        return int(np.count_nonzero(self.weights < 1.0))

    def summary(self) -> str:
        lines = [
            f"{self.method} fit: loglik={self.loglik:.6f} "
            f"converged={self.converged} iterations={self.iterations}",
            f"{'coefficient':>16s} {'estimate':>12s} {'std.err':>10s}",
        ]
        for name, b, se in zip(self.column_names, self.beta_hat, self.std_errors):
            lines.append(f"{name:>16s} {b:>12.6f} {se:>10.6f}")
        lines.append(f"downweighted observations: {self.n_downweighted}")
        return "\n".join(lines)


def _check_weights(spec: ModelSpec, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (spec.n_obs,):
        raise ValueError(f"weights must have shape ({spec.n_obs},), got {w.shape}")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ValueError("weights must lie in [0, 1]")
    return w


def weighted_loglik(spec: ModelSpec, beta, weights=None) -> float:
    """Weighted log-likelihood; with unit weights, the ordinary one."""
    mu = predict_mean(spec, beta)
    y = spec.response
    terms = _LOG_HALF_PI + np.log(y) - 2.0 * np.log(mu) - _QUARTER_PI * (y / mu) ** 2
    if weights is None:
        return float(np.sum(terms))
    w = _check_weights(spec, weights)
    return float(w @ terms)


def score(spec: ModelSpec, beta, weights=None) -> np.ndarray:
    """Gradient of :func:`weighted_loglik` with respect to ``beta``."""
    mu = predict_mean(spec, beta)
    y = spec.response
    v = math.pi * y * y / (2.0 * mu**3) - 2.0 / mu
    t = spec.link.mean_deriv(mu)
    if weights is None:
        return spec.design.X.T @ (t * v)
    w = _check_weights(spec, weights)
    return spec.design.X.T @ (w * t * v)


def compute_weights(spec: ModelSpec, mu_ref, delta: float) -> np.ndarray:
    """Robustness weights from fitted probabilities under ``mu_ref``.

    Observations inside the central band ``[delta, 1 - delta]`` keep
    weight one; the tails are linearly downweighted towards zero:

        w = F/delta         if F < delta,
        w = 1               if delta <= F <= 1 - delta,
        w = (1 - F)/delta   if F > 1 - delta.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    prob = distribution.cdf(spec.response, np.asarray(mu_ref, dtype=np.float64))
    w = np.ones(spec.n_obs)
    lo = prob < delta
    hi = prob > 1.0 - delta
    w[lo] = prob[lo] / delta
    w[hi] = (1.0 - prob[hi]) / delta
    return w


def _make_objective(spec: ModelSpec, weights: np.ndarray):
    X = spec.design.X
    y = spec.response
    link = spec.link
    w = weights
    const = float(np.sum(w)) * _LOG_HALF_PI + float(w @ np.log(y))
    zero = np.zeros(spec.n_params)

    def fun(beta):
        eta = X @ beta
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu = link.inverse(eta)
            if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
                return -np.inf, zero, zero
            z = y / mu
            quad = _QUARTER_PI * z * z
            fval = const - 2.0 * float(w @ np.log(mu)) - float(w @ quad)
            if not np.isfinite(fval):
                return -np.inf, zero, zero
            v = (2.0 * quad - 2.0) / mu
            t = link.mean_deriv(mu)
            grad = X.T @ (w * t * v)
            if not np.all(np.isfinite(grad)):
                return -np.inf, zero, zero
            return fval, grad, _direction(X, w, link, mu, y, grad)

    return fun


def _direction(X, w, link, mu, y, grad) -> np.ndarray:
    """Newton step with the observed information.  Where that is not
    positive definite, as can happen under the identity link, the Fisher
    scoring step with the expected information; where zero weights leave
    even that singular, the gradient."""
    try:
        return _info_solve(X, link.observed_weight(mu, y) * w, grad)
    except ValueError:
        pass
    try:
        return _info_solve(X, link.fisher_weight(mu) * w, grad)
    except ValueError:
        return grad


def _initial_beta(spec: ModelSpec) -> np.ndarray:
    """Least squares of the link-transformed response on the design."""
    target = spec.link.link(spec.response)
    beta0, *_ = np.linalg.lstsq(spec.design.X, target, rcond=None)
    try:
        predict_mean(spec, beta0)
        return beta0
    except NonpositiveMeanError:
        pass
    # Identity link can start infeasible; blend towards the flat fit at the
    # response mean, which is feasible whenever any fit is.
    flat = np.full(spec.n_obs, spec.link.link(float(np.mean(spec.response))))
    beta_flat, *_ = np.linalg.lstsq(spec.design.X, flat, rcond=None)
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


def _info_solve(X, weights, grad) -> np.ndarray:
    """``(X.T diag(weights) X)^{-1} grad``; ValueError unless finite and positive definite."""
    return cho_solve(cho_factor(X.T @ (weights[:, None] * X)), grad)


def _maximize(spec, weights, start, cfg, method) -> FitResult:
    optres = maximize_bfgs(
        _make_objective(spec, weights), start, max_iter=cfg.max_iter, grad_tol=cfg.grad_tol
    )
    mu_hat = predict_mean(spec, optres.x)
    info = fisher_information(spec, mu_hat)
    try:
        cov = cho_solve(cho_factor(info), np.eye(spec.n_params))
    except np.linalg.LinAlgError as exc:
        raise ValueError("Fisher information is not positive definite at the optimum") from exc
    std_errors = np.sqrt(np.diag(cov))
    return FitResult(
        method=method,
        beta_hat=optres.x,
        std_errors=std_errors,
        fisher_info=info,
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
    cfg = cfg or RobustConfig()
    spec.design.assert_full_rank()
    start = _initial_beta(spec)
    return _maximize(spec, np.ones(spec.n_obs), start, cfg, "MLE")


def fit_wmle(spec: ModelSpec, cfg: RobustConfig | None = None) -> FitResult:
    """Robust fit: plain fit, tail-based weights, weighted re-maximization.

    Weights come from the latest fitted means and the likelihood is
    re-maximized from the previous solution, ``cfg.reweight_iterations``
    times.  The default single round freezes weights at the plain fit.
    """
    _, wmle = fit_both(spec, cfg)
    return wmle


def fit_both(spec: ModelSpec, cfg: RobustConfig | None = None):
    """Plain and robust fits sharing one base pass; returns (mle, wmle).

    Useful for paired comparisons where both estimators must see the
    identical signal without paying for the base fit twice.
    """
    cfg = cfg or RobustConfig()
    mle = fit_mle(spec, cfg)
    fit = mle
    for _ in range(cfg.reweight_iterations):
        w = compute_weights(spec, fit.mu_hat, cfg.delta)
        fit = _maximize(spec, w, fit.beta_hat.copy(), cfg, "WMLE")
    if fit is mle:
        from dataclasses import replace

        fit = replace(mle, method="WMLE")
    return mle, fit
