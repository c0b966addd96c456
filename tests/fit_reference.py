"""The weighted Rayleigh log-likelihood, its analytic gradient and each
observation's Newton terms written out over the whole response, the
references for the solver's fused evaluation ``spec.link.objective``.

Each takes ``weights`` of the response's length (None for unit weights)
and checks no argument.
"""

import numpy as np

from rayreg import distribution
from rayreg.regression import predict_mean


def weighted_loglik(spec, beta, weights=None) -> float:
    """``sum_n w[n] log f(y[n]; mu[n])``, with ``mu = g^{-1}(X beta)``; with
    unit weights, the ordinary log-likelihood."""
    terms = distribution.logpdf(spec.response, predict_mean(spec, beta))
    if weights is None:
        return float(np.sum(terms))
    return float(np.asarray(weights, dtype=np.float64) @ terms)


def newton_terms(link, mu, y) -> tuple:
    """Score factor and observed weight of each observation: the first and
    minus the second derivative of ``log f(y; mu)`` in ``eta = g(mu)``.  With
    ``quad = pi/4 (y/mu)^2`` they are ``2 quad - 2`` and ``4 quad`` under the
    log link, and ``(2 quad - 2) / mu`` and ``(6 quad - 2) / mu^2`` under the
    identity link, whose weight is negative for ``y`` below about 0.65 mu."""
    quad = np.pi / 4 * (y / mu) ** 2
    if link.name == "log":
        return 2.0 * quad - 2.0, 4.0 * quad
    return (2.0 * quad - 2.0) / mu, (6.0 * quad - 2.0) / (mu * mu)


def score(spec, beta, weights=None) -> np.ndarray:
    """Gradient of :func:`weighted_loglik` with respect to ``beta``."""
    mu = predict_mean(spec, beta)
    s, _ = newton_terms(spec.link, mu, spec.response)
    if weights is None:
        return spec.design.X.T @ s
    return spec.design.X.T @ (np.asarray(weights, dtype=np.float64) * s)
