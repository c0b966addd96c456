"""The weighted Rayleigh log-likelihood and its analytic gradient written out
over the whole response, the references for the solver's fused evaluation
``spec.link.objective``.

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


def score(spec, beta, weights=None) -> np.ndarray:
    """Gradient of :func:`weighted_loglik` with respect to ``beta``."""
    mu = predict_mean(spec, beta)
    link = spec.link
    s, _ = link.newton_terms(link.link(mu), np.pi / 4 * (spec.response / mu) ** 2)
    if weights is None:
        return spec.design.X.T @ s
    return spec.design.X.T @ (np.asarray(weights, dtype=np.float64) * s)
