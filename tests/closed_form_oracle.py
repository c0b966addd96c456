"""Closed-form plain and robust fits on a treatment-coded group design,
used as a solver-independent reference for the estimators.  numpy only;
nothing here calls the package.

With one indicator per non-reference group the model is saturated within
groups under either link, so the weighted score ``sum_g w (2q - 2) = 0``
with ``q = pi y^2 / (4 mu_g^2)`` is solved group by group:

    mu_g = sqrt(pi/4 * sum_g(w y^2) / sum_g(w)).

The plain MLE takes ``w = 1``.  The one-pass WMLE takes the tail weights
of the MLE means: ``F/delta`` below the central band ``[delta, 1-delta]``
of ``F(y; mu) = 1 - exp(-q)``, one inside it and ``(1-F)/delta`` above it.
The coefficients follow from the means: ``beta_0 = g(mu_0)`` for the
reference group and ``beta_k = g(mu_k) - g(mu_0)``.
"""

import math

import numpy as np

_LINKS = {"log": np.log, "identity": lambda mu: mu}


def group_means(y, groups, n_groups, weights=None):
    """Weighted closed-form means, one per group label ``0..n_groups-1``."""
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(y.size) if weights is None else np.asarray(weights, dtype=np.float64)
    num = np.bincount(groups, weights=w * y * y, minlength=n_groups)
    den = np.bincount(groups, weights=w, minlength=n_groups)
    return np.sqrt(math.pi / 4.0 * num / den)


def tail_weights(y, mu, delta):
    """The tail-downweighting rule at fitted means ``mu`` (one per row)."""
    q = math.pi / 4.0 * (np.asarray(y, dtype=np.float64) / mu) ** 2
    upper = np.exp(-q)  # 1 - F
    lower = -np.expm1(-q)  # F
    return np.where(lower < delta, lower / delta, np.where(upper < delta, upper / delta, 1.0))


def coefficients(mu, link):
    """Treatment-coded coefficients of the group means under ``link``."""
    eta = _LINKS[link](np.asarray(mu, dtype=np.float64))
    return np.concatenate([eta[:1], eta[1:] - eta[0]])


def closed_form_fits(y, groups, n_groups, delta):
    """``(mu_mle, mu_wmle, weights)``: group means of both fits, WMLE row weights."""
    mu_mle = group_means(y, groups, n_groups)
    weights = tail_weights(y, mu_mle[groups], delta)
    return mu_mle, group_means(y, groups, n_groups, weights), weights
