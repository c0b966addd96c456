"""Mean-parameterized Rayleigh distribution.

A Rayleigh-distributed amplitude ``Y`` with mean ``mu > 0`` has density

    f(y; mu) = pi * y / (2 * mu**2) * exp(-pi * y**2 / (4 * mu**2)),  y >= 0,

variance ``mu**2 * (4/pi - 1)``, and closed-form distribution and quantile
functions.  The closed-form quantile makes inversion sampling and
probability-integral-transform residuals cheap, which is why the rest of
the package is built on this parametrization.

All functions broadcast ``y``/``u`` against ``mu``, so a single call can
evaluate one distribution on a vector of points or elementwise
distributions on a fitted mean field.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "pdf",
    "logpdf",
    "cdf",
    "quantile",
    "sample",
]

_LOG_HALF_PI = math.log(math.pi / 2.0)
_QUARTER_PI = math.pi / 4.0


# The range checks are single reductions; ``initial`` lets an empty array
# pass.  ``minimum`` and ``maximum`` propagate NaN, so a NaN mean fails;
# ``fmin`` and ``fmax`` skip it, so a NaN y or u passes, as it passes
# ``np.any(y < 0)``, while a negative entry beside it still fails.
def _check_mu(mu):
    mu = np.asarray(mu, dtype=np.float64)
    if not (np.minimum.reduce(mu, axis=None, initial=math.inf) > 0.0
            and np.maximum.reduce(mu, axis=None, initial=1.0) < math.inf):
        raise ValueError("mu must be positive and finite")
    return mu


def pdf(y, mu):
    """Density at ``y >= 0``; vanishes at the support boundary ``y = 0``."""
    mu = _check_mu(mu)
    y = np.asarray(y, dtype=np.float64)
    if np.fmin.reduce(y, axis=None, initial=0.0) < 0.0:
        raise ValueError("y must be nonnegative")
    z = y / mu
    out = (math.pi / 2.0) * z / mu * np.exp(-_QUARTER_PI * z * z)
    return out if out.ndim else float(out)


def logpdf(y, mu):
    """Log-density at ``y > 0``.

    Raises
    ------
    ValueError
        If any ``y <= 0``; the log-likelihood requires ``log(y)``.
    """
    mu = _check_mu(mu)
    y = np.asarray(y, dtype=np.float64)
    if np.fmin.reduce(y, axis=None, initial=math.inf) <= 0.0:
        raise ValueError("y must be strictly positive for logpdf")
    z = y / mu
    out = _LOG_HALF_PI + np.log(y) - 2.0 * np.log(mu) - _QUARTER_PI * z * z
    return out if out.ndim else float(out)


def cdf(y, mu):
    """Distribution function ``F(y; mu) = 1 - exp(-pi y^2 / (4 mu^2))``."""
    mu = _check_mu(mu)
    y = np.asarray(y, dtype=np.float64)
    if np.fmin.reduce(y, axis=None, initial=0.0) < 0.0:
        raise ValueError("y must be nonnegative")
    out = _cdf(y, mu)
    return out if out.ndim else float(out)


def _cdf(y, mu):
    """:func:`cdf` on arrays its checks have passed."""
    z = y / mu
    return -np.expm1(-_QUARTER_PI * z * z)


def quantile(u, mu):
    """Quantile (inverse CDF) ``Q(u; mu) = 2 mu sqrt(-log(1-u) / pi)``.

    Evaluated through ``log1p`` so that probabilities close to one keep
    full precision.

    Raises
    ------
    ValueError
        If any ``u`` lies outside ``[0, 1)``.
    """
    mu = _check_mu(mu)
    u = np.asarray(u, dtype=np.float64)
    if (np.fmin.reduce(u, axis=None, initial=0.0) < 0.0
            or np.fmax.reduce(u, axis=None, initial=0.0) >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    out = 2.0 * mu * np.sqrt(-np.log1p(-u) / math.pi)
    return out if out.ndim else float(out)


def sample(mu, rng, size=None):
    """Draw by inversion: ``quantile(U, mu)`` with ``U`` uniform from ``rng``.

    Deterministic for a given generator state; callers that need
    reproducibility should construct ``rng`` from a recorded seed.

    Parameters
    ----------
    mu : float or ndarray
        Mean(s); when an array, ``size`` must broadcast against it.
    rng : numpy.random.Generator
        Source of uniform variates.
    size : int or tuple, optional
        Number of draws; ``None`` returns a single float for scalar ``mu``.
    """
    mu = _check_mu(mu)
    if size is None and mu.ndim:
        size = mu.shape
    u = rng.random(size)
    return quantile(u, mu)
