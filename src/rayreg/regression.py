"""Regression structure: link functions, design matrices, model specification.

The model ties the mean of a positive amplitude signal to covariates
through a strictly monotonic, twice differentiable link ``g``:

    g(mu[n]) = sum_i beta_i * x_i[n],   n = 0..N-1.

Two links are provided.  The log link is the default and is used by every
shipped experiment; the identity link exists as a minimal second option
that exercises the general link machinery (and its positivity guard).

Fits evaluate the likelihood on the linear predictor ``eta = X beta``,
through each link's fused evaluation (``objective``): under the log link
``quad = pi/4 (y/mu)^2`` is ``exp(log(pi/4 y^2) + X (-2 beta))`` and ``log mu``
is ``eta``, whose weighted sum is ``(X^T w) beta``, so a trial point costs one
``exp`` and two products with the design.  On a design with a column of ones
it also moves the intercept to its optimum given the rest, in closed form
(McCullagh & Nelder, *Generalized Linear Models*, ch. 2).  The design keeps
each column's largest ``|x|``: where ``sum_i max|x_i| |beta_i|``, a bound on
``|eta|``, stays below ``log(DBL_MAX) - 1``, no mean overflows and ``eta`` is
not formed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

__all__ = [
    "LogLink",
    "IdentityLink",
    "get_link",
    "NonpositiveMeanError",
    "DesignMatrix",
    "ModelSpec",
    "predict_mean",
    "dummy_design",
    "spd_solve",
]

# E[log Y] = log mu - _LOG_MEAN_BIAS for a Rayleigh amplitude Y of mean mu:
# Y^2 is exponential and E[log E] = -gamma for a unit exponential E.
_LOG_MEAN_BIAS = 0.5 * np.euler_gamma - math.log(2.0 / math.sqrt(math.pi))
_LOG_HALF_PI = math.log(math.pi / 2.0)
_LOG_QUARTER_PI = math.log(math.pi / 4.0)
_SQRT_QUARTER_PI = math.sqrt(math.pi / 4.0)
# The largest linear predictor whose mean ``exp(eta)`` is finite.
_MAX_LOG_MEAN = math.log(sys.float_info.max)
# Relative size of the rounding in a sum over many observations, such as
# the log-likelihood and the log link's sum(wq) against sum(w).
_ROUNDING = 1e-12


class NonpositiveMeanError(ValueError):
    """Raised when a linear predictor maps to a nonpositive mean."""


def _weighting(design, w, log_y) -> tuple:
    """Whether ``w`` is the design's unit weights, so that the fused evaluations
    may skip their multiplies by ``w`` (1.0 * x is exact), and the weighted
    log-likelihood's constant ``sum(w) log(pi/2) + w . log y``."""
    unit = w is design.unit_weights
    total = design.n_obs if unit else float(np.add.reduce(w))
    return unit, total * _LOG_HALF_PI + float(np.dot(w, log_y))


class LogLink:
    """g(mu) = log(mu); the inverse is positive for every finite predictor."""

    name = "log"

    def link(self, mu):
        return np.log(mu)

    def inverse(self, eta):
        return np.exp(eta)

    def unbiased_link(self, y):
        """``log y`` shifted by its bias, so its mean is ``log mu``."""
        return np.log(y) + _LOG_MEAN_BIAS

    def response_terms(self, y):
        """``log y`` and ``log(pi/4 y^2)``: the response's constants in the
        log-likelihood and in ``quad``, which :class:`ModelSpec` keeps.
        ``quad`` is formed from the log, so it is finite wherever its value
        is, for any positive double ``y``."""
        log_y = np.log(y)
        return log_y, 2.0 * log_y + _LOG_QUARTER_PI

    def objective(self, design, w, terms):
        """The solver's fused evaluation of the weighted log-likelihood under
        ``w``; ``terms`` are :meth:`response_terms`.

        Returns ``evaluate(beta)``, which gives ``(value, gradient, point,
        state)`` at a list of floats ``beta``, the gradient and point lists
        too, or None at an infeasible point; and ``information(state)``, the
        observed information as a k x k array.  With ``wq = w pi/4 y^2
        exp(-2 eta)`` the value is ``c - 2 (X^T w) beta - sum(wq)``, the
        gradient ``2 X^T wq - 2 X^T w`` and the information ``4 gram(wq)``, so
        ``X^T w`` and ``c`` are formed once and a point costs ``X (-2 beta)``, one
        ``exp`` and one product with ``X^T``.  The point is ``beta`` unless the design
        has a column of ones whose entry of ``X^T wq``, ``sum(wq)``, is off
        ``sum(w)`` by more than rounding: the intercept then moves to its
        optimum given the rest, by ``log(sum(wq) / sum(w)) / 2``, which scales
        every sum of ``wq`` above by ``s = sum(w) / sum(wq)``.  A mean that
        overflows leaves the value finite, so the largest ``eta`` is checked
        where the design's bound allows one.
        """
        dot = np.dot  # the BLAS call of ``@`` on these shapes, with less dispatch
        X = design.X
        XT = X.T
        k = X.shape[1]
        rows = design._row_products
        bounds = design._column_bounds
        ones = design._ones_column
        log_y, log_scale = terms
        unit, const = _weighting(design, w, log_y)
        xtw = design._unit_xtw if unit else dot(XT, w).tolist()
        sw = None if ones is None else xtw[ones]

        def evaluate(beta):
            wq = dot(X, [-2.0 * b for b in beta])  # -2 eta to the bit: scaling by -2 is exact
            wq += log_scale
            np.exp(wq, out=wq)
            if not unit:
                wq *= w
            xtwq = dot(XT, wq).tolist()
            swq = float(np.add.reduce(wq)) if ones is None else xtwq[ones]
            s = 1.0
            if ones is not None and swq > 0.0 and abs(swq - sw) > _ROUNDING * sw:
                s, beta = sw / swq, [*beta]
                beta[ones] += 0.5 * math.log(swq / sw)
            value = const - 2.0 * sum(map(mul, xtw, beta)) - s * swq
            if not (math.isfinite(value) and (sum(map(mul, bounds, map(abs, beta))) < _MAX_LOG_MEAN - 1.0
                                              or np.maximum.reduce(dot(X, beta)) <= _MAX_LOG_MEAN)):
                return None
            grad = [2.0 * (s * a - b) for a, b in zip(xtwq, xtw)]
            if not all(map(math.isfinite, grad)):
                return None
            return value, grad, beta, (wq, s)

        def information(state):  # design.gram(4 s wq), with the kept row products in hand
            return ((4.0 * state[1]) * dot(state[0], rows)).reshape(k, k)

        return evaluate, information

    def fisher_weight(self, mu):
        """(4 / mu^2) * (d mu / d eta)^2; collapses to the constant 4."""
        mu = np.asarray(mu, dtype=np.float64)
        return np.full(mu.shape, 4.0)


class IdentityLink:
    """g(mu) = mu; valid only while the linear predictor stays positive."""

    name = "identity"

    def link(self, mu):
        return np.asarray(mu, dtype=np.float64)

    def inverse(self, eta):
        return np.asarray(eta, dtype=np.float64)

    def unbiased_link(self, y):
        """``y`` itself, whose mean is ``mu``."""
        return np.asarray(y, dtype=np.float64)

    def response_terms(self, y):
        """``log y`` and ``sqrt(pi/4) y``, as for the log link."""
        return np.log(y), _SQRT_QUARTER_PI * y

    def objective(self, design, w, terms):
        """The fused evaluation, as for the log link, on ``log mu`` and
        ``quad = pi/4 (y/mu)^2`` with ``mu = eta`` at the point ``beta``: the
        gradient is ``X^T (w s)`` and the information ``gram(w h)``, with the
        score factor ``s = (2 quad - 2) / mu`` and the observed weight
        ``h = (6 quad - 2) / mu^2``, the first and minus the second derivative
        of ``log f(y; mu)`` in ``eta``.  ``h`` is negative for ``y`` below about
        0.65 mu, so the information can be indefinite.  A nonpositive ``eta``
        makes the value -inf or nan."""
        dot = np.dot
        X = design.X
        XT = X.T
        log_y, scaled_y = terms
        unit, const = _weighting(design, w, log_y)

        def evaluate(beta):
            eta = dot(X, beta)
            quad = scaled_y / eta
            quad *= quad
            value = const - 2.0 * float(dot(w, np.log(eta))) - float(dot(w, quad))
            if not math.isfinite(value):
                return None
            s, h = (2.0 * quad - 2.0) / eta, (6.0 * quad - 2.0) / (eta * eta)
            grad = dot(XT, s if unit else w * s).tolist()
            if not all(map(math.isfinite, grad)):
                return None
            return value, grad, beta, h

        def information(h):
            return design.gram(h if unit else w * h)

        return evaluate, information

    def fisher_weight(self, mu):
        mu = np.asarray(mu, dtype=np.float64)
        return 4.0 / (mu * mu)


_LINKS = {"log": LogLink(), "identity": IdentityLink()}


def get_link(name):
    """Look up a link by name ('log' or 'identity'); instances are shared."""
    if isinstance(name, (LogLink, IdentityLink)):
        return name
    try:
        return _LINKS[name]
    except KeyError:
        raise ValueError(f"unknown link {name!r}; expected one of {sorted(_LINKS)}") from None


def readonly_array(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class ReadOnlyArrays:
    """Base of the frozen types holding read-only arrays: unpickling rebuilds
    them writeable, so each one held, alone or in a tuple, is frozen again."""

    def __setstate__(self, state):
        self.__dict__.update(state)
        for value in state.values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)


@dataclass(frozen=True)
class DesignMatrix(ReadOnlyArrays):
    """N x k covariate matrix with one row per observation.

    The full-rank requirement is checked at fit time via
    :meth:`assert_full_rank`, not at construction, so partially built
    designs can still be inspected.  ``X`` is read-only, so what the fits
    derive from it is kept: its SVD, the pseudo-inverse of a design that
    passed the rank check, the row outer products, the unit weights and
    ``X^T 1``, each column's largest ``|x|``, the index of its
    first column of ones, and the log link's Fisher information.
    """

    X: np.ndarray
    column_names: tuple = ()

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {X.shape}")
        n, k = X.shape
        if k == 0:
            raise ValueError("design matrix needs at least one column")
        if n <= k:
            raise ValueError(f"need more observations than covariates (N={n}, k={k})")
        if not np.all(np.isfinite(X)):
            raise ValueError("design matrix contains non-finite values")
        names = tuple(self.column_names) or tuple(f"x{i + 1}" for i in range(k))
        if len(names) != k:
            raise ValueError(f"expected {k} column names, got {len(names)}")
        object.__setattr__(self, "X", readonly_array(np.array(X)))
        object.__setattr__(self, "column_names", names)

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_params(self) -> int:
        return self.X.shape[1]

    def assert_full_rank(self) -> None:
        """Raise if any singular value falls below 1e-10 times the largest."""
        s = self._svd[1]
        if s[-1] <= 1e-10 * s[0]:
            raise ValueError(
                "design matrix is rank deficient "
                f"(singular values range {s[-1]:.3e} .. {s[0]:.3e})"
            )

    @cached_property
    def _svd(self) -> tuple:
        return tuple(readonly_array(a) for a in np.linalg.svd(self.X, full_matrices=False))

    @cached_property
    def pinv(self) -> np.ndarray:
        """Pseudo-inverse ``(X.T X)^{-1} X.T``, so ``pinv @ t`` is the least
        squares fit of ``t``; from the SVD of the rank check, which it runs."""
        self.assert_full_rank()
        u, s, vt = self._svd
        return readonly_array((vt.T / s) @ u.T)

    @cached_property
    def _row_products(self) -> np.ndarray:
        n, k = self.X.shape
        return readonly_array(np.einsum("ni,nj->nij", self.X, self.X).reshape(n, k * k))

    def gram(self, weights) -> np.ndarray:
        """``X.T @ diag(weights) @ X`` as one product with the kept row outer
        products ``x_n x_n^T``, exactly symmetric."""
        k = self.n_params
        return (weights @ self._row_products).reshape(k, k)

    @cached_property
    def unit_weights(self) -> np.ndarray:
        """The plain fit's weights, all one, shared by its fits."""
        return readonly_array(np.ones(self.n_obs))

    @cached_property
    def _unit_xtw(self) -> tuple:
        return tuple(np.dot(self.X.T, self.unit_weights).tolist())

    @cached_property
    def _ones_column(self) -> int | None:  # the first column of ones (the intercept), or None
        return next((i for i, col in enumerate(self.X.T) if (col == 1.0).all()), None)

    @cached_property
    def _column_bounds(self) -> tuple:
        # column by column: numpy reduces a tall array's first axis slowly
        return tuple(float(np.abs(col).max()) for col in self.X.T)

    @cached_property
    def log_information(self) -> np.ndarray:
        """``X.T @ (4 X)``, the Fisher information of every log-link fit on
        this design: that link's expected weight is 4 on every row."""
        return readonly_array(self.X.T @ (4.0 * self.X))


@dataclass(frozen=True)
class ModelSpec(ReadOnlyArrays):
    """Design, link, and strictly positive response, bundled for fitting."""

    design: DesignMatrix
    link: object
    response: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.response, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError("response must be a 1-D vector")
        if y.shape[0] != self.design.n_obs:
            raise ValueError(
                f"response length {y.shape[0]} does not match design rows {self.design.n_obs}"
            )
        # One pass each for the smallest and largest value; a NaN fails them.
        if not (np.minimum.reduce(y) > 0.0 and np.maximum.reduce(y) < math.inf):
            bad = np.flatnonzero(~(y > 0.0) | ~np.isfinite(y))
            head = ", ".join(str(i) for i in bad[:10])
            raise ValueError(
                f"response must be strictly positive and finite; "
                f"{bad.size} offending value(s), first indices: [{head}]"
            )
        object.__setattr__(self, "link", get_link(self.link))
        object.__setattr__(self, "response", readonly_array(np.array(y)))

    @classmethod
    def build(cls, X, y, link="log", column_names=()) -> "ModelSpec":
        """Convenience constructor from plain arrays."""
        return cls(design=DesignMatrix(np.asarray(X), tuple(column_names)), link=link, response=y)

    @property
    def n_obs(self) -> int:
        return self.design.n_obs

    @property
    def n_params(self) -> int:
        return self.design.n_params

    @cached_property
    def response_terms(self) -> tuple:
        """The link's ``response_terms`` of the read-only response, kept for
        every maximization of it."""
        return tuple(readonly_array(t) for t in self.link.response_terms(self.response))


def predict_mean(spec: ModelSpec, beta) -> np.ndarray:
    """Mean vector ``mu = g^{-1}(X beta)``.

    For the identity link, a nonpositive linear predictor has no valid
    mean and raises :class:`NonpositiveMeanError` naming the first
    offending index.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (spec.n_params,):
        raise ValueError(f"beta must have shape ({spec.n_params},), got {beta.shape}")
    if not np.isfinite(beta).all():
        raise ValueError("beta contains non-finite values")
    eta = spec.design.X @ beta
    mu = spec.link.inverse(eta)
    if (mu <= 0.0).any():
        idx = int(np.flatnonzero(mu <= 0.0)[0])
        raise NonpositiveMeanError(
            f"{spec.link.name} link produced nonpositive mean at index {idx} "
            f"(eta={eta[idx]:.6g})"
        )
    return mu


def dummy_design(labels, reference) -> DesignMatrix:
    """Treatment-coded design for categorical region labels.

    Produces an intercept column of ones plus one 0/1 indicator per
    non-reference category, ordered by first appearance in ``labels``.
    The reference category is the all-zeros row.
    """
    labels = list(labels)
    if reference not in labels:
        raise ValueError(f"reference level {reference!r} does not occur in labels")
    seen: dict = {}
    for lab in labels:
        if lab != reference and lab not in seen:
            seen[lab] = None
    others = list(seen)
    if not others:
        raise ValueError("labels contain a single category; design would be degenerate")
    n = len(labels)
    X = np.zeros((n, 1 + len(others)))
    X[:, 0] = 1.0
    for j, cat in enumerate(others, start=1):
        X[:, j] = [1.0 if lab == cat else 0.0 for lab in labels]
    names = ("intercept",) + tuple(f"is_{cat}" for cat in others)
    return DesignMatrix(X, names)


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^{-1} b`` for a symmetric positive-definite float64 ``a``, by Cholesky.

    Makes the two LAPACK calls of ``cho_solve(cho_factor(a), b)`` without
    that wrapper's batching and array conversions, so the result is the
    same to the bit; like it, reads only the upper triangle of ``a``.
    ``b`` is a vector or a matrix of right-hand sides.

    Raises
    ------
    ValueError
        If ``a`` or ``b`` holds a non-finite value.
    numpy.linalg.LinAlgError
        If ``a`` is not positive definite (a subclass of ValueError).
    """
    from scipy.linalg.lapack import dpotrf, dpotrs
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    c, info = dpotrf(a, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    return dpotrs(c, b, lower=0)[0]
