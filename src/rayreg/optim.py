"""Damped Newton maximization of the weighted Rayleigh log-likelihood.

Trial points are evaluated on the linear predictor ``eta = X beta``.
``link.newton_terms`` gives each observation's score factor ``s`` and
observed weight ``h``, so the gradient is ``X.T @ (w * s)`` and the observed
information ``design.gram(w * h)``.  That information is positive definite
under the log link, where the log-likelihood is strictly concave in
``beta``; where it is not, as can happen under the identity link, the step
is Fisher scoring with the expected information ``link.fisher_weight``
(McCullagh & Nelder, *Generalized Linear Models*, ch. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regression import ModelSpec, spd_solve

__all__ = ["InfeasibleStartError", "OptimResult", "maximize_bfgs"]

_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# Relative size of the rounding in a log-likelihood summed over many
# observations: a step may lower the objective by this much and still be
# taken if it lowers the gradient.
_ROUNDING = 1e-12
_LOG_HALF_PI = math.log(math.pi / 2.0)
_SQRT_QUARTER_PI = math.sqrt(math.pi / 4.0)


class InfeasibleStartError(ValueError):
    """Raised when the objective is not finite at the solver's start."""


@dataclass(frozen=True)
class OptimResult:
    x: np.ndarray
    fval: float
    grad: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    eta: np.ndarray  # the linear predictor ``X x``


def maximize_bfgs(
    spec: ModelSpec,
    weights: np.ndarray,
    start,
    *,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
    trace: list | None = None,
) -> OptimResult:
    """Maximize the log-likelihood of ``spec`` under ``weights`` from
    ``start`` by damped Newton steps.

    ``perfbench/spans.py`` traces the solver under this name, which changes
    only along with the benchmark.

    Each step starts at the full direction and is halved until the point
    is feasible and the step is accepted: on Armijo ascent, or, near the
    optimum where the objective (of magnitude ~N) no longer resolves the
    progress, on a lower gradient sup-norm with the objective unchanged
    up to rounding.  Stops when the gradient sup-norm reaches
    ``grad_tol`` (``converged``), after ``max_iter`` accepted steps, or
    when no halving is accepted.  The information and its solve are
    computed only at the points the solver steps from.

    When ``trace`` is a list, the objective value of every accepted step
    is appended to it (ascent diagnostics).  Raises
    :class:`InfeasibleStartError` where the objective is not finite at
    ``start``.
    """
    design = spec.design
    X = design.X
    XT = X.T
    link = spec.link
    log_mean_quad, newton_terms = link.log_mean_quad, link.newton_terms
    w = weights
    # 1.0 * x is exact, so unit weights (every MLE) skip their multiplies.
    unit = bool((w == 1.0).all())
    dot = np.dot  # the BLAS call of ``@`` on these shapes, with less dispatch
    scaled_y = _SQRT_QUARTER_PI * spec.response
    const = float(np.sum(w)) * _LOG_HALF_PI + float(dot(w, np.log(spec.response)))

    def evaluate(beta):
        """``(value, gradient, gradient sup-norm, eta, h)``, or None at an
        infeasible point."""
        eta = dot(X, beta)
        log_mu, quad = log_mean_quad(eta, scaled_y)
        # A nonpositive mean, or one that underflows, makes log_mu or quad
        # non-finite and so the value, whatever its weight, since 0 * inf
        # and 0 * nan are nan.  A mean that overflows leaves both finite
        # under the log link, so the largest one is checked as well.
        fval = const - 2.0 * float(dot(w, log_mu)) - float(dot(w, quad))
        if not (math.isfinite(fval) and math.isfinite(link.inverse(np.maximum.reduce(eta)))):
            return None
        s, h = newton_terms(eta, quad)
        grad = dot(XT, s if unit else w * s)
        entries = grad.tolist()
        if not all(map(math.isfinite, entries)):
            return None
        return fval, grad, max(map(abs, entries)), eta, h

    # Infeasible trial points raise numpy's floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.array(start, dtype=np.float64)
        point = evaluate(x)
        if point is None:
            raise InfeasibleStartError("objective is not finite at the starting point")
        f, g, grad_norm, eta, h = point
        iterations = 0

        while grad_norm > grad_tol and iterations < max_iter:
            p = _direction(design.gram(h if unit else w * h), g, design, w, link, eta)
            slope = float(dot(g, p))
            step = 1.0
            for _ in range(_MAX_HALVINGS):
                x_new = x + step * p
                point = evaluate(x_new)
                if point is not None and (
                    point[0] >= f + _ARMIJO * step * slope
                    or (point[2] < grad_norm and point[0] >= f - _ROUNDING * abs(f))
                ):
                    break
                step *= 0.5
            else:
                break
            x, (f, g, grad_norm, eta, h) = x_new, point
            iterations += 1
            if trace is not None:
                trace.append(float(f))

    return OptimResult(
        x=x,
        fval=float(f),
        grad=g,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=grad_norm <= grad_tol,
        eta=eta,
    )


def _direction(info, grad, design, w, link, eta) -> np.ndarray:
    """Newton step with the observed information ``info``.  Where that is
    not positive definite, as can happen under the identity link, the
    Fisher scoring step with the expected information at the linear
    predictor ``eta``; where zero weights leave even that singular, the
    gradient."""
    try:
        return spd_solve(info, grad)
    except ValueError:
        pass
    try:
        return spd_solve(design.gram(w * link.fisher_weight(link.inverse(eta))), grad)
    except ValueError:
        return grad
