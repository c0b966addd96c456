"""Damped Newton maximization of the weighted Rayleigh log-likelihood.

The iteration keeps its state on Python floats: ``beta``, the gradient,
the direction, the slope and every trial point are lists, and only the
length-N work runs in numpy, in the link's fused evaluation
(``link.objective``), one per trial point.  The value and gradient come
from one pass over the data (what does not depend on ``beta``, such as
the plain fit's ``X^T 1`` and the bound on ``|eta|`` that spares
the overflow check, is formed once or kept on the design), and the
observed information, a k x k array, is formed only at the points the
solver steps from.  The evaluation returns the point it evaluated, and
the solver goes on from that point: under the log link, on a design with
a column of ones, the trial point with its intercept moved to its optimum
given the other coefficients, whose value is never lower.  The linear
predictor ``eta = X beta`` of the result is formed once, at the end.  The
step solves the information by a Cholesky factorization: in plain Python
for the two coefficients of the Monte Carlo studies, where that costs a
tenth of a call into LAPACK, and by LAPACK for every other
number of coefficients.  The information is positive definite under
the log link, where the log-likelihood is strictly concave in ``beta``;
where it is not, as can happen under the identity link, the step is Fisher
scoring with the expected information ``link.fisher_weight`` (McCullagh &
Nelder, *Generalized Linear Models*, ch. 2).
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

import numpy as np

from .regression import _ROUNDING, ModelSpec, spd_solve

__all__ = ["InfeasibleStartError", "OptimResult", "maximize_bfgs"]

_ARMIJO = 1e-4
_MAX_HALVINGS = 60


class InfeasibleStartError(ValueError):
    """Raised when the objective is not finite at the solver's start; ``row``
    names the observation whose term is not finite there, where one is known."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class OptimResult(NamedTuple):
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
    computed only at the points the solver steps from.  Every point, the
    start too, is the one the link's evaluation returns (module docstring).
    Raises :class:`InfeasibleStartError` where the objective is not finite
    at ``start``.
    """
    design, link, w = spec.design, spec.link, weights
    # Infeasible trial points raise numpy's floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        evaluate, information = link.objective(design, w, spec.response_terms)
        point = evaluate(np.array(start, dtype=np.float64).tolist())
        if point is None:
            raise InfeasibleStartError("objective is not finite at the starting point")
        f, g, x, state = point
        grad_norm = max(map(abs, g))
        iterations = 0

        while grad_norm > grad_tol and iterations < max_iter:
            p = _direction(information(state), g, design, w, link, x)
            slope = sum(map(mul, g, p))
            step = 1.0
            for _ in range(_MAX_HALVINGS):
                point = evaluate([a + step * b for a, b in zip(x, p)])
                if point is not None:
                    norm_new = max(map(abs, point[1]))
                    if point[0] >= f + _ARMIJO * step * slope or (
                        norm_new < grad_norm and point[0] >= f - _ROUNDING * abs(f)
                    ):
                        break
                step *= 0.5
            else:
                break
            (f, g, x, state), grad_norm = point, norm_new
            iterations += 1

    return OptimResult(
        x=np.array(x),
        fval=f,
        grad=np.array(g),
        grad_norm=grad_norm,
        iterations=iterations,
        converged=grad_norm <= grad_tol,
        eta=np.dot(design.X, x),
    )


def _direction(info, grad, design, w, link, beta):
    """Newton step with the observed information ``info``.  Where that is
    not positive definite, as can happen under the identity link, the
    Fisher scoring step with the expected information at ``beta``; where
    zero weights leave even that singular, the gradient itself."""
    step = _cholesky_solve(info, grad)
    if step is None:
        mu = link.inverse(np.dot(design.X, beta))
        step = _cholesky_solve(design.gram(w * link.fisher_weight(mu)), grad)
    return grad if step is None else step


def _cholesky_solve(a, b) -> list | None:
    """``a^{-1} b`` as a list of floats, for a symmetric positive-definite
    float64 array ``a`` and a vector ``b``, by the Cholesky factorization
    ``a = L L^T``: in plain Python for the 2 x 2 systems of the Monte Carlo
    studies, by :func:`spd_solve` (LAPACK) for any other size.  Reads the
    upper triangle of ``a``.  None where ``a`` is not positive definite or
    holds a non-finite value, or where the solution is not finite."""
    if len(a) == 2:  # every model of the Monte Carlo studies
        (a00, a01), (_, a11) = a.tolist()
        if not 0.0 < a00 < math.inf:
            return None
        l00 = math.sqrt(a00)
        l10 = a01 / l00
        d = a11 - l10 * l10
        if not 0.0 < d < math.inf:
            return None
        l11 = math.sqrt(d)
        z0 = b[0] / l00
        x1 = (b[1] - l10 * z0) / l11 / l11
        x = [(z0 - l10 * x1) / l00, x1]
        return x if math.isfinite(x[0]) and math.isfinite(x1) else None
    try:
        x = spd_solve(a, np.asarray(b, dtype=np.float64)).tolist()
    except ValueError:  # a non-finite value, or LinAlgError: not positive definite
        return None
    return x if all(map(math.isfinite, x)) else None
