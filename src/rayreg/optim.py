"""Damped Newton maximization with step halving.

The objective callback returns ``(value, gradient, direction)``, where the
direction is the caller's Newton or Fisher-scoring step at that point, and
signals an infeasible point with ``value = -inf``; the step is then
halved, which is also how nonpositive-mean trial points are rejected under
the identity link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OptimResult", "maximize_bfgs"]

_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# Relative size of the rounding in a log-likelihood summed over many
# observations: a step may lower the objective by this much and still be
# taken if it lowers the gradient.
_ROUNDING = 1e-12


@dataclass(frozen=True)
class OptimResult:
    x: np.ndarray
    fval: float
    grad: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool


def maximize_bfgs(
    fun,
    x0,
    *,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
    trace: list | None = None,
) -> OptimResult:
    """Maximize a smooth objective from ``x0`` by damped Newton steps.

    ``perfbench/spans.py`` traces the solver under this name, which changes
    only along with the benchmark.

    Each step starts at the full direction and is halved until the point
    is feasible and the step is accepted: on Armijo ascent, or, near the
    optimum where the objective (of magnitude ~N) no longer resolves the
    progress, on a lower gradient sup-norm with the objective unchanged
    up to rounding.  Stops when the gradient sup-norm reaches
    ``grad_tol`` (``converged``), after ``max_iter`` accepted steps, or
    when no halving is accepted.

    When ``trace`` is a list, the objective value of every accepted step
    is appended to it (ascent diagnostics).
    """
    x = np.array(x0, dtype=np.float64)
    f, g, p = fun(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    grad_norm = float(np.max(np.abs(g)))
    iterations = 0

    while grad_norm > grad_tol and iterations < max_iter:
        slope = float(g @ p)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new = x + step * p
            f_new, g_new, p_new = fun(x_new)
            if np.isfinite(f_new):
                norm_new = float(np.max(np.abs(g_new)))
                if f_new >= f + _ARMIJO * step * slope or (
                    norm_new < grad_norm and f_new >= f - _ROUNDING * abs(f)
                ):
                    break
            step *= 0.5
        else:
            break
        x, f, g, p, grad_norm = x_new, f_new, g_new, p_new, norm_new
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
    )
