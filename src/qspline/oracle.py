"""Classical reference solvers for the spline systems.

This module is the trusted side of every quantum-vs-classical comparison,
so it stays deliberately self-contained: plain back-substitution for the
upper-bidiagonal systems the pipeline produces, and partial-pivot Gaussian
elimination for anything else.  Nothing here touches the simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bspline import DesignMatrix, as_matrix, build_system
from .functions import TARGETS, nrmse, sample_grid, target_values
from .report import FitReport

__all__ = ["ExactSolution", "SingularMatrixError", "solve_exact", "fit_classical"]

PIVOT_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when elimination meets a pivot below tolerance."""


@dataclass(frozen=True)
class ExactSolution:
    """Classical solution with its residual, for use as a test oracle."""

    beta: np.ndarray
    residual: float
    method: str  # "back-substitution" | "elimination"


def _is_upper_bidiagonal(m: np.ndarray) -> bool:
    mask = np.ones_like(m, dtype=bool)
    idx = np.arange(m.shape[0])
    mask[idx, idx] = False
    mask[idx[:-1], idx[:-1] + 1] = False
    return not np.any(m[mask])


def _back_substitution(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    k = m.shape[0]
    beta = np.zeros(k)
    for row in range(k - 1, -1, -1):
        pivot = m[row, row]
        if abs(pivot) < PIVOT_TOL:
            raise SingularMatrixError(f"zero pivot at row {row}")
        acc = y[row]
        if row + 1 < k:
            acc = acc - m[row, row + 1] * beta[row + 1]
        beta[row] = acc / pivot
    return beta


def _eliminate(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    a = m.astype(float).copy()
    b = y.astype(float).copy()
    k = a.shape[0]
    for col in range(k):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) < PIVOT_TOL:
            raise SingularMatrixError(f"pivot below {PIVOT_TOL} in column {col}")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
        b[col + 1 :] -= factors * b[col]
    beta = np.zeros(k)
    for row in range(k - 1, -1, -1):
        beta[row] = (b[row] - a[row, row + 1 :] @ beta[row + 1 :]) / a[row, row]
    return beta


def solve_exact(matrix: DesignMatrix | np.ndarray, y: np.ndarray) -> ExactSolution:
    """Solve ``S beta = y`` classically, picking the solver by matrix shape."""
    m = as_matrix(matrix)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != m.shape[0]:
        raise ValueError(f"rhs has length {y.size}, matrix is {m.shape[0]}x{m.shape[0]}")
    if _is_upper_bidiagonal(m):
        beta = _back_substitution(m, y)
        method = "back-substitution"
    else:
        beta = _eliminate(m, y)
        method = "elimination"
    residual = float(np.linalg.norm(m @ beta - y))
    return ExactSolution(beta=beta, residual=residual, method=method)


def fit_classical(function: str, knots: int) -> FitReport:
    """Fit a target function by solving the spline system exactly.

    The degree-1 system interpolates, so the recovered values match the
    normalized targets to machine precision; the report's NRMSE is the
    floor the quantum pipeline is compared against.
    """
    if function not in TARGETS:
        raise ValueError(f"unknown function {function!r}; options: {sorted(TARGETS)}")
    started = time.perf_counter()
    target = TARGETS[function]
    xs = sample_grid(knots, target.domain)
    y01, _ = target_values(target, xs)
    system, _ = build_system(knots)
    solution = solve_exact(system, y01)
    estimates = system.entries @ solution.beta
    score = nrmse(estimates, y01)
    return FitReport(
        function=function,
        knots=knots,
        mode="classical",
        shots=None,
        ansatz=None,
        optimizer=None,
        seed=None,
        rng=None,
        domain=target.domain,
        xs=[float(v) for v in xs],
        y_target=[float(v) for v in y01],
        y_estimate=[float(v) for v in estimates],
        nrmse=score,
        classical_nrmse=score,
        final_cost=None,
        converged=True,
        restarts_used=0,
        mean_bias=float(np.mean(estimates - y01)),
        wall_seconds=time.perf_counter() - started,
    )
