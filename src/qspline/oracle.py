"""Classical reference solver and fit for the spline systems.

This module is the trusted side of every quantum-vs-classical comparison,
so it stays deliberately self-contained: plain back-substitution for the
upper-bidiagonal systems ``bspline.build_system`` produces, and nothing
else.  ``fit_classical`` is the one place a fit samples, normalizes and
solves its target; the quantum pipeline starts from its report.  Nothing
here touches the simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bspline import DesignMatrix, as_matrix, build_system
from .functions import TARGETS, sample_grid, target_values
from .report import FitReport

__all__ = ["ExactSolution", "SingularMatrixError", "solve_exact", "fit_classical"]

PIVOT_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when back-substitution meets a pivot below tolerance."""


@dataclass(frozen=True)
class ExactSolution:
    """Classical solution with its residual, for use as a test oracle."""

    beta: np.ndarray
    residual: float


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


def solve_exact(matrix: DesignMatrix | np.ndarray, y: np.ndarray) -> ExactSolution:
    """Solve the upper-bidiagonal system ``S beta = y`` by back-substitution.

    Raises ``ValueError`` for any other matrix shape, and
    ``SingularMatrixError`` for a pivot below ``PIVOT_TOL``.
    """
    m = as_matrix(matrix)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != m.shape[0]:
        raise ValueError(f"rhs has length {y.size}, matrix is {m.shape[0]}x{m.shape[0]}")
    if not _is_upper_bidiagonal(m):
        raise ValueError("solve_exact takes an upper-bidiagonal matrix only")
    beta = _back_substitution(m, y)
    residual = float(np.linalg.norm(m @ beta - y))
    return ExactSolution(beta=beta, residual=residual)


def fit_classical(function: str, knots: int) -> FitReport:
    """Fit a target function by solving the spline system exactly.

    The degree-1 system interpolates, so the recovered values match the
    normalized targets to machine precision; the report's NRMSE, which it
    scores itself, is the floor the quantum pipeline is compared against.
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
    return FitReport(
        function=function,
        knots=knots,
        mode="classical",
        domain=target.domain,
        xs=[float(v) for v in xs],
        y_target=[float(v) for v in y01],
        y_estimate=[float(v) for v in estimates],
        wall_seconds=time.perf_counter() - started,
    )
