"""B-spline bases and the linear systems built from them.

Basis functions follow the classic two-term recursion with the 0/0 := 0
convention.  Supports are half-open ``[knot_i, knot_{i+1})`` except that the
very last interval also contains its right endpoint, so the partition of
unity extends to the final knot.

The spline system is degree 1: :func:`design_matrix_d1` puts ``(1 - x_k,
x_k)`` on the diagonal and superdiagonal of interior row k, with unit rows at
both ends, and :func:`build_system` is the one place that builds it on the
K-point unit grid, once per K.  :func:`as_matrix` is the one way the solvers and the
readout turn a system, given as a :class:`DesignMatrix` or as an array, into
a matrix, and :func:`bidiagonal_scaling` the one way to equilibrate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .functions import sample_grid

__all__ = [
    "KnotVector",
    "DesignMatrix",
    "uniform_knots",
    "basis_value",
    "design_matrix_d1",
    "build_system",
    "as_matrix",
    "bidiagonal_scaling",
]


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Non-decreasing knot sequence with the degree it will be used at."""

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float).reshape(-1)
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if k.size < self.degree + 2:
            raise ValueError(
                f"need at least degree + 2 = {self.degree + 2} knots, got {k.size}"
            )
        if np.any(np.diff(k) < 0):
            raise ValueError("knots must be non-decreasing")
        k.flags.writeable = False
        object.__setattr__(self, "knots", k)

    @property
    def n_basis(self) -> int:
        """Number of basis functions: len(knots) - degree - 1."""
        return self.knots.size - self.degree - 1


def uniform_knots(n_basis: int, degree: int) -> KnotVector:
    """Uniformly spaced knots whose partition-of-unity window is exactly [0, 1].

    The sequence extends ``degree`` spacings past each end so that all
    ``n_basis`` functions are available on the whole unit interval; for
    degree 1 this puts the hat peaks on the uniform grid (k-1)/(K-1).
    """
    if n_basis <= degree:
        raise ValueError(f"need more than degree={degree} basis functions, got {n_basis}")
    h = 1.0 / (n_basis - degree)
    knots = (np.arange(n_basis + degree + 1) - degree) * h
    return KnotVector(knots=knots, degree=degree)


def _degree0(knots: np.ndarray, i: int, x: float) -> float:
    if knots[i] <= x < knots[i + 1]:
        return 1.0
    # close the final interval so values at the last knot are not lost
    if x == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
        return 1.0
    return 0.0


def basis_value(kv: KnotVector, i: int, x: float) -> float:
    """Evaluate basis function ``i`` (0-based) at ``x`` via the recursion."""
    if not 0 <= i < kv.n_basis:
        raise IndexError(f"basis index {i} out of range [0, {kv.n_basis})")
    return _cox_de_boor(kv.knots, i, kv.degree, float(x))


def _cox_de_boor(knots: np.ndarray, i: int, d: int, x: float) -> float:
    if d == 0:
        return _degree0(knots, i, x)
    value = 0.0
    left_den = knots[i + d] - knots[i]
    if left_den > 0:
        value += (x - knots[i]) / left_den * _cox_de_boor(knots, i, d - 1, x)
    right_den = knots[i + d + 1] - knots[i + 1]
    if right_den > 0:
        value += (knots[i + d + 1] - x) / right_den * _cox_de_boor(knots, i + 1, d - 1, x)
    return value


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Square, read-only collocation matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.entries)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


def as_matrix(system: DesignMatrix | np.ndarray) -> np.ndarray:
    """The square float matrix behind a :class:`DesignMatrix` or an array; a
    complex array passes only if its imaginary part is zero."""
    if isinstance(system, DesignMatrix):
        return system.entries
    m = np.asarray(system)
    if np.iscomplexobj(m):
        if np.any(m.imag):
            raise ValueError("matrix must be real")
        m = m.real
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    return m


def design_matrix_d1(points: Sequence[float]) -> DesignMatrix:
    """Explicit degree-1 system: unit boundary rows, interior rows (1-x_k, x_k).

    Interior values must lie strictly inside (0, 1); the first and last
    inputs do not appear in the matrix (their rows are unit rows), and the
    matrix is nonsingular exactly because every diagonal entry stays > 0.
    """
    pts = np.asarray(points, dtype=float).reshape(-1)
    K = pts.size
    if K < 2:
        raise ValueError(f"need at least two points, got {K}")
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("sample points must be strictly increasing")
    interior = pts[1:-1]
    if np.any((interior <= 0.0) | (interior >= 1.0)):
        raise ValueError("interior points must lie strictly inside (0, 1)")
    entries = np.zeros((K, K))
    entries[0, 0] = 1.0
    entries[K - 1, K - 1] = 1.0
    for k in range(1, K - 1):
        entries[k, k] = 1.0 - pts[k]
        entries[k, k + 1] = pts[k]
    return DesignMatrix(entries=entries)


@lru_cache(maxsize=16)
def build_system(knots: int) -> tuple[DesignMatrix, np.ndarray]:
    """The degree-1 spline system on the ``knots``-point unit grid, and the
    grid; built on the first call for each ``knots``, and every call returns
    the same read-only arrays."""
    grid = sample_grid(knots, (0.0, 1.0))
    grid.flags.writeable = False
    return design_matrix_d1(grid), grid


def bidiagonal_scaling(system: DesignMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalings ``(r, c)`` of an upper-bidiagonal S, diagonal d and
    superdiagonal e, with ``r[:, None] * S * c = I + N``, N the ones where e
    is nonzero: c_{k+1} = c_k d_k / e_k (or c_k where e_k = 0) from c_0 = 1,
    and r_k = 1 / (d_k c_k).  cond(S) lives in the products of e_k / d_k."""
    m = as_matrix(system)
    d, e = np.diag(m), np.diag(m, 1)
    c = np.ones(m.shape[0])
    for k, (dk, ek) in enumerate(zip(d, e)):
        c[k + 1] = c[k] * dk / ek if ek != 0.0 else c[k]
    return 1.0 / (d * c), c
