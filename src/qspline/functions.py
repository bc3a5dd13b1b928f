"""Target activation functions, sampling grids, normalization, and NRMSE."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TargetFunction",
    "TARGETS",
    "sample_grid",
    "minmax_normalize",
    "target_values",
    "nrmse",
]


@dataclass(frozen=True)
class TargetFunction:
    """A scalar function together with the raw domain it is fitted on."""

    name: str
    domain: tuple[float, float]
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _elu(x: np.ndarray) -> np.ndarray:
    # alpha = 1
    return np.where(x > 0, x, np.expm1(x))


TARGETS = {
    "sigmoid": TargetFunction("sigmoid", (-5.0, 5.0), _sigmoid),
    "relu": TargetFunction("relu", (-1.0, 1.0), _relu),
    "elu": TargetFunction("elu", (-1.0, 1.0), _elu),
    "sin": TargetFunction("sin", (0.0, math.pi), np.sin),
}


def sample_grid(count: int, domain: tuple[float, float]) -> np.ndarray:
    """Uniform grid of ``count`` points including both domain endpoints."""
    lo, hi = float(domain[0]), float(domain[1])
    if count < 2:
        raise ValueError(f"need at least two samples, got {count}")
    if not hi > lo:
        raise ValueError(f"empty domain ({lo}, {hi})")
    return np.linspace(lo, hi, count)


def minmax_normalize(values: Sequence[float]) -> tuple[np.ndarray, tuple[float, float]]:
    """Rescale samples to [0, 1]; returns the (min, max) needed to undo it."""
    v = np.asarray(values, dtype=float).reshape(-1)
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-300:
        raise ValueError("cannot normalize a constant sample set")
    return (v - lo) / (hi - lo), (lo, hi)


def target_values(fn: TargetFunction, xs: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """Evaluate the function on the grid and min-max normalize the samples."""
    return minmax_normalize(fn(xs))


def nrmse(estimates: Sequence[float], targets: Sequence[float]) -> float:
    """Root-mean-square error divided by the target range.

    Invariant under a shared affine rescaling of both arguments, which is
    what lets normalized and raw-scale scores agree.
    """
    est = np.asarray(estimates, dtype=float).reshape(-1)
    tgt = np.asarray(targets, dtype=float).reshape(-1)
    if est.size != tgt.size:
        raise ValueError(f"length mismatch: {est.size} estimates vs {tgt.size} targets")
    if est.size == 0:
        raise ValueError("empty inputs")
    span = float(tgt.max() - tgt.min())
    if span < 1e-300:
        raise ValueError("degenerate target range")
    return float(np.sqrt(np.mean((est - tgt) ** 2)) / span)
