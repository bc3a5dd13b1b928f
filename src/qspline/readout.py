"""Inner-product readout: turn a solved state back into curve values.

Each fitted point is the overlap of the solution state with the matching
normalized row of the design matrix, rescaled by the classically known row
norm and by the length of ``S @ beta`` so the result lands in normalized
target units.  A global sign is fixed against the target vector because the
variational solve only pins the solution ray, not its orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sim
from .bspline import as_matrix

__all__ = [
    "RowEncoding",
    "EstimateVector",
    "encode_row",
    "row_overlap",
    "recover_estimates",
]

IMAG_TOL = 1e-8
SCALE_TOL = 1e-12


@dataclass(frozen=True)
class RowEncoding:
    """One matrix row prepared for overlap estimation (1-based index).

    ``ops`` is the amplitude-encoding circuit that prepares ``state``.
    """

    index: int
    row: np.ndarray
    norm: float
    state: sim.QuantumState
    ops: tuple

    def __post_init__(self):
        rebuilt = self.state.amplitudes.real * self.norm
        if np.max(np.abs(rebuilt - self.row)) > 1e-10:
            raise ValueError(f"encoded row {self.index} does not reproduce the raw row")


@dataclass(frozen=True)
class EstimateVector:
    """Recovered point estimates plus the classical correction factors."""

    values: np.ndarray
    scale: float
    sign: float


def _real_state_vector(state: sim.QuantumState) -> np.ndarray:
    amps = state.amplitudes
    residue = float(np.max(np.abs(amps.imag)))
    if residue > IMAG_TOL:
        raise ValueError(
            f"solution state has imaginary residue {residue:.3e}; "
            "the pipeline only produces real states, so something upstream broke"
        )
    return amps.real


def encode_row(system, k: int) -> RowEncoding:
    """Amplitude-encode the k-th row (1-based) of the system matrix."""
    matrix = as_matrix(system)
    dim = matrix.shape[0]
    if not 1 <= k <= dim:
        raise ValueError(f"row index must be in 1..{dim}, got {k}")
    row = matrix[k - 1].copy()
    norm = float(np.linalg.norm(row))
    if norm < SCALE_TOL:
        raise ValueError(f"row {k} is zero and cannot be normalized")
    prep = sim.amplitude_encode(row)
    return RowEncoding(index=k, row=row, norm=norm, state=prep.state, ops=prep.ops)


def _beta_ops(beta: np.ndarray, mode: str, shots: int | None):
    """Check the readout mode; in shots mode, the circuit preparing beta."""
    if mode == "exact":
        return None
    if mode == "shots":
        if not shots or shots < 1:
            raise ValueError("shots mode needs a positive shot count")
        return list(sim.amplitude_encode(beta).ops)
    raise ValueError(f"unknown mode {mode!r}")


def _overlap(
    encoding: RowEncoding,
    beta: np.ndarray,
    beta_ops: list | None,
    n_qubits: int,
    shots: int | None,
    seed: int | None,
) -> float:
    if beta_ops is None:
        return float(encoding.state.amplitudes.real @ beta)
    return sim.hadamard_test(list(encoding.ops), beta_ops, n_qubits, shots=shots, seed=seed)


def row_overlap(
    system,
    k: int,
    beta_state: sim.QuantumState,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> float:
    """Re<x'_k|beta'> with the k-th row normalized to a unit state."""
    encoding = encode_row(system, k)
    beta = _real_state_vector(beta_state)
    beta_ops = _beta_ops(beta, mode, shots)
    return _overlap(encoding, beta, beta_ops, beta_state.n_qubits, shots, seed)


def recover_estimates(
    system,
    beta_state: sim.QuantumState,
    y_norm,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> EstimateVector:
    """Estimate every fitted point from the solution state.

    ``y_norm`` must be the unit-norm target vector the solver saw; it fixes
    the overall sign.  The returned values approximate ``y_norm`` itself.
    Flipping the sign of ``beta_state`` flips both every overlap and the
    sign correction, so the output is unchanged bit for bit in exact mode.
    Shots mode encodes beta once and each row once, and gives row k the k-th
    draw of ``SeedSequence(seed)``.
    """
    matrix = as_matrix(system)
    dim = matrix.shape[0]
    y = np.asarray(y_norm, dtype=float).reshape(-1)
    if y.size != dim:
        raise ValueError(f"target has length {y.size}, system is {dim}x{dim}")
    if abs(float(np.linalg.norm(y)) - 1.0) > 1e-8:
        raise ValueError("y_norm must be unit-norm (normalize the targets first)")

    beta = _real_state_vector(beta_state)
    mapped = matrix @ beta
    mapped_norm = float(np.linalg.norm(mapped))
    if mapped_norm < SCALE_TOL:
        raise ValueError("S @ beta is numerically zero; cannot recover a scale")
    scale = 1.0 / mapped_norm
    sign = -1.0 if float(y @ mapped) < 0.0 else 1.0

    beta_ops = _beta_ops(beta, mode, shots)
    if beta_ops is not None:
        row_seeds = np.random.SeedSequence(seed).generate_state(dim)
    values = np.empty(dim)
    for k in range(1, dim + 1):
        encoding = encode_row(matrix, k)
        row_seed = int(row_seeds[k - 1]) if beta_ops is not None else None
        overlap = _overlap(encoding, beta, beta_ops, beta_state.n_qubits, shots, row_seed)
        values[k - 1] = sign * encoding.norm * overlap * scale
    return EstimateVector(values=values, scale=scale, sign=sign)
