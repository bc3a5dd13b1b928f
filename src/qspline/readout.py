"""Inner-product readout: turn a solved state back into curve values.

Each fitted point is the overlap of the solution state with the matching
normalized row of the design matrix, rescaled by the classically known row
norm and by the length of ``S @ beta`` so the result lands in normalized
target units.  A global sign is fixed against the target vector because the
variational solve only pins the solution ray, not its orientation.

Exact mode reads the overlaps straight off ``S @ beta``.  Shots mode gives
each one the noise of a Hadamard test between the encoded row and the
encoded state, all rows drawn together from one seeded generator by
:func:`sim.sample_overlap`; the tests check it against the per-row circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sim, vqls
from .bspline import as_matrix

__all__ = ["EstimateVector", "recover_estimates"]

IMAG_TOL = 1e-8
SCALE_TOL = 1e-12


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
    Shots mode samples every row's overlap ``(S beta)_k / |x_k|`` in one
    :func:`sim.sample_overlap` call seeded with ``seed``, row k taking the
    generator's k-th draw; the sampler checks ``shots``.
    """
    matrix = as_matrix(system)
    dim = matrix.shape[0]
    y = np.asarray(y_norm, dtype=float).reshape(-1)
    if y.size != dim:
        raise ValueError(f"target has length {y.size}, system is {dim}x{dim}")
    if abs(float(np.linalg.norm(y)) - 1.0) > 1e-8:
        raise ValueError("y_norm must be unit-norm (normalize the targets first)")

    vqls.check_mode(mode)
    # row by row, the same arithmetic as normalizing each row for its circuit
    row_norms = np.array([float(np.linalg.norm(row)) for row in matrix])
    for k, norm in enumerate(row_norms, start=1):
        if norm < SCALE_TOL:
            raise ValueError(f"row {k} is zero and cannot be normalized")

    beta = _real_state_vector(beta_state)
    mapped = matrix @ beta
    mapped_norm = float(np.linalg.norm(mapped))
    if mapped_norm < SCALE_TOL:
        raise ValueError("S @ beta is numerically zero; cannot recover a scale")
    scale = 1.0 / mapped_norm
    sign = -1.0 if float(y @ mapped) < 0.0 else 1.0

    if mode == "exact":
        return EstimateVector(values=sign * mapped * scale, scale=scale, sign=sign)
    values = sign * row_norms * sim.sample_overlap(mapped / row_norms, shots, seed) * scale
    return EstimateVector(values=values, scale=scale, sign=sign)
