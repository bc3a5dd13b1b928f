"""Variational solver for ``S |beta> = |Y>`` over the statevector simulator.

The global cost ``C(theta) = 1 - |<Y|psi>|^2 / <psi|psi>`` with
``|psi> = S V(theta)|0>`` vanishes exactly when the prepared state solves
the (normalized) system, and it never needs S to be Hermitian, so the
bidiagonal spline matrix is solved directly.

Exact mode evaluates the cost straight from matrix algebra.  Shots mode
assembles the same quantity from the overlaps that Hadamard tests over pairs
of terms of an LCU decomposition of S estimate: the term states A_l V|0> give
every pair in one Gram product, and :func:`sim.sample_overlap` adds each
test's shot noise.  The noise is frozen per restart so a run is reproducible
and the optimizer sees a fixed landscape.  :func:`ansatz_ops` is the trial
circuit gate by gate; the tests check the shots cost against the circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from . import sim
from .bspline import as_matrix
from .decomp import pauli_decompose

__all__ = [
    "AnsatzConfig",
    "SolveConfig",
    "VqlsSolution",
    "default_layers",
    "ansatz_ops",
    "ansatz_state",
    "ansatz_state_vector",
    "cost_global",
    "solve",
]

ENTANGLER = "linear-cz"  # CZ on each neighbouring pair (q, q+1)

# step sizes and stopping thresholds of the descent loop, in both modes
LEARNING_RATE = 0.1
FD_STEP = 1e-4
TOL = 1e-9  # stop once an accepted step improves the cost by less
STOP_COST = 1e-8  # good enough to skip the remaining restarts
SUCCESS_COST = 1e-3  # below this the solve counts as converged


def default_layers(n_qubits: int) -> int:
    """Entangling blocks used when the caller does not pick a count.

    One fewer than the qubit count keeps the parameter total at n*n
    (16 parameters for the four-qubit spline systems), enough to cover a
    real state of the same dimension.
    """
    return max(0, n_qubits - 1)


@dataclass(frozen=True)
class AnsatzConfig:
    """Shape of the trial-state circuit.

    ``layered`` (default) is an initial Ry rotation on every qubit followed
    by ``layers`` blocks of [CZ on each neighbouring pair, Ry on every
    qubit]; all rotations are real, so the circuit sweeps real unit vectors.
    ``tree`` reuses the multiplexed-rotation template of amplitude encoding
    with free angles, which can express any real state exactly and accepts
    encoding angles as a known-good parameter vector.
    """

    n_qubits: int
    layers: int | None = None
    kind: str = "layered"  # "layered" | "tree"

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.kind not in ("layered", "tree"):
            raise ValueError(f"unknown ansatz kind {self.kind!r}")
        if self.layers is not None and self.layers < 0:
            raise ValueError("layers must be non-negative")

    @property
    def resolved_layers(self) -> int:
        return default_layers(self.n_qubits) if self.layers is None else self.layers

    @property
    def n_params(self) -> int:
        if self.kind == "tree":
            return sim.tree_angle_count(self.n_qubits)
        return self.n_qubits * (self.resolved_layers + 1)


def _entangler_pairs(n_qubits: int) -> tuple:
    return tuple((q, q + 1) for q in range(n_qubits - 1))


def ansatz_ops(config: AnsatzConfig, theta: Sequence[float]) -> tuple:
    """Gate sequence of the trial circuit at the given parameters."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != config.n_params:
        raise ValueError(f"expected {config.n_params} parameters, got {theta.size}")
    if config.kind == "tree":
        return sim.multiplexed_tree_ops(theta, config.n_qubits)
    n = config.n_qubits
    ops = [(sim.ry(theta[q]), (q,)) for q in range(n)]
    pos = n
    for _ in range(config.resolved_layers):
        ops.extend((sim.CZ, pair) for pair in _entangler_pairs(n))
        ops.extend((sim.ry(theta[pos + q]), (q,)) for q in range(n))
        pos += n
    return tuple(ops)


@lru_cache(maxsize=8)
def _cz_mask(n_qubits: int) -> np.ndarray:
    signs = np.ones(1 << n_qubits)
    idx = np.arange(1 << n_qubits)
    for a, b in _entangler_pairs(n_qubits):
        both = ((idx >> a) & 1) & ((idx >> b) & 1)
        signs = signs * np.where(both, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _rotate_inplace(vec: np.ndarray, qubit: int, theta: float) -> None:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    view = vec.reshape(-1, 2, 1 << qubit)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = c * lo - s * hi
    view[:, 1, :] = s * lo + c * hi


def ansatz_state_vector(config: AnsatzConfig, theta: Sequence[float]) -> np.ndarray:
    """Real amplitude vector of the trial state, on the fast direct path."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != config.n_params:
        raise ValueError(f"expected {config.n_params} parameters, got {theta.size}")
    n = config.n_qubits
    if config.kind == "tree":
        # walk the rotation tree: children split the parent amplitude
        amps = np.array([1.0])
        pos = 0
        for level in range(n):
            width = 1 << level
            angles = theta[pos : pos + width]
            pos += width
            c, s = np.cos(angles / 2.0), np.sin(angles / 2.0)
            amps = np.stack([amps * c, amps * s], axis=1).reshape(-1)
        return amps
    vec = np.zeros(1 << n)
    vec[0] = 1.0
    for q in range(n):
        _rotate_inplace(vec, q, theta[q])
    mask = _cz_mask(n) if n > 1 else None
    pos = n
    for _ in range(config.resolved_layers):
        if mask is not None:
            vec *= mask
        for q in range(n):
            _rotate_inplace(vec, q, theta[pos + q])
        pos += n
    return vec


def ansatz_state(config: AnsatzConfig, theta: Sequence[float]) -> sim.QuantumState:
    return sim.QuantumState(config.n_qubits, ansatz_state_vector(config, theta).astype(complex))


# ----------------------------------------------------------------------------
# cost
# ----------------------------------------------------------------------------

def _y_vector(y_state) -> np.ndarray:
    if isinstance(y_state, sim.QuantumState):
        amps = y_state.amplitudes
        if np.max(np.abs(amps.imag)) > 1e-12:
            raise ValueError("target state must be real")
        return amps.real
    y = np.asarray(y_state, dtype=float).reshape(-1)
    norm = np.linalg.norm(y)
    if norm < 1e-300:
        raise ValueError("target vector is zero")
    return y / norm


def _exact_cost(matrix: np.ndarray, y: np.ndarray, config: AnsatzConfig, theta) -> float:
    v = ansatz_state_vector(config, theta)
    psi = matrix @ v
    denom = float(psi @ psi)
    if denom < 1e-280:
        raise ValueError("S V(theta)|0> vanished; the system matrix is singular")
    overlap = float(y @ psi)
    cost = 1.0 - (overlap * overlap) / denom
    return min(max(cost, 0.0), 1.0)


def _lcu_arrays(matrix: np.ndarray) -> tuple:
    """Coefficients and stacked real unitaries of the Pauli LCU of ``matrix``."""
    lcu = pauli_decompose(matrix)
    return lcu.coefficients(), np.array([t.matrix().real for t in lcu.terms])


def _shots_cost(
    lcu: tuple,
    y: np.ndarray,
    config: AnsatzConfig,
    theta,
    shots: int,
    seed,
) -> float:
    """Sampled assembly of the global cost from Hadamard-test overlaps.

    Numerator overlaps gamma_l = <Y|A_l V|0> and denominator terms
    <0|V^dag A_l^dag A_m V|0> are all real because every unitary involved is
    real, so one real-part test per pair suffices.  Seeds follow one
    ``SeedSequence(seed)`` stream: the gammas first, then the pairs l < m.
    """
    coeffs, unitaries = lcu
    phi = unitaries @ ansatz_state_vector(config, theta)
    gram = phi @ phi.T
    n_terms = len(coeffs)
    seeds = np.random.SeedSequence(seed).generate_state(
        n_terms + n_terms * (n_terms - 1) // 2
    )
    stream = iter(int(s) for s in seeds)

    gammas = np.array([sim.sample_overlap(g, shots, next(stream)) for g in phi @ y])
    numerator = float(coeffs @ gammas) ** 2

    denominator = float(coeffs @ coeffs)  # diagonal pairs are exactly 1
    for l in range(n_terms):
        for m in range(l + 1, n_terms):
            est = sim.sample_overlap(gram[l, m], shots, next(stream))
            denominator += 2.0 * coeffs[l] * coeffs[m] * est
    if denominator <= 0.0:
        # heavy shot noise can push the estimate out of range; clip hard
        return 1.0
    return float(min(max(1.0 - numerator / denominator, 0.0), 1.0))


def cost_global(
    system,
    y_state,
    config: AnsatzConfig,
    theta: Sequence[float],
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> float:
    """Global VQLS cost at ``theta``; 0 exactly when S V(theta)|0> aligns with Y."""
    y = _y_vector(y_state)
    if mode == "exact":
        return _exact_cost(as_matrix(system), y, config, theta)
    if mode == "shots":
        if not shots or shots < 1:
            raise ValueError("shots mode needs a positive shot count")
        return _shots_cost(_lcu_arrays(as_matrix(system)), y, config, theta, shots, seed)
    raise ValueError(f"unknown mode {mode!r}")


# ----------------------------------------------------------------------------
# optimization
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveConfig:
    """Sampling, iteration and restart settings for :func:`solve`."""

    mode: str = "exact"  # "exact" | "shots"
    shots: int = 10_000
    max_iter: int = 2000
    restarts: int = 5
    seed: int = 42

    def __post_init__(self):
        if self.mode not in ("exact", "shots"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class VqlsSolution:
    """Best restart of a variational solve."""

    theta: np.ndarray
    beta_state: sim.QuantumState
    final_cost: float
    cost_trace: tuple
    converged: bool
    restarts_used: int
    seed: int
    ansatz: AnsatzConfig


def _fd_gradient(f: Callable, theta: np.ndarray, step: float) -> np.ndarray:
    grad = np.empty_like(theta)
    for i in range(theta.size):
        probe = theta.copy()
        probe[i] = theta[i] + step
        hi = f(probe)
        probe[i] = theta[i] - step
        lo = f(probe)
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def _descend(f: Callable, theta0: np.ndarray, max_iter: int):
    """First-order descent with central differences and backtracking halving.

    The trial step starts from a Barzilai-Borwein estimate when history is
    available (plain learning rate otherwise) and is halved until the cost
    actually decreases, so the recorded trace is non-increasing.
    """
    theta = theta0.astype(float).copy()
    cost = f(theta)
    trace = [cost]
    prev_theta = None
    prev_grad = None
    for _ in range(max_iter):
        grad = _fd_gradient(f, theta, FD_STEP)
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0 or not np.isfinite(gnorm2):
            break
        alpha = LEARNING_RATE
        if prev_grad is not None:
            s = theta - prev_theta
            dg = grad - prev_grad
            curv = float(s @ dg)
            if curv > 1e-300:
                bb = float(s @ s) / curv
                if np.isfinite(bb) and bb > 0.0:
                    alpha = min(max(bb, 1e-6), 1e3)
        accepted = None
        for _ in range(60):
            candidate = theta - alpha * grad
            c_new = f(candidate)
            if c_new < cost:
                accepted = (candidate, c_new)
                break
            alpha *= 0.5
        if accepted is None:
            break
        prev_theta, prev_grad = theta, grad
        theta, new_cost = accepted
        improvement = cost - new_cost
        cost = new_cost
        trace.append(cost)
        if cost <= 1e-15 or improvement < TOL:
            break
    return theta, cost, trace


def _minimize_gd(f: Callable, theta0: np.ndarray, max_iter: int):
    """Gradient descent, then a quasi-Newton polish with the same gradients.

    The spline systems are ill-conditioned (squared condition number near
    1e8 for 16 knots), so step-halving descent stalls in a narrow curved
    valley where per-step improvement drops below ``TOL`` long before the
    basin floor.  A BFGS pass fed by the identical central-difference
    gradients models that curvature and keeps descending; a short descent
    re-run between passes restarts the step-size history.  The returned
    trace stays non-increasing because only improvements are appended.
    """
    theta, cost, trace = _descend(f, theta0, max_iter)
    for _ in range(2):
        if cost <= STOP_COST:
            break
        result = optimize.minimize(
            f,
            theta,
            jac=lambda x: _fd_gradient(f, x, FD_STEP),
            method="BFGS",
            options={"maxiter": max_iter, "gtol": 1e-14},
        )
        polished = float(result.fun)
        if np.isfinite(polished) and polished < cost:
            theta, cost = np.asarray(result.x, dtype=float), polished
            trace.append(cost)
        theta2, cost2, _ = _descend(f, theta, max(max_iter // 4, 1))
        if cost2 < cost:
            theta, cost = theta2, cost2
            trace.append(cost)
    return theta, cost, trace


def solve(
    system,
    y,
    config: SolveConfig | None = None,
    ansatz: AnsatzConfig | None = None,
) -> VqlsSolution:
    """Minimize the global cost over restarts and return the best solution.

    ``y`` may be a raw vector (it is normalized here) or a QuantumState.
    Restart i draws its starting point from the substream (seed, i); results
    merge by lowest final cost with the earlier restart winning ties, and
    the loop stops early once a restart lands below ``STOP_COST``.
    """
    cfg = config or SolveConfig()
    matrix = as_matrix(system)
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"system dimension must be a power of two >= 2, got {dim}")
    # determinants underflow for larger grids, so gauge invertibility by
    # conditioning instead
    if not np.all(np.isfinite(matrix)) or np.linalg.cond(matrix) > 1e12:
        raise ValueError("system matrix is singular")
    ans = ansatz or AnsatzConfig(n_qubits=n)
    if ans.n_qubits != n:
        raise ValueError(f"ansatz spans {ans.n_qubits} qubits, system needs {n}")
    y_vec = _y_vector(y)
    if y_vec.size != dim:
        raise ValueError(f"target has length {y_vec.size}, system is {dim}x{dim}")

    lcu = _lcu_arrays(matrix) if cfg.mode == "shots" else None

    best = None
    restarts_used = 0
    for restart in range(cfg.restarts):
        restarts_used = restart + 1
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, restart)))
        theta0 = rng.uniform(0.0, 2.0 * math.pi, ans.n_params)
        if cfg.mode == "exact":
            f = lambda t: _exact_cost(matrix, y_vec, ans, t)
        else:
            noise_seed = int(rng.integers(0, 2**31 - 1))
            f = lambda t: _shots_cost(lcu, y_vec, ans, t, cfg.shots, noise_seed)
        theta, cost, trace = _minimize_gd(f, theta0, cfg.max_iter)
        if best is None or cost < best[1]:
            best = (theta, cost, trace)
        if best[1] <= STOP_COST:
            break

    theta, cost, trace = best
    return VqlsSolution(
        theta=theta,
        beta_state=ansatz_state(ans, theta),
        final_cost=float(cost),
        cost_trace=tuple(float(c) for c in trace),
        converged=bool(cost <= SUCCESS_COST),
        restarts_used=restarts_used,
        seed=cfg.seed,
        ansatz=ans,
    )
