"""Variational solver for ``S |beta> = |Y>`` over the statevector simulator.

The global cost ``C(theta) = 1 - |<Y|psi>|^2 / <psi|psi>`` with
``|psi> = S V(theta)|0>`` vanishes exactly when the prepared state solves
the (normalized) system, and it never needs S to be Hermitian, so the
bidiagonal spline matrix is solved directly.

Each point of a solve is one forward pass of :func:`_trial`, which returns
the trial state and a thunk for its Jacobian J_v that reuses the pass.  On
the rotation tree the pass gathers one cosine or sine per level and leaf
and takes their running product down the levels, and J_v is each level's
prefix times its factor's derivative times the running product of the
levels below, filled in with one fancy assignment; on the brick wall
column j of J_v is half the state at angle j + pi, from the state's own walk.
Each mode's cost lives in its point function, theta -> (cost, thunk), and
:func:`cost_global` is that function's cost.  Both modes take the cost
straight from psi = S v, as ``C = |r|^2 / d`` with ``d = psi . psi`` and the
residual ``r = P psi`` for the projector ``P = I - Y Y^T`` (:func:`_residual`):
the same number as ``1 - (Y . psi)^2 / d`` without its cancellation near a
solution.  That makes C = f . f for f = r / sqrt(d), a least-squares cost
whose minimum is 0, so each restart runs Levenberg-Marquardt steps
(Levenberg, 1944; Marquardt, 1963) built from the Jacobian of f, which
follows from those of psi and r, until the cost is at its rounding floor
len(f) eps^2 (``"floor"``), where float64 cannot tell it from 0.
Exact mode (:func:`_residual_point`) stacks S and P S once per solve, so one
product with v gives psi and r, and one with J_v gives their Jacobians
S J_v and P S J_v.  Shots mode (:func:`_shots_point`) samples psi and its
Jacobian and projects both: entry k of psi is |a_k| times the overlap of
the normalized row a_k of S with v, one Hadamard test, and one
:func:`sim.sample_rows` call draws all K of a point from the restart's
generator, so every evaluation sees fresh noise.  Its thunk samples the
same rows at the shifted states of the parameter-shift rule (Mitarai et
al., PRA 98, 032309, 2018; Schuld et al., PRA 99, 032331, 2019), which
:func:`_sampled_moves` reads off the point's v and J_v.
V(theta) is a rotation tree, or a brick wall of CZ and Ry layers with at
least twice the tree's 2^n - 1 angles; :func:`ansatz_ops` lists its gates,
which the tests run against the sampled overlaps.
The solver checks its own settings (:class:`SolveConfig`, :class:`AnsatzConfig`)
and says what it ran: ``VqlsSolution.optimizer``, :meth:`AnsatzConfig.record`
and ``SEEDING``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import sim
from .bspline import as_matrix

__all__ = [
    "AnsatzConfig",
    "SolveConfig",
    "VqlsSolution",
    "ansatz_ops",
    "ansatz_state_vector",
    "check_invertible",
    "check_mode",
    "cost_global",
    "solve",
]

MODES = ("exact", "shots")  # the cost from matrix algebra, or sampled from Hadamard tests
KINDS = ("tree", "layered")  # the trial-state circuits of AnsatzConfig
ENTANGLER = "brick-cz"  # CZ on pairs (0,1), (2,3), ... then (1,2), (3,4), ... in turn

# settings of the Levenberg-Marquardt loop of every restart
MAX_ITER = 10_000  # default cap on the Jacobians of one restart
STOP_COST = 1e-8  # a restart at or below this skips the remaining restarts
DAMPING_START = 1e-3  # Levenberg-Marquardt damping of a restart's first step
DAMPING_UP, DAMPING_DOWN = 4.0, 3.0  # its factors after a rejected and an accepted trial
DAMPING_FLOOR, DAMPING_CEILING = 1e-15, 1e16  # its least value, and where descent is lost
SINGULAR_COND = 1e12  # a larger cond counts as singular (determinants underflow)
SEEDING = ("numpy default_rng; restart i seeded by SeedSequence((seed, i)), "
           "which draws its start point and then, in shots mode, the shot noise "
           "of each of its evaluations in turn")


@dataclass(frozen=True)
class AnsatzConfig:
    """Shape of the trial-state circuit.

    ``tree`` (default) reuses the multiplexed-rotation template of
    amplitude encoding with free angles, which can express any real state
    exactly and takes encoding angles as a known-good parameter vector.
    ``layered`` is a brick wall: Ry on every qubit, then :attr:`layers`
    layers of [CZ on pairs (0,1), (2,3), ... in even layers and (1,2),
    (3,4), ... in odd ones, Ry on every qubit]; its real rotations sweep
    real unit vectors.  Its depth is the smallest with n(L + 1) >= 2(2^n - 1)
    angles, twice the real unit sphere's dimension: past the rank's saturation
    spurious minima fade (Larocca et al., Nat. Comput. Sci. 3, 542, 2023).
    """

    n_qubits: int
    kind: str = "tree"  # one of KINDS

    def __post_init__(self):
        sim.check_count("n_qubits", self.n_qubits, 1)
        if self.kind not in KINDS:
            raise ValueError(f"unknown ansatz kind {self.kind!r}; pick one of {', '.join(KINDS)}")
        # a numpy integer passes the check; the depth's shift and the JSON report take an int
        object.__setattr__(self, "n_qubits", int(self.n_qubits))

    @property
    def layers(self) -> int | None:
        """Entangling layers of the layered circuit; None for the tree."""
        n = self.n_qubits
        return -(-2 * ((1 << n) - 1) // n) - 1 if self.kind == "layered" else None

    @property
    def n_params(self) -> int:
        if self.kind == "tree":
            return sim.tree_angle_count(self.n_qubits)
        return self.n_qubits * (self.layers + 1)

    def record(self) -> dict:
        """The circuit's shape, as a fit report records it."""
        return {"kind": self.kind, "n_qubits": self.n_qubits, "layers": self.layers,
                "entangler": ENTANGLER if self.kind == "layered" else None,
                "n_params": self.n_params}


def _entangler_pairs(n_qubits: int, layer: int) -> tuple:
    """CZ pairs of entangling layer ``layer``: even pairs, then odd, in turn."""
    return tuple((q, q + 1) for q in range(layer % 2, n_qubits - 1, 2))


def _theta(config: AnsatzConfig, theta: Sequence[float]) -> np.ndarray:
    """``theta`` as a flat float array, after checking its length against the circuit's."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != config.n_params:
        raise ValueError(f"expected {config.n_params} parameters, got {theta.size}")
    return theta


def ansatz_ops(config: AnsatzConfig, theta: Sequence[float]) -> tuple:
    """Gate sequence of the trial circuit at the given parameters."""
    theta = _theta(config, theta)
    if config.kind == "tree":
        return sim.multiplexed_tree_ops(theta, config.n_qubits)
    n = config.n_qubits
    ops = [(sim.ry(theta[q]), (q,)) for q in range(n)]
    pos = n
    for layer in range(config.layers):
        ops.extend((sim.CZ, pair) for pair in _entangler_pairs(n, layer))
        ops.extend((sim.ry(theta[pos + q]), (q,)) for q in range(n))
        pos += n
    return tuple(ops)


@lru_cache(maxsize=16)
def _cz_mask(n_qubits: int, parity: int) -> np.ndarray:
    """Diagonal of the CZ layers of ``parity``, as a read-only sign vector."""
    signs = np.ones(1 << n_qubits)
    idx = np.arange(1 << n_qubits)
    for a, b in _entangler_pairs(n_qubits, parity):
        both = ((idx >> a) & 1) & ((idx >> b) & 1)
        signs = signs * np.where(both, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _brick_wall(config: AnsatzConfig, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Brick-wall states, one per column of the ``(P, B)`` tables ``cos`` and
    ``sin``: column b of the ``(2^n, B)`` result is V|0> with rotation j by
    the half angle of cosine ``cos[j, b]`` and sine ``sin[j, b]``."""
    n = config.n_qubits
    vecs = np.zeros((1 << n, cos.shape[1]))
    vecs[0] = 1.0
    for j in range(config.n_params):
        layer, q = divmod(j, n)
        if layer and not q:
            vecs *= _cz_mask(n, (layer - 1) % 2)[:, None]
        view = vecs.reshape(-1, 2, 1 << q, vecs.shape[1])
        lo, hi = view[:, 0], view[:, 1]
        turned = cos[j] * lo - sin[j] * hi
        hi[...] = sin[j] * lo + cos[j] * hi
        lo[...] = turned
    return vecs


@lru_cache(maxsize=16)
def _tree_index(n_qubits: int) -> tuple:
    """Index tables of the rotation tree, read-only: its ``(n + 1, 2^n)``
    gather into ``[1 | cos | sin]`` of its half angles, the ``(n, 2^n)``
    flat positions of the gathered factors in its ``(2^n, P)`` Jacobian, the
    mask of those positions, true where a leaf is in an angle's subtree, and
    the ``(n, 2^n)`` swap gather and signed halves of the factors' slopes.

    Row 0 of the gather picks the 1; row l + 1 picks, for each leaf, the
    factor that level l contributes on the leaf's path: for the angle of
    node ``leaf >> (n - l)`` of that level, its cosine where bit n - 1 - l
    of the leaf is 0 and its sine where it is 1.  That factor's position is
    leaf x P plus its angle.  The swap gather picks the other of the two,
    and times -1/2 for a cosine and 1/2 for a sine it is the factor's
    derivative in its angle.
    """
    n, dim = n_qubits, 1 << n_qubits
    leaves = np.arange(dim)
    level = np.arange(n)[:, None]
    angle = (1 << level) - 1 + (leaves >> (n - level))
    branch = (leaves >> (n - 1 - level)) & 1
    index = np.zeros((n + 1, dim), dtype=np.intp)
    index[1:] = 1 + angle + (dim - 1) * branch
    swap = 1 + angle + (dim - 1) * (1 - branch)
    halves = branch - 0.5
    cells = leaves * (dim - 1) + angle
    subtree = np.zeros((dim, dim - 1), dtype=bool)
    subtree.flat[cells] = True
    for table in (index, cells, subtree, swap, halves):
        table.flags.writeable = False
    return index, cells, subtree, swap, halves


_ONE = np.ones(1)


def _trial(config: AnsatzConfig, theta: np.ndarray) -> tuple:
    """Trial state V(theta)|0> from one forward pass, and a thunk for its
    Jacobian dv/dtheta, a ``(2^n, P)`` array, that reuses that pass.

    Both circuits rest on dRy(t)/dt = Ry(t + pi) / 2: the pair (cos(t/2), sin(t/2))
    moves along (-sin(t/2), cos(t/2)) / 2, the pair at t + pi halved.
    The tree's pass gathers ``[1 | cos | sin]`` of the half angles through
    :func:`_tree_index` and takes the running product of the factors down
    the levels, so row l of ``amps`` holds each leaf's prefix amplitude
    above level l and the last row is the state; the product runs in the
    order of the level by level walk, where the children of a node split its
    amplitude by the cosine and sine of its angle, so the state is bitwise
    the same.  Each leaf amplitude is a product of one factor per level, so
    its derivative in the angle of level l is (prefix above l) x (that
    factor at t + pi, halved) x (product of the factors below l); leaves off
    the angle's subtree stay 0.  The products below come from one running
    product up the levels, and as each (leaf, level) pair names a distinct
    angle, one fancy assignment fills the matrix.
    In the brick wall each angle sits in one gate, so column j is half the
    state with angle j's pair swapped to (-sin, cos), all columns from one
    :func:`_brick_wall`; each entry is bitwise the tangent that forward mode
    carries through the circuit, but for the sign of an exact zero.
    """
    n, n_params = config.n_qubits, config.n_params
    half = theta / 2.0
    cos, sin = np.cos(half), np.sin(half)
    if config.kind == "tree":
        index, cells, _, swap, halves = _tree_index(n)
        table = np.concatenate((_ONE, cos, sin))
        factors = table[index]
        amps = np.multiply.accumulate(factors, axis=0)

        def tree_jacobian() -> np.ndarray:
            dim = 1 << n
            # row l: the product of the factors of the levels below l
            below = np.empty((n, dim))
            below[-1] = 1.0
            np.multiply.accumulate(factors[:1:-1], axis=0, out=below[-2::-1])
            jacobian = np.zeros(dim * n_params)
            # each factor's derivative in its own angle: -sin/2 or cos/2
            jacobian[cells] = amps[:-1] * (table[swap] * halves) * below
            return jacobian.reshape(dim, n_params)

        return amps[-1], tree_jacobian

    def wall_jacobian() -> np.ndarray:
        # column j advances angle j by pi: (cos, sin) -> (-sin, cos), exactly
        cos_cols, sin_cols = np.tile(cos[:, None], n_params), np.tile(sin[:, None], n_params)
        np.fill_diagonal(cos_cols, -sin)
        np.fill_diagonal(sin_cols, cos)
        return _brick_wall(config, cos_cols, sin_cols) / 2.0

    return _brick_wall(config, cos[:, None], sin[:, None]).reshape(-1), wall_jacobian


def ansatz_state_vector(config: AnsatzConfig, theta: Sequence[float]) -> np.ndarray:
    """Real amplitude vector of the trial state, on the fast direct path."""
    return _trial(config, _theta(config, theta))[0]


# ----------------------------------------------------------------------------
# cost
# ----------------------------------------------------------------------------

def _y_vector(y) -> np.ndarray:
    """The raw target vector ``y``, normalized."""
    y = np.asarray(y, dtype=float).reshape(-1)
    norm = np.linalg.norm(y)
    if norm < 1e-300:
        raise ValueError("target vector is zero")
    return y / norm


def check_mode(mode: str) -> None:
    """Reject any mode but one of ``MODES``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick one of {', '.join(MODES)}")


def check_invertible(matrix: np.ndarray) -> float:
    """cond(matrix), after rejecting a singular one: not finite, or above ``SINGULAR_COND``."""
    cond = float(np.linalg.cond(matrix)) if np.all(np.isfinite(matrix)) else math.inf
    if cond > SINGULAR_COND:
        raise ValueError("system matrix is singular")
    return cond


def _project(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a`` less its part along the unit vector ``y``, (I - y y^T) a, for a
    vector or column by column for a matrix."""
    return a - np.multiply.outer(y, y @ a)


def _residual(psi: np.ndarray, residual: np.ndarray) -> tuple:
    """The cost C = f . f at ``psi``, f = r / sqrt(d), and a map from psi's
    Jacobian M and its projection P M to f and the Jacobian of f; the map is
    None, and C is 1, where psi vanishes.

    ``residual`` is r = P psi for the projector P = I - y y^T, and d =
    psi . psi, so the cost is C = (r . r) / d.  It equals 1 - (y . psi)^2 / d
    but keeps its digits near a solution, where that difference of two
    numbers close to 1 cannot go below about 1e-16.  Where psi moves along
    M, the residual moves along P M and sqrt(d) along psi^T M / sqrt(d), so
    J_f = (P M - r (psi^T M) / d) / sqrt(d).  Exact mode reads r and P M off
    the projected matrix P S; shots mode projects its sampled psi and M.
    """
    denom = float(psi @ psi)
    if denom < 1e-280:
        return 1.0, None

    def jacobian(moves: np.ndarray, projected: np.ndarray) -> tuple:
        scale = math.sqrt(denom)
        return (residual / scale,
                (projected - residual[:, None] * ((psi @ moves) / denom)) / scale)

    return min(float(residual @ residual) / denom, 1.0), jacobian


def _residual_point(matrix: np.ndarray, y: np.ndarray, config: AnsatzConfig) -> Callable:
    """Point function of the exact cost (:func:`_residual`) of psi = S v: a
    point is one forward pass, and its thunk returns f and the Jacobian of f
    there.  S and P S are stacked once, so one product with v gives psi and
    r, and one with J_v gives S J_v and P S J_v."""
    size = matrix.shape[0]
    stacked = np.concatenate((matrix, _project(y, matrix)))

    def point(theta: np.ndarray) -> tuple:
        state, state_jacobian = _trial(config, theta)
        both = stacked @ state
        cost, jacobian = _residual(both[:size], both[size:])
        if jacobian is None:
            raise ValueError("S V(theta)|0> vanished; the system matrix is singular")

        def residual_jacobian() -> tuple:
            moves = stacked @ state_jacobian()
            return jacobian(moves[:size], moves[size:])

        return cost, residual_jacobian

    return point


def _sampled_moves(config: AnsatzConfig, state: np.ndarray, jacobian: np.ndarray,
                   sample: Callable) -> np.ndarray:
    """Jacobian of psi by the parameter-shift rule, from ``sample``, which
    maps a ``(2^n, B)`` array of states to psi sampled at each, ``(K, B)``;
    ``state`` and ``jacobian`` are v and J_v from the point's :func:`_trial`.

    Advancing angle j by +-pi turns its half-angle pair (cos, sin) into
    +-(-sin, cos), exactly, which is +-2 times its derivative, so the
    shifted states are read off J_v.  Every amplitude of both circuits has
    frequency 1/2 in every angle, so dpsi/dtheta_j = [psi(theta + pi e_j) -
    psi(theta - pi e_j)] / 4; the tree samples its P advanced states, then
    its P retreated ones, each +-2 J_v on the leaves below angle j and v
    elsewhere.  On the brick wall each angle sits in one gate, so the
    advanced state is 2 J_v, the walls :func:`_trial` built, and those P
    suffice: dpsi/dtheta_j = psi(theta + pi e_j) / 2.  That one-shift form
    does not hold on the tree, whose leaves off angle j's subtree do not move.
    """
    shift = 2.0 * jacobian
    if config.kind == "layered":
        return sample(shift) / 2.0
    subtree = np.tile(_tree_index(config.n_qubits)[2], 2)
    shifted = sample(np.where(subtree, np.hstack((shift, -shift)), state[:, None]))
    return (shifted[:, :config.n_params] - shifted[:, config.n_params:]) / 4.0


def _shots_point(matrix: np.ndarray, y: np.ndarray, config: AnsatzConfig, shots: int,
                 rng: np.random.Generator) -> Callable:
    """Point function of the sampled cost: :func:`_residual` of psi sampled
    row by row, every draw from ``rng`` in turn.

    Entry k of psi = S v is |a_k| times the overlap of the normalized row
    a_k with v, a real overlap that one Hadamard test estimates; a point
    samples the K of them in one :func:`sim.sample_rows` call, and its
    thunk samples them at the shifted states of :func:`_sampled_moves` in
    one more.  The sampled psi is never clipped.  At an even shot count it
    can draw 0 in every row at once; that point costs 1, so as a trial it is
    rejected, and as a start its thunk returns f = 0 and J_f = 0, on which
    the loop's step rounds back to theta and ends the restart on
    ``"no descent"``.
    """
    def sample(states: np.ndarray) -> np.ndarray:
        return sim.sample_rows(matrix, states, shots, rng)

    def point(theta: np.ndarray) -> tuple:
        state, state_jacobian = _trial(config, theta)
        psi = sample(state[:, None])[:, 0]
        cost, jacobian = _residual(psi, _project(y, psi))

        def sampled_jacobian() -> tuple:
            moves = _sampled_moves(config, state, state_jacobian(), sample)
            if jacobian is None:
                return np.zeros_like(psi), np.zeros_like(moves)
            return jacobian(moves, _project(y, moves))

        return cost, sampled_jacobian

    return point


def cost_global(
    system,
    y,
    config: AnsatzConfig,
    theta: Sequence[float],
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> float:
    """Global VQLS cost at ``theta``; 0 exactly when S V(theta)|0> aligns with
    Y, the raw target vector ``y`` normalized.  It is the cost of the point
    function that :func:`solve` minimizes in ``mode``; in shots mode its
    draws come from ``default_rng(seed)``."""
    check_mode(mode)
    y, theta, matrix = _y_vector(y), _theta(config, theta), as_matrix(system)
    if mode == "exact":
        return _residual_point(matrix, y, config)(theta)[0]
    return _shots_point(matrix, y, config, shots, np.random.default_rng(seed))(theta)[0]


# ----------------------------------------------------------------------------
# optimization
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveConfig:
    """Sampling, iteration and restart settings for :func:`solve`; the shot
    count is checked in either mode."""

    mode: str = "exact"  # one of MODES
    shots: int = 10_000
    max_iter: int = MAX_ITER
    restarts: int = 5
    seed: int = 42

    def __post_init__(self):
        check_mode(self.mode)
        sim.check_shots(self.shots)
        for name, least in (("restarts", 1), ("max_iter", 1), ("seed", 0)):
            sim.check_count(name, getattr(self, name), least)


@dataclass(frozen=True)
class VqlsSolution:
    """Best restart of a variational solve.

    ``restarts`` holds one ``{"final_cost", "cost_rows", "gradients",
    "stop_reason"}`` record per restart run, in order; ``restarts_used``
    counts them.  ``gradients`` counts the Jacobians of the restart's
    Levenberg-Marquardt loop, and ``cost_rows`` the points its loop took
    plus, for each Jacobian, the points it evaluated: one in exact mode
    (the Jacobian's forward pass at an accepted point), and in shots mode
    the shifted points of the parameter-shift rule, 2P on the tree and P on
    the brick wall.  A shots row is K Hadamard tests.
    ``stop_reason`` is why the loop stopped: ``"floor"`` (the cost reached
    its rounding floor len(f) eps^2, for eps the float64 epsilon; in shots
    mode a sampled psi parallel to Y reads exactly 0), ``"no descent"`` (a
    trial rounded back to theta, or the damping passed ``DAMPING_CEILING``)
    or ``"max_iter"``.  The fit report, not the solver, judges the fit and
    sums the records' counts.
    ``cost_trace`` is the best restart's; it strictly decreases, so it ends
    at the lowest final cost.
    ``condition_number`` is cond of the matrix :func:`solve` was given, from
    its singularity check.  ``optimizer`` is the loop that ran, ``{"name",
    "max_iter", "restarts"}``, ``"levenberg-marquardt"`` in both modes.
    """

    theta: np.ndarray
    beta_state: sim.QuantumState
    cost_trace: tuple
    condition_number: float
    restarts: tuple
    optimizer: dict

    @property
    def restarts_used(self) -> int:
        return len(self.restarts)


def _levenberg_marquardt(point: Callable, theta0: np.ndarray, max_iter: int) -> tuple:
    """Damped Gauss-Newton descent on a cost C = f . f of residual f.

    Each iteration takes the Jacobian J of f at theta and tries the step
    d solving (J^T J + lam I) d = -J^T f; it accepts the first trial that
    strictly lowers the cost, so the recorded trace strictly decreases.
    The damping lam starts at ``DAMPING_START``, grows by ``DAMPING_UP``
    after each rejected trial (a singular system counts as one) and shrinks
    by ``DAMPING_DOWN`` after each accepted step, to no less than
    ``DAMPING_FLOOR``.  ``point(x)`` returns the cost at x and a thunk for
    ``(f, J)`` there, which runs for the start and for every accepted step,
    so a rejected trial builds only its state.  The loop ends once the
    cost is at or below len(f) eps^2, checked as each Jacobian returns f:
    each entry of f is a difference of numbers of size about 1 and carries
    an error of about eps (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, ch. 3), so a cost below that bound is rounding, and
    a step there only trades one rounding for another; a sampled cost gets
    there only at exactly 0, where f = 0 makes the step 0.  Returns the end
    point, its cost, the trace, why the loop stopped (``"floor"``: the cost
    reached that bound; ``"no descent"``: a trial rounds back to theta, or
    lam passes ``DAMPING_CEILING``; or ``"max_iter"``, after ``max_iter``
    Jacobians) and the numbers of points and of Jacobians taken.
    """
    theta = theta0.astype(float).copy()
    cost, jacobian = point(theta)
    points, jacobians = 1, 0
    trace = [cost]
    damping = DAMPING_START
    eps2 = np.finfo(float).eps ** 2
    while jacobians < max_iter:
        residual, jac = jacobian()
        jacobians += 1
        if cost <= residual.size * eps2:
            return theta, cost, trace, "floor", points, jacobians
        descent, normal = -(jac.T @ residual), jac.T @ jac
        # J^T J + lam I, damped in place on a view of its diagonal
        gram, diagonal = normal.diagonal().copy(), normal.reshape(-1)[::theta.size + 1]
        while True:
            np.add(gram, damping, out=diagonal)
            try:
                step = np.linalg.solve(normal, descent)
            except np.linalg.LinAlgError:
                new_cost = math.inf
            else:
                candidate = theta + step
                if candidate.tobytes() == theta.tobytes():
                    return theta, cost, trace, "no descent", points, jacobians
                new_cost, new_jacobian = point(candidate)
                points += 1
            if new_cost < cost:
                break
            damping *= DAMPING_UP
            if damping > DAMPING_CEILING:
                return theta, cost, trace, "no descent", points, jacobians
        damping = max(damping / DAMPING_DOWN, DAMPING_FLOOR)
        theta, cost, jacobian = candidate, new_cost, new_jacobian
        trace.append(cost)
    return theta, cost, trace, "max_iter", points, jacobians


def solve(
    system,
    y,
    config: SolveConfig | None = None,
    ansatz: AnsatzConfig | None = None,
) -> VqlsSolution:
    """Minimize the global cost over restarts and return the best solution.

    ``y`` is the raw target vector; it is normalized here.
    Restart i draws its starting point from the substream (seed, i); results
    merge by lowest final cost with the earlier restart winning ties, and
    the loop stops early once a restart lands below ``STOP_COST``.
    """
    cfg = config or SolveConfig()
    matrix = as_matrix(system)
    dim = matrix.shape[0]
    n = sim.qubit_count(dim)
    condition_number = check_invertible(matrix)
    ans = ansatz or AnsatzConfig(n_qubits=n)
    if ans.n_qubits != n:
        raise ValueError(f"ansatz spans {ans.n_qubits} qubits, system needs {n}")
    y_vec = _y_vector(y)
    if y_vec.size != dim:
        raise ValueError(f"target has length {y_vec.size}, system is {dim}x{dim}")

    if cfg.mode == "exact":
        point, jacobian_rows = _residual_point(matrix, y_vec, ans), 1
    else:
        jacobian_rows = (2 if ans.kind == "tree" else 1) * ans.n_params

    best = None
    records = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, restart)))
        theta0 = rng.uniform(0.0, 2.0 * math.pi, ans.n_params)
        if cfg.mode == "shots":
            point = _shots_point(matrix, y_vec, ans, cfg.shots, rng)
        theta, cost, trace, reason, points, gradients = _levenberg_marquardt(
            point, theta0, cfg.max_iter)
        records.append({"final_cost": float(cost),
                        "cost_rows": points + jacobian_rows * gradients,
                        "gradients": gradients, "stop_reason": reason})
        if best is None or cost < best[1]:
            best = (theta, cost, trace)
        if best[1] <= STOP_COST:
            break

    theta, _, trace = best
    return VqlsSolution(
        theta=theta,
        beta_state=sim.QuantumState(n, ansatz_state_vector(ans, theta).astype(complex)),
        cost_trace=tuple(float(c) for c in trace),
        condition_number=condition_number,
        restarts=tuple(records),
        optimizer={"name": "levenberg-marquardt", "max_iter": cfg.max_iter,
                   "restarts": cfg.restarts},
    )
