"""Dense statevector simulator for small registers.

Conventions used throughout the package:

* qubit 0 is the least significant bit of the amplitude index (little-endian),
  so ``|q_{n-1} ... q_1 q_0>`` maps to index ``sum(q_k << k)``
* ``Ry(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]``

Everything is a pure function over immutable values.  Registers stay tiny
(the fitting pipeline never needs more than six qubits), so gates are applied
by reshaping the dense amplitude vector rather than by sparse tricks.

The fitting pipeline reads every overlap as a dot product of statevectors
and draws the shot estimates of one evaluation together, from one seeded
generator, with :func:`sample_overlap`; :func:`sample_rows` draws so the
row overlaps of a matrix, for the shots cost and the readout alike.  The
circuits (:func:`amplitude_encode`, :func:`controlled_ops`,
:func:`hadamard_test`) are the gate-level reference the tests hold them to;
the sampled Hadamard test makes the same draw from its ancilla probability
as the first element of :func:`sample_overlap` with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Gate",
    "QuantumState",
    "Preparation",
    "X",
    "Y",
    "Z",
    "H",
    "CX",
    "CZ",
    "T",
    "RY_3PI",
    "ry",
    "phase",
    "controlled",
    "dagger",
    "zero_state",
    "apply_gate",
    "apply_ops",
    "amplitude_encode",
    "multiplexed_tree_ops",
    "tree_angle_count",
    "controlled_ops",
    "hadamard_test",
    "sample_overlap",
    "sample_rows",
    "check_count",
    "check_shots",
    "qubit_count",
    "MAX_SHOTS",
]

MAX_SHOTS = 2**63 - 1  # numpy's binomial sampler takes an int64 count
_UNITARY_TOL = 1e-12
_NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Gate:
    """A named 1- or 2-qubit unitary."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate {self.name!r} must be 2x2 or 4x4, got {m.shape}")
        err = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if err > _UNITARY_TOL:
            raise ValueError(f"gate {self.name!r} is not unitary (deviation {err:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_qubits(self) -> int:
        return 1 if self.matrix.shape == (2, 2) else 2


def ry(theta: float) -> Gate:
    """Rotation about Y: [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return Gate(f"Ry({theta:g})", np.array([[c, -s], [s, c]]))


def phase(theta: float) -> Gate:
    """Phase gate diag(1, exp(i*theta))."""
    return Gate(f"P({theta:g})", np.diag([1.0, np.exp(1j * theta)]))


def controlled(gate: Gate) -> Gate:
    """Controlled version of a 1-qubit gate; the first target is the control."""
    if gate.n_qubits != 1:
        raise ValueError(f"can only control 1-qubit gates, got {gate.name!r}")
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = gate.matrix
    return Gate(f"C{gate.name}", m)


def dagger(gate: Gate) -> Gate:
    return Gate(f"{gate.name}+", gate.matrix.conj().T)


X = Gate("X", np.array([[0.0, 1.0], [1.0, 0.0]]))
Y = Gate("Y", np.array([[0.0, -1.0j], [1.0j, 0.0]]))
Z = Gate("Z", np.diag([1.0, -1.0]))
H = Gate("H", np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
T = phase(math.pi / 4)
CX = controlled(X)
CZ = controlled(Z)
# Ry(3*pi) equals i*Y; it shows up as the fourth unitary of the 2x2 block
# decomposition and when folding signs of Pauli terms into real gates.
RY_3PI = ry(3 * math.pi)

# (gate, targets) pairs; an empty sequence is the identity
GateSequence = Sequence


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Unit-norm amplitude vector over ``2**n_qubits`` basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if a.size != 1 << self.n_qubits:
            raise ValueError(f"expected {1 << self.n_qubits} amplitudes, got {a.size}")
        drift = abs(np.linalg.norm(a) - 1.0)
        if drift > _NORM_TOL:
            raise ValueError(f"state norm drifted by {drift:.3e}")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def zero_state(n_qubits: int) -> QuantumState:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def apply_gate(state: QuantumState, gate: Gate, targets: int | Sequence[int]) -> QuantumState:
    """Apply ``gate`` to ``targets``; ``targets[0]`` is the high bit of the gate index."""
    if isinstance(targets, (int, np.integer)):
        targets = (int(targets),)
    targets = tuple(int(t) for t in targets)
    n = state.n_qubits
    if len(targets) != gate.n_qubits:
        raise ValueError(f"{gate.name} wants {gate.n_qubits} targets, got {targets}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise IndexError(f"targets {targets} out of range for {n} qubits")

    k = len(targets)
    psi = state.amplitudes.reshape((2,) * n)
    # qubit q lives on axis n-1-q of the reshaped tensor
    axes = [n - 1 - q for q in targets]
    psi = np.moveaxis(psi, axes, range(k))
    psi = (gate.matrix @ psi.reshape(1 << k, -1)).reshape((2,) * n)
    psi = np.moveaxis(psi, range(k), axes)
    return QuantumState(n, psi.reshape(-1))


def apply_ops(state: QuantumState, ops: GateSequence) -> QuantumState:
    for gate, targets in ops:
        state = apply_gate(state, gate, targets)
    return state


# ----------------------------------------------------------------------------
# amplitude encoding (multiplexed Ry rotations, real vectors)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Preparation:
    """Result of :func:`amplitude_encode`: the state plus the circuit realizing it."""

    state: QuantumState
    ops: tuple


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _multiplexed_ry_ops(alphas: Sequence[float], controls: tuple, target: int) -> list:
    """Gray-code ladder applying Ry(alphas[j]) to ``target`` for control state j.

    ``controls[0]`` holds the most significant bit of the control index j.
    With no controls this is a single rotation.
    """
    k = len(controls)
    if k == 0:
        return [(ry(alphas[0]), (target,))]
    m = 1 << k
    thetas = []
    for i in range(m):
        g = _gray(i)
        acc = sum(-a if (j & g).bit_count() % 2 else a for j, a in enumerate(alphas))
        thetas.append(acc / m)
    ops = []
    for i in range(m):
        ops.append((ry(thetas[i]), (target,)))
        flipped = _gray(i) ^ _gray((i + 1) % m)
        bit = flipped.bit_length() - 1
        ops.append((CX, (controls[k - 1 - bit], target)))
    return ops


def tree_angle_count(n_qubits: int) -> int:
    """Angles in the rotation tree over ``n_qubits``: one per internal node."""
    return (1 << n_qubits) - 1


def multiplexed_tree_ops(angles: Sequence[float], n_qubits: int) -> tuple:
    """Circuit for the binary rotation tree used by amplitude encoding.

    ``angles`` holds level 0 first (one angle for qubit n-1), then the two
    angles of level 1, and so on; ``2**n - 1`` angles in total.  Only Ry and
    CX gates are emitted, which keeps the sequence easy to control.
    """
    angles = np.asarray(angles, dtype=float).reshape(-1)
    if angles.size != tree_angle_count(n_qubits):
        raise ValueError(
            f"rotation tree over {n_qubits} qubits needs "
            f"{tree_angle_count(n_qubits)} angles, got {angles.size}"
        )
    ops: list = []
    pos = 0
    for level in range(n_qubits):
        width = 1 << level
        alphas = angles[pos : pos + width]
        pos += width
        target = n_qubits - 1 - level
        controls = tuple(range(n_qubits - 1, target, -1))
        ops.extend(_multiplexed_ry_ops(alphas, controls, target))
    return tuple(ops)


def tree_angles(vector: np.ndarray) -> np.ndarray:
    """Rotation-tree angles that prepare ``vector / ||vector||`` exactly.

    Interior levels split on block norms; the leaf level uses atan2 on the
    signed pair, which is where negative amplitudes are produced.
    """
    v = np.asarray(vector, dtype=float).reshape(-1)
    n = qubit_count(v.size)
    angles = []
    for level in range(n):
        blocks = v.reshape(1 << level, -1)
        for row in blocks:
            half = row.size // 2
            if level == n - 1:
                angles.append(2.0 * math.atan2(row[1], row[0]))
            else:
                lo = float(np.linalg.norm(row[:half]))
                hi = float(np.linalg.norm(row[half:]))
                angles.append(2.0 * math.atan2(hi, lo))
    return np.array(angles)


def amplitude_encode(vector: Sequence[float]) -> Preparation:
    """Prepare a real vector as a quantum state and return the circuit for it.

    The input must have power-of-two length (callers zero-pad beforehand) and
    nonzero norm.  Complex input is rejected; signs of real amplitudes are
    honored exactly, not just up to phase.
    """
    v = np.asarray(vector)
    if np.iscomplexobj(v):
        if np.max(np.abs(v.imag)) > 0:
            raise ValueError("amplitude encoding supports real vectors only")
        v = v.real
    v = np.asarray(v, dtype=float).reshape(-1)
    n = qubit_count(v.size)
    norm = np.linalg.norm(v)
    if norm < 1e-300:
        raise ValueError("cannot encode the zero vector")
    ops = multiplexed_tree_ops(tree_angles(v / norm), n)
    state = apply_ops(zero_state(n), ops)
    return Preparation(state=state, ops=ops)


# ----------------------------------------------------------------------------
# controlled synthesis and the Hadamard test
# ----------------------------------------------------------------------------

_T_DG = dagger(T)


def _ccx_ops(a: int, b: int, c: int) -> list:
    """Toffoli on (controls a, b; target c) out of 1- and 2-qubit gates."""
    return [
        (H, (c,)),
        (CX, (b, c)),
        (_T_DG, (c,)),
        (CX, (a, c)),
        (T, (c,)),
        (CX, (b, c)),
        (_T_DG, (c,)),
        (CX, (a, c)),
        (T, (b,)),
        (T, (c,)),
        (CX, (a, b)),
        (H, (c,)),
        (T, (a,)),
        (_T_DG, (b,)),
        (CX, (a, b)),
    ]


def controlled_ops(ops: GateSequence, control: int) -> list:
    """Promote a gate sequence to its version controlled on ``control``.

    Controlling every gate of a product controls the product.  1-qubit gates
    gain the control directly; CX and CZ become Toffoli-style constructions
    so no gate wider than two qubits is ever needed.
    """
    out: list = []
    for gate, targets in ops:
        targets = (targets,) if isinstance(targets, (int, np.integer)) else tuple(targets)
        if control in targets:
            raise ValueError(f"control qubit {control} collides with targets {targets}")
        if gate.n_qubits == 1:
            out.append((controlled(gate), (control, targets[0])))
        elif np.array_equal(gate.matrix, CX.matrix):
            out.extend(_ccx_ops(control, targets[0], targets[1]))
        elif np.array_equal(gate.matrix, CZ.matrix):
            a, b = targets
            out.append((H, (b,)))
            out.extend(_ccx_ops(control, a, b))
            out.append((H, (b,)))
        else:
            raise ValueError(f"cannot synthesize a controlled {gate.name!r}")
    return out


def hadamard_test(
    prep_left: GateSequence,
    prep_right: GateSequence,
    n_qubits: int,
    shots: int | None = None,
    seed: int | None = None,
) -> float:
    """Estimate ``Re <0| U_left^dag U_right |0>`` with one ancilla.

    ``prep_left`` and ``prep_right`` are gate sequences over ``n_qubits``
    qubits; the circuit width is ``n_qubits + 1``.  With ``shots=None`` the
    ancilla expectation is read off the statevector exactly; otherwise the
    ancilla is sampled ``shots`` times with the seeded generator.
    """
    for _, targets in list(prep_left) + list(prep_right):
        targets = (targets,) if isinstance(targets, (int, np.integer)) else tuple(targets)
        if any(t >= n_qubits for t in targets):
            raise IndexError(f"preparation touches qubit {max(targets)}, register has {n_qubits}")
    anc = n_qubits
    state = zero_state(n_qubits + 1)
    state = apply_gate(state, H, anc)
    state = apply_ops(state, controlled_ops(prep_right, anc))
    inverse_left = [(dagger(g), t) for g, t in reversed(list(prep_left))]
    state = apply_ops(state, controlled_ops(inverse_left, anc))
    state = apply_gate(state, H, anc)

    probs = state.probabilities()
    mask = (np.arange(probs.size) >> anc) & 1
    p1 = float(probs[mask == 1].sum())
    p1 = min(max(p1, 0.0), 1.0)
    if shots is None:
        return 1.0 - 2.0 * p1
    return _draw(p1, shots, seed)


def sample_overlap(overlaps, shots: int, seed=None) -> np.ndarray:
    """Shot estimates of real overlaps, as Hadamard tests would return them.

    The ancilla of each test reads 1 with probability ``(1 - overlap) / 2``;
    this draws ``shots`` readings per overlap, in C order, in one
    ``binomial`` call on ``default_rng(seed)``, without building any
    circuit.  ``seed`` is an int, None or a ``numpy.random.Generator``,
    which is drawn from as it stands, so calls that share one generator
    draw in turn.  With an int seed, element 0 is the draw
    :func:`hadamard_test` makes with the same seed, and element i is the
    i-th draw of that generator.  ``shots`` must pass :func:`check_shots`.
    """
    p1 = np.clip((1.0 - np.asarray(overlaps, dtype=float)) / 2.0, 0.0, 1.0)
    return _draw(p1, shots, seed)


def sample_rows(matrix: np.ndarray, states: np.ndarray, shots: int, seed=None) -> np.ndarray:
    """Shot estimates of ``matrix @ states`` for one state or a ``(2^n, B)``
    array of them: entry k is |a_k| times the overlap (M states)_k / |a_k| of
    the normalized row a_k, all drawn in one :func:`sample_overlap` call.  A
    zero row has no normalized row to encode, and is refused by its number."""
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"row {zero[0] + 1} is zero and cannot be normalized")
    if np.ndim(states) == 2:
        norms = norms[:, None]
    return norms * sample_overlap((matrix @ states) / norms, shots, seed)


def qubit_count(size: int) -> int:
    """Qubits of a register of ``size`` amplitudes, after rejecting a size
    that is not a power of two >= 2."""
    n = int(size).bit_length() - 1
    if size < 2 or (1 << n) != size:
        raise ValueError(f"register size must be a power of two >= 2, got {size}")
    return n


def check_count(name: str, value: int, least: int) -> None:
    """Reject any ``value`` of the count ``name`` but an integer of at least
    ``least``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def check_shots(shots: int) -> None:
    """Reject any shot count but an integer in [1, ``MAX_SHOTS``]; a bool is not one."""
    if (isinstance(shots, bool) or not isinstance(shots, (int, np.integer))
            or not 1 <= shots <= MAX_SHOTS):
        raise ValueError(f"shots must be a positive shot count of at most {MAX_SHOTS}, "
                         f"got {shots!r}")


def _draw(p1, shots: int, seed):
    check_shots(shots)
    n1 = np.random.default_rng(seed).binomial(shots, p1)
    return (shots - 2 * n1) / shots
