"""Simulator unit tests: gates, encoding, controlled promotion, overlap tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspline import decomp, sim, vqls


def test_gate_rejects_non_unitary():
    with pytest.raises(ValueError):
        sim.Gate("bad", np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gate_rejects_odd_sizes():
    with pytest.raises(ValueError):
        sim.Gate("bad", np.eye(8))


def test_x_flips_zero():
    state = sim.apply_gate(sim.zero_state(1), sim.X, 0)
    assert np.allclose(state.amplitudes, [0.0, 1.0])


def test_ry_three_pi_maps_zero_to_minus_one():
    state = sim.apply_gate(sim.zero_state(1), sim.RY_3PI, 0)
    assert np.allclose(state.amplitudes, [0.0, -1.0], atol=1e-12)


def test_ry_matrix_entries():
    gate = sim.ry(math.pi / 2)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    assert np.allclose(gate.matrix, [[c, -s], [s, c]])


def test_dagger_of_rotation_is_negative_angle():
    theta = 0.731
    assert np.allclose(sim.dagger(sim.ry(theta)).matrix, sim.ry(-theta).matrix)


def test_qubit_zero_is_least_significant_bit():
    # flipping qubit 0 moves |00> to index 1, flipping qubit 1 to index 2
    s0 = sim.apply_gate(sim.zero_state(2), sim.X, 0)
    s1 = sim.apply_gate(sim.zero_state(2), sim.X, 1)
    assert abs(s0.amplitudes[1]) == pytest.approx(1.0)
    assert abs(s1.amplitudes[2]) == pytest.approx(1.0)


def test_cx_first_target_is_control():
    # control on qubit 0: |01> (index 1) flips the target, |10> does not
    one = sim.apply_gate(sim.zero_state(2), sim.X, 0)
    flipped = sim.apply_gate(one, sim.CX, (0, 1))
    assert abs(flipped.amplitudes[3]) == pytest.approx(1.0)
    two = sim.apply_gate(sim.zero_state(2), sim.X, 1)
    kept = sim.apply_gate(two, sim.CX, (0, 1))
    assert abs(kept.amplitudes[2]) == pytest.approx(1.0)


def test_state_rejects_norm_drift():
    with pytest.raises(ValueError):
        sim.QuantumState(1, np.array([1.0, 1.0], dtype=complex))


def test_encode_three_four_vector():
    prep = sim.amplitude_encode([3.0, 4.0])
    assert np.allclose(prep.state.amplitudes, [0.6, 0.8], atol=1e-14)


def test_encode_rejects_zero_and_bad_sizes():
    with pytest.raises(ValueError):
        sim.amplitude_encode([0.0, 0.0])
    with pytest.raises(ValueError):
        sim.amplitude_encode([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        sim.amplitude_encode(np.array([1.0 + 1.0j, 0.0]))


def test_a_register_size_is_a_power_of_two_of_at_least_two():
    assert [sim.qubit_count(size) for size in (2, 4, 64)] == [1, 2, 6]
    # the encoder, its angles, the decomposition and the solver share the one
    # rule and its message
    for size in (1, 3, 6):
        message = f"register size must be a power of two >= 2, got {size}"
        for refuse in (lambda: sim.amplitude_encode(np.arange(1.0, size + 1.0)),
                       lambda: sim.tree_angles(np.ones(size)),
                       lambda: decomp.pauli_decompose(np.eye(size)),
                       lambda: vqls.solve(np.eye(size), np.ones(size))):
            with pytest.raises(ValueError, match=message):
                refuse()


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_encode_matches_normalized_input(n_qubits, seed):
    rng = np.random.default_rng(seed)
    vec = rng.uniform(-1.0, 1.0, 1 << n_qubits)
    if np.linalg.norm(vec) < 1e-6:
        vec[0] += 1.0
    prep = sim.amplitude_encode(vec)
    expected = vec / np.linalg.norm(vec)
    assert np.max(np.abs(prep.state.amplitudes.real - expected)) < 1e-12
    assert np.max(np.abs(prep.state.amplitudes.imag)) < 1e-14


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_encode_circuit_prepares_the_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    vec = rng.uniform(-1.0, 1.0, 1 << n_qubits)
    if np.linalg.norm(vec) < 1e-6:
        vec[0] += 1.0
    prep = sim.amplitude_encode(vec)
    replayed = sim.apply_ops(sim.zero_state(n_qubits), prep.ops)
    assert np.max(np.abs(replayed.amplitudes - prep.state.amplitudes)) < 1e-12


def test_tree_angle_count():
    assert [sim.tree_angle_count(n) for n in (1, 2, 3, 4)] == [1, 3, 7, 15]


def test_controlled_sequence_is_block_identity_and_op():
    # promoted ops act trivially on the control-0 subspace and apply the
    # original sequence on the control-1 subspace
    rng = np.random.default_rng(3)
    vec = rng.uniform(-1.0, 1.0, 4)
    ops = list(sim.amplitude_encode(vec).ops) + [(sim.CZ, (0, 1))]
    promoted = sim.controlled_ops(ops, 2)

    start = sim.zero_state(3)
    kept = sim.apply_ops(start, promoted)
    plain = sim.apply_ops(sim.zero_state(2), ops)
    assert np.max(np.abs(kept.amplitudes[:4] - [1, 0, 0, 0])) < 1e-12

    lifted = sim.apply_gate(start, sim.X, 2)  # control on
    moved = sim.apply_ops(lifted, promoted)
    assert np.max(np.abs(moved.amplitudes[4:] - plain.amplitudes)) < 1e-12


def test_controlled_ops_rejects_general_two_qubit_gates():
    swap = sim.Gate("SWAP", np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float))
    with pytest.raises(ValueError):
        sim.controlled_ops([(swap, (0, 1))], 2)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_hadamard_test_equals_direct_overlap(n_qubits, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, 1 << n_qubits)
    b = rng.uniform(-1.0, 1.0, 1 << n_qubits)
    a[0] += 2.0
    b[0] += 2.0
    pa, pb = sim.amplitude_encode(a), sim.amplitude_encode(b)
    estimated = sim.hadamard_test(pa.ops, pb.ops, n_qubits)
    direct = float(pa.state.amplitudes.real @ pb.state.amplitudes.real)
    assert abs(estimated - direct) < 1e-10


def test_hadamard_test_shots_deterministic_and_near_exact():
    a = sim.amplitude_encode([0.8, 0.6])
    b = sim.amplitude_encode([0.6, -0.8])
    exact = sim.hadamard_test(a.ops, b.ops, 1)
    one = sim.hadamard_test(a.ops, b.ops, 1, shots=100_000, seed=11)
    two = sim.hadamard_test(a.ops, b.ops, 1, shots=100_000, seed=11)
    assert one == two
    sigma = math.sqrt(max(1.0 - exact**2, 1e-12) / 100_000)
    assert abs(one - exact) < 5 * sigma + 1e-9


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_sample_overlap_makes_the_hadamard_test_draw(n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    for i in range(4):
        left = sim.amplitude_encode(rng.standard_normal(1 << n_qubits))
        right = sim.amplitude_encode(rng.standard_normal(1 << n_qubits))
        overlap = float(left.state.amplitudes.real @ right.state.amplitudes.real)
        for shots in (1, 100, 100_000):
            seed = 1000 * n_qubits + 10 * i + shots % 7
            circuit = sim.hadamard_test(left.ops, right.ops, n_qubits, shots=shots, seed=seed)
            assert sim.sample_overlap(overlap, shots, seed) == circuit
            # a vector of overlaps is one binomial call on the same generator
            overlaps = np.array([overlap, -0.3, 0.9, 1.0, -1.0])
            drawn = sim.sample_overlap(overlaps, shots, seed)
            assert drawn[0] == circuit
            n1 = np.random.default_rng(seed).binomial(shots, (1.0 - overlaps) / 2.0)
            assert drawn.tolist() == ((shots - 2 * n1) / shots).tolist()


def test_sample_overlap_rejects_bad_shot_counts():
    for shots in (0, -3, 2**63, 2.5, True):
        with pytest.raises(ValueError):
            sim.sample_overlap(0.5, shots, 1)


def test_sample_overlap_takes_the_largest_shot_count():
    # 2 * n1 wraps in int64 there, and the difference wraps back exactly
    for shots in (2**63 - 1, np.int64(2**63 - 1)):
        drawn = sim.sample_overlap([-1.0, 1.0, 0.5], shots, 3)
        assert drawn[:2].tolist() == [-1.0, 1.0]
        assert abs(drawn[2] - 0.5) < 1e-6


def test_hadamard_test_validates_qubit_range():
    prep = sim.amplitude_encode([1.0, 1.0])
    with pytest.raises(IndexError):
        sim.hadamard_test(prep.ops, [(sim.X, (5,))], 1)
