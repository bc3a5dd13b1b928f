"""Readout tests: row encodings, overlaps, and estimate recovery."""

import math

import numpy as np
import pytest

from qspline import oracle, readout, sim
from qspline.bspline import design_matrix_d1
from qspline.functions import TARGETS, minmax_normalize, sample_grid


def _system_and_unit_target(name, knots):
    system = design_matrix_d1(sample_grid(knots, (0.0, 1.0)))
    target = TARGETS[name]
    yvals, _ = minmax_normalize(target(sample_grid(knots, target.domain)))
    return system, yvals / np.linalg.norm(yvals)


def _oracle_state(system, y_unit):
    beta = oracle.solve_exact(system, y_unit).beta
    beta = beta / np.linalg.norm(beta)
    return sim.QuantumState(
        int(math.log2(beta.size)), beta.astype(complex)
    )


def test_row_encoding_reproduces_the_raw_row():
    system = design_matrix_d1(np.array([0.0, 0.25, 0.5, 1.0]))
    for k in range(1, 5):
        enc = readout.encode_row(system, k)
        assert enc.index == k
        assert np.max(np.abs(enc.state.amplitudes.real * enc.norm - enc.row)) < 1e-10


def test_row_index_bounds():
    with pytest.raises(ValueError):
        readout.encode_row(np.eye(4), 0)
    with pytest.raises(ValueError):
        readout.encode_row(np.eye(4), 5)


def test_zero_row_cannot_be_encoded():
    with pytest.raises(ValueError):
        readout.encode_row(np.array([[1.0, 0.0], [0.0, 0.0]]), 2)


def test_overlap_of_identical_and_orthogonal_states():
    beta = sim.zero_state(2)
    assert readout.row_overlap(np.eye(4), 1, beta) == pytest.approx(1.0)
    assert readout.row_overlap(np.eye(4), 2, beta) == pytest.approx(0.0)


def test_overlaps_match_direct_matrix_products():
    system, y_unit = _system_and_unit_target("sigmoid", 4)
    state = _oracle_state(system, y_unit)
    beta = state.amplitudes.real
    for k in range(1, 5):
        row = system.entries[k - 1]
        expected = float(row @ beta) / np.linalg.norm(row)
        got = readout.row_overlap(system, k, state)
        assert got == pytest.approx(expected, abs=1e-10)


def test_shots_overlap_is_seeded_and_near_exact():
    system, y_unit = _system_and_unit_target("elu", 4)
    state = _oracle_state(system, y_unit)
    exact = readout.row_overlap(system, 2, state)
    noisy = readout.row_overlap(system, 2, state, mode="shots", shots=100_000, seed=9)
    again = readout.row_overlap(system, 2, state, mode="shots", shots=100_000, seed=9)
    assert noisy == again
    sigma = math.sqrt(max(1.0 - exact**2, 1e-12) / 100_000)
    assert abs(noisy - exact) < 5 * sigma + 1e-9


def test_recovery_reproduces_targets_from_the_exact_solution():
    for name in ("sigmoid", "relu", "elu", "sin"):
        system, y_unit = _system_and_unit_target(name, 16)
        state = _oracle_state(system, y_unit)
        estimate = readout.recover_estimates(system, state, y_unit)
        assert np.max(np.abs(estimate.values - y_unit)) < 1e-8


def test_recovery_is_bitwise_invariant_under_state_sign_flip():
    system, y_unit = _system_and_unit_target("sin", 16)
    state = _oracle_state(system, y_unit)
    flipped = sim.QuantumState(state.n_qubits, -state.amplitudes)
    a = readout.recover_estimates(system, state, y_unit)
    b = readout.recover_estimates(system, flipped, y_unit)
    assert np.array_equal(a.values, b.values)
    assert a.scale == b.scale
    assert a.sign == -b.sign


def test_recovery_shots_mode_runs_and_is_seeded():
    system, y_unit = _system_and_unit_target("relu", 4)
    state = _oracle_state(system, y_unit)
    one = readout.recover_estimates(system, state, y_unit, mode="shots",
                                    shots=50_000, seed=4)
    two = readout.recover_estimates(system, state, y_unit, mode="shots",
                                    shots=50_000, seed=4)
    assert np.array_equal(one.values, two.values)
    assert np.max(np.abs(one.values - y_unit)) < 0.05


def test_shots_recovery_equals_per_row_overlaps():
    system, y_unit = _system_and_unit_target("sin", 8)
    state = _oracle_state(system, y_unit)
    est = readout.recover_estimates(system, state, y_unit, mode="shots",
                                    shots=2_000, seed=21)
    row_seeds = np.random.SeedSequence(21).generate_state(8)
    expected = [
        est.sign * np.linalg.norm(system.entries[k - 1])
        * readout.row_overlap(system, k, state, mode="shots", shots=2_000,
                              seed=int(row_seeds[k - 1]))
        * est.scale
        for k in range(1, 9)
    ]
    assert np.array_equal(est.values, expected)


def test_recovery_validates_inputs():
    system, y_unit = _system_and_unit_target("sin", 4)
    state = _oracle_state(system, y_unit)
    with pytest.raises(ValueError):
        readout.recover_estimates(system, state, y_unit * 2.0)  # not unit norm
    with pytest.raises(ValueError):
        readout.recover_estimates(system, state, y_unit[:2])  # wrong length
    with pytest.raises(ValueError):
        readout.recover_estimates(np.zeros((4, 4)), state, y_unit)  # degenerate scale


def test_imaginary_states_are_rejected():
    complex_state = sim.QuantumState(
        1, np.array([1.0, 1.0j]) / math.sqrt(2.0)
    )
    with pytest.raises(ValueError):
        readout.row_overlap(np.eye(2), 1, complex_state)
