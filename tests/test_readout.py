"""Readout tests: overlaps, estimate recovery, and the per-row circuit reference."""

import dataclasses
import math

import numpy as np
import pytest

from qspline import oracle, pipeline, readout, sim, vqls
from qspline.bspline import build_system
from qspline.functions import TARGETS, minmax_normalize, sample_grid


def _system_and_unit_target(name, knots):
    system, _ = build_system(knots)
    target = TARGETS[name]
    yvals, _ = minmax_normalize(target(sample_grid(knots, target.domain)))
    return system, yvals / np.linalg.norm(yvals)


def _oracle_state(system, y_unit):
    beta = oracle.solve_exact(system, y_unit).beta
    beta = beta / np.linalg.norm(beta)
    return sim.QuantumState(
        int(math.log2(beta.size)), beta.astype(complex)
    )


def test_zero_row_cannot_be_encoded():
    system = np.array([[1.0, 0.0], [0.0, 0.0]])
    state = sim.zero_state(1)
    for mode in ("exact", "shots"):
        with pytest.raises(ValueError, match="row 2 is zero"):
            readout.recover_estimates(system, state, [1.0, 0.0], mode=mode,
                                      shots=100, seed=0)


def test_overlap_of_identical_and_orthogonal_states():
    est = readout.recover_estimates(np.eye(4), sim.zero_state(2), [1.0, 0.0, 0.0, 0.0])
    assert est.sign == 1.0 and est.scale == 1.0
    assert np.array_equal(est.values, [1.0, 0.0, 0.0, 0.0])


def test_overlaps_match_direct_matrix_products():
    system, y_unit = _system_and_unit_target("sigmoid", 4)
    state = _oracle_state(system, y_unit)
    beta = state.amplitudes.real
    est = readout.recover_estimates(system, state, y_unit)
    mapped = system.entries @ beta
    scale = 1.0 / np.linalg.norm(mapped)
    assert est.scale == scale
    assert np.array_equal(est.values, est.sign * mapped * scale)
    for k in range(4):
        row = system.entries[k]
        overlap = float(row @ beta) / np.linalg.norm(row)
        expected = est.sign * np.linalg.norm(row) * overlap * scale
        assert est.values[k] == pytest.approx(expected, abs=1e-14)


def test_shots_overlap_is_seeded_and_near_exact():
    system, y_unit = _system_and_unit_target("elu", 4)
    state = _oracle_state(system, y_unit)
    exact = readout.recover_estimates(system, state, y_unit)
    noisy = readout.recover_estimates(system, state, y_unit, mode="shots",
                                      shots=100_000, seed=9)
    again = readout.recover_estimates(system, state, y_unit, mode="shots",
                                      shots=100_000, seed=9)
    assert np.array_equal(noisy.values, again.values)
    weights = exact.sign * np.linalg.norm(system.entries, axis=1) * exact.scale
    overlaps, sampled = exact.values / weights, noisy.values / weights
    sigma = np.sqrt(np.maximum(1.0 - overlaps**2, 1e-12) / 100_000)
    assert np.all(np.abs(sampled - overlaps) < 5 * sigma + 1e-9)


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
    # the gate-level reference: the exact overlap of one Hadamard-test circuit
    # per row, between the encoded row and the encoded state, with every row
    # drawn in one binomial call on default_rng(seed)
    system, y_unit = _system_and_unit_target("sin", 8)
    state = _oracle_state(system, y_unit)
    est = readout.recover_estimates(system, state, y_unit, mode="shots",
                                    shots=2_000, seed=21)
    beta_ops = sim.amplitude_encode(state.amplitudes.real).ops
    rows = system.entries
    exact = np.array([sim.hadamard_test(sim.amplitude_encode(row).ops, beta_ops, 3)
                      for row in rows])
    p1 = np.clip((1.0 - exact) / 2.0, 0.0, 1.0)
    overlaps = (2_000 - 2 * np.random.default_rng(21).binomial(2_000, p1)) / 2_000
    expected = [est.sign * float(np.linalg.norm(row)) * overlap * est.scale
                for row, overlap in zip(rows, overlaps)]
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
    null_state = sim.QuantumState(1, np.array([1.0, -1.0]) / math.sqrt(2.0))
    with pytest.raises(ValueError, match="numerically zero"):
        readout.recover_estimates(np.ones((2, 2)), null_state, [1.0, 0.0])
    with pytest.raises(ValueError, match="matrix must be real"):
        readout.recover_estimates(system.entries + 1j * np.diag([0, 0, 0, 1.0]), state, y_unit)
    with pytest.raises(ValueError, match="unknown mode 'approximate'; pick one of exact, shots"):
        readout.recover_estimates(system, state, y_unit, mode="approximate")
    for shots in (None, 0, -5, 2**63):
        with pytest.raises(ValueError, match="positive shot count"):
            readout.recover_estimates(system, state, y_unit, mode="shots", shots=shots)


def test_imaginary_states_are_rejected():
    complex_state = sim.QuantumState(
        1, np.array([1.0, 1.0j]) / math.sqrt(2.0)
    )
    for mode in ("exact", "shots"):
        with pytest.raises(ValueError, match="imaginary residue"):
            readout.recover_estimates(np.eye(2), complex_state, [1.0, 0.0],
                                      mode=mode, shots=100)


@pytest.mark.parametrize("knots", [8, 16])
@pytest.mark.parametrize("function", sorted(TARGETS))
def test_pipeline_shots_readout_noise_stays_on_the_rows_of_s(monkeypatch, function, knots):
    # The solve is made exact, so only the readout's shot noise is left.
    # Row k of S then errs by about |S_k| |S^-1 y| / sqrt(shots) in unit-y
    # terms.  Read out on the rows of S D instead, the errors of sigmoid
    # (both sizes), elu and relu at K = 16 exceed twice that.
    solve = vqls.solve
    monkeypatch.setattr(vqls, "solve", lambda matrix, y, config, ansatz: solve(
        matrix, y, dataclasses.replace(config, mode="exact"), ansatz))
    shots = 10_000
    rep = pipeline.fit(pipeline.FitConfig(function=function, knots=knots,
                                          mode="shots", shots=shots))
    y = np.asarray(rep.y_target)
    norm = float(np.linalg.norm(y))
    matrix = build_system(knots)[0].entries
    row_rms = math.sqrt(float(np.mean(np.sum(matrix**2, axis=1))))
    bound = row_rms * float(np.linalg.norm(np.linalg.solve(matrix, y / norm))) / math.sqrt(shots)
    error = math.sqrt(float(np.mean((np.asarray(rep.y_estimate) - y) ** 2))) / norm
    assert error <= 2.0 * bound
