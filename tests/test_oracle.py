"""Classical solver and baseline-fit tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qspline import oracle, pipeline
from qspline.bspline import design_matrix_d1
from qspline.functions import target_values


def test_identity_system_returns_the_target():
    sol = oracle.solve_exact(np.eye(4), np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(sol.beta, [0.1, 0.2, 0.3, 0.4])
    assert sol.residual < 1e-12


def test_hand_checked_bidiagonal_solution():
    dm = design_matrix_d1(np.array([0.0, 0.25, 0.5, 1.0]))
    sol = oracle.solve_exact(dm, np.array([0.0, 0.4, 0.7, 1.0]))
    assert np.max(np.abs(sol.beta - [0.0, 0.4, 0.4, 1.0])) < 1e-12
    assert np.max(np.abs(dm.entries @ sol.beta - [0.0, 0.4, 0.7, 1.0])) < 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
@example(588)  # |beta| reaches 1.1e6, so the two solves differ by 2.3e-10
@example(18996)  # differs by 2.2e-13 relative, with |beta| only 1.4
@settings(max_examples=60, deadline=None)
def test_back_substitution_agrees_with_numpy(seed):
    rng = np.random.default_rng(seed)
    interior = np.sort(rng.uniform(0.01, 0.99, 6))
    dm = design_matrix_d1(np.concatenate([[0.0], interior, [1.0]]))
    y = rng.uniform(-1.0, 1.0, 8)
    fast = oracle.solve_exact(dm, y)
    want = np.linalg.solve(dm.entries, y)
    # both solves are backward stable, so each lies within about
    # n * eps * cond(S) * |beta| of the exact solution, for n unknowns;
    # over seeds 0..19 999 they differ by at most 0.51 * eps * cond(S) * |beta|
    bound = y.size * np.finfo(float).eps * np.linalg.cond(dm.entries, np.inf)
    assert np.max(np.abs(fast.beta - want)) <= bound * np.max(np.abs(want))


def _dense():
    rng = np.random.default_rng(99)
    return rng.uniform(-1.0, 1.0, (8, 8)) + 4.0 * np.eye(8)


def _dilation():
    # [[0, S], [S^T, 0]]: nonsingular, but neither triangle is empty
    s = design_matrix_d1(np.array([0.0, 0.25, 0.5, 1.0])).entries
    zeros = np.zeros((4, 4))
    return np.block([[zeros, s], [s.T, zeros]])


@pytest.mark.parametrize("matrix", [_dense(), _dilation()], ids=["dense", "dilation"])
def test_a_matrix_that_is_not_upper_bidiagonal_is_refused(matrix):
    with pytest.raises(ValueError, match="upper-bidiagonal") as info:
        oracle.solve_exact(matrix, np.ones(8))
    assert not isinstance(info.value, oracle.SingularMatrixError)


def test_singular_matrix_raises():
    singular = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(oracle.SingularMatrixError):
        oracle.solve_exact(singular, np.array([1.0, 0.0]))


def test_classical_fit_interpolates():
    for name in ("sigmoid", "relu", "elu", "sin"):
        report = oracle.fit_classical(name, 16)
        assert report.mode == "classical"
        assert report.nrmse < 1e-10
        assert report.converged


def test_classical_fit_tiny_grid_is_exact():
    report = oracle.fit_classical("sin", 2)
    assert report.nrmse < 1e-14


def test_classical_fit_validates_arguments():
    with pytest.raises(ValueError):
        oracle.fit_classical("tanh", 16)


def test_a_quantum_fit_samples_its_target_once(monkeypatch):
    calls = []

    def counting(fn, xs):
        calls.append(fn.name)
        return target_values(fn, xs)

    for module in (pipeline, oracle):
        monkeypatch.setattr(module, "target_values", counting, raising=False)
    report = pipeline.fit(pipeline.FitConfig(function="sin", knots=2, restarts=1))
    assert report.mode == "exact"
    assert calls == ["sin"]
