"""Basis-function and design-matrix tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspline import bspline, pipeline
from qspline.functions import sample_grid


def test_uniform_knots_layout():
    kv = bspline.uniform_knots(16, 1)
    assert kv.degree == 1
    assert kv.n_basis == 16
    assert len(kv.knots) == 18
    assert kv.knots[0] == pytest.approx(-1.0 / 15.0)
    assert kv.knots[-1] == pytest.approx(16.0 / 15.0)
    assert np.allclose(np.diff(kv.knots), 1.0 / 15.0)


def test_knot_vector_validation():
    with pytest.raises(ValueError):
        bspline.KnotVector(np.array([0.0, 1.0, 0.5]), 1)  # decreasing
    with pytest.raises(ValueError):
        bspline.KnotVector(np.array([0.0, 1.0]), 1)  # too short for the degree


def test_degree0_basis_is_interval_indicator():
    kv = bspline.KnotVector(np.array([0.0, 0.5, 1.0]), 0)
    assert bspline.basis_value(kv, 0, 0.25) == 1.0
    assert bspline.basis_value(kv, 0, 0.75) == 0.0
    assert bspline.basis_value(kv, 1, 0.75) == 1.0
    # the final interval closes at the last knot
    assert bspline.basis_value(kv, 1, 1.0) == 1.0
    assert bspline.basis_value(kv, 0, 1.0) == 0.0


def test_clamped_degree1_sums_to_one_at_the_right_end():
    kv = bspline.KnotVector(np.array([0.0, 0.0, 0.5, 1.0, 1.0]), 1)
    total = sum(bspline.basis_value(kv, i, 1.0) for i in range(kv.n_basis))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_degree1_hat_peaks_on_uniform_grid():
    kv = bspline.uniform_knots(4, 1)
    for k in range(4):
        peak = k / 3.0
        assert bspline.basis_value(kv, k, peak) == pytest.approx(1.0, abs=1e-12)


@given(
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.001, max_value=0.999),
)
@settings(max_examples=120, deadline=None)
def test_basis_nonnegative_partition_and_support(degree, x):
    kv = bspline.uniform_knots(8, degree)
    values = [bspline.basis_value(kv, i, x) for i in range(kv.n_basis)]
    assert all(v >= -1e-12 for v in values)
    assert abs(sum(values) - 1.0) < 1e-12
    for i, v in enumerate(values):
        inside = kv.knots[i] <= x <= kv.knots[i + degree + 1]
        if not inside:
            assert abs(v) < 1e-12


def test_design_matrix_frozen_for_four_uniform_points():
    dm = bspline.design_matrix_d1(np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]))
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 2.0 / 3.0, 1.0 / 3.0, 0.0],
            [0.0, 0.0, 1.0 / 3.0, 2.0 / 3.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.max(np.abs(dm.entries - expected)) < 1e-14


def test_design_matrix_rows_are_unit_partitions():
    points = np.linspace(0.0, 1.0, 16)
    dm = bspline.design_matrix_d1(points)
    assert np.allclose(dm.entries @ np.ones(16), np.ones(16), atol=1e-14)
    assert np.allclose(dm.entries[0], np.eye(16)[0])
    assert np.allclose(dm.entries[-1], np.eye(16)[-1])


def test_design_matrix_rejects_bad_points():
    with pytest.raises(ValueError):
        bspline.design_matrix_d1(np.array([0.0, 0.5, 0.25, 1.0]))  # not sorted
    with pytest.raises(ValueError):
        bspline.design_matrix_d1(np.array([0.0, 1.5, 0.7, 1.0]))  # out of range


def test_as_matrix_keeps_only_real_systems():
    real = np.array([[1.0, 0.5], [0.0, 1.0]])
    # a complex array passes when its imaginary part is zero
    got = bspline.as_matrix(real.astype(complex))
    assert got.dtype == np.float64 and got.tobytes() == real.tobytes()
    for imag in (1e-300, np.nan):
        with pytest.raises(ValueError, match="matrix must be real"):
            bspline.as_matrix(real + 1j * np.diag([0.0, imag]))
    with pytest.raises(ValueError, match="matrix must be square"):
        bspline.as_matrix(np.ones((2, 4)))


def test_interior_rows_carry_the_point_coordinates():
    points = np.array([0.0, 0.25, 0.5, 1.0])
    dm = bspline.design_matrix_d1(points)
    assert dm.entries[1, 1] == pytest.approx(0.75)
    assert dm.entries[1, 2] == pytest.approx(0.25)
    assert dm.entries[2, 2] == pytest.approx(0.5)
    assert dm.entries[2, 3] == pytest.approx(0.5)


@pytest.mark.parametrize("knots", pipeline._ALLOWED_KNOTS)
def test_bidiagonal_scaling_equilibrates_every_spline_system(knots):
    system, _ = bspline.build_system(knots)
    r, c = bspline.bidiagonal_scaling(system)
    scaled = r[:, None] * system.entries * c
    ones = (np.diag(system.entries, 1) != 0.0).astype(float)
    assert np.max(np.abs(scaled - np.eye(knots) - np.diag(ones, 1))) <= 4.4e-16
    assert np.linalg.cond(scaled) <= 100.0


@pytest.mark.parametrize("knots", pipeline._ALLOWED_KNOTS)
def test_build_system_returns_the_same_read_only_arrays_on_every_call(knots):
    system, grid = bspline.build_system(knots)
    again = bspline.build_system(knots)
    assert again[0] is system and again[1] is grid
    for array in (system.entries, grid):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2.0
    fresh_grid = sample_grid(knots, (0.0, 1.0))
    fresh = bspline.design_matrix_d1(fresh_grid).entries
    assert system.entries.tobytes() == fresh.tobytes()
    assert grid.tobytes() == fresh_grid.tobytes()
