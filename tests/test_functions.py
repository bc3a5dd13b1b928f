"""Target functions, grids, normalization, and the error metric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspline import functions


def test_grid_endpoints_and_spacing():
    assert np.allclose(functions.sample_grid(2, (0.0, 1.0)), [0.0, 1.0])
    assert np.allclose(
        functions.sample_grid(5, (0.0, 1.0)), [0.0, 0.25, 0.5, 0.75, 1.0]
    )
    grid = functions.sample_grid(16, (0.0, 1.0))
    assert np.allclose(np.diff(grid), 1.0 / 15.0)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        functions.sample_grid(1, (0.0, 1.0))
    with pytest.raises(ValueError):
        functions.sample_grid(4, (1.0, 0.0))


@given(
    st.integers(min_value=2, max_value=64),
    st.floats(min_value=-10.0, max_value=9.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=80, deadline=None)
def test_grid_symmetry_about_midpoint(count, lo, width):
    grid = functions.sample_grid(count, (lo, lo + width))
    mid = lo + width / 2.0
    assert np.max(np.abs((grid - mid) + (grid[::-1] - mid))) < 1e-9


def test_known_function_set_and_domains():
    assert sorted(functions.TARGETS) == ["elu", "relu", "sigmoid", "sin"]
    assert functions.TARGETS["sigmoid"].domain == (-5.0, 5.0)
    assert functions.TARGETS["relu"].domain == (-1.0, 1.0)
    assert functions.TARGETS["elu"].domain == (-1.0, 1.0)
    assert functions.TARGETS["sin"].domain == (0.0, math.pi)


def test_relu_normalized_endpoints():
    target = functions.TARGETS["relu"]
    values, _ = functions.target_values(target, np.array([-1.0, 0.0, 1.0]))
    assert values[0] == pytest.approx(0.0, abs=1e-15)
    assert values[1] == pytest.approx(0.0, abs=1e-15)
    assert values[2] == pytest.approx(1.0)


def test_sigmoid_normalized_midpoint_is_half():
    target = functions.TARGETS["sigmoid"]
    values, _ = functions.target_values(target, np.array([-5.0, 0.0, 5.0]))
    assert values[1] == pytest.approx(0.5, abs=1e-12)


def test_sin_normalized_peak():
    target = functions.TARGETS["sin"]
    values, _ = functions.target_values(target, np.array([0.0, math.pi / 2, math.pi]))
    assert values[1] == pytest.approx(1.0)


def test_elu_is_monotone_and_normalized():
    target = functions.TARGETS["elu"]
    xs = functions.sample_grid(32, target.domain)
    values, _ = functions.target_values(target, xs)
    assert np.all(np.diff(values) > 0)
    assert values.min() == pytest.approx(0.0, abs=1e-15)
    assert values.max() == pytest.approx(1.0)
    # negative branch matches exp(x) - 1 before rescaling
    raw = target(np.array([-0.5]))
    assert raw[0] == pytest.approx(math.exp(-0.5) - 1.0)


@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=32),
)
@settings(max_examples=120, deadline=None)
def test_normalization_round_trip(values):
    arr = np.asarray(values)
    if arr.max() - arr.min() < 1e-9:
        arr = arr + np.linspace(0.0, 1.0, arr.size)
    normalized, (lo, hi) = functions.minmax_normalize(arr)
    assert normalized.min() >= -1e-12 and normalized.max() <= 1.0 + 1e-12
    back = normalized * (hi - lo) + lo
    assert np.max(np.abs(back - arr)) < 1e-9 * max(1.0, np.max(np.abs(arr)))


def test_normalize_rejects_constant_input():
    with pytest.raises(ValueError):
        functions.minmax_normalize(np.ones(4))


def test_nrmse_zero_and_offset():
    y = np.linspace(0.0, 1.0, 8)
    assert functions.nrmse(y, y) == 0.0
    assert functions.nrmse(y + 0.1, y) == pytest.approx(0.1, abs=1e-12)


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_nrmse_affine_invariance(a, b, seed):
    if abs(a) < 1e-3:
        a = 1.0
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, 16)
    y[0], y[-1] = 0.0, 1.0  # keep the range nondegenerate
    est = y + rng.normal(0.0, 0.05, 16)
    base = functions.nrmse(est, y)
    scaled = functions.nrmse(a * est + b, a * y + b)
    assert scaled == pytest.approx(base, abs=1e-12)


def test_nrmse_validates_input():
    with pytest.raises(ValueError):
        functions.nrmse(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        functions.nrmse(np.ones(4), np.ones(4))  # constant target
