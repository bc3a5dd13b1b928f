"""Variational solver tests: ansatz circuits, cost, and the optimizer loop."""

import json
import math

import numpy as np
import pytest

from qspline import oracle, pipeline, sim, vqls
from qspline.bspline import bidiagonal_scaling, build_system
from qspline.functions import TARGETS, minmax_normalize, sample_grid


def _spline_system(knots):
    return build_system(knots)[0]


def _normalized_target(name, knots):
    target = TARGETS[name]
    yvals, _ = minmax_normalize(target(sample_grid(knots, target.domain)))
    return yvals


def test_parameter_counts():
    layered = vqls.AnsatzConfig(n_qubits=4, kind="layered")
    assert layered.layers == 7
    assert layered.n_params == 32
    tree = vqls.AnsatzConfig(n_qubits=4)
    assert tree.kind == "tree"
    assert tree.layers is None
    assert tree.n_params == 15
    assert vqls.AnsatzConfig(n_qubits=1, kind="layered").n_params == 2


def test_config_validation():
    for n_qubits in (0, 2.0, 2.5, True):
        for kind in vqls.KINDS:
            with pytest.raises(ValueError, match="n_qubits must be an integer of at least 1"):
                vqls.AnsatzConfig(n_qubits=n_qubits, kind=kind)
    with pytest.raises(ValueError):
        vqls.AnsatzConfig(n_qubits=2, kind="brick")
    # the depth rule has no ceiling: seven qubits take 36 layers
    assert vqls.AnsatzConfig(n_qubits=7, kind="layered").n_params == 7 * 37
    assert vqls.AnsatzConfig(n_qubits=7).n_params == 127
    # a numpy integer is taken, and kept as the plain int the JSON report needs
    record = vqls.AnsatzConfig(n_qubits=np.int64(2), kind="layered").record()
    assert type(record["n_qubits"]) is int
    assert json.loads(json.dumps(record))["n_params"] == 6
    with pytest.raises(ValueError):
        vqls.SolveConfig(mode="approximate")
    with pytest.raises(ValueError, match="unknown mode 'approximate'; pick one of exact, shots"):
        vqls.cost_global(np.eye(2), [1.0, 0.0], vqls.AnsatzConfig(n_qubits=1), [0.0],
                         mode="approximate")
    for shots in (0, 2**63, True):
        with pytest.raises(ValueError, match="positive shot count"):
            vqls.SolveConfig(mode="shots", shots=shots)
    # counts are integers, numpy's too, and a bool is not one
    for name, value in [("restarts", 2.5), ("restarts", 0), ("restarts", True),
                        ("max_iter", 2.5), ("max_iter", 0), ("max_iter", np.float64(3.0)),
                        ("seed", True), ("seed", -1), ("seed", 1.0)]:
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least"):
            vqls.SolveConfig(**{name: value})
    vqls.SolveConfig(restarts=np.int64(2), max_iter=np.int32(3), seed=np.uint8(0))


def test_fit_config_takes_integer_counts_only():
    for name, value in [("knots", 16.0), ("knots", True), ("restarts", 2.5),
                        ("max_iter", 2.5), ("seed", True), ("seed", -1)]:
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least"):
            pipeline.FitConfig(function="sin", **{name: value})
    with pytest.raises(ValueError, match="knots must be one of"):
        pipeline.FitConfig(function="sin", knots=np.int64(12))
    # a numpy integer is taken, and kept as the plain int the JSON report needs
    config = pipeline.FitConfig(function="sin", knots=np.int64(4), seed=np.int64(3),
                                restarts=np.int32(1), max_iter=np.int64(5), shots=np.int64(9))
    assert [type(getattr(config, name)) for name in
            ("knots", "seed", "restarts", "max_iter", "shots")] == [int] * 5
    assert config.solver()[1].n_qubits == 2


def test_zero_parameters_prepare_the_zero_state():
    for config in (
        vqls.AnsatzConfig(n_qubits=3, kind="layered"),
        vqls.AnsatzConfig(n_qubits=3, kind="tree"),
        vqls.AnsatzConfig(n_qubits=4, kind="layered"),
    ):
        state = vqls.ansatz_state_vector(config, np.zeros(config.n_params))
        assert abs(state[0] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "config",
    [
        vqls.AnsatzConfig(n_qubits=2, kind="layered"),
        vqls.AnsatzConfig(n_qubits=3, kind="tree"),
        vqls.AnsatzConfig(n_qubits=3, kind="layered"),
        vqls.AnsatzConfig(n_qubits=4, kind="layered"),
        vqls.AnsatzConfig(n_qubits=5, kind="layered"),
    ],
)
def test_fast_state_path_matches_the_gate_sequence(config):
    # from three qubits on, the brick wall's odd layers differ from a CZ chain
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, 2.0 * np.pi, config.n_params)
    fast = vqls.ansatz_state_vector(config, theta)
    slow = sim.apply_ops(sim.zero_state(config.n_qubits), vqls.ansatz_ops(config, theta))
    assert np.max(np.abs(fast - slow.amplitudes.real)) < 1e-10
    assert np.max(np.abs(slow.amplitudes.imag)) < 1e-12


def test_parameter_length_is_checked():
    config = vqls.AnsatzConfig(n_qubits=2, kind="layered")
    with pytest.raises(ValueError):
        vqls.ansatz_ops(config, np.zeros(3))


def test_cost_zero_at_exact_solution_of_identity():
    config = vqls.AnsatzConfig(n_qubits=2)
    y = np.zeros(4)
    y[0] = 1.0
    assert vqls.cost_global(np.eye(4), y, config, np.zeros(config.n_params)) == 0.0


def test_tree_parameters_from_known_vector_drive_cost_to_zero():
    system = _spline_system(4)
    y = _normalized_target("sigmoid", 4)
    beta = oracle.solve_exact(system, y / np.linalg.norm(y)).beta
    theta = sim.tree_angles(beta)
    config = vqls.AnsatzConfig(n_qubits=2, kind="tree")
    assert vqls.cost_global(system, y, config, theta) < 1e-12


def test_cost_is_clipped_to_unit_interval():
    config = vqls.AnsatzConfig(n_qubits=2, kind="tree")
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.uniform(0.0, 2.0 * np.pi, config.n_params)
        c = vqls.cost_global(_spline_system(4), np.array([1.0, 0, 0, 0]), config, theta)
        assert 0.0 <= c <= 1.0


def test_shots_cost_tracks_exact_cost():
    system = _spline_system(4)
    y = _normalized_target("sin", 4)
    config = vqls.AnsatzConfig(n_qubits=2, kind="tree")
    theta = np.array([0.9, 0.4, 1.7])
    exact = vqls.cost_global(system, y, config, theta)
    noisy = vqls.cost_global(
        system, y, config, theta, mode="shots", shots=200_000, seed=3
    )
    assert noisy == pytest.approx(exact, abs=0.02)
    again = vqls.cost_global(
        system, y, config, theta, mode="shots", shots=200_000, seed=3
    )
    assert noisy == again


def _scaled_system(name, knots, kind):
    """The equilibrated system R S D and normalized target R y that a fit
    hands the solver, with the ansatz of ``kind``."""
    matrix = _spline_system(knots).entries
    r, c = bidiagonal_scaling(matrix)
    y = r * _normalized_target(name, knots)
    return (r[:, None] * matrix * c, y / np.linalg.norm(y),
            vqls.AnsatzConfig(n_qubits=knots.bit_length() - 1, kind=kind))


def _recording_draws(monkeypatch) -> list:
    """Patch ``sim.sample_overlap`` to keep every array it returns, in order."""
    draws, sample_overlap = [], sim.sample_overlap
    monkeypatch.setattr(sim, "sample_overlap",
                        lambda *args: draws.append(sample_overlap(*args)) or draws[-1])
    return draws


def _circuit_overlaps(matrix, config, thetas, shots, rng):
    """Gate-level reference of the sampled overlaps: the exact overlap of one
    Hadamard-test circuit per normalized row of ``matrix`` (row k) and angle
    vector of ``thetas`` (column b), the encoded row against the trial
    circuit, all drawn in one ``binomial`` call on ``rng``."""
    n = config.n_qubits
    row_ops = [sim.amplitude_encode(row / np.linalg.norm(row)).ops for row in matrix]
    exact = np.array([[sim.hadamard_test(ops, vqls.ansatz_ops(config, t), n) for t in thetas]
                      for ops in row_ops])
    p1 = np.clip((1.0 - exact) / 2.0, 0.0, 1.0)
    return (shots - 2 * rng.binomial(shots, p1)) / shots


@pytest.mark.parametrize("knots", [2, 4])
@pytest.mark.parametrize("kind", ["tree", "layered"])
def test_shots_cost_equals_the_hadamard_test_circuits(knots, kind, monkeypatch):
    # a point draws its K row overlaps at theta, and its Jacobian at theta +
    # pi e_j and, on the tree, then theta - pi e_j; both are the per-row
    # circuits' draws from the point's generator, bit for bit, and the cost
    # and the Jacobian are formed from them
    matrix, y, config = _scaled_system("relu" if knots == 2 else "sin", knots, kind)
    norms = np.linalg.norm(matrix, axis=1)
    shifts = np.pi * np.eye(config.n_params)
    if kind == "tree":
        shifts = np.concatenate((shifts, -shifts))
    draws = _recording_draws(monkeypatch)
    for seed in (0, 5, 17):
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, config.n_params)
        for shots in (100, 50_000):
            draws.clear()
            cost, jacobian = vqls._shots_point(matrix, y, config, shots,
                                               np.random.default_rng(seed))(theta)
            f, jac = jacobian()
            reference = np.random.default_rng(seed)
            at_theta = _circuit_overlaps(matrix, config, [theta], shots, reference)
            shifted = _circuit_overlaps(matrix, config, theta + shifts, shots, reference)
            assert [d.tobytes() for d in draws] == [at_theta.tobytes(), shifted.tobytes()]

            psi = norms * at_theta[:, 0]
            assert cost == _reference_terms(np.eye(knots), y, psi)[0]
            shifted = norms[:, None] * shifted
            if kind == "tree":
                P = config.n_params
                moves = (shifted[:, :P] - shifted[:, P:]) / 4.0
            else:
                moves = shifted / 2.0
            want_f, want_jac = vqls._residual(psi, y)[1](moves)
            assert f.tobytes() == want_f.tobytes() and jac.tobytes() == want_jac.tobytes()


def _reference_state(config, theta):
    """Trial state built independently of ``vqls``: ``np.stack`` down the
    tree, one scalar-angle Ry at a time for the layered circuit, whose
    brick-wall CZ signs come from the index bits here."""
    n = config.n_qubits
    if config.kind == "tree":
        amps = np.array([1.0])
        pos = 0
        for level in range(n):
            width = 1 << level
            angles = theta[pos : pos + width]
            pos += width
            c, s = np.cos(angles / 2.0), np.sin(angles / 2.0)
            amps = np.stack([amps * c, amps * s], axis=1).reshape(-1)
        return amps

    def rotate(vec, qubit, angle):
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        view = vec.reshape(-1, 2, 1 << qubit)
        lo = view[:, 0, :].copy()
        hi = view[:, 1, :]
        view[:, 0, :] = c * lo - s * hi
        view[:, 1, :] = s * lo + c * hi

    bits = [(np.arange(1 << n) >> q) & 1 for q in range(n)]
    vec = np.zeros(1 << n)
    vec[0] = 1.0
    for q in range(n):
        rotate(vec, q, theta[q])
    pos = n
    for layer in range(config.layers):
        # CZ on (q, q+1) for every q of the layer's parity: -1 where both bits are 1
        both = sum(bits[q] & bits[q + 1] for q in range(layer % 2, n - 1, 2))
        vec *= (-1.0) ** both
        for q in range(n):
            rotate(vec, q, theta[pos + q])
        pos += n
    return vec


def _reference_terms(matrix, y, v):
    """Single-point exact cost at state ``v`` and its terms ``(C, psi, r, d)``:
    ``psi = S @ v``, ``d = psi @ psi``, the residual ``r = psi - (y @ psi) y``
    and ``C``, its squared norm over ``d``."""
    psi = matrix @ v
    denom = float(psi @ psi)
    if denom < 1e-280:
        raise ValueError("S V(theta)|0> vanished; the system matrix is singular")
    residual = psi - float(y @ psi) * y
    return min(float(residual @ residual) / denom, 1.0), psi, residual, denom


def _reference_cost(matrix, y, config, theta):
    """Single-point exact cost at the reference state of ``theta``."""
    return _reference_terms(matrix, y, _reference_state(config, theta))[0]


_FD_STEP = 1e-4  # step of the central-difference references


def _reference_gradient(f, theta, step):
    """Central differences, one coordinate and two single-point costs at a time."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        probe = theta.copy()
        probe[i] = theta[i] + step
        hi = f(probe)
        probe[i] = theta[i] - step
        lo = f(probe)
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def _elu_system(knots, kind):
    matrix = _spline_system(knots).entries
    y = _normalized_target("elu", knots)
    config = vqls.AnsatzConfig(n_qubits=knots.bit_length() - 1, kind=kind)
    return matrix, y / np.linalg.norm(y), config


def _counting_trials(monkeypatch):
    """Count the calls of ``vqls._trial`` and of the Jacobian thunks it returns."""
    calls = {"_trial": 0, "jacobian": 0}
    trial = vqls._trial

    def counted(config, theta):
        calls["_trial"] += 1
        state, jacobian = trial(config, theta)

        def counted_jacobian():
            calls["jacobian"] += 1
            return jacobian()

        return state, counted_jacobian

    monkeypatch.setattr(vqls, "_trial", counted)
    return calls


@pytest.mark.parametrize("knots", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("kind", ["tree", "layered"])
def test_residual_point_costs_equal_the_per_point_formula(knots, kind, monkeypatch):
    matrix, y, config = _elu_system(knots, kind)
    thetas = np.random.default_rng(knots).uniform(0.0, 2.0 * np.pi, (24, config.n_params))

    states = np.array([vqls._trial(config, t)[0] for t in thetas])
    want_states = np.array([_reference_state(config, t) for t in thetas])
    assert states.tobytes() == want_states.tobytes()

    point = vqls._residual_point(matrix, y, config)
    want = np.array([_reference_cost(matrix, y, config, t) for t in thetas])
    calls = _counting_trials(monkeypatch)
    costs = np.array([point(t)[0] for t in thetas])
    assert costs.tobytes() == want.tobytes()
    # one forward pass per point, and no Jacobian until one is asked for
    assert calls == {"_trial": len(thetas), "jacobian": 0}


@pytest.mark.parametrize("knots", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("kind", ["tree", "layered"])
def test_adjoint_gradient_matches_central_differences(knots, kind, monkeypatch):
    # the gradient of C = f . f is 2 J_f^T f, the Jacobian's adjoint applied
    # to the residual f
    matrix, y, config = _elu_system(knots, kind)
    thetas = np.random.default_rng(100 + knots).uniform(0.0, 2.0 * np.pi, (4, config.n_params))
    point = vqls._residual_point(matrix, y, config)
    for theta, elsewhere in zip(thetas, thetas[::-1]):
        state, state_jacobian = vqls._trial(config, theta)
        # the Jacobian's forward pass builds the reference state
        assert state.tobytes() == _reference_state(config, theta).tobytes()
        jacobian = state_jacobian()
        want_jacobian = np.column_stack([
            (_reference_state(config, theta + _FD_STEP * e)
             - _reference_state(config, theta - _FD_STEP * e)) / (2.0 * _FD_STEP)
            for e in np.eye(theta.size)])
        assert np.max(np.abs(jacobian - want_jacobian)) <= 1e-8

        calls = _counting_trials(monkeypatch)
        cost, residual_jacobian = point(theta)
        assert cost == _reference_cost(matrix, y, config, theta)
        # a thunk builds the Jacobian at its own point, whatever point came
        # after it, and leaves that point's forward pass as it was
        point(elsewhere)[1]()
        f, jac = residual_jacobian()
        assert f @ f == pytest.approx(cost, rel=1e-13)
        want = _reference_gradient(
            lambda t: _reference_cost(matrix, y, config, t), theta, _FD_STEP
        )
        assert np.max(np.abs(2.0 * jac.T @ f - want)) <= 1e-6
        again = residual_jacobian()
        assert again[0].tobytes() == f.tobytes() and again[1].tobytes() == jac.tobytes()
        # each point is one forward pass and each thunk call one Jacobian
        assert calls == {"_trial": 2, "jacobian": 3}
        monkeypatch.undo()


def _reference_tree_gradient(matrix, theta, terms):
    """Level-by-level adjoint sweep of the rotation tree: walk down keeping
    every level's prefix amplitudes, then walk up summing g over each
    subtree.  A node of angle t and prefix amplitude a, whose children sum
    to u_L and u_R, gets a (cos(t/2) u_R - sin(t/2) u_L) / 2 and passes
    cos(t/2) u_L + sin(t/2) u_R up."""
    cost, psi, residual, denom = terms
    n = (theta.size + 1).bit_length() - 1
    cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
    amps = [np.ones(1)]
    for level in range(n):
        span = slice((1 << level) - 1, (2 << level) - 1)
        amps.append(np.stack([amps[-1] * cos[span], amps[-1] * sin[span]], axis=1).reshape(-1))
    u = matrix.T @ ((2.0 / denom) * (residual - cost * psi))
    grad = np.empty(theta.size)
    for level in range(n - 1, -1, -1):
        span = slice((1 << level) - 1, (2 << level) - 1)
        c, s = cos[span], sin[span]
        grad[span] = amps[level] * (c * u[1::2] - s * u[0::2]) / 2.0
        u = c * u[0::2] + s * u[1::2]
    return grad


@pytest.mark.parametrize("knots", [2, 4, 8, 16, 32])
def test_tree_jacobian_pulls_back_to_the_level_by_level_adjoint(knots):
    matrix, y, config = _elu_system(knots, "tree")
    rng = np.random.default_rng(200 + knots)
    thetas = rng.uniform(0.0, 2.0 * np.pi, (40, config.n_params))
    # every other point pins about a third of its angles to 0, pi or 2 pi,
    # where a branch of the tree carries an exact zero
    for theta in thetas[1::2]:
        pinned = rng.random(theta.size) < 0.35
        theta[pinned] = rng.choice([0.0, np.pi, 2.0 * np.pi], pinned.sum())
    for theta in thetas:
        state, state_jacobian = vqls._trial(config, theta)
        terms = _reference_terms(matrix, y, state)
        want = _reference_tree_gradient(matrix, theta, terms)
        # the sweep's gradient is dC/dv pulled back through the state's Jacobian
        cost, psi, residual, denom = terms
        pulled = matrix.T @ ((2.0 / denom) * (residual - cost * psi))
        got = pulled @ state_jacobian()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _forward_mode_jacobian(config, theta):
    """The brick wall's state and Jacobian dv/dtheta in forward mode, which
    carries the state and one tangent per angle through the circuit.  A
    rotation's derivative is half the pair rotation [[0, -1], [1, 0]]
    applied after it, so after rotation j the tangent of angle j starts as
    that half pair rotation of the state, and every later gate acts on the
    state and the tangents so far alike."""
    n, n_params = config.n_qubits, config.n_params
    cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
    stack = np.zeros((n_params + 1, 1 << n))  # the state, then one tangent per angle
    stack[0, 0] = 1.0
    for j in range(n_params):
        layer, q = divmod(j, n)
        if layer and not q:
            stack[:j + 1] *= vqls._cz_mask(n, (layer - 1) % 2)
        view = stack[:j + 1].reshape(-1, 2, 1 << q)  # Ry on qubit q of every row
        lo = view[:, 0, :].copy()
        hi = view[:, 1, :]
        view[:, 0, :] = cos[j] * lo - sin[j] * hi
        view[:, 1, :] = sin[j] * lo + cos[j] * hi
        state = stack[0].reshape(-1, 2, 1 << q)
        tangent = stack[j + 1].reshape(-1, 2, 1 << q)
        tangent[:, 0] = state[:, 1] / -2.0
        tangent[:, 1] = state[:, 0] / 2.0
    return stack[0], stack[1:].T


@pytest.mark.parametrize("n_qubits", range(1, 6))
def test_brick_wall_jacobian_is_the_forward_mode_recursion(n_qubits):
    config = vqls.AnsatzConfig(n_qubits=n_qubits, kind="layered")
    rng = np.random.default_rng(300 + n_qubits)
    thetas = rng.uniform(0.0, 2.0 * np.pi, (50, config.n_params))
    # every other point pins about a third of its angles to 0, pi or 2 pi,
    # where rotations cancel to exact zeros
    for theta in thetas[1::2]:
        pinned = rng.random(theta.size) < 0.35
        theta[pinned] = rng.choice([0.0, np.pi, 2.0 * np.pi], pinned.sum())
    for k, theta in enumerate(thetas):
        state, state_jacobian = vqls._trial(config, theta)
        want_state, want = _forward_mode_jacobian(config, theta)
        got = state_jacobian()
        assert state.tobytes() == want_state.tobytes()
        if k % 2 == 0:
            assert got.tobytes() == want.tobytes()
        # an exact zero may differ in sign: the walk's -(s lo) - c hi is +0
        # where forward mode's -(s lo + c hi) is -0, and adding +0 clears it
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


@pytest.mark.parametrize("kind", ["tree", "layered"])
def test_shots_point_equals_single_point_costs(kind, monkeypatch):
    system = _spline_system(4)
    y = _normalized_target("sin", 4)
    config = vqls.AnsatzConfig(n_qubits=2, kind=kind)
    thetas = np.random.default_rng(9).uniform(0.0, 2.0 * np.pi, (5, config.n_params))

    def single(t):
        return vqls.cost_global(system, y, config, t, mode="shots", shots=1000, seed=11)

    def point():
        return vqls._shots_point(system.entries, y / np.linalg.norm(y), config, 1000,
                                 np.random.default_rng(11))

    assert [point()(t)[0] for t in thetas] == [single(t) for t in thetas]

    # points that share a generator draw from it in turn: fresh noise each time
    shared = point()
    costs = [shared(thetas[0])[0] for _ in range(3)]
    assert costs[0] == single(thetas[0]) and len(set(costs)) == 3

    # a point is one sampled overlap per row; its Jacobian one per row and
    # shifted point, 2P on the tree and P on the brick wall, in one more call
    draws = _recording_draws(monkeypatch)
    point()(thetas[0])[1]()
    shifted_points = (2 if kind == "tree" else 1) * config.n_params
    assert [d.shape for d in draws] == [(4, 1), (4, shifted_points)]


def test_a_sampled_denominator_that_is_not_positive_reads_cost_one(monkeypatch):
    # at two shots every overlap estimate is -1, 0 or +1, and on the scaled
    # K = 4 system all four rows draw 0 at once in some points: the sampled
    # psi, and with it d = psi . psi, is then exactly 0.  The point costs 1,
    # the top of its range, and 0 does not reach the division; its Jacobian
    # thunk returns f = 0 and J_f = 0, on which a restart started there
    # ends on no descent at once, keeping its record
    matrix, y, config = _scaled_system("sin", 4, "tree")
    draws = _recording_draws(monkeypatch)
    vanished = 0
    for seed in range(200):
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, config.n_params)
        cost, jacobian = vqls._shots_point(matrix, y, config, 2,
                                           np.random.default_rng(seed))(theta)
        if draws[-1].any():
            continue
        vanished += 1
        assert cost == 1.0
        f, jac = jacobian()
        assert not f.any() and not jac.any() and jac.shape == (4, config.n_params)
        point = vqls._shots_point(matrix, y, config, 2, np.random.default_rng(seed))
        end, cost, trace, reason, points, jacobians = vqls._levenberg_marquardt(point, theta, 5)
        assert (reason, cost, trace, points, jacobians) == ("no descent", 1.0, [1.0], 1, 1)
        assert end.tobytes() == theta.tobytes()
    assert vanished == 3  # at seeds 84, 158 and 165


@pytest.mark.parametrize("kind", ["tree", "layered"])
def test_the_shift_rule_on_sampled_overlaps_is_unbiased(kind):
    # noiseless, the shift rule is the exact Jacobian S J_v; sampled, each
    # entry's mean over 200 draws lies within 4 standard errors of it
    matrix, y, config = _scaled_system("sin", 4, kind)
    theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, config.n_params)
    want = matrix @ vqls._trial(config, theta)[1]()
    state, state_jacobian = vqls._trial(config, theta)
    noiseless = vqls._sampled_moves(config, state, state_jacobian(),
                                    lambda states: matrix @ states)
    assert np.max(np.abs(noiseless - want)) <= 1e-14

    norms = np.linalg.norm(matrix, axis=1)
    rows, rng = matrix / norms[:, None], np.random.default_rng(4)

    def sample(states):
        return norms[:, None] * sim.sample_overlap(rows @ states, 1000, rng)

    moves = np.array([vqls._sampled_moves(config, state, state_jacobian(), sample)
                      for _ in range(200)])
    error = moves.std(axis=0, ddof=1) / math.sqrt(len(moves))
    assert np.all(np.abs(moves.mean(axis=0) - want) <= 4.0 * error + 1e-15)


@pytest.mark.parametrize("knots", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("kind", ["tree", "layered"])
def test_the_shift_rule_samples_the_shifted_reference_states(knots, kind):
    # the states handed to the sampler are the trial states at theta + pi e_j
    # and, on the tree, then at theta - pi e_j, in the order solve counts them
    config = vqls.AnsatzConfig(n_qubits=knots.bit_length() - 1, kind=kind)
    theta = np.random.default_rng(200 + knots).uniform(0.0, 2.0 * np.pi, config.n_params)
    shifts = np.pi * np.eye(config.n_params)
    if kind == "tree":
        shifts = np.concatenate((shifts, -shifts))
    want = np.column_stack([_reference_state(config, theta + shift) for shift in shifts])
    handed = []
    state, state_jacobian = vqls._trial(config, theta)
    vqls._sampled_moves(config, state, state_jacobian(),
                        lambda states: handed.append(states) or states)
    assert len(handed) == 1 and handed[0].shape == want.shape
    assert np.max(np.abs(handed[0] - want)) <= 1e-15


@pytest.mark.parametrize("row", [0, 3, 6])
def test_a_vanishing_row_raises_the_singular_error(row, monkeypatch):
    # S annihilates |0>, and the tree ansatz prepares |0> at theta = 0
    matrix = np.diag([0.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 1.0, 0.0, 0.0])
    config = vqls.AnsatzConfig(n_qubits=2, kind="tree")
    thetas = np.random.default_rng(1).uniform(0.5, 2.5, (7, config.n_params))
    thetas[row] = 0.0
    message = "vanished; the system matrix is singular"
    with pytest.raises(ValueError, match=message):
        _reference_cost(matrix, y, config, thetas[row])
    point = vqls._residual_point(matrix, y, config)
    for i, theta in enumerate(thetas):
        if i != row:
            point(theta)[1]()
    # the cost raises before a Jacobian thunk is returned, so the loop stops at once
    calls = _counting_trials(monkeypatch)
    with pytest.raises(ValueError, match=message):
        point(thetas[row])
    with pytest.raises(ValueError, match=message):
        vqls._levenberg_marquardt(point, thetas[row], 5)
    assert calls == {"_trial": 2, "jacobian": 0}
    with pytest.raises(ValueError, match=message):
        vqls.cost_global(matrix, y, config, thetas[row])


@pytest.mark.parametrize("kind", ["tree", "layered"])
def test_solve_builds_each_point_once(kind, monkeypatch):
    # in exact mode a point is one forward pass and a Jacobian one more
    # pass at an accepted point, so cost_rows - gradients counts the points;
    # the one more forward pass is the best restart's beta_state
    matrix, y, config = _elu_system(8, kind)
    calls = _counting_trials(monkeypatch)
    solution = vqls.solve(matrix, y, vqls.SolveConfig(restarts=2, max_iter=30), config)
    evaluations = {k: sum(r[k] for r in solution.restarts) for k in ("cost_rows", "gradients")}
    assert calls == {"_trial": evaluations["cost_rows"] - evaluations["gradients"] + 1,
                     "jacobian": evaluations["gradients"]}
    # a Jacobian at the start and after each accepted step: the one restart
    # reached the cost's rounding floor within 30 Jacobians, so its loop
    # ended on floor after taking the end point's Jacobian
    assert [r["stop_reason"] for r in solution.restarts] == ["floor"]
    assert solution.cost_trace[-1] <= vqls.STOP_COST
    assert evaluations["gradients"] == len(solution.cost_trace) > 1


def test_shots_mode_requires_a_count():
    config = vqls.AnsatzConfig(n_qubits=2)
    for shots in (None, 2**63):
        with pytest.raises(ValueError, match="positive shot count"):
            vqls.cost_global(np.eye(4), np.ones(4), config, np.zeros(config.n_params),
                             mode="shots", shots=shots)


def test_levenberg_marquardt_solves_a_linear_residual_to_its_rounding_floor():
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((6, 4))
    target = matrix @ rng.standard_normal(4)  # the residual vanishes at the solution
    theta0 = rng.uniform(-1.0, 1.0, 4)
    log = []

    def point(x):
        log.append("cost")
        f = matrix @ x - target

        def jacobian():
            log.append("jacobian")
            return f, matrix

        return float(f @ f), jacobian

    _, cost, trace, reason, points, jacobians = vqls._levenberg_marquardt(point, theta0, 200)
    # the loop counts what it took: a Jacobian at the start and at every step
    assert (points, jacobians) == (log.count("cost"), log.count("jacobian"))
    assert reason == "floor" and jacobians == len(trace)
    assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
    # lightly damped, the first step is nearly the Gauss-Newton step, which
    # solves a linear residual at once
    assert trace[1] < 1e-6 * trace[0] and cost < 1e-28 and len(trace) < 20

    # max_iter caps the Jacobians, and the step after the last one is taken
    log.clear()
    _, cost, trace, reason, points, jacobians = vqls._levenberg_marquardt(point, theta0, 2)
    assert reason == "max_iter" and jacobians == log.count("jacobian") == 2
    assert len(trace) == 3 and points == log.count("cost")


def test_levenberg_marquardt_stops_at_once_on_a_start_at_the_rounding_floor():
    # f . f at or below len(f) eps^2 is rounding: the first Jacobian ends the
    # loop, and no trial is built
    f, jac = np.full(4, np.finfo(float).eps), np.eye(4)
    log = []

    def point(x):
        log.append("cost")

        def jacobian():
            log.append("jacobian")
            return f, jac

        return float(f @ f), jacobian

    theta0 = np.ones(4)
    theta, cost, trace, reason, points, jacobians = vqls._levenberg_marquardt(point, theta0, 5)
    assert reason == "floor" and log == ["cost", "jacobian"]
    assert (points, jacobians) == (1, 1) and trace == [cost] == [4 * np.finfo(float).eps ** 2]
    assert theta.tobytes() == theta0.tobytes()


def test_levenberg_marquardt_raises_the_damping_until_no_trial_moves_theta():
    # a flat cost with a fixed residual and Jacobian: every trial is
    # rejected, and each raises the damping until the trial rounds back to
    # theta or the damping passes its ceiling
    theta0, f, jac = np.array([1.0, 2.0]), np.array([1.0]), np.array([[0.5, 0.25]])
    taken = []

    def point(x):
        taken.append(x)
        return 1.0, lambda: (f, jac)

    _, cost, trace, reason, points, jacobians = vqls._levenberg_marquardt(point, theta0, 5)
    want, damping = [], vqls.DAMPING_START
    while damping <= vqls.DAMPING_CEILING:
        candidate = theta0 + np.linalg.solve(jac.T @ jac + damping * np.eye(2), -jac.T @ f)
        if candidate.tobytes() == theta0.tobytes():
            break
        want.append(candidate)
        damping *= vqls.DAMPING_UP
    assert len(want) > 20
    assert reason == "no descent" and trace == [cost] == [1.0] and jacobians == 1
    assert points == len(taken) == 1 + len(want)
    assert np.array(taken[1:]).tobytes() == np.array(want).tobytes()


def test_levenberg_marquardt_counts_a_singular_damped_system_as_a_rejected_trial():
    # J^T J = 1e20 [[1, 1], [1, 1]], and 1e20 + lam rounds back to 1e20 until
    # lam reaches half its spacing, 8192: each damped system below that is
    # exactly singular, and each raises the damping as a rejected trial would
    theta0, jac = np.zeros(2), np.array([[1e10, 1e10]])
    taken = []

    def point(x):
        taken.append(x)
        f = 1.0 + jac @ x  # a linear residual, 1 at theta0
        return float(f @ f), lambda: (f, jac)

    _, cost, trace, reason, points, jacobians = vqls._levenberg_marquardt(point, theta0, 1)
    normal, grad, damping = jac.T @ jac, jac.T @ np.ones(1), vqls.DAMPING_START
    while True:
        try:
            want = theta0 + np.linalg.solve(normal + damping * np.eye(2), -grad)
        except np.linalg.LinAlgError:
            damping *= vqls.DAMPING_UP
        else:
            break
    assert damping >= 8192.0  # the solve raised on every trial before this one
    # no singular trial built a point, and the first solvable one moved theta
    assert points == len(taken) == 2 and taken[1].tobytes() == want.tobytes()
    assert reason == "max_iter" and jacobians == 1 and cost == trace[1] < trace[0] == 1.0


@pytest.mark.parametrize("seed", [42, 7])
def test_relu_at_sixteen_knots_fits_to_rounding_error(seed):
    # one BFGS or Levenberg-Marquardt loop per restart leaves the cost-2.4e-3
    # basin that stalled the old descent stage for every start at seed 7
    rep = pipeline.fit(pipeline.FitConfig(function="relu", knots=16, seed=seed))
    assert rep.converged
    assert rep.nrmse < 1e-10
    # the restart ends at the cost's rounding floor, len(f) eps^2
    assert rep.restarts[-1]["stop_reason"] == "floor"
    assert rep.restarts_used == 1


@pytest.mark.parametrize("function", sorted(TARGETS))
def test_thirty_two_knot_fits_converge_in_their_first_restart(function):
    # on S itself these ended on a plateau at NRMSE 3e-4 to 1.2e-2 in all
    # five restarts; cond(R S D) = 40 against cond(S) = 6.9e8
    rep = pipeline.fit(pipeline.FitConfig(function=function, knots=32))
    assert rep.nrmse <= 1e-8
    assert rep.restarts_used == 1


def test_a_target_normalized_twice_fits_in_one_short_restart():
    # this target differs from the pipeline's only by rounding; on it BFGS
    # crept along the cost's rounding floor by steepest descent for 889 rows
    matrix = _spline_system(8).entries
    y = vqls._y_vector(vqls._y_vector(oracle.fit_classical("sin", 8).y_target))
    solution = vqls.solve(matrix, y, vqls.SolveConfig(seed=7))
    assert solution.restarts_used == 1 and solution.cost_trace[-1] <= vqls.STOP_COST
    assert solution.restarts[0]["cost_rows"] <= 300


def test_layered_sigmoid_at_sixteen_knots_converges_in_a_bounded_first_restart():
    # BFGS ran this restart to its 10 000-iteration cap on the unscaled
    # system, and took 4 958 rows on R S D
    rep = pipeline.fit(pipeline.FitConfig(function="sigmoid", knots=16, seed=7,
                                          ansatz="layered"))
    assert rep.converged and rep.restarts_used == 1
    assert rep.restarts[0]["cost_rows"] <= 5000


def test_thirty_two_knot_fit_converges_on_a_scaling_rounded_differently():
    # c as a cumulative product of the ratios d_k / e_k differs from
    # bidiagonal_scaling's c_k d_k / e_k in the last bits only, and on it
    # BFGS stalled sigmoid's first restart at cost 1.7e-7
    matrix = _spline_system(32).entries
    d, e = np.diag(matrix), np.diag(matrix, 1)
    ratios = np.ones(e.size)
    ratios[e != 0.0] = d[:-1][e != 0.0] / e[e != 0.0]
    c = np.concatenate(([1.0], np.cumprod(ratios)))
    committed = bidiagonal_scaling(matrix)[1]
    assert not np.array_equal(c, committed) and np.allclose(c, committed, rtol=1e-14, atol=0.0)
    r = 1.0 / (d * c)
    y01 = np.asarray(oracle.fit_classical("sigmoid", 32).y_target)
    solution = vqls.solve(r[:, None] * matrix * c, r * y01)
    assert solution.restarts_used == 1 and solution.cost_trace[-1] <= vqls.STOP_COST


def test_solve_identity_system():
    y = np.array([1.0, 0.0, 0.0, 0.0])
    solution = vqls.solve(np.eye(4), y, vqls.SolveConfig(restarts=2),
                          vqls.AnsatzConfig(n_qubits=2, kind="tree"))
    assert solution.cost_trace[-1] <= vqls.STOP_COST
    assert abs(solution.beta_state.amplitudes[0]) ** 2 > 0.999


def test_solve_small_spline_system_hits_the_oracle():
    system = _spline_system(4)
    y = _normalized_target("sigmoid", 4)
    solution = vqls.solve(system, y, vqls.SolveConfig(),
                          vqls.AnsatzConfig(n_qubits=2, kind="tree"))
    exact = oracle.solve_exact(system, y / np.linalg.norm(y)).beta
    exact = exact / np.linalg.norm(exact)
    fidelity = float(exact @ solution.beta_state.amplitudes.real) ** 2
    assert fidelity > 0.99
    assert solution.restarts_used <= 5
    trace = np.array(solution.cost_trace)
    assert np.all(np.diff(trace) <= 1e-15)


def test_solve_is_deterministic():
    system = _spline_system(4)
    y = _normalized_target("relu", 4)
    config = vqls.SolveConfig(restarts=2)
    ansatz = vqls.AnsatzConfig(n_qubits=2, kind="tree")
    a = vqls.solve(system, y, config, ansatz)
    b = vqls.solve(system, y, config, ansatz)
    assert np.array_equal(a.theta, b.theta)
    assert a.cost_trace[-1] == b.cost_trace[-1]
    assert a.cost_trace == b.cost_trace


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_layered_depth_reaches_full_jacobian_rank(n_qubits):
    # the rank of d v / d theta at three seeded points, from the trial states
    # of their shifted probes: each angle enters one Ry(t) = exp(-i t Y / 2), so
    # half the difference of the states at t +/- pi/2 is the exact derivative,
    # and missing directions would show as singular values at rounding level
    config = vqls.AnsatzConfig(n_qubits=n_qubits, kind="layered")
    p = config.n_params
    thetas = np.random.default_rng(n_qubits).uniform(0.0, 2.0 * np.pi, (3, p))
    shifts = np.kron(np.eye(p), [[np.pi / 2], [-np.pi / 2]])  # rows +e_i, -e_i
    probes = (thetas[:, None, :] + shifts[None]).reshape(-1, p)
    states = np.array([vqls.ansatz_state_vector(config, t) for t in probes])
    states = states.reshape(3, p, 2, -1)
    sv = np.linalg.svd((states[:, :, 0] - states[:, :, 1]) / 2.0, compute_uv=False)
    full = (1 << n_qubits) - 1  # the real unit sphere's dimension
    assert (sv > 1e-10 * sv[:, :1]).sum(axis=1).tolist() == [full] * 3


def test_layered_ansatz_solves_small_systems_too():
    # at K = 4 (two qubits) a brick wall and a CZ chain are the same circuit;
    # from K = 8 on only the brick wall reaches every real state.  At K = 32
    # the depth of full Jacobian rank (7 layers, 40 angles) left sin, among
    # others, at cost 2.8e-12 but NRMSE 0.78; with twice the sphere's
    # dimension in angles (12 layers, 65) every fit lands in its first restart
    for knots, bound in ((8, 1e-5), (32, 1e-6)):
        for name in sorted(TARGETS):
            rep = pipeline.fit(pipeline.FitConfig(function=name, knots=knots,
                                                  ansatz="layered"))
            assert rep.converged and rep.restarts_used == 1, (knots, name)
            assert rep.nrmse <= bound, (knots, name, rep.nrmse)


def test_solve_validates_inputs():
    with pytest.raises(ValueError):
        vqls.solve(np.eye(3), np.ones(3))  # not a power of two
    with pytest.raises(ValueError):
        vqls.solve(np.ones((4, 4)), np.ones(4))  # singular
    with pytest.raises(ValueError):
        vqls.solve(np.eye(4), np.ones(2))  # length mismatch
    with pytest.raises(ValueError):
        vqls.solve(np.eye(4), np.zeros(4))  # zero target
    with pytest.raises(ValueError):
        vqls.solve(np.eye(4), np.ones(4), ansatz=vqls.AnsatzConfig(n_qubits=3))
    with pytest.raises(ValueError, match="matrix must be real"):
        vqls.solve(np.eye(4) + 1j * np.diag([0, 0, 0, 1.0]), np.ones(4))  # complex
