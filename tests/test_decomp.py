"""Pauli / unitary-sum decomposition tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspline import cli, decomp, pipeline, sim
from qspline.bspline import build_system


def _block(a, b):
    return np.array([[1.0 - a, a], [0.0, 1.0 - b]])


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def _kron_matrix(term):
    """Dense unitary of a term as a chain of 2x2 Kronecker factors, qubit
    n-1 leftmost, times ``i**phase``."""
    m = np.array([[1.0 + 0.0j]])
    for q in range(term.n_qubits - 1, -1, -1):
        m = np.kron(m, _PAULI[term.paulis[q]])
    return (1j**term.phase) * m


def _term_matrix(term):
    """Dense unitary of a term: the reconstruction of it alone, at weight 1."""
    unit = decomp.LcuTerm(1.0, term.paulis, term.label)
    return decomp.reconstruct(decomp.LcuDecomposition((unit,), term.n_qubits))


def _kron_reconstruct(d):
    """Sum of coefficient times :func:`_kron_matrix` over the terms, in order."""
    dim = 1 << d.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for t in d.terms:
        out += t.coefficient * _kron_matrix(t)
    return out


def _reference_decompose(matrix):
    """Dense trace inner products ``Tr(P A) / 2**n`` over all 4**n strings.

    Returns (label, paulis, phase, coefficient) tuples in the order and with
    the cutoff of :func:`decomp.pauli_decompose`.
    """
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    terms = []
    for chars in itertools.product("IXYZ", repeat=n):
        pauli = np.array([[1.0 + 0.0j]])
        for ch in chars:
            pauli = np.kron(pauli, _PAULI[ch])
        c = np.trace(pauli @ matrix) / dim
        odd_y = chars.count("Y") % 2
        real_part = c.imag if odd_y else c.real
        assert abs(c.real if odd_y else c.imag) < 1e-12
        if abs(real_part) < decomp.COEFF_CUTOFF:
            continue
        s = "".join(chars)
        terms.append((("i*" if odd_y else "") + s, s[::-1], odd_y, float(real_part)))
    return terms


def _random_matrix(rng, n_qubits, sparse):
    dim = 1 << n_qubits
    matrix = rng.uniform(-2.0, 2.0, (dim, dim))
    if sparse:
        matrix[rng.uniform(size=(dim, dim)) < 0.8] = 0.0
    return matrix


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_walsh_hadamard_matches_trace_reference(n_qubits, sparse):
    rng = np.random.default_rng(100 * n_qubits + sparse)
    for _ in range(3 if n_qubits == 5 else 10):
        matrix = _random_matrix(rng, n_qubits, sparse)
        got = decomp.pauli_decompose(matrix).terms
        want = _reference_decompose(matrix)
        assert [(t.label, t.paulis, t.phase) for t in got] == [w[:3] for w in want]
        diff = max((abs(t.coefficient - w[3]) for t, w in zip(got, want)), default=0.0)
        assert diff <= 1e-14


def test_block_coefficients_frozen_case():
    c = decomp.block_coefficients(0.5, 0.3)
    assert c == pytest.approx((0.6, 0.25, -0.1, 0.25))


def test_block_coefficients_identity_case():
    assert decomp.block_coefficients(0.0, 0.0) == pytest.approx((1.0, 0.0, 0.0, 0.0))
    d = decomp.decompose_block(0.0, 0.0)
    assert [t.label for t in d.terms] == ["I"]
    assert d.terms[0].coefficient == pytest.approx(1.0)


def test_block_coefficients_rejects_out_of_range():
    with pytest.raises(ValueError):
        decomp.block_coefficients(1.5, 0.0)
    with pytest.raises(ValueError):
        decomp.block_coefficients(0.0, -0.1)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_block_coefficients_reconstruct_exactly(a, b):
    c = decomp.block_coefficients(a, b)
    basis = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
             np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    rebuilt = sum(ci * m for ci, m in zip(c, basis))
    assert np.max(np.abs(rebuilt - _block(a, b))) < 1e-14


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_block_decomposition_reconstructs(a, b):
    # dropping coefficients below the cutoff leaves an error of at most two
    # cutoffs per entry (each entry draws on two of the four basis matrices)
    d = decomp.decompose_block(a, b)
    rebuilt = decomp.reconstruct(d)
    assert np.max(np.abs(rebuilt.imag)) < 1e-14
    bound = 2.0 * decomp.COEFF_CUTOFF + 1e-14
    assert np.max(np.abs(rebuilt.real - _block(a, b))) < bound


def test_phase_term_ops_reproduce_the_matrix():
    term = decomp.LcuTerm(coefficient=1.0, paulis="Y", label="Ry(3pi)")
    mat = _term_matrix(term)
    state = sim.apply_ops(sim.zero_state(1), term.ops())
    assert np.max(np.abs(state.amplitudes - mat @ [1.0, 0.0])) < 1e-12
    # i*Y is real
    assert np.max(np.abs(mat.imag)) < 1e-14


def test_phase_requires_a_y_factor():
    assert decomp.LcuTerm(coefficient=1.0, paulis="XZ", label="XZ").phase == 0


def test_phase_must_be_the_parity_of_the_y_factors():
    # Y alone is imaginary; only i*Y is a real (signed permutation) term
    assert decomp.LcuTerm(1.0, "Y", "Ry(3pi)").phase == 1
    cols, signs = decomp.signed_permutations((decomp.LcuTerm(1.0, "YY", "YY"),), 2)
    unitary = np.zeros((4, 4))
    unitary[np.arange(4), cols[0]] = signs[0]
    xz = (_PAULI["X"] @ _PAULI["Z"]).real
    assert np.array_equal(unitary, -np.kron(xz, xz))  # Y Y = -(X Z)(X Z)


def test_an_empty_decomposition_has_no_permutations():
    # the zero matrix keeps no term; the one-pass read takes no strings
    d = decomp.pauli_decompose(np.zeros((4, 4)))
    assert d.terms == ()
    cols, signs = decomp.signed_permutations((), 2)
    assert cols.shape == signs.shape == (0, 4)
    _assert_bitwise_equal(decomp.reconstruct(d), np.zeros((4, 4)))


@pytest.mark.parametrize("paulis", ["X", "XZY"])
def test_signed_permutations_refuse_a_term_of_another_width(paulis):
    # a short string must not be read as padded with I, nor a long one overrun
    terms = (decomp.LcuTerm(1.0, "ZY", "YZ"), decomp.LcuTerm(1.0, paulis, paulis))
    with pytest.raises(ValueError, match="expected 2"):
        decomp.signed_permutations(terms, 2)


def _assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def _kron_cases():
    for knots in pipeline._ALLOWED_KNOTS:
        matrix = build_system(knots)[0].entries
        yield pytest.param(matrix, id=f"K{knots}")
    rng = np.random.default_rng(8)
    for n_qubits in (1, 2, 3, 4, 5):
        for sparse in (False, True):
            matrix = _random_matrix(rng, n_qubits, sparse)
            yield pytest.param(matrix, id=f"random{n_qubits}{'-sparse' if sparse else ''}")


@pytest.mark.parametrize("matrix", _kron_cases())
def test_signed_permutations_equal_the_kron_chain(matrix):
    # every term's matrix has the kron chain's values (its zeros are all +0,
    # where the chain leaves some -0), and the reconstruction is bitwise the
    # kron sum, signed zeros included
    d = decomp.pauli_decompose(matrix)
    for term in d.terms:
        assert np.array_equal(_term_matrix(term), _kron_matrix(term))
    _assert_bitwise_equal(decomp.reconstruct(d), _kron_reconstruct(d))


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.3), (1.0, 0.0), (0.25, 1.0), (1.0, 1.0)])
def test_block_terms_equal_the_kron_chain(a, b):
    d = decomp.decompose_block(a, b)
    for term in d.terms:
        assert np.array_equal(_term_matrix(term), _kron_matrix(term))
    _assert_bitwise_equal(decomp.reconstruct(d), _kron_reconstruct(d))


def test_signed_permutations_gather_each_term_state():
    rng = np.random.default_rng(9)
    d = decomp.pauli_decompose(_random_matrix(rng, 3, False))
    cols, signs = decomp.signed_permutations(d.terms, d.n_qubits)
    v = rng.standard_normal(8)
    for term, c, s in zip(d.terms, cols, signs):
        assert np.array_equal(s * v[c], _term_matrix(term) @ v)


@pytest.mark.parametrize("knots", pipeline._ALLOWED_KNOTS)
def test_decompose_output_equals_the_kron_reference(knots, monkeypatch, capsys):
    argv = ["decompose", "--function", "sin", "--knots", str(knots)]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(decomp, "reconstruct", _kron_reconstruct)
    monkeypatch.setattr(cli, "reconstruct", _kron_reconstruct)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == got


def test_single_qubit_projector_decomposition():
    d = decomp.pauli_decompose(np.diag([1.0, 0.0]))
    got = {t.label: t.coefficient for t in d.terms}
    assert got == pytest.approx({"I": 0.5, "Z": 0.5})


def test_label_order_puts_qubit_zero_last():
    # diag(1,-1,1,-1) flips sign with bit 0: Z on qubit 0, identity on qubit 1
    d = decomp.pauli_decompose(np.diag([1.0, -1.0, 1.0, -1.0]))
    got = {t.label: t.coefficient for t in d.terms}
    assert got == pytest.approx({"IZ": 1.0})
    assert d.terms[0].paulis == "ZI"  # per-qubit string, entry 0 = qubit 0


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_random_round_trip(n_qubits):
    rng = np.random.default_rng(17 + n_qubits)
    for _ in range(25):
        matrix = rng.uniform(-2.0, 2.0, (1 << n_qubits, 1 << n_qubits))
        d = decomp.pauli_decompose(matrix)
        rebuilt = decomp.reconstruct(d)
        assert np.max(np.abs(rebuilt.real - matrix)) < 1e-12
        assert np.max(np.abs(rebuilt.imag)) < 1e-12


def test_decompose_validates_input():
    with pytest.raises(ValueError):
        decomp.pauli_decompose(np.ones((3, 3)))
    with pytest.raises(ValueError):
        decomp.pauli_decompose(np.ones((2, 4)))
    with pytest.raises(ValueError):
        decomp.pauli_decompose(np.eye(2, dtype=complex) * 1.0j)


def test_cutoff_drops_tiny_terms():
    matrix = np.eye(2) + 1e-15 * np.array([[0.0, 1.0], [1.0, 0.0]])
    d = decomp.pauli_decompose(matrix)
    assert [t.label for t in d.terms] == ["I"]


@pytest.mark.parametrize(
    "knots,expected_terms", [(4, 12), (8, 30), (16, 68), (32, 146), (64, 304)]
)
def test_spline_system_term_counts(knots, expected_terms):
    matrix = build_system(knots)[0].entries
    d = decomp.pauli_decompose(matrix)
    assert len(d.terms) == expected_terms
    rebuilt = decomp.reconstruct(d)
    assert np.max(np.abs(rebuilt.real - matrix)) < 1e-12


def test_term_ops_reproduce_every_spline_term():
    matrix = build_system(4)[0].entries
    d = decomp.pauli_decompose(matrix)
    total = np.zeros((4, 4))
    for term in d.terms:
        # build the unitary from its gate list and accumulate
        unitary = np.eye(4, dtype=complex)
        for col in range(4):
            basis = np.zeros(4, dtype=complex)
            basis[col] = 1.0
            state = sim.QuantumState(2, basis)
            unitary[:, col] = sim.apply_ops(state, term.ops()).amplitudes
        assert np.max(np.abs(unitary.imag)) < 1e-12
        total = total + term.coefficient * unitary.real
    assert np.max(np.abs(total - matrix)) < 1e-12
