"""Linear-combination-of-unitaries decompositions of real matrices.

Two entry points:

* :func:`decompose_block` handles the 2x2 spline block ``[[1-a, a], [0, 1-b]]``
  with the closed-form weights over {I, X, Z, Ry(3*pi)}.
* :func:`pauli_decompose` expands any real power-of-two matrix over Pauli
  strings, ``c_P = Tr(P A) / 2**n``, with one Walsh-Hadamard transform of
  its XOR-shifted diagonals instead of 4**n trace inner products.

Coefficients are always real.  Strings with an odd number of Y factors have
purely imaginary trace coefficients against a real matrix, so the factor i
is folded into the unitary itself (i*Y is the real rotation Ry(3*pi)); that
keeps every term a real coefficient times a real unitary.  The shots cost
relies on that: its term states ``A_l V|0>`` are real vectors, so every
overlap is real and one real-part Hadamard test per pair estimates it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .sim import RY_3PI, X, Y, Z

__all__ = [
    "LcuTerm",
    "LcuDecomposition",
    "block_coefficients",
    "decompose_block",
    "pauli_decompose",
    "reconstruct",
]

COEFF_CUTOFF = 1e-12

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": X.matrix,
    "Y": Y.matrix,
    "Z": Z.matrix,
}
_PAULI_GATES = {"X": X, "Y": Y, "Z": Z}
# (x bit, z bit) of each factor in Y = i X Z
_XZ_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class LcuTerm:
    """One summand: ``coefficient * (i**phase) * tensor(paulis)``.

    ``paulis[q]`` is the factor acting on qubit q (qubit 0 = least
    significant amplitude bit).  ``phase`` is 0 or 1; a phase of 1 only
    occurs for strings with an odd number of Y factors, where i times the
    string is again a real matrix.
    """

    coefficient: float
    paulis: str
    phase: int
    label: str

    def __post_init__(self):
        if self.phase not in (0, 1):
            raise ValueError(f"phase must be 0 or 1, got {self.phase}")
        if any(p not in "IXYZ" for p in self.paulis):
            raise ValueError(f"bad Pauli string {self.paulis!r}")
        if self.phase == 1 and "Y" not in self.paulis:
            raise ValueError("phase i requires at least one Y factor to fold into")

    @property
    def n_qubits(self) -> int:
        return len(self.paulis)

    def matrix(self) -> np.ndarray:
        """Dense unitary of the term (without the coefficient)."""
        m = np.array([[1.0 + 0.0j]])
        for q in range(self.n_qubits - 1, -1, -1):  # leftmost kron factor = highest qubit
            m = np.kron(m, _PAULI_MATS[self.paulis[q]])
        return (1j**self.phase) * m

    def ops(self) -> tuple:
        """Gate sequence realizing the unitary; the i is folded into one Y."""
        ops = []
        phase_left = self.phase
        for q, p in enumerate(self.paulis):
            if p == "I":
                continue
            if p == "Y" and phase_left:
                ops.append((RY_3PI, (q,)))  # Ry(3*pi) = i*Y
                phase_left = 0
            else:
                ops.append((_PAULI_GATES[p], (q,)))
        return tuple(ops)


@dataclass(frozen=True)
class LcuDecomposition:
    """Terms summing to a real square matrix of size ``2**n_qubits``."""

    terms: tuple
    n_qubits: int

    def __post_init__(self):
        for t in self.terms:
            if t.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {t.label!r} acts on {t.n_qubits} qubits, expected {self.n_qubits}"
                )

    @property
    def dimension(self) -> int:
        return 1 << self.n_qubits

    def coefficients(self) -> np.ndarray:
        return np.array([t.coefficient for t in self.terms])


def block_coefficients(a: float, b: float) -> tuple[float, float, float, float]:
    """Closed-form weights of [[1-a, a], [0, 1-b]] over (I, X, Z, Ry(3*pi))."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"block inputs must lie in [0, 1], got a={a}, b={b}")
    return (1.0 - a / 2.0 - b / 2.0, a / 2.0, (b - a) / 2.0, a / 2.0)


def decompose_block(a: float, b: float) -> LcuDecomposition:
    """LCU of the 2x2 spline block for interval inputs ``a`` and ``b``.

    Terms with coefficients below the cutoff are dropped, so e.g. a = b = 0
    yields the single term I with weight 1.
    """
    c = block_coefficients(a, b)
    candidates = (
        LcuTerm(c[0], "I", 0, "I"),
        LcuTerm(c[1], "X", 0, "X"),
        LcuTerm(c[2], "Z", 0, "Z"),
        LcuTerm(c[3], "Y", 1, "Ry(3pi)"),
    )
    terms = tuple(t for t in candidates if abs(t.coefficient) >= COEFF_CUTOFF)
    return LcuDecomposition(terms=terms, n_qubits=1)


def pauli_decompose(matrix: np.ndarray) -> LcuDecomposition:
    """Expand a real matrix over Pauli strings and fold phases to real terms.

    With ``D[k, x] = A[k, k^x]`` and the Sylvester-Hadamard matrix H,
    ``T = H D / 2**n`` holds ``T[z, x] = Tr(X^x Z^z A) / 2**n``.  A string
    with y Y factors equals ``i**y X^x Z^z``, so its coefficient is
    ``i**y T[z, x]``, real for even y and ``i`` times a real for odd y; the
    real weight in both cases is ``(-1)**(y // 2) * T[z, x]``.  Terms come
    out in ``product("IXYZ")`` order, qubit n-1 leftmost in the label.

    Raises if the matrix is not real, not square, or not of power-of-two
    size, and double-checks that the retained terms rebuild the input with
    negligible imaginary residue.
    """
    m = np.asarray(matrix)
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) > 0:
            raise ValueError("pauli_decompose expects a real matrix")
        m = m.real
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"matrix size must be a power of two >= 2, got {dim}")

    sylvester = np.ones((1, 1))
    for _ in range(n):
        sylvester = np.block([[sylvester, sylvester], [sylvester, -sylvester]])
    idx = np.arange(dim)
    walsh = sylvester @ m[idx[:, None], idx[:, None] ^ idx] / dim

    terms = []
    for chars in itertools.product("IXYZ", repeat=n):
        x = z = 0
        for ch in chars:  # chars[0] acts on qubit n-1
            bx, bz = _XZ_BITS[ch]
            x, z = (x << 1) | bx, (z << 1) | bz
        n_y = chars.count("Y")
        coefficient = (-1) ** (n_y // 2) * walsh[z, x]
        if abs(coefficient) < COEFF_CUTOFF:
            continue
        s = "".join(chars)
        odd_y = n_y % 2
        # string labels read qubit n-1 on the left, matching bitstrings
        terms.append(LcuTerm(float(coefficient), s[::-1], odd_y, ("i*" if odd_y else "") + s))
    decomp = LcuDecomposition(terms=tuple(terms), n_qubits=n)

    residue = reconstruct(decomp)
    if np.max(np.abs(residue.imag)) > 1e-12:
        raise ValueError("reconstruction has imaginary residue; input was not real")
    if np.max(np.abs(residue.real - m)) > 1e-10:
        raise ValueError("reconstruction drifted from the input matrix")
    return decomp


def reconstruct(decomp: LcuDecomposition) -> np.ndarray:
    """Dense sum of coefficient * unitary over all terms."""
    dim = decomp.dimension
    out = np.zeros((dim, dim), dtype=complex)
    for t in decomp.terms:
        out += t.coefficient * t.matrix()
    return out
