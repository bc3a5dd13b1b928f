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

Every term is a signed permutation, ``X^x Z^z |j> = (-1)**popcount(j & z)
|j ^ x>``, and its global factor ``i**(phase + #Y)`` is +-1, so
:func:`signed_permutations` gives each term as an index map and a sign
vector: :func:`reconstruct` scatters those into a real matrix, and the
shots cost gathers with them.  One map, :func:`_pauli_masks`, takes factors
to (x, z, #Y) for both :func:`pauli_decompose` and :func:`signed_permutations`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import as_matrix
from .sim import RY_3PI, X, Y, Z, qubit_count

__all__ = [
    "LcuTerm",
    "LcuDecomposition",
    "block_coefficients",
    "decompose_block",
    "pauli_decompose",
    "reconstruct",
    "signed_permutations",
]

COEFF_CUTOFF = 1e-12

_PAULI_GATES = {"X": X, "Y": Y, "Z": Z}
_LETTERS = np.frombuffer(b"IXYZ", dtype=np.uint8)  # digit d's factor, in ascending bytes


@dataclass(frozen=True)
class LcuTerm:
    """One summand: ``coefficient * (i**phase) * tensor(paulis)``.

    ``paulis[q]`` is the factor acting on qubit q (qubit 0 = least
    significant amplitude bit).  ``phase`` is the parity of the number of Y
    factors: i times a string with an odd number of them is again a real
    matrix, so every term is real.
    """

    coefficient: float
    paulis: str
    label: str

    def __post_init__(self):
        if any(p not in "IXYZ" for p in self.paulis):
            raise ValueError(f"bad Pauli string {self.paulis!r}")

    @property
    def phase(self) -> int:
        return self.paulis.count("Y") % 2

    @property
    def n_qubits(self) -> int:
        return len(self.paulis)

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
        _check_width(self.terms, self.n_qubits)

    def coefficients(self) -> np.ndarray:
        return np.array([t.coefficient for t in self.terms])


def _check_width(terms, n_qubits: int) -> None:
    for t in terms:
        if t.n_qubits != n_qubits:
            raise ValueError(f"term {t.label!r} acts on {t.n_qubits} qubits, expected {n_qubits}")


def _pauli_masks(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks x, z and Y count of each column of ``digits`` (row q: the factor
    I, X, Y, Z = 0..3 on qubit q), whose string is ``i**#Y X^x Z^z``."""
    weights = 1 << np.arange(digits.shape[0])
    x = weights @ ((digits == 1) | (digits == 2))
    z = weights @ (digits >= 2)
    return x, z, np.count_nonzero(digits == 2, axis=0)


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
        LcuTerm(c[0], "I", "I"),
        LcuTerm(c[1], "X", "X"),
        LcuTerm(c[2], "Z", "Z"),
        LcuTerm(c[3], "Y", "Ry(3pi)"),
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
    size, and double-checks that the retained terms rebuild the input.
    """
    m = as_matrix(matrix)
    dim = m.shape[0]
    n = qubit_count(dim)

    idx = np.arange(dim)
    sylvester = (-1.0) ** np.bitwise_count(idx[:, None] & idx)  # H[i, j]
    walsh = sylvester @ m[idx[:, None], idx[:, None] ^ idx] / dim

    # the 4**n strings in product("IXYZ") order, one per column, qubit q in row q
    digits = np.indices((4,) * n, dtype=np.uint8).reshape(n, -1)[::-1]
    x, z, n_y = _pauli_masks(digits)
    coefficients = np.where(n_y // 2 % 2, -1.0, 1.0) * walsh[z, x]
    kept = np.flatnonzero(~(np.abs(coefficients) < COEFF_CUTOFF))
    # kept columns as strings, qubit 0 first; labels reverse them to read like bitstrings
    strings = _LETTERS[digits[:, kept].T].view(f"S{n}").astype(str).ravel().tolist()
    terms = tuple(LcuTerm(float(coefficients[k]), s, ("i*" if n_y[k] % 2 else "") + s[::-1])
                  for k, s in zip(kept, strings))
    decomp = LcuDecomposition(terms=terms, n_qubits=n)

    if np.max(np.abs(reconstruct(decomp) - m)) > 1e-10:
        raise ValueError("reconstruction drifted from the input matrix")
    return decomp


def signed_permutations(terms, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign arrays ``(cols, signs)`` of real Pauli terms, each of
    shape ``(len(terms), 2**n_qubits)``.

    Row i of term t's unitary ``sign * X^x Z^z`` holds its one nonzero entry,
    ``signs[t, i] = sign * (-1)**popcount(cols[t, i] & z)``, at column
    ``cols[t, i] = i ^ x``; so the unitary maps v to ``signs[t] * v[cols[t]]``.
    Every term's string must be ``n_qubits`` long.
    """
    _check_width(terms, n_qubits)
    codes = np.frombuffer("".join(t.paulis for t in terms).encode(), dtype=np.uint8)
    x, z, n_y = _pauli_masks(np.searchsorted(_LETTERS, codes).reshape(-1, n_qubits).T)
    cols = np.arange(1 << n_qubits) ^ x[:, None]
    sign = np.where((n_y % 2 + n_y) % 4, -1.0, 1.0)[:, None]  # i**(phase + #Y)
    signs = np.where(np.bitwise_count(cols & z[:, None]) & 1, -sign, sign)
    return cols, signs


def reconstruct(decomp: LcuDecomposition) -> np.ndarray:
    """Dense sum of coefficient * unitary over all terms, in term order, as a
    real matrix: every term is real."""
    dim = 1 << decomp.n_qubits
    cols, entries = signed_permutations(decomp.terms, decomp.n_qubits)
    entries *= decomp.coefficients()[:, None]
    out = np.zeros((dim, dim))
    rows = np.broadcast_to(np.arange(dim), cols.shape)
    np.add.at(out, (rows, cols), entries)
    return out
