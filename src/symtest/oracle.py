"""The quantum function U_f on n+1 qubits.

U_f maps |x, k> to |x, k XOR f(x)>: the last qubit is the ancilla that
stores the function value.  On amplitude vectors this is a permutation
that swaps the pair (2t, 2t+1) exactly where f(t) = 1, i.e. a
block-diagonal matrix of 2x2 identity and swap blocks, so it is applied
as an O(2^n) index permutation and only materialized on request.
"""

import numpy as np

from .boolfunc import TruthTable
from .statevec import StateVector

MAX_MATRIX_QUBITS = 12


class QuantumOracle:
    """Amplitude-pair permutation for a truth table, ancilla on the last wire."""

    __slots__ = ("function", "k", "permutation")

    def __init__(self, function: TruthTable):
        self.function = function
        self.k = function.n + 1
        perm = np.arange(1 << self.k)
        ones = 2 * np.flatnonzero(np.frombuffer(function.table, np.uint8))
        perm[ones], perm[ones + 1] = ones + 1, ones
        perm.flags.writeable = False
        self.permutation = perm

    def apply(self, v: StateVector) -> StateVector:
        """Swap amplitude pairs (2t, 2t+1) wherever f(t) = 1."""
        if v.k != self.k:
            raise ValueError(f"vector has {v.k} qubits, oracle acts on {self.k}")
        return StateVector(v.amplitudes[self.permutation])

    def matrix(self, max_qubits: int = MAX_MATRIX_QUBITS) -> np.ndarray:
        """Materialize the 0/1 permutation matrix (display and tests only)."""
        if self.k > max_qubits:
            raise ValueError(f"matrix on {self.k} qubits exceeds the cap of {max_qubits}")
        dim = 1 << self.k
        m = np.zeros((dim, dim), dtype=int)
        m[np.arange(dim), self.permutation] = 1
        return m

    def is_involution(self) -> bool:
        """Applying the oracle twice is the identity; exposed for harnesses."""
        p = self.permutation
        return bool(np.array_equal(p[p], np.arange(p.size)))


def format_matrix(m: np.ndarray) -> str:
    """Rows of 0/1 integers, space-separated."""
    return "\n".join(" ".join(str(int(x)) for x in row) for row in m)
