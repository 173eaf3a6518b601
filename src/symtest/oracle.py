"""The quantum function U_f on n+1 qubits.

U_f maps |x, k> to |x, k XOR f(x)>: the last qubit is the ancilla that
stores the function value.  On amplitude vectors this is a permutation
that swaps the pair (2t, 2t+1) exactly where f(t) = 1, i.e. a
block-diagonal matrix of 2x2 identity and swap blocks, so it is applied
as an O(2^n) index permutation and only materialized on request.
"""

import numpy as np

from .bitops import _check_cap
from .boolfunc import TruthTable
from .statevec import StateVector


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
        return StateVector._own(v.amplitudes[self.permutation])  # the gather is a fresh copy

    def matrix(self) -> np.ndarray:
        """Materialize the 0/1 permutation matrix as uint8 (display and tests only)."""
        _check_cap("matrix", self.k, f"matrix on {self.k} qubits")
        dim = 1 << self.k
        m = np.zeros((dim, dim), dtype=np.uint8)
        m[np.arange(dim), self.permutation] = 1
        return m

    def is_involution(self) -> bool:
        """Applying the oracle twice is the identity; exposed for harnesses."""
        p = self.permutation
        return bool(np.array_equal(p[p], np.arange(p.size)))


def format_matrix(m: np.ndarray) -> str:
    """Rows of 0/1 integers, space-separated, written as one ASCII buffer."""
    text = np.full((len(m), 2 * m.shape[1]), ord(" "), np.uint8)  # each digit, then a separator
    np.add(m, ord("0"), out=text[:, ::2], casting="unsafe")
    text[:, -1] = ord("\n")
    return str(memoryview(text.reshape(-1)[:-1]), "ascii")
