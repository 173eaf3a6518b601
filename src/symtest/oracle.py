"""The quantum function U_f on n+1 qubits.

U_f maps |x, k> to |x, k XOR f(x)>: the last qubit is the ancilla that
stores the function value.  On amplitude vectors this is a permutation
that swaps the pair (2t, 2t+1) exactly where f(t) = 1, i.e. a
block-diagonal matrix of 2x2 identity and swap blocks.  The oracle holds
only f's byte table: apply swaps the pairs of a vector's (2^n, 2) view,
and the index permutation and the 0/1 matrix are derived on request.
"""

from collections.abc import Iterator

import numpy as np

from .bitops import _check_cap
from .boolfunc import TruthTable
from .statevec import StateVector


class QuantumOracle:
    """Amplitude-pair permutation for a truth table, ancilla on the last wire."""

    __slots__ = ("function", "k")

    def __init__(self, function: TruthTable):
        self.function = function
        self.k = function.n + 1

    @property
    def permutation(self) -> np.ndarray:
        """Row i of U_f's output is amplitude i ^ f(i >> 1) of its input."""
        return np.arange(1 << self.k) ^ np.repeat(np.frombuffer(self.function.table, np.uint8), 2)

    def apply(self, v: StateVector) -> StateVector:
        """Swap amplitude pairs (2t, 2t+1) wherever f(t) = 1."""
        if v.k != self.k:
            raise ValueError(f"vector has {v.k} qubits, oracle acts on {self.k}")
        pairs, swap = v.amplitudes.reshape(-1, 2), np.frombuffer(self.function.table, bool)
        return StateVector._own(np.where(swap[:, None], pairs[:, ::-1], pairs).reshape(-1))

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


def matrix_lines(m: np.ndarray) -> Iterator[str]:
    """Rows of 0/1 integers, space-separated, each ending in a newline: a
    block of rows at a time, through one reused buffer of about 1 MiB."""
    rows = max(1, (1 << 20) // (2 * m.shape[1]))
    text = np.full((min(rows, len(m)), 2 * m.shape[1]), ord(" "), np.uint8)  # digit, separator
    text[:, -1] = ord("\n")
    for i in range(0, len(m), rows):
        block = text[: len(m) - i]
        np.add(m[i : i + rows], ord("0"), out=block[:, ::2], casting="unsafe")
        yield str(memoryview(block.reshape(-1)), "ascii")


def format_matrix(m: np.ndarray) -> str:
    """Rows of 0/1 integers, space-separated, one row per line."""
    return "".join(matrix_lines(m))[:-1]
