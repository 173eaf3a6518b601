"""Real-valued state vectors on k qubits.

Every gate used here (Hadamard, X, CNOT, parity oracles) is real-valued,
so amplitudes are stored as float64; complex phases are out of scope.
Qubit 0 is the leftmost label in |x1, x2, ...> and the most significant
bit of the amplitude index, matching the truth-table convention.

All operations are pure: inputs are never mutated and amplitude arrays
are frozen, so values are safe to share across threads.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .bitops import bits_to_int, format_bits, int_to_bits, parse_bits

MAX_QUBITS = 20


class NotBasisStateError(ValueError):
    """The vector is not a signed computational basis state."""


class EntangledError(ValueError):
    """The vector has no tensor-product factorization into single qubits."""


@dataclass(frozen=True)
class BasisKet:
    """A signed computational basis state, e.g. -|0,0,1>."""

    sign: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError("ket bits must be a nonempty 0/1 sequence")

    @property
    def k(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        return bits_to_int(self.bits)

    def __neg__(self) -> "BasisKet":
        return BasisKet(-self.sign, self.bits)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + format_bits(self.bits)


def parse_ket(text: str) -> BasisKet:
    """Parse a signed bitstring such as "+10001" or "-00101"; sign optional."""
    s = text.strip()
    sign = 1
    if s[:1] in ("+", "-"):
        sign = 1 if s[0] == "+" else -1
        s = s[1:]
    return BasisKet(sign, parse_bits(s))


class StateVector:
    """Unit-norm real amplitude vector of dimension 2^k."""

    __slots__ = ("k", "amplitudes")

    def __init__(self, amplitudes, norm_tol: float = 1e-9):
        arr = np.array(amplitudes, dtype=float)
        if arr.ndim != 1 or arr.size < 2 or arr.size & (arr.size - 1):
            raise ValueError(f"amplitude count must be a power of two >= 2, got {arr.size}")
        check_state_columns(arr[:, None], norm_tol)
        arr.flags.writeable = False
        self.k = arr.size.bit_length() - 1
        self.amplitudes = arr

    def __repr__(self) -> str:
        return f"StateVector(k={self.k}, {format_vector(self)})"


def check_state_columns(arr: np.ndarray, norm_tol: float = 1e-9) -> None:
    """Raise ValueError unless every column of a (2^k, B) batch is a finite
    unit vector; the checks StateVector makes, one column at a time."""
    norms = np.sqrt(np.einsum("ij,ij->j", arr, arr))
    if not np.isfinite(norms).all():
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(f"state vector amplitudes must be finite, got {arr[~finite][0]}")
    bad = np.abs(norms - 1.0) > norm_tol
    if bad.any():
        norm = norms[bad][0]
        raise ValueError(f"state vector norm {norm} differs from 1 by more than {norm_tol}")


def check_tolerance(tolerance: float) -> None:
    """A comparison tolerance must be a finite, non-negative number: NaN
    compares false with everything, so it would pass or fail every check."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")


def ket_to_vector(ket: BasisKet, max_qubits: int = MAX_QUBITS) -> StateVector:
    if ket.k > max_qubits:
        raise ValueError(f"ket has {ket.k} qubits, cap is {max_qubits}")
    arr = np.zeros(1 << ket.k)
    arr[ket.index] = float(ket.sign)
    return StateVector(arr)


def read_basis_columns(arr: np.ndarray, tolerance: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Read every column of a (2^k, B) amplitude batch as a signed basis state.

    Column j reads as sign[j] * |index[j]> when exactly one amplitude has
    magnitude within `tolerance` of 1 and all others are within
    `tolerance` of 0, which signals that no superposition or
    entanglement remains.  sign[j] is 0 for every other column.
    """
    check_tolerance(tolerance)
    mags = np.abs(arr)
    cols = np.arange(arr.shape[1])
    index = np.argmax(mags, axis=0)
    peak = mags[index, cols]
    mags[index, cols] = 0.0
    ok = (np.abs(peak - 1.0) <= tolerance) & (mags.max(axis=0) <= tolerance)
    sign = np.where(ok, np.where(arr[index, cols] > 0, 1, -1), 0)
    return index, sign


def vector_to_ket(v: StateVector, tolerance: float = 1e-9) -> BasisKet:
    """Extract the signed basis ket, or raise NotBasisStateError.

    The one-column case of read_basis_columns.
    """
    index, sign = read_basis_columns(v.amplitudes[:, None], tolerance)
    if not sign[0]:
        raise NotBasisStateError("vector is not a signed basis state")
    return BasisKet(int(sign[0]), int_to_bits(int(index[0]), v.k))


def butterfly(arr: np.ndarray, qubit: int) -> None:
    """Unnormalized in-place Hadamard on one qubit: (a, b) -> (a+b, a-b).

    `arr` is a (2^k,) vector or a C-contiguous (2^k, B) batch whose
    columns are independent states; the reshape folds the batch axis
    into the trailing axis, so both take the same path.
    """
    if not arr.flags.c_contiguous:
        raise ValueError("butterfly needs a C-contiguous array to work in place")
    shaped = arr.reshape(1 << qubit, 2, -1)
    a = shaped[:, 0, :]
    b = shaped[:, 1, :]
    if a.shape[1] < 8:
        # Runs shorter than a 64-byte cache line cost one ufunc inner-loop
        # call each, so iterate along the long axis instead.
        a, b = a.T, b.T
    t = np.subtract(a, b, order="C")
    np.add(a, b, out=a, order="C")
    b[...] = t


def hadamard_all(v: StateVector) -> StateVector:
    """Apply the k-fold Hadamard tensor; unitary and its own inverse."""
    arr = v.amplitudes.copy()
    for q in range(v.k):
        butterfly(arr, q)
    return StateVector(arr / math.sqrt(1 << v.k))


def factor_product_state(v: StateVector, tolerance: float = 1e-9) -> list[tuple[float, float]]:
    """Split a product state into k single-qubit amplitude pairs.

    Factors are peeled off qubit by qubit and the Kronecker product of
    the result is checked against the input; a vector that cannot be
    reconstructed this way is entangled and raises EntangledError.
    """
    check_tolerance(tolerance)
    factors: list[tuple[float, float]] = []
    rest = v.amplitudes
    for _ in range(v.k - 1):
        half = rest.reshape(2, -1)
        n0 = float(np.linalg.norm(half[0]))
        n1 = float(np.linalg.norm(half[1]))
        if n0 <= tolerance:
            factors.append((0.0, 1.0))
            rest = half[1]
        elif n1 <= tolerance:
            factors.append((1.0, 0.0))
            rest = half[0]
        else:
            sign = 1.0 if float(half[0] @ half[1]) >= 0.0 else -1.0
            scale = math.hypot(n0, n1)
            factors.append((n0 / scale, sign * n1 / scale))
            rest = half[0] * (scale / n0)
    factors.append((float(rest[0]), float(rest[1])))

    recon = np.ones(1)
    for f in factors:
        recon = np.kron(recon, np.array(f))
    if not np.allclose(recon, v.amplitudes, rtol=0, atol=tolerance):
        raise EntangledError("vector has no single-qubit factorization")
    return factors


def format_vector(v: StateVector) -> str:
    """Render amplitudes, using "(...)/sqrt(2^k)" when the pattern allows.

    Integer amplitude patterns print plainly; patterns that are integer
    multiples of 1/sqrt(2^k) print in rational form; anything else falls
    back to decimals.
    """
    a = v.amplitudes
    if np.allclose(a, np.round(a), rtol=0, atol=1e-9):
        body = " ".join(str(int(round(x))) for x in a)
        return f"({body})"
    scaled = a * math.sqrt(1 << v.k)
    if np.allclose(scaled, np.round(scaled), rtol=0, atol=1e-9):
        body = " ".join(str(int(round(x))) for x in scaled)
        return f"({body})/√{1 << v.k}"
    body = " ".join(format(x, ".10g") for x in a)
    return f"({body})"


# The radicand must be nonzero: "/sqrt(0)" is no suffix, so it reads as malformed.
_SQRT_SUFFIX = re.compile(r"/\s*(?:√|sqrt)\s*\(?\s*(0*[1-9]\d*)\s*\)?\s*$", re.IGNORECASE)


def parse_vector(text: str) -> StateVector:
    """Parse "(1 -1 1 -1)/sqrt(4)" style vectors; plain numbers also accepted."""
    s = text.strip()
    divisor = 1.0
    m = _SQRT_SUFFIX.search(s)
    if m:
        divisor = math.sqrt(int(m.group(1)))
        s = s[: m.start()]
    s = s.strip().strip("()").replace(",", " ")
    try:
        values = [float(tok) for tok in s.split()]
    except ValueError:
        raise ValueError(f"malformed vector: {text!r}") from None
    if not values:
        raise ValueError(f"malformed vector: {text!r}")
    return StateVector(np.array(values) / divisor)
