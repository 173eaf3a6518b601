"""Real-valued state vectors on k qubits.

Every gate used here (Hadamard, X, CNOT, parity oracles) is real-valued;
complex phases are out of scope.  Qubit 0 is the leftmost label in
|x1, x2, ...> and the most significant bit of the amplitude index,
matching the truth-table convention.

A StateVector holds frozen float64 amplitudes, safe to share across
threads, and functions on it never mutate their inputs.  butterfly, the
simulators' Hadamard kernel, works in place on a float32 or float64
vector or batch: blocked +-1 matrix products through per-call scratch in
the array's dtype, exact on integer amplitudes below 2^24 in float32
(2^53 in float64).  _scale alone normalizes the 2^(h/2) of h butterflies.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .bitops import _check_cap, bits_to_int, format_bits, int_to_bits, parse_bits

# The unnormalized Hadamard on m wires is the +-1 matrix H^{(x)m}: a block
# costs 2^m multiply-adds per amplitude but only one pass over memory.
_BLOCK_WIRES = 4
_HADAMARD = {dtype: [np.ones((1, 1), dtype)] for dtype in (np.float32, np.float64)}
for matrices in _HADAMARD.values():
    for _ in range(_BLOCK_WIRES):
        matrices.append(np.kron(matrices[-1], np.array([[1, 1], [1, -1]], matrices[0].dtype)))
        matrices[-1].flags.writeable = False
# Amplitudes per chunk of scratch, 128 KB of float32 or 256 KB of float64;
# 2^14 and 2^16 timed the same within noise on a float64 20-wire layer, a
# (4096, 16) batch and verify 6.
_CHUNK = 1 << 15
_NORM_TOLERANCE = 1e-9


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

    def __init__(self, amplitudes):
        self._freeze(np.array(amplitudes, dtype=float))

    @classmethod
    def _own(cls, arr: np.ndarray) -> "StateVector":
        """Wrap a float64 (2^k,) vector or (2^k, 1) batch without copying it.
        The array is frozen in place, so it must be one that no caller holds."""
        arr.flags.writeable = False  # and so every view of it
        v = cls.__new__(cls)
        v._freeze(arr.reshape(-1))
        return v

    def _freeze(self, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.size < 2 or arr.size & (arr.size - 1):
            raise ValueError(f"amplitude count must be a power of two >= 2, got {arr.size}")
        norm = np.sqrt(np.einsum("i,i->", arr, arr))
        if not np.isfinite(norm) and not (finite := np.isfinite(arr)).all():
            raise ValueError(f"state vector amplitudes must be finite, got {arr[~finite][0]}")
        if abs(norm - 1.0) > _NORM_TOLERANCE:
            raise ValueError(f"state vector norm {norm} differs from 1 by more than {_NORM_TOLERANCE}")
        arr.flags.writeable = False
        self.k = arr.size.bit_length() - 1
        self.amplitudes = arr

    def __repr__(self) -> str:
        return f"StateVector(k={self.k}, {format_vector(self)})"


def check_tolerance(tolerance: float) -> None:
    """A comparison tolerance must be a finite, non-negative number: NaN
    compares false with everything, so it would pass or fail every check."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")


def ket_to_vector(ket: BasisKet) -> StateVector:
    _check_cap("qubits", ket.k, f"ket on {ket.k} qubits")
    arr = np.zeros(1 << ket.k)
    arr[ket.index] = float(ket.sign)
    return StateVector._own(arr)


def read_basis_columns(arr: np.ndarray, h: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Read each column of a writeable (2^k, B) batch, left unscaled by an
    even number h of Hadamards, as a signed basis state.

    Column j reads as sign[j] * |index[j]> iff its entry at index[j] is
    exactly +-2^(h/2) and every other entry is exactly 0; else sign[j] is 0.
    index is |sum_i i * a_i| / 2^(h/2), exact as 2^(h/2) is a power of two,
    from two small products over a (2^k / L, L, B) view (L = 2^floor(k/2)),
    clipped into range: no full-length index vector or mask is allocated.
    Its entry is zeroed while the rest of the column is tested, then written
    back, so no other thread may use `arr` meanwhile.
    """
    rows, width = arr.shape
    low = 1 << ((rows.bit_length() - 1) // 2)
    unit = 2.0 ** (h // 2)
    view = arr.reshape(rows // low, low, width)  # row i * low + l at [i, l]
    with np.errstate(all="ignore"):  # an inf or nan entry gives an inf or nan moment
        high = np.arange(rows // low, dtype=arr.dtype) @ view.reshape(rows // low, low * width)
        lows = np.arange(low, dtype=arr.dtype) @ view
        moment = (low * high.reshape(low, width).sum(axis=0) + lows.sum(axis=0)) / unit
    index = np.fmin(np.abs(moment), rows - 1).astype(np.intp)  # nan, too, reads as the last row
    cols = np.arange(width)
    peak = arr[index, cols]
    arr[index, cols] = 0
    rest = arr.any(axis=0)
    arr[index, cols] = peak
    return index, np.where(rest, 0, (peak == unit).astype(np.int64) - (peak == -unit))


def vector_to_ket(v: StateVector, tolerance: float = 1e-9) -> BasisKet:
    """Extract the signed basis ket, or raise NotBasisStateError: the rounded
    amplitudes must read as one, each within `tolerance` of its amplitude."""
    check_tolerance(tolerance)
    rounded = np.round(v.amplitudes)
    index, sign = read_basis_columns(rounded[:, None])
    if not sign[0] or np.abs(v.amplitudes - rounded).max() > tolerance:
        raise NotBasisStateError("vector is not a signed basis state")
    return BasisKet(int(sign[0]), int_to_bits(int(index[0]), v.k))


def butterfly(arr: np.ndarray, qubit: int, count: int = 1) -> None:
    """Unnormalized in-place Hadamard on wires qubit .. qubit+count-1.

    On one wire this is (a, b) -> (a+b, a-b).  The wires are split into
    balanced blocks of at most 4, and each block is one product with the
    +-1 matrix H^{(x)m}, applied a chunk at a time.  `arr` is a float32 or
    float64 (2^k,) vector or C-contiguous (2^k, B) batch of independent columns.
    """
    if not arr.flags.c_contiguous:
        raise ValueError("butterfly needs a C-contiguous array to work in place")
    if arr.dtype.type not in _HADAMARD:
        raise ValueError(f"butterfly works on float32 or float64 amplitudes, got {arr.dtype}")
    if qubit < 0 or count < 0 or len(arr) >> (qubit + count) < 1:
        raise ValueError(f"wires {qubit}..{qubit + count - 1} out of range for {len(arr)} rows")
    blocks = -(-count // _BLOCK_WIRES)
    bounds = [qubit + count * i // blocks for i in range(blocks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        _apply(arr, lo, _HADAMARD[arr.dtype.type][hi - lo])


def _apply(arr: np.ndarray, lo: int, matrix: np.ndarray) -> None:
    """Multiply the m wires from `lo` of a C-contiguous array in place by a real
    2^m x 2^m matrix, through a scratch of at most _CHUNK amplitudes of the
    array's dtype per call, but at least 2^m."""
    size = len(matrix)
    scratch = np.empty(max(size, min(arr.size, _CHUNK)), arr.dtype)
    view = arr.reshape(1 << lo, size, -1)
    if view.shape[2] == 1:
        # The block ends at the last wire of one column: multiply its rows from the right.
        rows, step = arr.reshape(-1, size), scratch.size // size
        for r in range(0, len(rows), step):
            part = rows[r : r + step]
            np.copyto(part, np.matmul(part, matrix.T, out=scratch[: part.size].reshape(part.shape)))
        return
    outer = max(1, scratch.size // view[0].size)
    width = min(view.shape[2], scratch.size // size)
    for p in range(0, len(view), outer):
        for r in range(0, view.shape[2], width):
            part = view[p : p + outer, :, r : r + width]
            np.copyto(part, np.matmul(matrix, part, out=scratch[: part.size].reshape(part.shape)))


def _scale(arr: np.ndarray, h: int) -> np.ndarray:
    """Multiply a batch by 2^(-h/2), the one Hadamard scale, and return it; exact
    at even h.  An odd h takes a correctly rounded sqrt(0.5), in float64."""
    scale = 2.0 ** -(h // 2) * (math.sqrt(0.5) if h % 2 else 1.0)
    if h % 2:
        arr = arr.astype(np.float64, copy=False)
    if scale != 1.0:
        arr *= scale
    return arr


def hadamard_all(v: StateVector) -> StateVector:
    """Apply the k-fold Hadamard tensor; unitary and its own inverse."""
    arr = v.amplitudes.copy()
    butterfly(arr, 0, v.k)
    return StateVector._own(_scale(arr, v.k))


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
        if n0 <= min(tolerance, n1):  # of two halves within the tolerance, drop the smaller
            factors.append((0.0, 1.0))
            rest = half[1] / n1
        elif n1 <= tolerance:
            factors.append((1.0, 0.0))
            rest = half[0] / n0
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
