"""Gate-list circuits: CNOT oracles and their Hadamard-free equivalents.

A circuit is an ordered list of H/X/CNOT gates on a fixed number of
wires plus a global +-1 sign.  The sign is tracked on the circuit rather
than as a gate so that negative functions ("multiplied by -1") keep
hardware-realistic gate lists.

Equivalences are always established numerically, by simulating both
circuits on basis inputs, never by rewrite identities.  Note that the
Hadamard-sandwiched CNOT oracle agrees with its X-gate equivalent only
on inputs whose function wire is |1>; on |0> ancilla inputs the sandwich
is the identity.  assert_equivalent therefore takes an explicit input
set, and the pipeline checks pass the ancilla-1 basis states.

Gate lists also hold the pipeline's two stages: U, the oracle of the
truth table in its `arg`, on the last wire, and R, a real rotation by
the angle in its `arg`.  _simulate_batch is the one simulator, for these
circuits and the pipeline alike.  It works on a (2^k, B) array whose
columns are basis inputs.  The fill writes the leading run of H gates on
distinct wires in closed form, H^(x)W on a signed basis state, as one
outer product of two small +-1/0 factors (a one-hot scatter when there is
no such run).  After it, a run of H gates on distinct wires is one
butterfly call per contiguous wire range (blocked +-1 matrix products,
exact on integer amplitudes below 2^24 in float32), a run of X, CNOT and
U gates is one permutation of the array's rows, gathered in place a chunk
at a time (pure copies, so exact), R is a 2 x 2 block product, and the
Hadamard scale is applied once at the end, so a circuit with an even
number of H gates is simulated exactly.  Batches that are read out are
float32 when _batch_dtype allows, else float64; simulate_circuit, the
one-column case, keeps float64.  assert_equivalent reads its inputs in
chunks of at most 2^16 amplitudes (16 columns at 12 wires), simulated into
reused buffers, so its memory stays bounded however many inputs it checks.
"""

import functools
import math
import numbers
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby, islice, product

import numpy as np

from . import statevec
from .boolfunc import TruthTable, to_parity_form
from .statevec import BasisKet, StateVector, _apply, butterfly, check_state_columns, check_tolerance

MAX_EQUIV_QUBITS = 12
# Amplitudes per batch in assert_equivalent, 512 KB of float64 for each
# circuit and 256 KB of float32 for a circuit simulated in float32: 16 input
# columns at 12 wires and fewer at more, so its memory is bounded for any
# wire count.  At 12 wires, 4 columns ran 1.7x slower, and 32 no faster.
_BATCH_AMPLITUDES = 1 << 16

# The fill's +-1 table (-1)^|r & y| for r, y < 2^6, 4 KB of int8; its top-left
# 2^m x 2^m block serves m <= 6 bits, and longer halves are built from it
# per call.  A table for the 10-bit halves of 20 wires would hold 1 MB for
# the life of the process and lift a first run at n = 19 past 1.25 states.
_SYLVESTER_BITS = 6
_SYLVESTER = np.ones((1, 1), np.int8)
for _ in range(_SYLVESTER_BITS):
    _SYLVESTER = np.kron(_SYLVESTER, np.array([[1, 1], [1, -1]], np.int8))
_SYLVESTER.flags.writeable = False

_GATE_ARITY = {"H": 1, "X": 1, "CNOT": 2, "U": 1, "R": 1}


@dataclass(frozen=True)
class Gate:
    """A gate on `qubits`; the stages U and R take their table or angle as `arg`."""

    name: str
    qubits: tuple[int, ...]
    arg: TruthTable | float | None = None

    def __post_init__(self):
        if self.name not in _GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != _GATE_ARITY[self.name]:
            raise ValueError(f"{self.name} takes {_GATE_ARITY[self.name]} qubit(s)")
        if self.name == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT control and target must differ")
        if (self.arg is None) == (self.name in ("U", "R")):
            raise ValueError(f"{self.name}: U and R need an argument, other gates take none")
        if self.name == "U" and not isinstance(self.arg, TruthTable):
            raise ValueError(f"U takes a TruthTable, got {type(self.arg).__name__}")
        if self.name == "U" and self.qubits != (self.arg.n,):
            raise ValueError(f"U of an n={self.arg.n} table targets wire {self.arg.n}")
        if self.name == "R" and not isinstance(self.arg, numbers.Real):
            raise ValueError(f"R takes a real angle, got {type(self.arg).__name__}")
        if self.name == "R" and not math.isfinite(self.arg):
            raise ValueError(f"rotation angle must be finite, got {self.arg}")

    def __str__(self) -> str:
        return " ".join([self.name] + [str(q) for q in self.qubits])


def H(qubit: int) -> Gate:
    return Gate("H", (qubit,))


def X(qubit: int) -> Gate:
    return Gate("X", (qubit,))


def CNOT(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


@dataclass(frozen=True)
class Circuit:
    wires: int
    gates: tuple[Gate, ...] = ()
    global_sign: int = 1

    def __post_init__(self):
        if self.wires < 1:
            raise ValueError("a circuit needs at least one wire")
        if self.global_sign not in (1, -1):
            raise ValueError(f"global sign must be +1 or -1, got {self.global_sign}")
        for g in self.gates:
            if any(q < 0 or q >= self.wires for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {self.wires} wires")
            if g.name == "U" and g.qubits[0] != self.wires - 1:
                raise ValueError(f"U must target the last of the {self.wires} wires")

    def __str__(self) -> str:
        sign = "+1" if self.global_sign > 0 else "-1"
        lines = [f"wires={self.wires} sign={sign}"]
        lines += [str(g) for g in self.gates]
        return "\n".join(lines)


def oracle_as_cnots(f: TruthTable) -> Circuit:
    """CNOT realization of U_f: one CNOT per mask bit into the ancilla,
    plus an X on the ancilla for complemented functions."""
    pf = to_parity_form(f)
    gates = [CNOT(i, f.n) for i, b in enumerate(pf.mask) if b]
    if pf.complement:
        gates.append(X(f.n))
    return Circuit(f.n + 1, tuple(gates))


def compile_equivalent(f: TruthTable) -> Circuit:
    """Hadamard-free equivalent of the full pipeline on ancilla-1 inputs:
    X on each mask qubit, nothing on the ancilla, sign (-1)^complement."""
    pf = to_parity_form(f)
    gates = tuple(X(i) for i, b in enumerate(pf.mask) if b)
    return Circuit(f.n + 1, gates, -1 if pf.complement else 1)


@functools.cache
def hadamard_layer(wires: int) -> tuple[Gate, ...]:
    """H on every wire; built once per wire count, as the pipeline uses it per call."""
    return tuple(H(q) for q in range(wires))


def pipeline_as_circuit(f: TruthTable) -> Circuit:
    """The full wiring: H on every wire, the CNOT oracle, H on every wire."""
    layer = hadamard_layer(f.n + 1)
    return Circuit(f.n + 1, layer + oracle_as_cnots(f).gates + layer)


def _hadamards(arr: np.ndarray, wires: list[int]) -> int:
    """H on each of the distinct `wires`, one butterfly call per contiguous
    range of them; returns the number of H gates applied."""
    for _, run in groupby(enumerate(sorted(wires)), lambda pair: pair[1] - pair[0]):
        run = list(run)
        butterfly(arr, run[0][1], len(run))
    return len(wires)


def _unpermute(gates: list[Gate], k: int, idx, tmp, bits) -> None:
    """Map the consecutive rows in `idx` in place to their preimages under a
    run of X, CNOT and U gates on k wires: each gate is its own inverse, so
    the run is undone from its end.  `tmp` and `bits` are scratch."""
    for i, g in enumerate(reversed(gates)):
        pos = [k - 1 - q for q in g.qubits]  # wire 0 is the most significant bit
        if g.name == "X":  # x ^= bit(q)
            np.bitwise_xor(idx, 1 << pos[0], out=idx)
        elif g.name == "CNOT":  # x ^= x[c] << t
            np.right_shift(idx, pos[0], out=tmp)
            np.bitwise_and(tmp, 1, out=tmp)
            np.left_shift(tmp, pos[1], out=tmp)
            np.bitwise_xor(idx, tmp, out=idx)
        else:  # U: the ancilla, bit 0, ^= f(x >> 1)
            table = np.frombuffer(g.arg.table, np.uint8)
            if i == 0 and len(idx) > 1:
                # Still consecutive rows: one uint16 of `bits` holds f(t) for rows 2t and 2t+1.
                start = int(idx[0]) >> 1
                pairs = table[start : start + len(idx) // 2]
                np.multiply(pairs, np.uint16(0x101), out=bits.view(np.uint16))
            else:
                np.right_shift(idx, 1, out=tmp)
                np.take(table, tmp, out=bits, mode="clip")
            np.bitwise_xor(idx, bits, out=idx)


def _permute(arr: np.ndarray, gates: list[Gate]) -> None:
    """Apply a run of X, CNOT and U gates to the rows of the C-contiguous
    (2^k, B) array `arr` in place, as one row gather: row i of the result is
    row sigma^-1(i), sigma the run's permutation of basis states.

    Rows move in chunks of at most _CHUNK amplitudes and _CHUNK / 4 rows (or
    one row), through buffers allocated once per call: a row also takes up
    to 25 bytes of index scratch.  sigma changes only target bits, so a
    chunk draws its rows from one source chunk, and chunks move along the
    cycles of that map with one chunk held aside.  A CNOT with its target
    above the chunk and its control inside breaks that rule; it is applied
    alone, as a masked exchange of chunk pairs through the held chunk.
    """
    k = len(arr).bit_length() - 1
    low = min(k, max(1, statevec._CHUNK // max(4, arr.shape[1])).bit_length() - 1)  # row bits in a chunk
    chunks = arr.reshape(-1, 1 << low, arr.shape[1])
    held = np.empty_like(chunks[0])
    rows = np.arange(1 << low)
    idx, bits = np.empty_like(rows), np.empty(len(rows), np.uint8)
    # Shifted indices, which a lone X or U (the pipeline's U stage) does not need.
    tmp = None if [g.name for g in gates] in (["X"], ["U"]) else np.empty_like(rows)

    def splits(g: Gate) -> bool:
        return g.name == "CNOT" and k - 1 - g.qubits[1] >= low > k - 1 - g.qubits[0]

    for split, part in groupby(gates, splits):
        part = list(part)
        if split:
            for g in part:
                # Rows with the control set trade places with the same rows of the partner chunk.
                step = 1 << (k - 1 - g.qubits[1] - low)
                np.right_shift(rows, k - 1 - g.qubits[0], out=idx)
                mask = np.bitwise_and(idx, 1, out=idx).astype(bool)[:, None]
                for j in range(len(chunks)):
                    if not j & step:
                        np.copyto(held, chunks[j])
                        np.copyto(chunks[j], chunks[j | step], where=mask)
                        np.copyto(chunks[j | step], held, where=mask)
            continue
        moved = [False] * len(chunks)
        for first in range(len(chunks)):
            if moved[first]:
                continue
            np.copyto(held, chunks[first])
            j = first
            while not moved[j]:
                moved[j] = True
                np.add(rows, j << low, out=idx)
                _unpermute(part, k, idx, tmp, bits)
                source = int(idx[0]) >> low  # all of chunk j's rows come from this chunk
                np.bitwise_and(idx, len(rows) - 1, out=idx)
                origin = held if source == first else chunks[source]
                np.take(origin, idx, axis=0, out=chunks[j], mode="clip")
                j = source


def _leading_hadamards(gates: Sequence[Gate]) -> list[int]:
    """Wires of the longest prefix of `gates` that is H on distinct wires."""
    wires: list[int] = []
    for g in gates:
        if g.name != "H" or g.qubits[0] in wires:
            break
        wires.append(g.qubits[0])
    return wires


def _signs(x: np.ndarray, w: int, m: int) -> np.ndarray:
    """The int8 (2^m, B) factor of the fill on m index bits: row r of column
    j is (-1)^|r & x[j] & w| where r agrees with x[j] off the bits w, else 0.
    Halves of more than _SYLVESTER_BITS bits are outer products of their own
    halves."""
    if m > _SYLVESTER_BITS:
        lo, mask = m // 2, (1 << (m // 2)) - 1
        high, low = _signs(x >> lo, w >> lo, m - lo), _signs(x & mask, w & mask, lo)
        return (high[:, None] * low[None]).reshape(1 << m, -1)
    out = _SYLVESTER[: 1 << m, x & w]
    off = ~w & ((1 << m) - 1)
    if off:
        out *= (np.arange(1 << m)[:, None] & off) == (x & off)
    return out


def _fill(arr: np.ndarray, index, sign, wires: list[int]) -> int:
    """Fill the C-contiguous (2^k, B) array `arr` with the unnormalized
    columns H^(x)W sign[j] |index[j]>, W the distinct `wires`, and return
    the number of H gates, len(W).

    Column j is sign[j] * (-1)^|r & x & W| in each row r that agrees with
    x = index[j] off W, and 0 elsewhere (Bernstein-Vazirani).  That factors
    over the high and low halves of r, so the batch is one outer product
    of two int8 factors written in one pass; the integer zeros cast to +0.0,
    as the butterfly leaves them.  With no wires it is the one-hot scatter.
    """
    if not wires:
        arr.fill(0.0)
        arr[index, np.arange(len(index))] = sign
        return 0
    k = len(arr).bit_length() - 1
    x = np.asarray(index, dtype=np.int64)
    w = sum(1 << (k - 1 - q) for q in wires)  # wire 0 is the most significant bit
    lo, mask = k // 2, (1 << (k // 2)) - 1
    high, low = _signs(x >> lo, w >> lo, k - lo), _signs(x & mask, w & mask, lo)
    high *= np.asarray(sign, dtype=np.int8)
    np.multiply(high[:, None], low[None], out=arr.reshape(len(high), len(low), -1))
    return len(wires)


def _apply_gates(gates: Iterable[Gate], arr: np.ndarray) -> int:
    """Apply the gates in place to the C-contiguous (2^k, B) array `arr` and
    return the number h of H gates applied.

    A run of H gates on distinct wires is applied when any other gate or a
    repeated wire ends it; a run of X, CNOT and U gates is one row
    permutation, and R mixes the two halves of its wire.
    """
    h = 0
    for kind, run in groupby(gates, lambda g: "P" if g.name in ("X", "CNOT", "U") else g.name):
        if kind == "P":
            _permute(arr, list(run))
        elif kind == "R":
            for g in run:
                c, s = math.cos(g.arg), math.sin(g.arg)
                _apply(arr, g.qubits[0], np.array([[c, -s], [s, c]]))
        else:
            wires: list[int] = []  # a run of H gates on distinct wires, not yet applied
            for g in run:
                if g.qubits[0] in wires:
                    h += _hadamards(arr, wires)
                    wires = []
                wires.append(g.qubits[0])
            h += _hadamards(arr, wires)
    return h


def _batch_dtype(gates: Sequence[Gate]) -> type:
    """float32 for gates with no R and at most 24 H after the fill, float64
    otherwise.  The fill writes +-1 or 0, permutations copy, and each H at
    most doubles the largest magnitude, so every amplitude and partial sum
    of a +-1 block product is an integer within 2^24, exact in float32."""
    rest = gates[len(_leading_hadamards(gates)) :]
    narrow = sum(g.name == "H" for g in rest) <= 24 and all(g.name != "R" for g in rest)
    return np.float32 if narrow else np.float64


def _simulate_batch(gates: Sequence[Gate], index, sign, arr: np.ndarray) -> int:
    """Simulate the gates on the columns sign[j] * |index[j]> of the
    C-contiguous (2^k, B) array `arr`, in place, and return the number h of
    H gates applied; _scale then normalizes the batch.

    The leading run of H gates on distinct wires is the fill's, in closed
    form; the gates after it are applied to the filled batch.
    """
    lead = _leading_hadamards(gates)
    return _fill(arr, index, sign, lead) + _apply_gates(gates[len(lead) :], arr)


def _scale(arr: np.ndarray, h: int, global_sign: int = 1) -> np.ndarray:
    """Multiply a batch by global_sign * 2^(-h/2) and return it; exact when h is
    even.  An odd h scales a float32 batch as a float64 copy, as float64 would."""
    scale = global_sign * 2.0 ** -(h // 2) * (math.sqrt(0.5) if h % 2 else 1.0)
    if h % 2:
        arr = arr.astype(np.float64, copy=False)
    if scale != 1.0:
        arr *= scale
    return arr


def _columns(kets: list[BasisKet], wires: int) -> tuple[list[int], list[int]]:
    """Basis indices and signs of the kets, which must all be `wires` wide."""
    for ket in kets:
        if ket.k != wires:
            raise ValueError(f"input has {ket.k} bits, circuit has {wires} wires")
    return [ket.index for ket in kets], [ket.sign for ket in kets]


def simulate_circuit(
    circ: Circuit, input: BasisKet, max_qubits: int = statevec.MAX_QUBITS
) -> StateVector:
    """Apply the gates left to right to the input ket's vector."""
    if circ.wires > max_qubits:
        raise ValueError(f"circuit on {circ.wires} wires exceeds the cap of {max_qubits}")
    index, sign = _columns([input], circ.wires)
    arr = np.empty((1 << circ.wires, 1))
    h = _simulate_batch(circ.gates, index, sign, arr)
    return StateVector._own(_scale(arr, h, circ.global_sign))


def iter_basis_inputs(wires: int, last_bit: int | None = None) -> Iterator[BasisKet]:
    """All positive computational basis kets, optionally with the last wire fixed."""
    free = wires if last_bit is None else wires - 1
    for bits in product((0, 1), repeat=free):
        if last_bit is not None:
            bits = bits + (last_bit,)
        yield BasisKet(1, bits)


def assert_equivalent(
    a: Circuit,
    b: Circuit,
    tol: float = 1e-9,
    inputs: Iterable[BasisKet] | None = None,
    max_qubits: int = MAX_EQUIV_QUBITS,
) -> bool:
    """True iff both circuits produce the same vector on every given basis
    input (all of them by default).

    Inputs are simulated as the columns of two reused float64 batches of at
    most _BATCH_AMPLITUDES amplitudes (through a float32 one when
    _batch_dtype allows), and the check stops at the first batch that
    differs; a ket of the wrong width raises ValueError when its batch is read.
    """
    if a.wires != b.wires:
        raise ValueError(f"wire counts differ: {a.wires} vs {b.wires}")
    if a.wires > max_qubits:
        raise ValueError(f"equivalence check on {a.wires} wires exceeds the cap of {max_qubits}")
    check_tolerance(tol)
    if inputs is None:
        inputs = iter_basis_inputs(a.wires)
    inputs = iter(inputs)
    columns = max(1, _BATCH_AMPLITUDES >> a.wires)
    work = None
    while chunk := list(islice(inputs, columns)):
        index, sign = _columns(chunk, a.wires)
        size = (1 << a.wires) * len(chunk)
        if work is None:  # the first chunk is the widest
            work = (np.empty(size), np.empty(size), np.empty(size, np.float32))
        va, vb, small = (w[:size].reshape(-1, len(chunk)) for w in work)
        for c, out in ((a, va), (b, vb)):
            arr = small if _batch_dtype(c.gates) == np.float32 else out
            arr = _scale(arr, _simulate_batch(c.gates, index, sign, arr), c.global_sign)
            if arr is not out:
                np.copyto(out, arr)
        check_state_columns(va)
        check_state_columns(vb)
        va -= vb
        if not np.abs(va, out=va).max() <= tol:
            return False
    return True
