"""Gate-list circuits: CNOT oracles and their Hadamard-free equivalents.

A circuit is an ordered list of H/X/CNOT gates on a fixed number of
wires plus a global +-1 sign.  The sign is tracked on the circuit rather
than as a gate so that negative functions ("multiplied by -1") keep
hardware-realistic gate lists.

Equivalences are always established by simulating both circuits, never
by rewrite identities: assert_equivalent on one state vector per input,
equivalent on the Pauli generators (a Clifford tableau) and one column.
Note that the Hadamard-sandwiched CNOT oracle agrees with its X-gate
equivalent only on inputs whose function wire is |1>; on |0> ancilla
inputs the sandwich is the identity.  Both checks therefore take an input
set, and the pipeline checks pass the ancilla-1 basis states.

Gate lists also hold the pipeline's U, the oracle of the truth table in
its `arg`, on the last wire, and R, a real rotation by the angle in its
`arg`.  _simulate_batch is the one simulator, for these circuits and the
pipeline alike, on a (2^k, B) array whose columns are basis inputs.
_stages alone groups a gate list into the kernel's stages, and each
caller plans a gate list once and passes the plan to _batch_dtype and
_simulate_batch: stage 0 is its leading run of H gates on distinct
wires, then come maximal runs of H on distinct wires, maximal runs of X
and CNOT, and each U and each R alone.  The fill writes stage 0 in
closed form, H^(x)W on a signed basis state, as one outer product of two
small +-1/0 factors (a one-hot scatter when it is empty); with no U, each
row is the high factor tiled along the flat low factor, so that numpy's
inner loop runs over a whole row of the batch.  It also writes a U in
stage 1 whose ancilla stage 0 holds as the phase (-1)^(f(t) a) on rows
2t, 2t+1, a the column's ancilla bit (phase kickback), the exact state
after stages 0 and 1.  Such a U alone may hold a tuple of g tables, one
for each of g consecutive, equal groups of columns, so that one pass
simulates g functions.  Later stages are simulated as they stand.
Each later H stage is one butterfly call per contiguous wire range
(blocked +-1 matrix products, exact on integer amplitudes below 2^24 in
float32), an X/CNOT stage or a U one in-place row gather a chunk at a time
(pure copies, so exact), R a 2 x 2 block product.  The global sign goes
into the fill's input signs, and statevec._scale applies the Hadamard
scale once at the end, so a circuit with an even number of H gates is
simulated exactly.  Read-out batches are float32 when _batch_dtype allows,
else float64; simulate_circuit keeps float64.  assert_equivalent reads its
inputs in chunks of at most 2^16 amplitudes (16 columns at 12 wires),
simulated into one reused buffer per circuit in its dtype, so its memory
stays bounded.
_amplitude contracts one row of one column of a plan of H and R stages
around one U from sums of product states, and writes no batch.
"""

import functools
import math
import numbers
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby, islice, product

import numpy as np

from . import statevec
from .bitops import _check_cap
from .boolfunc import TruthTable, to_parity_form
from .statevec import BasisKet, StateVector, _apply, _scale, butterfly, check_tolerance

# Amplitudes per batch in assert_equivalent, 256 KB of float32 or 512 KB of
# float64 for each circuit: 16 input columns at 12 wires and fewer at more,
# so its memory is bounded for any wire count.  At 12 wires, 4 columns ran
# 1.7x slower; 32 ran faster, but peaked at 1.15 MiB traced, at the edge of
# the 1.2 MiB that test_equivalence_memory_is_bounded allows two 16-column
# batches.
_BATCH_AMPLITUDES = 1 << 16

# (-1)^c for c = 0, 1; the fill takes it at a popcount c, wrapped mod 2.
_SIGN = np.array([1, -1], np.int8)

_GATE_ARITY = {"H": 1, "X": 1, "CNOT": 2, "U": 1, "R": 1}


@dataclass(frozen=True)
class Gate:
    """A gate on `qubits`; the stages U and R take their table or angle as `arg`.

    U may also take a tuple of g tables on the same n: the batch's columns
    then split into g equal, consecutive groups, and group i sees table i.
    The fill alone applies such a U, so it must come right after a leading
    run of H that holds its wire (phase kickback)."""

    name: str
    qubits: tuple[int, ...]
    arg: TruthTable | tuple[TruthTable, ...] | float | None = None

    def __post_init__(self):
        if self.name not in _GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != _GATE_ARITY[self.name]:
            raise ValueError(f"{self.name} takes {_GATE_ARITY[self.name]} qubit(s)")
        if self.name == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT control and target must differ")
        if (self.arg is None) == (self.name in ("U", "R")):
            raise ValueError(f"{self.name}: U and R need an argument, other gates take none")
        if self.name == "U":
            tables = self.arg if isinstance(self.arg, tuple) else (self.arg,)
            if not tables:
                raise ValueError("U takes a TruthTable or a non-empty tuple of them")
            for t in tables:
                if not isinstance(t, TruthTable):
                    raise ValueError(f"U takes a TruthTable, got {type(t).__name__}")
                if self.qubits != (t.n,):
                    raise ValueError(f"U of an n={t.n} table targets wire {t.n}")
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


def _hadamards(arr: np.ndarray, wires: list[int]) -> None:
    """H on each of the distinct `wires`, one butterfly call per contiguous range of them."""
    for _, run in groupby(enumerate(sorted(wires)), lambda pair: pair[1] - pair[0]):
        run = list(run)
        butterfly(arr, run[0][1], len(run))


def _unpermute(gates: Sequence[Gate], k: int, idx, tmp, bits) -> None:
    """Map the rows in `idx` in place to their preimages under a run of X and
    CNOT gates, or one U gate (on an even number of consecutive rows), on k
    wires: each gate is its own inverse, so the run is undone from its end.
    `tmp` and `bits` are scratch."""
    for g in reversed(gates):
        pos = [k - 1 - q for q in g.qubits]  # wire 0 is the most significant bit
        if g.name == "X":  # x ^= bit(q)
            np.bitwise_xor(idx, 1 << pos[0], out=idx)
        elif g.name == "CNOT":  # x ^= x[c] << t
            np.right_shift(idx, pos[0], out=tmp)
            np.bitwise_and(tmp, 1, out=tmp)
            np.left_shift(tmp, pos[1], out=tmp)
            np.bitwise_xor(idx, tmp, out=idx)
        else:  # U: the ancilla, bit 0, ^= f(x >> 1), a uint16 of `bits` per row pair 2t, 2t+1
            start = int(idx[0]) >> 1
            pairs = np.frombuffer(g.arg.table, np.uint8)[start : start + len(idx) // 2]
            np.multiply(pairs, np.uint16(0x101), out=bits.view(np.uint16))
            np.bitwise_xor(idx, bits, out=idx)


def _permute(arr: np.ndarray, gates: list[Gate]) -> None:
    """Apply a run of X and CNOT gates, or one U gate, to the rows of the
    C-contiguous (2^k, B) array `arr` in place, as one row gather: row i of
    the result is row sigma^-1(i), sigma the run's permutation of basis states.

    Rows move in chunks of at most _CHUNK amplitudes and _CHUNK / 4 rows,
    but at least two rows, through buffers allocated once per call.  sigma
    changes only target bits, so a chunk draws its rows from one source
    chunk, and chunks move along the cycles of that map with one chunk held
    aside.  Each chunk maps its rows through _unpermute and reads its source
    chunk from the first mapped row.  A CNOT with its target above the chunk
    and its control inside breaks that rule; it is applied alone, as a
    masked exchange of chunk pairs through the held chunk.
    """
    k = len(arr).bit_length() - 1
    low = min(k, max(2, statevec._CHUNK // max(4, arr.shape[1])).bit_length() - 1)  # row bits in a chunk
    chunks = arr.reshape(-1, 1 << low, arr.shape[1])
    held = np.empty_like(chunks[0])
    rows = np.arange(1 << low)
    idx, tmp, bits = np.empty_like(rows), np.empty_like(rows), np.empty(len(rows), np.uint8)

    def splits(g: Gate) -> bool:
        return g.name == "CNOT" and k - 1 - g.qubits[1] >= low > k - 1 - g.qubits[0]

    for split, part in groupby(gates, splits):
        part = tuple(part)
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
                source = int(idx[0]) >> low
                np.bitwise_and(idx, len(rows) - 1, out=idx)
                origin = held if source == first else chunks[source]
                np.take(origin, idx, axis=0, out=chunks[j], mode="clip")
                j = source


def _signs(x: np.ndarray, w: int, m: int) -> np.ndarray:
    """The int8 (2^m, B) factor of the fill on m index bits: row r of column
    j is (-1)^|r & x[j] & w| where r agrees with x[j] off the bits w, else 0."""
    r = np.arange(1 << m)[:, None]
    out = _SIGN.take(np.bitwise_count(r & (x & w)), mode="wrap")
    off = ~w & ((1 << m) - 1)
    if off:
        out *= (r & off) == (x & off)
    return out


def _factors(x: np.ndarray, wires: list[int], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The int8 factors of the unnormalized columns H^(x)W |x[j]> on k wires, W
    the distinct `wires`: column j is the outer product of column j of the
    (2^(k - k//2), B) high factor and of the (2^(k//2), B) low one."""
    w = sum(1 << (k - 1 - q) for q in wires)  # wire 0 is the most significant bit
    lo, mask = k // 2, (1 << (k // 2)) - 1
    return _signs(x >> lo, w >> lo, k - lo), _signs(x & mask, w & mask, lo)


def _hadamard_rows(arr: np.ndarray, sign, high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Whether column j of the unscaled (2^k, B) batch is exactly sign[j] times
    the +-1 Hadamard row with the int8 _factors high[:, j] and low[:, j], the
    column an H layer on all k wires takes to sign[j] 2^k in one row: by
    Cauchy-Schwarz, only it has the overlap sign[j] 2^k with that row and the
    squared norm 2^k.  On +-1 entries every partial sum is an integer within
    2^k <= 2^20, exact in float32.  The overlap's two einsum steps ran 7x as
    fast as one three-operand einsum on a 2^20 column (2 vCPUs)."""
    k = len(arr).bit_length() - 1
    part = np.einsum("abj,bj->aj", arr.reshape(len(high), len(low), -1), low)
    overlap, norm = np.einsum("aj,aj->j", part, high), np.einsum("ij,ij->j", arr, arr)
    return (overlap == sign * (1 << k)) & (norm == 1 << k)


def _read_rows(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column of the unscaled (2^k, B) batch as the signed basis state
    sign[j] |index[j]> an H layer on all k wires would leave, sign[j] 0 where
    none: the row of y is (-1)^|r & y|, so row 0 gives the sign and row 2^i
    bit i of y, and _hadamard_rows proves the column."""
    k = len(arr).bit_length() - 1
    bits, sign = 1 << np.arange(k), np.where(arr[0] < 0, -1, 1)
    index = bits @ (arr[bits] != arr[0])
    return index, np.where(_hadamard_rows(arr, sign, *_factors(index, range(k), k)), sign, 0)


def _fill(
    arr: np.ndarray,
    index,
    sign,
    wires: list[int],
    u: TruthTable | tuple[TruthTable, ...] | None = None,
) -> None:
    """Fill the C-contiguous (2^k, B) array `arr` with the unnormalized
    columns H^(x)W sign[j] |index[j]>, W the distinct `wires`.

    Column j is sign[j] * (-1)^|r & x & W| in each row r that agrees with
    x = index[j] off W, and 0 elsewhere (Bernstein-Vazirani).  That factors
    over the high and low halves of r, so the batch is one outer product
    of the two int8 _factors; the integer zeros cast to +0.0, as the butterfly
    leaves them.  With no `u`, a chunk of high rows at a time, each row is
    high[h] tiled len(low) times, times the flat low factor, so the int8
    product's inner loop runs over the row's 2^(k//2) B entries instead of B.
    With no wires it is the one-hot scatter: the product writes the same
    batch in 43-52 us per (4096, 16) float32 batch, factors included,
    and the scatter in 12-20 us (2 vCPUs).

    With `u`, the table of a U gate right after the run, W holds the
    ancilla, so row 2t + b has the factor (-1)^(a b), a the column's
    ancilla bit, and U's swap of the pairs where u(t) = 1 is the phase
    (-1)^(u(t) a) on both rows (phase kickback), put on the int8 product
    a chunk of high rows at a time, before the cast: U moves no rows.  A
    tuple of g tables splits the B columns into g consecutive groups of
    B / g, group i taking the phase of table i; one table is g = 1.
    """
    if not wires:
        arr.fill(0.0)
        arr[index, np.arange(len(index))] = sign
        return
    x = np.asarray(index, dtype=np.int64)
    high, low = _factors(x, wires, len(arr).bit_length() - 1)
    high *= np.asarray(sign, dtype=np.int8)
    step = max(1, statevec._CHUNK // low.size)  # high rows per chunk
    if u is None:
        out, flat = arr.reshape(len(high), low.size), low.reshape(-1)
        for h in range(0, len(high), step):
            np.multiply(np.tile(high[h : h + step], len(low)), flat, out=out[h : h + step])
        return
    tables = u if isinstance(u, tuple) else (u,)
    g = len(tables)
    if len(x) % g:
        raise ValueError(f"{len(x)} columns do not split into {g} groups, one per U table")
    # A uint16 of `rows` is 0xFFFF on both rows 2t, 2t+1 where u(t) = 1; the
    # ancilla bits mask that to m = 0 or -1 in int8, and (v ^ m) - m = -v where m = -1.
    # The tables are a (high row, g, low row pair) view; join leaves a lone table uncopied.
    joined = np.frombuffer(b"".join(t.table for t in tables), np.uint8)
    table = joined.reshape(g, len(high), -1).transpose(1, 0, 2)
    ancilla = np.where(x & 1, -1, 0).astype(np.int8).reshape(g, -1)
    rows = np.empty((min(step, len(high)), g, len(low) // 2), np.uint16)
    pairs = rows.view(np.int8).transpose(0, 2, 1)[..., None]  # (chunk, low rows, g, 1)
    m, phase = (np.empty((len(rows), len(low), len(x)), np.int8) for _ in range(2))
    groups = m.reshape(len(rows), len(low), g, -1)
    out = arr.reshape(len(high), len(low), len(x))
    for h in range(0, len(high), step):
        c = min(step, len(high) - h)
        np.multiply(table[h : h + c], np.uint16(0xFFFF), out=rows[:c])
        np.bitwise_and(pairs[:c], ancilla, out=groups[:c])
        p = np.bitwise_xor(m[:c], high[h : h + c, None], out=phase[:c])
        np.subtract(p, m[:c], out=p)
        np.multiply(p, low, out=out[h : h + c])


def _stages(gates: Sequence[Gate]) -> list[tuple[str, list]]:
    """The kernel's plan for a gate list, as (kind, items) stages: stage 0,
    the fill's ("H", wires), then ("H", wires), ("P", X and CNOT gates),
    ("U", [gate]) and ("R", [gate]) as the module docstring sets out."""
    stages: list[tuple[str, list]] = [("H", [])]
    for g in gates:
        kind = "P" if g.name in ("X", "CNOT") else g.name
        item = g.qubits[0] if kind == "H" else g
        last, items = stages[-1]
        if kind == last == "P" or (kind == last == "H" and item not in items):
            items.append(item)
        else:
            stages.append((kind, [item]))
    return stages


def _apply_stages(stages: Iterable[tuple[str, list]], arr: np.ndarray) -> None:
    """Apply the stages of a plan in place to the C-contiguous (2^k, B) array `arr`."""
    for kind, items in stages:
        if kind == "H":
            _hadamards(arr, items)
        elif kind == "R":
            c, s = math.cos(items[0].arg), math.sin(items[0].arg)
            _apply(arr, items[0].qubits[0], np.array([[c, -s], [s, c]]))
        else:
            # A row gather; for U 3.8-7.0 ms at n = 19 in float64, where butterfly,
            # phase, butterfly on the ancilla took 7.3-11.3 ms (2 vCPUs).
            _permute(arr, items)


def _batch_dtype(stages: list[tuple[str, list]]) -> type:
    """float32 for a plan with no R and at most 24 H after the fill, float64
    otherwise.  The fill writes +-1 or 0, permutations copy, and each H at
    most doubles the largest magnitude, so every amplitude and partial sum
    of a +-1 block product is an integer within 2^24, exact in float32."""
    rest = stages[1:]
    exact = _count_h(rest) <= 24 and all(kind != "R" for kind, _ in rest)
    return np.float32 if exact else np.float64


def _count_h(stages: Iterable[tuple[str, list]]) -> int:
    return sum(len(items) for kind, items in stages if kind == "H")


def _simulate_batch(stages: list[tuple[str, list]], index, sign, arr: np.ndarray) -> int:
    """Simulate a plan of _stages on the columns sign[j] * |index[j]> of the
    C-contiguous (2^k, B) array `arr`, in place, and return the plan's number
    h of H gates.  The batch is left unscaled: 2^(h/2) times the normalized one.

    The fill takes stage 0 of the plan, and with no row gather a U in stage 1
    whose ancilla stage 0 holds (phase kickback); _apply_stages applies the
    rest, which may hold no U of a tuple of tables.
    """
    lead = stages[0][1]
    kind, items = stages[1] if len(stages) > 1 else (None, [])
    kick = kind == "U" and items[0].qubits[0] in lead
    if any(s == "U" and isinstance(g[0].arg, tuple) for s, g in stages[1 + kick :]):
        raise ValueError("a U of a tuple of tables must follow a leading H run that holds its wire")
    _fill(arr, index, sign, lead, items[0].arg if kick else None)
    _apply_stages(stages[1 + kick :], arr)
    return _count_h(stages)


def _terms(stages: list[tuple[str, list]], k: int, index: int, turn: int):
    """|index> on k wires through the H and R stages as a sum of product
    states: (T, k, 2) int8 vectors, one per term and wire, and (T,) weights.
    R = cos I + sin J, J = [[0, -1], [1, 0]], splits each term in two; with
    turn = -1 each R is R^T, so G^T is G's stages read from the last."""
    vectors = np.eye(2, dtype=np.int8)[(index >> np.arange(k - 1, -1, -1)) & 1][None]
    weights = np.ones(1)
    for kind, items in stages:
        if kind == "H":
            vectors[:, items] = vectors[:, items] @ ((1, 1), (1, -1))
        else:
            q, angle = items[0].qubits[0], turn * items[0].arg
            turned = vectors.copy()
            turned[:, q] = vectors[:, q, ::-1] * (-1, 1)  # J (a, b) = (-b, a)
            vectors = np.concatenate([vectors, turned])
            weights = np.concatenate([weights * math.cos(angle), weights * math.sin(angle)])
    return vectors, weights


def _product(vectors: np.ndarray) -> np.ndarray:
    """The float32 (P, 2^m) outer products of (P, m, 2) vectors, the first wire most significant."""
    out = np.ones((len(vectors), 1), np.float32)
    for q in range(vectors.shape[1]):
        out = (out[:, :, None] * vectors[:, None, q]).reshape(len(out), -1)
    return out


def _amplitude(stages: list[tuple[str, list]], k: int, index, sign, row: int) -> tuple[float, int]:
    """The unscaled amplitude at `row` of the column sign |index> after a plan
    of H and R stages around one U of one table, as _simulate_batch would
    leave it in a (2^k, 1) batch, and the plan's H count; no batch is written.

    The state before U and <row| read back through the later stages, as
    (G^T |row>)^T, are sums of product states (_terms; Markov & Shi 2008).
    For a ket term and a bra term, with w = ket * bra on the data wires and
    alpha and beta the ancilla's straight and flipped overlaps, U's overlap
    is alpha prod_q sum w_q + (beta - alpha) high^T T low: T is the table as
    a matrix, high and low the outer products of w over its row and column
    bits.  Each is an integer within 2^(k+2), exact in float32, so only the
    R weights round.  einsum casts T to float32 a buffer at a time, never whole.
    """
    u = next(i for i, (kind, _) in enumerate(stages) if kind == "U")
    ket, ket_weights = _terms(stages[:u], k, index, 1)
    bra, bra_weights = _terms(stages[:u:-1], k, row, -1)
    w = (ket[:, None] * bra).reshape(-1, k, 2)  # every (ket term, bra term) pair
    alpha = w[:, -1].sum(1)
    beta = (ket[:, None, -1] * bra[:, -1, ::-1]).sum(-1).ravel()
    lo = (k - 1) // 2  # the table's column bits
    high, low = _product(w[:, : k - 1 - lo]), _product(w[:, k - 1 - lo : -1])
    table = np.frombuffer(stages[u][1][0].arg.table, np.uint8).reshape(high.shape[1], -1)
    part = np.einsum("pr,rl->pl", high, table)
    plain = high.sum(1) * low.sum(1)  # prod_q sum w_q
    overlaps = alpha * plain + (beta - alpha) * np.einsum("pl,pl->p", part, low)
    return float(overlaps @ (sign * np.outer(ket_weights, bra_weights).ravel())), _count_h(stages)


def _columns(kets: list[BasisKet], wires: int) -> tuple[list[int], list[int]]:
    """Basis indices and signs of the kets, which must all be `wires` wide."""
    for ket in kets:
        if ket.k != wires:
            raise ValueError(f"input has {ket.k} bits, circuit has {wires} wires")
    return [ket.index for ket in kets], [ket.sign for ket in kets]


def simulate_circuit(circ: Circuit, input: BasisKet) -> StateVector:
    """Apply the gates left to right to the input ket's vector."""
    _check_cap("qubits", circ.wires, f"circuit on {circ.wires} wires")
    index, sign = _columns([input], circ.wires)
    arr = np.empty((1 << circ.wires, 1))
    h = _simulate_batch(_stages(circ.gates), index, [circ.global_sign * s for s in sign], arr)
    return StateVector._own(_scale(arr, h))


def iter_basis_inputs(wires: int, last_bit: int | None = None) -> Iterator[BasisKet]:
    """All positive computational basis kets, optionally with the last wire fixed."""
    free = wires if last_bit is None else wires - 1
    for bits in product((0, 1), repeat=free):
        if last_bit is not None:
            bits = bits + (last_bit,)
        yield BasisKet(1, bits)


def assert_equivalent(
    a: Circuit, b: Circuit, tol: float = 1e-9, inputs: Iterable[BasisKet] | None = None
) -> bool:
    """True iff both circuits produce the same vector on every given basis
    input (all of them by default).

    Each circuit is planned once and simulated into one reused batch of at
    most _BATCH_AMPLITUDES amplitudes in its _batch_dtype, and the check
    stops at the first batch that differs; a ket of the wrong width raises
    ValueError when its batch is read.  A float32 batch holds multiples of
    2^-18 within 1 at the equiv cap, so its difference is exact, and against
    a float64 batch it upcasts exactly.
    """
    if a.wires != b.wires:
        raise ValueError(f"wire counts differ: {a.wires} vs {b.wires}")
    _check_cap("equiv", a.wires, f"equivalence check on {a.wires} wires")
    check_tolerance(tol)
    if inputs is None:
        inputs = iter_basis_inputs(a.wires)
    inputs = iter(inputs)
    columns = max(1, _BATCH_AMPLITUDES >> a.wires)
    plans = [_stages(c.gates) for c in (a, b)]
    work = None
    while chunk := list(islice(inputs, columns)):
        index, sign = _columns(chunk, a.wires)
        size = (1 << a.wires) * len(chunk)
        if work is None:  # the first chunk is the widest
            work = [np.empty(size, _batch_dtype(stages)) for stages in plans]
        va, vb = (
            _scale(v, _simulate_batch(stages, index, [c.global_sign * s for s in sign], v))
            for c, stages, v in zip((a, b), plans, (w[:size].reshape(-1, len(chunk)) for w in work))
        )
        diff = np.subtract(va, vb, out=va if va.itemsize >= vb.itemsize else vb)
        if not float(np.abs(diff, out=diff).max()) <= tol:  # compared in float64, as tol is
            return False
    return True


def _images(circ: Circuit) -> np.ndarray:
    """Where an H/X/CNOT circuit sends X_0 .. X_(k-1), Z_0 .. Z_(k-1) by
    conjugation: row i of the bool (2k, 2k + 1) result holds the bits x, z
    and r of generator i's image (-1)^r X^x Z^z.  The bit rules are the CHP
    tableau's (Aaronson & Gottesman 2004), with the sign kept for the
    ordered product X^x Z^z rather than for Y, so a CNOT flips no sign."""
    k = circ.wires
    t = np.eye(2 * k, 2 * k + 1, dtype=bool)
    x, z, r = t[:, :k], t[:, k:-1], t[:, -1]
    for g in circ.gates:
        if g.name == "H":  # H X^x Z^z H = Z^x X^z = (-1)^(x z) X^z Z^x
            q = g.qubits[0]
            r ^= x[:, q] & z[:, q]
            t[:, [q, k + q]] = t[:, [k + q, q]]
        elif g.name == "X":  # X Z X = -Z
            r ^= z[:, g.qubits[0]]
        elif g.name == "CNOT":  # X_c -> X_c X_t and Z_t -> Z_c Z_t
            c, target = g.qubits
            x[:, target] ^= x[:, c]
            z[:, c] ^= z[:, target]
        else:
            raise ValueError(f"equivalent takes H, X and CNOT gates, not {g.name}")
    return t


def equivalent(a: Circuit, b: Circuit, last_bit: int | None = None) -> bool:
    """True iff the H/X/CNOT circuits a and b produce the same vector on
    every input of iter_basis_inputs(a.wires, last_bit), as assert_equivalent
    finds by simulating each input.

    With last_bit set, the inputs span the states that P = (-1)^last_bit Z
    of the last wire stabilizes, and a and b agree on them up to a sign iff
    each X_q and Z_q of the other wires has, under a, its image under b or
    that image times b P b^dagger, and Z of the last wire has the same image
    under both (times b P b^dagger it would be +-I).  With no last bit each
    image must be the same.  The sign is the overlap of the two circuits'
    simulated columns at |0...0, last_bit>.
    """
    if a.wires != b.wires:
        raise ValueError(f"wire counts differ: {a.wires} vs {b.wires}")
    k = a.wires
    _check_cap("equiv", k, f"equivalence check on {k} wires")
    ket = BasisKet(1, (0,) * (k - 1) + (last_bit or 0,))
    ta, tb = _images(a), _images(b)
    same = (ta == tb).all(axis=1)
    if last_bit is not None:
        p = tb[-1].copy()  # the last row is Z of the last wire
        p[-1] ^= bool(last_bit)
        # (X^x Z^z)(X^x' Z^z') = (-1)^|z & x'| X^(x ^ x') Z^(z ^ z')
        times_p = tb ^ p
        times_p[:, -1] ^= np.logical_xor.reduce(tb[:, k:-1] & p[:k], axis=1)
        same |= (ta == times_p).all(axis=1)
        same[k - 1] = True  # X of the last wire leaves the input set
    if not same.all():
        return False
    return float(simulate_circuit(a, ket).amplitudes @ simulate_circuit(b, ket).amplitudes) > 0
