"""The Hadamard-oracle-Hadamard pipeline and its analytic predictor.

run() simulates H on all n+1 wires, then U_f, then H again, and reads
off the signed basis state.  predict() computes the same result without
simulation from the parity form: output bits are x XOR mask, the ancilla
stays 1, and the sign is the input sign times (-1)^complement.  The two
paths are independent, so their agreement is the library's main
correctness check (verify_all) and the basis of the coherence test:
the faultless pipeline reproduces the prediction with probability
exactly 1, and success_probability() measures the drop under an
injected fault.

The simulator works on a batch: a (2^k, B) array whose columns are
input states, so verify_all sends all signed inputs of one f through
the Hadamard layers and the oracle permutation in one pass, while run()
and friends pass a single column.  Simulation arithmetic is exact for
the unfaulted pipeline: Hadamard layers are applied as unnormalized
(a+b, a-b) butterflies on integer amplitudes and the accumulated
2^(k/2) factors are divided out at the end, which is a power of two
whenever the butterfly count is even.
"""

import math
from dataclasses import dataclass, field
from typing import Literal, Union

import numpy as np

from .bitops import int_to_bits
from .boolfunc import (
    ParityForm,
    TruthTable,
    from_parity_form,
    generate_functions,
    padded_hex,
    to_parity_form,
)
from .oracle import QuantumOracle
from .statevec import (
    MAX_QUBITS,
    BasisKet,
    NotBasisStateError,
    StateVector,
    butterfly,
    read_basis_columns,
)

Layer = Literal["first", "second"]


@dataclass(frozen=True)
class SkipHadamard:
    """Omit the Hadamard on one qubit in one layer."""

    layer: Layer
    qubit: int


@dataclass(frozen=True)
class RotateQubit:
    """Extra real rotation by `angle` on one qubit, right after one layer."""

    layer: Layer
    qubit: int
    angle: float


@dataclass(frozen=True)
class CorruptOracleEntry:
    """Flip one truth-table entry before building the oracle."""

    index: int


Fault = Union[SkipHadamard, RotateQubit, CorruptOracleEntry]


@dataclass(frozen=True)
class PipelineResult:
    output: BasisKet
    ancilla_ok: bool


def _check_input(f: TruthTable, input: BasisKet) -> None:
    if input.k != f.n + 1:
        raise ValueError(f"input must have {f.n + 1} bits, got {input.k}")
    if input.bits[-1] != 1:
        raise ValueError("pipeline input must end in the ancilla bit 1")


def _check_fault(fault: Fault | None, n: int) -> None:
    if fault is None:
        return
    if isinstance(fault, (SkipHadamard, RotateQubit)):
        if fault.layer not in ("first", "second"):
            raise ValueError(f"fault layer must be 'first' or 'second', got {fault.layer!r}")
        if not 0 <= fault.qubit < n + 1:
            raise ValueError(f"fault qubit {fault.qubit} out of range for {n + 1} wires")
        if isinstance(fault, RotateQubit) and not math.isfinite(fault.angle):
            raise ValueError(f"rotation angle must be finite, got {fault.angle}")
    elif isinstance(fault, CorruptOracleEntry):
        if not 0 <= fault.index < 1 << n:
            raise ValueError(f"oracle entry {fault.index} out of range for n={n}")
    else:
        raise ValueError(f"unknown fault spec: {fault!r}")


def _rotate(arr: np.ndarray, qubit: int, angle: float) -> None:
    shaped = arr.reshape(1 << qubit, 2, -1)
    a = shaped[:, 0, :]
    b = shaped[:, 1, :]
    c, s = math.cos(angle), math.sin(angle)
    t = c * a - s * b
    b *= c
    b += s * a
    a[...] = t


def _simulate_raw(
    f: TruthTable, index, sign, fault: Fault | None = None, max_qubits: int = MAX_QUBITS, work=None
) -> tuple[np.ndarray, int]:
    """Unnormalized pipeline output for a batch of signed basis inputs.

    Column j of the returned (2^k, B) array starts as sign[j] * |index[j]>.
    Also returns the number of butterflies applied: dividing by
    2^(stages/2) normalizes the batch.  A pair of (2^k, B) arrays given
    as `work` is used in place of new ones; the result is the second.
    """
    k = f.n + 1
    if k > max_qubits:
        raise ValueError(f"pipeline on {k} qubits exceeds the cap of {max_qubits}")
    _check_fault(fault, f.n)

    table = f
    if isinstance(fault, CorruptOracleEntry):
        flipped = bytearray(f.table)
        flipped[fault.index] ^= 1
        table = TruthTable(f.n, flipped)

    shape = (1 << k, len(index))
    arr, out = work or (np.empty(shape), np.empty(shape))
    arr.fill(0.0)
    arr[index, np.arange(len(index))] = sign
    stages = 0
    for layer in ("first", "second"):
        for q in range(k):
            if isinstance(fault, SkipHadamard) and fault.layer == layer and fault.qubit == q:
                continue
            butterfly(arr, q)
            stages += 1
        if isinstance(fault, RotateQubit) and fault.layer == layer:
            _rotate(arr, fault.qubit, fault.angle)
        if layer == "first":
            perm = QuantumOracle(table).permutation
            # perm holds each index once: "clip" clips nothing but lets take write
            # straight into out (take still copies perm, as it is read-only).
            arr = np.take(arr, perm, axis=0, out=out, mode="clip")
    return arr, stages


def _simulate(f: TruthTable, index, sign, max_qubits: int = MAX_QUBITS, work=None) -> np.ndarray:
    """Faultless pipeline output, one column per input; exact, because the
    2k butterflies leave a power-of-two scale."""
    arr, stages = _simulate_raw(f, index, sign, max_qubits=max_qubits, work=work)
    arr *= 2.0 ** -(stages // 2)
    return arr


def _prediction(pf: ParityForm, index, sign):
    """Predicted output (index, sign) for the input sign * |x, 1>, given by
    its full ket index (ancilla included): sign * (-1)^c |x XOR m, 1>.
    Takes integers or integer arrays."""
    return index ^ (pf.mask_value << 1), sign * (-1 if pf.complement else 1)


def run_vector(f: TruthTable, input: BasisKet, max_qubits: int = MAX_QUBITS) -> StateVector:
    """Final state vector of the faultless pipeline, in exact arithmetic."""
    _check_input(f, input)
    return StateVector(_simulate(f, [input.index], [input.sign], max_qubits)[:, 0])


def run(
    f: TruthTable, input: BasisKet, tolerance: float = 1e-9, max_qubits: int = MAX_QUBITS
) -> PipelineResult:
    """Simulate the pipeline and read off the signed basis state.

    Raises NotBasisStateError when the final vector is still a
    superposition, which happens exactly when f is not admissible.
    """
    _check_input(f, input)
    arr = _simulate(f, [input.index], [input.sign], max_qubits)
    index, sign = read_basis_columns(arr, tolerance)
    if not sign[0]:
        raise NotBasisStateError(
            f"pipeline output for f={f} is not a basis state (function not admissible)"
        )
    ket = BasisKet(int(sign[0]), int_to_bits(int(index[0]), input.k))
    return PipelineResult(ket, ket.bits[-1] == 1)


def predict(f: TruthTable, input: BasisKet) -> PipelineResult:
    """Analytic output without simulation; raises NotAdmissibleError otherwise."""
    pf = to_parity_form(f)
    _check_input(f, input)
    index, sign = _prediction(pf, input.index, input.sign)
    return PipelineResult(BasisKet(sign, int_to_bits(index, input.k)), True)


def solve_function(input: BasisKet, desired: BasisKet) -> TruthTable:
    """The unique admissible function mapping one signed basis state to another."""
    if input.k != desired.k:
        raise ValueError(f"state widths differ: {input.k} vs {desired.k}")
    if input.bits[-1] != 1 or desired.bits[-1] != 1:
        raise ValueError("both states must end in the ancilla bit 1")
    mask = int_to_bits((input.index ^ desired.index) >> 1, input.k - 1)
    complement = 0 if input.sign == desired.sign else 1
    return from_parity_form(ParityForm(input.k - 1, mask, complement))


def success_probability(
    f: TruthTable,
    input: BasisKet,
    fault: Fault | None = None,
    max_qubits: int = MAX_QUBITS,
) -> float:
    """Squared overlap of the (possibly faulted) pipeline output with predict().

    Exactly 1.0 when no fault is injected; anything less flags a loss of
    coherence or a broken gate.  The unnormalized overlap is squared
    before the 2^-stages scale is applied, so that scale stays an exact
    power of two even when a skipped Hadamard leaves an odd stage count.
    """
    target = predict(f, input).output
    arr, stages = _simulate_raw(f, [input.index], [input.sign], fault, max_qubits)
    overlap = float(arr[target.index, 0]) * target.sign
    return overlap * overlap * 2.0 ** -stages


@dataclass
class VerifyReport:
    """Outcome of the exhaustive run-vs-predict sweep for one n."""

    n: int
    total: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return f"PASS {self.total}/{self.total}"
        return f"FAIL {len(self.failures)}/{self.total}"

    def render(self) -> str:
        return "\n".join(self.failures + [self.summary()])


def verify_all(n: int, max_n: int = 6) -> VerifyReport:
    """Check run == predict for every admissible f and every signed basis input.

    Each f simulates all 2^(n+1) signed inputs as the columns of one
    batch, ordered x ascending with + before -, and compares the readout
    of every column with the parity-form prediction.  All f share two
    batch arrays: freeing them per f let malloc shrink and regrow the
    heap each time in some heap layouts, and `verify 6` ran ~40 % slower.
    """
    if not 1 <= n <= max_n:
        raise ValueError(f"n must be in 1..{max_n}, got {n}")
    index = np.repeat((np.arange(1 << n) << 1) | 1, 2)
    sign = np.tile([1, -1], 1 << n)
    positives, negatives = generate_functions(n)
    report = VerifyReport(n, 0)
    work = (np.empty((2 << n, index.size)), np.empty((2 << n, index.size)))

    def ket(s, i) -> str:
        return str(BasisKet(int(s), int_to_bits(int(i), n + 1)))

    for f in positives + negatives:
        want_index, want_sign = _prediction(to_parity_form(f), index, sign)
        got_index, got_sign = read_basis_columns(_simulate(f, index, sign, work=work))
        report.total += index.size
        for j in np.flatnonzero((got_index != want_index) | (got_sign != want_sign)):
            got = ket(got_sign[j], got_index[j]) if got_sign[j] else "NotBasisState"
            report.failures.append(
                f"f={padded_hex(f)} x={ket(sign[j], index[j])} got={got} "
                f"want={ket(want_sign[j], want_index[j])}"
            )
    return report
