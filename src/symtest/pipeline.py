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

The pipeline is a gate list for the circuits module's one batch kernel:
an H layer, the U stage holding f's truth table, and a second H layer.
A fault is one edit to that list: a skipped Hadamard drops one H, a
rotation appends an R stage after its layer, and a corrupted oracle
entry flips one entry of U's table.  The kernel works on a (2^k, B)
batch whose columns are input states, so verify_all sends all signed
inputs of one f through in one pass, while run() and friends pass a
single column.  Simulation is exact for the unfaulted pipeline: the
first H layer is filled in closed form, each input's +-1 Hadamard row,
without reading f; the second is one butterfly call, +-1 matrix
products on integer amplitudes whose partial sums never exceed
2^k <= 2^20; U is a row gather that moves amplitudes without arithmetic;
and the 2k Hadamards leave a power-of-two scale that is divided out at
the end.  Batches are float32, exact below 2^24, unless a rotation fault
adds an R stage (circuits._batch_dtype); run_vector returns float64.
"""

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
from .circuits import Gate, _batch_dtype, _scale, _simulate_batch, hadamard_layer
from .statevec import (
    MAX_QUBITS,
    BasisKet,
    NotBasisStateError,
    StateVector,
    butterfly,  # noqa: F401  (re-exported: perfbench's tracer wraps pipeline.butterfly)
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


def _gates(f: TruthTable, fault: Fault | None) -> tuple[Gate, ...]:
    """H layer, U(f), H layer, with the fault checked and applied as one
    edit: drop one H, append R after its layer, or flip one entry of U's table."""
    layers = dict.fromkeys(("first", "second"), hadamard_layer(f.n + 1))
    if isinstance(fault, (SkipHadamard, RotateQubit)):
        if fault.layer not in ("first", "second"):
            raise ValueError(f"fault layer must be 'first' or 'second', got {fault.layer!r}")
        if not 0 <= fault.qubit <= f.n:
            raise ValueError(f"fault qubit {fault.qubit} out of range for {f.n + 1} wires")
        layer = layers[fault.layer]
        if isinstance(fault, SkipHadamard):
            layers[fault.layer] = layer[: fault.qubit] + layer[fault.qubit + 1 :]
        else:
            layers[fault.layer] = layer + (Gate("R", (fault.qubit,), fault.angle),)
    elif isinstance(fault, CorruptOracleEntry):
        if not 0 <= fault.index < 1 << f.n:
            raise ValueError(f"oracle entry {fault.index} out of range for n={f.n}")
        flipped = bytearray(f.table)
        flipped[fault.index] ^= 1
        f = TruthTable(f.n, flipped)
    elif fault is not None:
        raise ValueError(f"unknown fault spec: {fault!r}")
    return layers["first"] + (Gate("U", (f.n,), f),) + layers["second"]


def _simulate(
    f: TruthTable, index, sign, fault: Fault | None = None, max_qubits: int = MAX_QUBITS, dtype=None
) -> tuple[np.ndarray, int]:
    """Unnormalized output for a batch of signed basis inputs, column j starting
    as sign[j] * |index[j]>, and its H count; the batch is in `dtype`, by
    default the gate list's _batch_dtype."""
    k = f.n + 1
    if k > max_qubits:
        raise ValueError(f"pipeline on {k} qubits exceeds the cap of {max_qubits}")
    gates = _gates(f, fault)
    arr = np.empty((1 << k, len(index)), dtype or _batch_dtype(gates))
    return arr, _simulate_batch(gates, index, sign, arr)


def _prediction(pf: ParityForm, index, sign):
    """Predicted output (index, sign) for the input sign * |x, 1>, given by
    its full ket index (ancilla included): sign * (-1)^c |x XOR m, 1>.
    Takes integers or integer arrays."""
    return index ^ (pf.mask_value << 1), sign * (-1 if pf.complement else 1)


def run_vector(f: TruthTable, input: BasisKet, max_qubits: int = MAX_QUBITS) -> StateVector:
    """Final state vector of the faultless pipeline, in exact arithmetic."""
    _check_input(f, input)
    arr, h = _simulate(f, [input.index], [input.sign], max_qubits=max_qubits, dtype=np.float64)
    return StateVector._own(_scale(arr, h))


def run(
    f: TruthTable, input: BasisKet, tolerance: float = 1e-9, max_qubits: int = MAX_QUBITS
) -> PipelineResult:
    """Simulate the pipeline and read off the signed basis state.

    Raises NotBasisStateError when the final vector is still a
    superposition, which happens exactly when f is not admissible.
    """
    _check_input(f, input)
    arr = _scale(*_simulate(f, [input.index], [input.sign], max_qubits=max_qubits))
    index, sign = read_basis_columns(arr, tolerance)
    if not sign[0]:
        raise NotBasisStateError(
            f"pipeline output for f={f.brief()} is not a basis state (function not admissible)"
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
    before the 2^-h scale of h butterflies is applied, so that scale stays
    an exact power of two even when a skipped Hadamard leaves h odd.
    """
    target = predict(f, input).output
    arr, h = _simulate(f, [input.index], [input.sign], fault, max_qubits)
    overlap = float(arr[target.index, 0]) * target.sign
    return overlap * overlap * 2.0 ** -h


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
    of every column with the parity-form prediction.  All f share one
    batch array, which the kernel fills and transforms in place: freeing
    it per f let malloc shrink and regrow the heap each time in some heap
    layouts, and `verify 6` ran ~40 % slower.
    """
    positives, negatives = generate_functions(n, max_n)  # checks 1 <= n <= max_n
    index = np.repeat((np.arange(1 << n) << 1) | 1, 2)
    sign = np.tile([1, -1], 1 << n)
    report = VerifyReport(n, 0)
    # Every f has the gate list of positives[0] but for U's table, so its dtype.
    arr = np.empty((2 << n, index.size), _batch_dtype(_gates(positives[0], None)))

    def ket(s, i) -> str:
        return str(BasisKet(int(s), int_to_bits(int(i), n + 1)))

    for f in positives + negatives:
        want_index, want_sign = _prediction(to_parity_form(f), index, sign)
        h = _simulate_batch(_gates(f, None), index, sign, arr)
        got_index, got_sign = read_basis_columns(_scale(arr, h))
        report.total += index.size
        for j in np.flatnonzero((got_index != want_index) | (got_sign != want_sign)):
            got = ket(got_sign[j], got_index[j]) if got_sign[j] else "NotBasisState"
            report.failures.append(
                f"f={padded_hex(f)} x={ket(sign[j], index[j])} got={got} "
                f"want={ket(want_sign[j], want_index[j])}"
            )
    return report
