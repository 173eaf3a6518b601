"""The Hadamard-oracle-Hadamard pipeline and its analytic predictor.

run() simulates H on all n+1 wires and U_f, and reads off the signed
basis state H again would leave.  predict() computes it without
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
inputs of several f through in one pass, with one U table per f's group
of columns, while run() and run_vector() pass one column.  Simulation is
exact for the unfaulted pipeline: the first H layer is filled in closed
form, each input's +-1 Hadamard row, with U as the phase (-1)^f(t) on
row pairs read from f's table, not its parity form (phase kickback).
The second layer is read, never applied: the output is a signed basis
state exactly when the state after U is +- its Hadamard row, so run()
and verify_all read each column there (circuits._read_rows and
_hadamard_rows).  success_probability() writes no state: the input
through the first layer and the predicted row read back through the
second are sums of product states, one term per branch of a rotation,
and circuits._amplitude contracts them through U's table.  Batches are
float32, exact below 2^24 (circuits._batch_dtype); run_vector returns
float64.
"""

from dataclasses import dataclass, field
from itertools import islice
from typing import Literal, Union

import numpy as np

from .bitops import _check_cap, int_to_bits
from .boolfunc import (
    ParityForm,
    TruthTable,
    from_parity_form,
    iter_tables,
    padded_hex,
    to_parity_form,
)
from .circuits import (
    _BATCH_AMPLITUDES,
    Circuit,
    Gate,
    _amplitude,
    _batch_dtype,
    _factors,
    _hadamard_rows,
    _read_rows,
    _simulate_batch,
    _stages,
    hadamard_layer,
    simulate_circuit,
)
from .statevec import (
    BasisKet,
    NotBasisStateError,
    StateVector,
    butterfly,  # noqa: F401  (re-exported: perfbench's tracer wraps pipeline.butterfly)
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
        t, i = memoryview(f.table), fault.index
        f = TruthTable(f.n, b"".join([t[:i], bytes([t[i] ^ 1]), t[i + 1 :]]))
    elif fault is not None:
        raise ValueError(f"unknown fault spec: {fault!r}")
    return layers["first"] + (Gate("U", (f.n,), f),) + layers["second"]


def _prediction(pf: ParityForm, index, sign):
    """Predicted output (index, sign) for the input sign * |x, 1>, given by
    its full ket index (ancilla included): sign * (-1)^c |x XOR m, 1>.
    Takes integers or integer arrays."""
    return index ^ (pf.mask_value << 1), sign * (-1 if pf.complement else 1)


def run_vector(f: TruthTable, input: BasisKet) -> StateVector:
    """Final state vector of the faultless pipeline, in exact arithmetic."""
    _check_input(f, input)
    _check_cap("qubits", f.n + 1, f"pipeline on {f.n + 1} qubits")
    return simulate_circuit(Circuit(f.n + 1, _gates(f, None)), input)


def run(f: TruthTable, input: BasisKet) -> PipelineResult:
    """Simulate the pipeline up to U and read off, exactly, the signed basis
    state the second H layer would leave (circuits._read_rows).

    Raises NotBasisStateError when the final vector is still a
    superposition, which happens exactly when f is not admissible: every
    Walsh value W is even, so each entry W/2^n is then at most 1 - 2^(1-n).
    """
    _check_input(f, input)
    _check_cap("qubits", input.k, f"pipeline on {input.k} qubits")
    stages = _stages(_gates(f, None))[:2]
    arr = np.empty((1 << input.k, 1), _batch_dtype(stages))
    _simulate_batch(stages, [input.index], [input.sign], arr)
    index, sign = _read_rows(arr)
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


def success_probability(f: TruthTable, input: BasisKet, fault: Fault | None = None) -> float:
    """Squared overlap of the (possibly faulted) pipeline output with predict().

    Exactly 1.0 when no fault is injected; anything less flags a loss of
    coherence or a broken gate.  Only the one amplitude at the predicted
    row is computed, as a contraction of product states through U's table,
    and no state is written (circuits._amplitude).
    The unnormalized amplitude is squared, which drops the predicted sign,
    before the 2^-h scale of the h Hadamards is applied, so that scale
    stays an exact power of two even when a skipped Hadamard leaves h odd.
    """
    k = f.n + 1
    _check_cap("qubits", k, f"pipeline on {k} qubits")  # before predict() checks f's table
    target = predict(f, input).output
    stages = _stages(_gates(f, fault))
    amplitude, h = _amplitude(stages, k, input.index, input.sign, target.index)
    return amplitude * amplitude * 2.0 ** -h


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


def verify_all(n: int) -> VerifyReport:
    """Check run == predict for every admissible f and every signed basis input.

    Each f's 2^(n+1) signed inputs, ordered x ascending with + before -,
    are one group of columns in a batch, and a batch holds as many f as fit
    in _BATCH_AMPLITUDES (4 at n = 6, one from n = 7), in the order of
    iter_tables: its U stage holds one table per group, which the fill
    applies as each group's phase.  The batch stops after U: with f's
    prediction s_j |y_j>, column j passes when it is s_j times the Hadamard
    row of y_j (circuits._hadamard_rows), the column the second layer takes
    to s_j 2^(n+1) |y_j>.  Each y_j is an input's index, so the factors of its
    row are a column of the inputs' factors, computed once.  A batch with a
    failing column is read as run() reads it.  All batches share one array:
    freeing it per batch let malloc shrink and regrow the heap each time in
    some heap layouts, and `verify 6` ran ~40 % slower.
    """
    _check_cap("verify", n, f"verify for n={n}")
    tables = iter_tables(n)  # checks n >= 1
    index = np.repeat((np.arange(1 << n) << 1) | 1, 2)
    sign = np.tile([1, -1], 1 << n)
    per = max(1, _BATCH_AMPLITUDES // ((2 << n) * index.size))  # functions per batch
    layer = hadamard_layer(n + 1)
    rows = _factors(index, range(n + 1), n + 1)
    report = VerifyReport(n, 0)
    buf = None

    def ket(s, i) -> str:
        return str(BasisKet(int(s), int_to_bits(int(i), n + 1)))

    while group := [TruthTable(n, table) for table in islice(tables, per)]:
        stages = _stages(layer + (Gate("U", (n,), tuple(group)),))
        size = (2 << n) * index.size * len(group)
        if buf is None:  # the first batch is the widest
            buf = np.empty(size, _batch_dtype(stages))
        arr = buf[:size].reshape(2 << n, -1)
        _simulate_batch(stages, np.tile(index, len(group)), np.tile(sign, len(group)), arr)
        report.total += arr.shape[1]
        want = [_prediction(to_parity_form(f), index, sign) for f in group]
        want_index, want_sign = map(np.concatenate, zip(*want))
        # The inputs' column y has the index y | 1, which is y for each predicted (odd) y.
        if _hadamard_rows(arr, want_sign, *(r.take(want_index, axis=1) for r in rows)).all():
            continue
        got = (a.reshape(len(group), -1) for a in _read_rows(arr))
        for f, (f_want_index, f_want_sign), f_index, f_sign in zip(group, want, *got):
            for j in np.flatnonzero((f_index != f_want_index) | (f_sign != f_want_sign)):
                got_ket = ket(f_sign[j], f_index[j]) if f_sign[j] else "NotBasisState"
                report.failures.append(
                    f"f={padded_hex(f)} x={ket(sign[j], index[j])} got={got_ket} "
                    f"want={ket(f_want_sign[j], f_want_index[j])}"
                )
    return report
