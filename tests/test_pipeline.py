import math
import os
import subprocess
import sys
import tracemalloc
from difflib import SequenceMatcher
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp

from symtest import pipeline
from symtest.bitops import int_to_bits
from symtest.boolfunc import (
    NotAdmissibleError,
    ParityForm,
    TruthTable,
    from_parity_form,
    generate_functions,
    hex_decode,
)
from symtest.circuits import Gate, H, _scale
from symtest.pipeline import (
    CorruptOracleEntry,
    PipelineResult,
    RotateQubit,
    SkipHadamard,
    predict,
    run,
    run_vector,
    solve_function,
    success_probability,
    verify_all,
)
from symtest.statevec import BasisKet, NotBasisStateError, parse_ket, read_basis_columns

tt = TruthTable.from_string


def signed_inputs(n):
    for idx in range(1 << n):
        for sign in (1, -1):
            yield BasisKet(sign, int_to_bits(idx, n) + (1,))


@pytest.mark.parametrize(
    "table,state,expected",
    [
        ("0000", "+001", "+001"),
        ("0011", "+001", "+101"),
        ("1001", "+001", "-111"),
        ("1111", "+001", "-001"),
        ("0101", "+001", "+011"),
    ],
)
def test_run_reference_cases(table, state, expected):
    result = run(tt(table), parse_ket(state))
    assert result.output == parse_ket(expected)
    assert result.ancilla_ok


def test_run_rejects_and_function():
    with pytest.raises(NotBasisStateError):
        run(tt("0001"), parse_ket("+001"))


def test_run_input_validation():
    with pytest.raises(ValueError):
        run(tt("0011"), parse_ket("+000"))  # ancilla must be 1
    with pytest.raises(ValueError):
        run(tt("0011"), parse_ket("+0011"))  # width mismatch


@pytest.mark.parametrize(
    "table,state,expected",
    [
        ("0101", "+001", "+011"),
        ("1100", "+001", "-101"),
    ],
)
def test_predict_reference_cases(table, state, expected):
    result = predict(tt(table), parse_ket(state))
    assert result.output == parse_ket(expected)
    assert result.ancilla_ok


def test_predict_hex_function_n4():
    f = hex_decode("$3333", 4)
    assert predict(f, parse_ket("+00001")).output == parse_ket("+00101")


def test_predict_rejects_non_admissible():
    with pytest.raises(NotAdmissibleError):
        predict(tt("0001"), parse_ket("+001"))


def test_solve_reference_case():
    f = solve_function(parse_ket("+10001"), parse_ket("+11101"))
    assert str(f) == "0011110000111100"
    assert f.value == 0x3C3C
    assert run(f, parse_ket("+10001")).output == parse_ket("+11101")


def test_solve_identity_and_sign_flip():
    assert solve_function(parse_ket("+0101"), parse_ket("+0101")) == tt("00000000")
    assert solve_function(parse_ket("+001"), parse_ket("-001")) == tt("1111")


def test_solve_validation():
    with pytest.raises(ValueError):
        solve_function(parse_ket("+001"), parse_ket("+00011"))
    with pytest.raises(ValueError):
        solve_function(parse_ket("+000"), parse_ket("+001"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_run_matches_predict(n):
    pos, neg = generate_functions(n)
    for f in pos + neg:
        for ket in signed_inputs(n):
            assert run(f, ket) == predict(f, ket)


def test_sign_linearity():
    for table in ("0011", "1010", "0110"):
        f = tt(table)
        plus = run(f, parse_ket("+011")).output
        minus = run(f, parse_ket("-011")).output
        assert minus == -plus


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complement_flips_sign_only(n):
    pos, neg = generate_functions(n)
    ket = BasisKet(1, (0,) * n + (1,))
    for f in pos + neg:
        a = run(f, ket).output
        b = run(f.complement(), ket).output
        assert b.bits == a.bits
        assert b.sign == -a.sign


def test_all_non_admissible_n2_rejected():
    admissible = {t.bits for lst in generate_functions(2) for t in lst}
    rejected = 0
    for bits in product((0, 1), repeat=4):
        if bits in admissible:
            continue
        rejected += 1
        with pytest.raises(NotBasisStateError):
            run(TruthTable(2, bits), parse_ket("+001"))
    assert rejected == 8


def test_run_vector_is_exact():
    v = run_vector(tt("1111"), parse_ket("+001"))
    assert list(v.amplitudes) == [0, -1, 0, 0, 0, 0, 0, 0]


def test_verify_all_reports():
    report = verify_all(2)
    assert report.passed
    assert report.total == 64
    assert report.summary() == "PASS 64/64"
    assert report.render() == "PASS 64/64"
    assert verify_all(3).total == 256
    with pytest.raises(ValueError):
        verify_all(7)


def test_verify_all_reports_disagreement(monkeypatch):
    # A predictor that flips the sign for f = 0011 only: every input of
    # that f fails, in input order, and every other f still passes.
    real = pipeline._prediction

    def wrong(pf, index, sign):
        out_index, out_sign = real(pf, index, sign)
        return out_index, -out_sign if (pf.mask, pf.complement) == ((1, 0), 0) else out_sign

    monkeypatch.setattr(pipeline, "_prediction", wrong)
    report = verify_all(2)
    assert report.failures == [
        "f=3 x=+001 got=+101 want=-101",
        "f=3 x=-001 got=-101 want=+101",
        "f=3 x=+011 got=+111 want=-111",
        "f=3 x=-011 got=-111 want=+111",
        "f=3 x=+101 got=+001 want=-001",
        "f=3 x=-101 got=-001 want=+001",
        "f=3 x=+111 got=+011 want=-011",
        "f=3 x=-111 got=-011 want=+011",
    ]
    assert report.summary() == "FAIL 8/64"
    assert report.render() == "\n".join(report.failures + ["FAIL 8/64"])


def test_verify_all_reports_non_basis_output(monkeypatch):
    # The U stage of f = 1001 holds the AND table 0001 instead, so no
    # column of that f reads out as a basis state.
    real = pipeline._gates

    def gates(f, fault):
        wrong = Gate("U", (2,), tt("0001"))
        return tuple(wrong if f == tt("1001") and g.name == "U" else g for g in real(f, fault))

    monkeypatch.setattr(pipeline, "_gates", gates)
    report = verify_all(2)
    assert report.failures == [
        "f=9 x=+001 got=NotBasisState want=-111",
        "f=9 x=-001 got=NotBasisState want=+111",
        "f=9 x=+011 got=NotBasisState want=-101",
        "f=9 x=-011 got=NotBasisState want=+101",
        "f=9 x=+101 got=NotBasisState want=-011",
        "f=9 x=-101 got=NotBasisState want=+011",
        "f=9 x=+111 got=NotBasisState want=-001",
        "f=9 x=-111 got=NotBasisState want=+001",
    ]
    assert report.render().splitlines()[-1] == "FAIL 8/64"


def _random_inputs(data, n, count):
    index = data.draw(hyp.lists(hyp.integers(0, (1 << n) - 1), min_size=1, max_size=count))
    sign = data.draw(hyp.lists(hyp.sampled_from([1, -1]), min_size=len(index), max_size=len(index)))
    return [BasisKet(s, int_to_bits(x, n) + (1,)) for x, s in zip(index, sign)]


def _random_function(data, n):
    mask = tuple(data.draw(hyp.lists(hyp.integers(0, 1), min_size=n, max_size=n)))
    return from_parity_form(ParityForm(n, mask, data.draw(hyp.integers(0, 1))))


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_batched_columns_match_run_and_predict(data):
    n = data.draw(hyp.integers(1, 10))
    f = _random_function(data, n)
    kets = _random_inputs(data, n, 8)
    batch = _scale(*pipeline._simulate(f, [k.index for k in kets], [k.sign for k in kets]))
    index, sign = read_basis_columns(batch)
    for j, ket in enumerate(kets):
        got = BasisKet(int(sign[j]), int_to_bits(int(index[j]), n + 1))
        assert got == run(f, ket).output == predict(f, ket).output
        assert np.array_equal(batch[:, j], run_vector(f, ket).amplitudes)


@settings(max_examples=10, deadline=None)
@given(hyp.data())
def test_run_matches_predict_at_large_n(data):
    n = data.draw(hyp.integers(13, 19))
    f = _random_function(data, n)
    (ket,) = _random_inputs(data, n, 1)
    assert run(f, ket).output == predict(f, ket).output
    assert success_probability(f, ket) == 1.0


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_flipped_entry_fails_readout_in_every_column(data):
    n = data.draw(hyp.integers(2, 10))
    bits = list(_random_function(data, n).bits)
    bits[data.draw(hyp.integers(0, (1 << n) - 1))] ^= 1
    kets = _random_inputs(data, n, 8)
    f = TruthTable(n, tuple(bits))
    batch = _scale(*pipeline._simulate(f, [k.index for k in kets], [k.sign for k in kets]))
    _, sign = read_basis_columns(batch)
    assert not sign.any()


# fault injection


def test_no_fault_is_exactly_one():
    pos, neg = generate_functions(3)
    for f in pos + neg:
        for ket in (parse_ket("+0001"), parse_ket("-1011")):
            assert success_probability(f, ket) == 1.0


def test_skip_hadamard_reference_case():
    # Omitting one Hadamard of the second layer leaves that qubit in an
    # equal superposition, so the overlap with the predicted ket halves.
    p = success_probability(tt("0011"), parse_ket("+001"), SkipHadamard("second", 0))
    assert p == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_skip_fault_halves_success(n):
    pos, neg = generate_functions(n)
    for f in pos + neg:
        ket = BasisKet(1, (0,) * n + (1,))
        for layer in ("first", "second"):
            for q in range(n + 1):
                p = success_probability(f, ket, SkipHadamard(layer, q))
                assert p == pytest.approx(0.5, abs=1e-12)
                assert p == 0.5
                assert p < 1.0


@settings(max_examples=10, deadline=None)
@given(hyp.data())
def test_every_skip_at_n12_is_exactly_half(data):
    # Each skip splits its layer into at most two wire ranges, which the
    # kernel applies as separate blocked butterflies.
    n = 12
    f = _random_function(data, n)
    (ket,) = _random_inputs(data, n, 1)
    for layer in ("first", "second"):
        for q in range(n + 1):
            assert success_probability(f, ket, SkipHadamard(layer, q)) == 0.5


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_rotation_is_cos_squared_within_1e_12(data):
    n = data.draw(hyp.integers(1, 12))
    f = _random_function(data, n)
    (ket,) = _random_inputs(data, n, 1)
    layer = data.draw(hyp.sampled_from(["first", "second"]))
    angle = data.draw(hyp.floats(-4, 4))
    fault = RotateQubit(layer, data.draw(hyp.integers(0, n)), angle)
    assert abs(success_probability(f, ket, fault) - math.cos(angle) ** 2) <= 1e-12


_THREAD_PROBE = """
import hashlib
from symtest import pipeline
from symtest.boolfunc import ParityForm, from_parity_form
from symtest.statevec import BasisKet
n = 14
f = from_parity_form(ParityForm(n, (1, 1, 0) * 4 + (0, 1), 1))
ket = BasisKet(-1, (0, 1, 1) * 4 + (1, 0, 1))
clean = pipeline.run_vector(f, ket).amplitudes
rotated, _ = pipeline._simulate(f, [ket.index], [ket.sign], pipeline.RotateQubit("first", 5, 0.3))
print(hashlib.sha256(clean.tobytes()).hexdigest(), hashlib.sha256(rotated.tobytes()).hexdigest())
"""


def test_output_bytes_do_not_depend_on_blas_threads():
    # The Hadamard blocks are BLAS matrix products; their bytes must not
    # depend on how many threads BLAS splits the work over.
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = [sys.executable, "-c", _THREAD_PROBE]
        out = subprocess.run(probe, env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


@pytest.mark.parametrize("eps", [0.1, 0.5])
@pytest.mark.parametrize("layer", ["first", "second"])
def test_rotate_gives_cos_squared(eps, layer):
    p = success_probability(tt("0011"), parse_ket("+001"), RotateQubit(layer, 1, eps))
    assert p == pytest.approx(math.cos(eps) ** 2, abs=1e-9)


def test_rotate_zero_angle_is_exactly_faultless():
    p = success_probability(tt("0110"), parse_ket("+001"), RotateQubit("first", 0, 0.0))
    assert p == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_corrupt_entry_success(n):
    # flipping one oracle entry perturbs one of 2^n phase terms, so the
    # retained amplitude is (2^n - 2) / 2^n regardless of which entry
    expected = (1 - 2.0 ** (1 - n)) ** 2
    pos, _ = generate_functions(n)
    ket = BasisKet(1, (0,) * n + (1,))
    for index in (0, (1 << n) - 1):
        p = success_probability(pos[1], ket, CorruptOracleEntry(index))
        assert p == pytest.approx(expected, abs=1e-12)


def _all_faults(n):
    for layer in ("first", "second"):
        for q in range(n + 1):
            yield SkipHadamard(layer, q)
            yield RotateQubit(layer, q, 0.25)
    for index in range(1 << n):
        yield CorruptOracleEntry(index)


@pytest.mark.parametrize("fault", list(_all_faults(2)), ids=str)
def test_fault_is_one_gate_list_edit(fault):
    f = tt("0110")
    clean, faulted = pipeline._gates(f, None), pipeline._gates(f, fault)
    assert [g.name for g in clean] == ["H"] * 3 + ["U"] + ["H"] * 3
    opcodes = SequenceMatcher(None, clean, faulted, autojunk=False).get_opcodes()
    [(tag, i1, i2, j1, j2)] = [op for op in opcodes if op[0] != "equal"]
    if isinstance(fault, SkipHadamard):
        # One H dropped, from the faulted layer.
        assert (tag, clean[i1:i2]) == ("delete", (H(fault.qubit),))
        assert (i1 < 3) == (fault.layer == "first")
    elif isinstance(fault, RotateQubit):
        # One R inserted, right after the faulted layer.
        assert (tag, faulted[j1:j2]) == ("insert", (Gate("R", (fault.qubit,), 0.25),))
        assert j1 == (3 if fault.layer == "first" else 7)
    else:
        # U's table replaced by one that differs in the faulted entry only.
        assert (tag, i1, i2, j1, j2) == ("replace", 3, 4, 3, 4)
        pairs = zip(clean[3].arg.bits, faulted[3].arg.bits)
        assert [i for i, (a, b) in enumerate(pairs) if a != b] == [fault.index]


def test_run_memory_at_19_qubits():
    # One (2^20, 1) float64 state is 8 MB; the kernel works on it in place
    # through chunk-sized buffers, and the readout reads a chunk at a time.
    n = 19
    f = from_parity_form(ParityForm(n, (1, 0) * 9 + (1,), 1))
    ket = BasisKet(-1, (0, 1) * 9 + (1, 1))
    faults = (SkipHadamard("first", 3), RotateQubit("second", 7, 0.3), CorruptOracleEntry(5))
    for fault in (None,) + faults:
        tracemalloc.start()
        try:
            if fault is None:
                assert run(f, ket) == predict(f, ket)
            else:
                assert success_probability(f, ket, fault) < 1.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, (fault, peak)


def test_run_peak_memory_is_within_1_6_states_at_19_qubits():
    # The state is 8.4 MB; H and R work through a 256 KB scratch, U moves
    # rows through chunk-sized buffers, and the readout reads a chunk of rows
    # at a time.
    n = 19
    state = 8 << (n + 1)
    f = from_parity_form(ParityForm(n, (0, 1, 1) * 6 + (1,), 0))
    ket = BasisKet(1, (1, 1, 0) * 6 + (0, 1))
    faults = (SkipHadamard("second", 19), RotateQubit("first", 0, 0.7), CorruptOracleEntry(1 << 18))
    for fault in (None,) + faults:
        tracemalloc.start()
        try:
            if fault is None:
                assert run(f, ket) == predict(f, ket)
            else:
                assert success_probability(f, ket, fault) < 1.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * state, (fault, peak)


@pytest.mark.parametrize(
    "fault",
    [None, SkipHadamard("first", 3), RotateQubit("second", 7, 0.3), CorruptOracleEntry(5)],
)
def test_run_peak_memory_is_within_1_25_states_at_19_qubits(fault):
    # U is one row gather through buffers of at most 2^15 rows, so the
    # state itself is nearly all of the peak, with every fault kind.
    n = 19
    state = 8 << (n + 1)
    f = from_parity_form(ParityForm(n, (1, 0) * 9 + (1,), 1))
    ket = BasisKet(-1, (0, 1) * 9 + (1, 1))
    tracemalloc.start()
    try:
        if fault is None:
            assert run(f, ket) == predict(f, ket)
        else:
            assert success_probability(f, ket, fault) < 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state, (fault, peak)


def test_run_vector_peak_memory_is_within_1_25_states_at_19_qubits():
    # StateVector keeps the kernel's array instead of copying it.
    n = 19
    state = 8 << (n + 1)
    f = from_parity_form(ParityForm(n, (1, 0) * 9 + (1,), 1))
    ket = BasisKet(-1, (0, 1) * 9 + (1, 1))
    tracemalloc.start()
    try:
        v = run_vector(f, ket)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state, peak
    assert v.amplitudes[predict(f, ket).output.index] == 1.0


_FRESH_RUN = """
import tracemalloc
from symtest.boolfunc import ParityForm, from_parity_form
from symtest.pipeline import predict, run
from symtest.statevec import BasisKet

f = from_parity_form(ParityForm(19, (1, 0) * 9 + (1,), 1))
ket = BasisKet(-1, (0, 1) * 9 + (1, 1))
tracemalloc.start()
ok = run(f, ket) == predict(f, ket)
print(ok, tracemalloc.get_traced_memory()[1])
"""


def test_first_run_in_a_fresh_process_is_within_1_25_states():
    # No kernel call before the measured one, so a table built and cached
    # on first use counts against the peak here, as it would in a CLI call.
    state = 8 << 20
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    ok, peak = out.stdout.split()
    assert ok == "True"
    assert int(peak) <= 1.25 * state, peak


@pytest.mark.parametrize(
    "fault", [None, SkipHadamard("first", 3), SkipHadamard("second", 19), CorruptOracleEntry(5)]
)
def test_float32_run_peak_memory_is_within_0_6_states_at_19_qubits(fault):
    # The batch is float32, half a float64 state; the corrupt fault adds its
    # 0.5 MB table, and the kernel's chunk scratch the rest.
    n = 19
    state = 8 << (n + 1)
    f = from_parity_form(ParityForm(n, (1, 0) * 9 + (1,), 1))
    ket = BasisKet(-1, (0, 1) * 9 + (1, 1))
    tracemalloc.start()
    try:
        if fault is None:
            assert run(f, ket) == predict(f, ket)
        else:
            assert success_probability(f, ket, fault) < 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * state, (fault, peak)


def _float64_only():
    """Run the pipeline's batches in float64 whatever the gate list."""
    return mock.patch.object(pipeline, "_batch_dtype", lambda gates: np.float64)


def _outcome(call):
    try:
        return call()
    except NotBasisStateError as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_float32_pipeline_outputs_equal_float64_bit_for_bit(data):
    # Random tables, admissible or not, at n <= 8: run's readout and the skip
    # and corrupt success probabilities of the float32 batch are those of the
    # float64 batch, to the last bit.
    n = data.draw(hyp.integers(1, 8))
    if data.draw(hyp.booleans()):
        f = _random_function(data, n)
    else:
        f = TruthTable(n, data.draw(hyp.lists(hyp.integers(0, 1), min_size=1 << n, max_size=1 << n)))
    kets = _random_inputs(data, n, 4)
    layer = data.draw(hyp.sampled_from(["first", "second"]))
    faults = [
        SkipHadamard(layer, data.draw(hyp.integers(0, n))),
        CorruptOracleEntry(data.draw(hyp.integers(0, (1 << n) - 1))),
    ]
    for fault in [None] + faults:
        columns = [k.index for k in kets], [k.sign for k in kets], fault
        arr, h = pipeline._simulate(f, *columns)
        assert arr.dtype == np.float32
        wide = _scale(*pipeline._simulate(f, *columns, dtype=np.float64))
        assert np.array_equal(_scale(arr, h).astype(np.float64).view(np.uint64), wide.view(np.uint64))
    g = _random_function(data, n)  # success_probability needs an admissible f
    got = [_outcome(lambda: run(f, ket)) for ket in kets]
    got += [success_probability(g, ket, fault).hex() for ket in kets for fault in faults]
    with _float64_only():
        want = [_outcome(lambda: run(f, ket)) for ket in kets]
        want += [success_probability(g, ket, fault).hex() for ket in kets for fault in faults]
    assert got == want


def test_float32_verify_report_equals_float64():
    for n in (1, 4, 6):
        got = verify_all(n).render()
        with _float64_only():
            assert verify_all(n).render() == got


def test_fault_validation():
    f = tt("0011")
    ket = parse_ket("+001")
    with pytest.raises(ValueError):
        success_probability(f, ket, SkipHadamard("first", 3))
    with pytest.raises(ValueError):
        success_probability(f, ket, SkipHadamard("middle", 0))
    with pytest.raises(ValueError):
        success_probability(f, ket, RotateQubit("first", -1, 0.1))
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            success_probability(f, ket, RotateQubit("first", 1, angle))
    with pytest.raises(ValueError):
        success_probability(f, ket, CorruptOracleEntry(4))
    with pytest.raises(ValueError):
        success_probability(f, ket, "not a fault")


def test_result_equality():
    a = PipelineResult(parse_ket("+101"), True)
    b = PipelineResult(parse_ket("+101"), True)
    assert a == b
