import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import ExitStack, contextmanager
from difflib import SequenceMatcher
from itertools import islice, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp

from symtest import circuits, pipeline, statevec
from symtest.bitops import CAPS, int_to_bits
from symtest.boolfunc import (
    NotAdmissibleError,
    ParityForm,
    TruthTable,
    from_parity_form,
    generate_functions,
    hex_decode,
    is_admissible,
    iter_tables,
    padded_hex,
    to_parity_form,
)
from symtest.circuits import Gate, H, _batch_dtype, _scale, _simulate_batch, _stages, hadamard_layer
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
from symtest.statevec import (
    BasisKet,
    NotBasisStateError,
    hadamard_all,
    ket_to_vector,
    parse_ket,
    read_basis_columns,
)

tt = TruthTable.from_string


def signed_inputs(n):
    for idx in range(1 << n):
        for sign in (1, -1):
            yield BasisKet(sign, int_to_bits(idx, n) + (1,))


def _simulate(f, index, sign, fault=None):
    """The whole plan of the pipeline with `fault`, second H layer included,
    simulated on the columns sign[j] |index[j]>: the unscaled batch, in the
    plan's _batch_dtype, and its H count."""
    stages = _stages(pipeline._gates(f, fault))
    arr = np.empty((2 << f.n, len(index)), circuits._batch_dtype(stages))
    return arr, _simulate_batch(stages, index, sign, arr)


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
        verify_all(CAPS["verify"] + 1)


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


def _swap_u_tables(monkeypatch, swap):
    """Make each U gate that verify_all builds hold swap.get(t, t) for
    each of its tables t, while the predictor still reads the true f."""
    real = pipeline.Gate

    def gate(name, qubits, arg=None):
        if name == "U":
            arg = tuple(swap.get(t, t) for t in arg)
        return real(name, qubits, arg)

    monkeypatch.setattr(pipeline, "Gate", gate)


def test_verify_all_reports_non_basis_output(monkeypatch):
    # The U stage of f = 1001 holds the AND table 0001 instead, so no
    # column of that f reads out as a basis state.
    _swap_u_tables(monkeypatch, {tt("1001"): tt("0001")})
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


@pytest.mark.parametrize("n", range(1, 7))
def test_verify_all_renders_one_pass_line(n):
    total = 4 << (2 * n)
    assert verify_all(n).render() == f"PASS {total}/{total}"


def test_verify_all_groups_4_functions_per_batch_at_6(monkeypatch):
    # The 4th and 5th f, the last of one batch and the first of the next,
    # trade U tables: exactly their 2 x 128 lines fail, each column read
    # against the other's prediction, in f and then input order.
    tables = [TruthTable(6, t) for t in islice(iter_tables(6), 5)]
    f4, f5 = tables[3], tables[4]
    _swap_u_tables(monkeypatch, {f4: f5, f5: f4})
    with mock.patch.object(pipeline, "_simulate_batch", wraps=pipeline._simulate_batch) as spy:
        report = verify_all(6)
    assert [c.args[3].shape for c in spy.call_args_list] == [(128, 512)] * 32
    want = [
        f"f={padded_hex(f)} x={ket} got={predict(other, ket).output} want={predict(f, ket).output}"
        for f, other in ((f4, f5), (f5, f4))
        for ket in signed_inputs(6)
    ]
    assert report.failures == want
    assert report.render().splitlines()[-1] == "FAIL 256/16384"


@contextmanager
def _second_layer_spies():
    """Spies on circuits.butterfly, which every H stage after the fill calls,
    and on read_basis_columns in each symtest module that holds it."""
    layer = mock.Mock(wraps=circuits.butterfly)
    reader = mock.Mock(wraps=read_basis_columns)
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(circuits, "butterfly", layer))
        for module in (statevec, circuits, pipeline):
            if hasattr(module, "read_basis_columns"):
                stack.enter_context(mock.patch.object(module, "read_basis_columns", reader))
        yield layer, reader


def test_a_passing_verify_runs_no_second_layer_and_no_readout():
    # Each column after U is checked against its predicted row, so a passing
    # sweep makes no butterfly and no read_basis_columns call; a failing
    # batch, here the first of 32 at n = 6, is read from the state after U
    # as well, so it makes none either.
    f0, f1 = (TruthTable(6, t) for t in islice(iter_tables(6), 2))
    with _second_layer_spies() as (layer, reader):
        assert verify_all(6).passed
        assert (layer.call_count, reader.call_count) == (0, 0)
        with pytest.MonkeyPatch.context() as mp:
            _swap_u_tables(mp, {f0: f1, f1: f0})
            assert verify_all(6).summary() == "FAIL 256/16384"
        assert (layer.call_count, reader.call_count) == (0, 0)


def _full_plan_read(f, kets):
    """Each ket's output read the reference way: the whole plan, second H
    layer included, simulated and scaled, then read_basis_columns."""
    index, sign = [k.index for k in kets], [k.sign for k in kets]
    return read_basis_columns(_scale(*_simulate(f, index, sign)))


def _reference_failures(n, swap):
    """verify_all's lines when the U of each f in `swap` holds swap[f] instead:
    the whole plan of the swapped table (NotBasisState where it reads none)
    against predict of f.  Every other f's U holds f, which passes."""
    lines = []
    kets = list(signed_inputs(n))
    for f in (TruthTable(n, t) for t in iter_tables(n)):
        if f not in swap:
            continue
        for ket, index, sign in zip(kets, *_full_plan_read(swap[f], kets)):
            want = predict(f, ket).output
            got = BasisKet(int(sign), int_to_bits(int(index), n + 1)) if sign else "NotBasisState"
            if got != want:
                lines.append(f"f={padded_hex(f)} x={ket} got={got} want={want}")
    return lines


@settings(max_examples=20, deadline=None)
@given(hyp.data())
def test_a_flipped_u_entry_fails_every_column_of_its_f_alone(data):
    n = data.draw(hyp.integers(2, 5))  # one batch up to n = 4, four at 5
    f = TruthTable(n, data.draw(hyp.sampled_from(list(iter_tables(n)))))
    flipped = bytearray(f.table)
    flipped[data.draw(hyp.integers(0, (1 << n) - 1))] ^= 1
    swap = {f: TruthTable(n, flipped)}
    with pytest.MonkeyPatch.context() as mp:
        _swap_u_tables(mp, swap)
        report = verify_all(n)
    want = _reference_failures(n, swap)
    assert want == [
        f"f={padded_hex(f)} x={ket} got=NotBasisState want={predict(f, ket).output}"
        for ket in signed_inputs(n)
    ]
    assert report.failures == want


@settings(max_examples=20, deadline=None)
@given(hyp.data())
def test_swapped_u_tables_read_as_each_others_predictions(data):
    n = data.draw(hyp.integers(2, 5))
    tables = [TruthTable(n, t) for t in iter_tables(n)]
    pair = hyp.lists(hyp.sampled_from(tables), min_size=2, max_size=2, unique=True)
    a, b = sorted(data.draw(pair), key=tables.index)
    swap = {a: b, b: a}
    with pytest.MonkeyPatch.context() as mp:
        _swap_u_tables(mp, swap)
        report = verify_all(n)
    want = _reference_failures(n, swap)
    assert want == [
        f"f={padded_hex(f)} x={ket} got={predict(other, ket).output} want={predict(f, ket).output}"
        for f, other in ((a, b), (b, a))
        for ket in signed_inputs(n)
    ]
    assert report.failures == want


def test_verify_checks_each_columns_norm_as_well_as_its_overlap(monkeypatch):
    # Column 37 at n = 3, f number 2 on input number 5, gets one entry doubled
    # and another zeroed after U.  Its overlap with its predicted row's +-1
    # Hadamard row h is unchanged (+h_5^2 - h_11^2 = 0), so the overlap alone
    # would pass it; its squared norm is 2^4 + 2, and the second layer leaves
    # no basis state.
    n, col = 3, 37
    real = circuits._fill

    def fill(arr, *args):
        real(arr, *args)
        arr[5, col] *= 2
        arr[11, col] = 0

    monkeypatch.setattr(circuits, "_fill", fill)
    f = TruthTable(n, list(iter_tables(n))[col >> (n + 1)])
    ket = list(signed_inputs(n))[col % (2 << n)]
    want = f"f={padded_hex(f)} x={ket} got=NotBasisState want={predict(f, ket).output}"
    assert verify_all(n).failures == [want]


def _check_reader(f, kets):
    """_read_rows on the state after U, and run() on each ket, equal the
    whole plan's read: the same signs, and the same index where the sign is
    not 0; run() raises NotBasisStateError exactly where it is 0."""
    stages = _stages(pipeline._gates(f, None))[:2]
    arr = np.empty((2 << f.n, len(kets)), _batch_dtype(stages))
    _simulate_batch(stages, [k.index for k in kets], [k.sign for k in kets], arr)
    index, sign = circuits._read_rows(arr)
    want_index, want_sign = _full_plan_read(f, kets)
    assert sign.tolist() == want_sign.tolist()
    assert index[sign != 0].tolist() == want_index[sign != 0].tolist()
    for ket, i, s in zip(kets, want_index, want_sign):
        if s:
            assert run(f, ket).output == BasisKet(int(s), int_to_bits(int(i), f.n + 1))
        else:
            with pytest.raises(NotBasisStateError, match="not a basis state"):
                run(f, ket)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reader_after_u_equals_the_whole_plan_read_on_every_table(n):
    kets = list(signed_inputs(n))
    for bits in product((0, 1), repeat=1 << n):
        _check_reader(TruthTable(n, bits), kets)


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_reader_after_u_equals_the_whole_plan_read(data):
    # Admissible tables, tables one entry away from one, and random tables,
    # on inputs of both signs at n <= 12.
    n = data.draw(hyp.integers(1, 12))
    kind = data.draw(hyp.sampled_from(["admissible", "flipped", "random"]))
    if kind == "random":
        bits = np.random.default_rng(data.draw(hyp.integers(0, 2**32 - 1))).integers(0, 2, 1 << n)
    else:
        bits = list(_random_function(data, n).bits)
        if kind == "flipped":
            bits[data.draw(hyp.integers(0, (1 << n) - 1))] ^= 1
    _check_reader(TruthTable(n, bits), _random_inputs(data, n, 8))


def test_run_checks_the_norm_as_well_as_the_overlap(monkeypatch):
    # As in the verify test above: one entry of the state after U doubled and
    # another zeroed, neither of them a probed row 0 or 2^i, leave the overlap
    # with the probed Hadamard row unchanged but the squared norm 2^4 + 2.
    f, ket = tt("01101001"), parse_ket("-1011")
    assert run(f, ket) == predict(f, ket)
    real = circuits._fill

    def fill(arr, *args):
        real(arr, *args)
        arr[5, 0] *= 2
        arr[11, 0] = 0

    monkeypatch.setattr(circuits, "_fill", fill)
    with pytest.raises(NotBasisStateError, match="is not a basis state"):
        run(f, ket)


def test_run_at_19_makes_no_butterfly_and_no_readout_call():
    n = 19
    f = from_parity_form(ParityForm(n, (0, 1, 1) * 6 + (1,), 1))
    ket = BasisKet(-1, (1, 1, 0) * 6 + (0, 1))
    with _second_layer_spies() as (layer, reader):
        assert run(f, ket) == predict(f, ket)
    assert (layer.call_count, reader.call_count) == (0, 0)


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
    batch = _scale(*_simulate(f, [k.index for k in kets], [k.sign for k in kets]))
    index, sign = read_basis_columns(batch)
    for j, ket in enumerate(kets):
        got = BasisKet(int(sign[j]), int_to_bits(int(index[j]), n + 1))
        assert got == run(f, ket).output == predict(f, ket).output
        assert np.array_equal(batch[:, j], run_vector(f, ket).amplitudes)


def _check_state_after_u(f, index, sign):
    """The abstract's "Hadamard transform of any specified state +-|y>": after
    layer 1 and U, the unscaled column of the input sign * |index> is exactly
    s * (-1)^|r & y| in row r, the integer Hadamard row of the predicted
    s * |y>; scaled, it is hadamard_all of that ket, bit for bit."""
    k = f.n + 1
    stages = _stages(hadamard_layer(k) + (Gate("U", (f.n,), f),))
    arr = np.empty((1 << k, len(index)), _batch_dtype(stages))
    h = _simulate_batch(stages, index, sign, arr)
    y, s = pipeline._prediction(to_parity_form(f), np.asarray(index), np.asarray(sign))
    rows = np.arange(1 << k)[:, None]
    assert np.array_equal(arr, np.where(np.bitwise_count(rows & y) & 1, -s, s))
    scaled = _scale(arr, h).astype(np.float64)
    for j in range(len(index)):
        want = hadamard_all(ket_to_vector(BasisKet(int(s[j]), int_to_bits(int(y[j]), k))))
        assert np.array_equal(scaled[:, j].view(np.uint64), want.amplitudes.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 7))
def test_state_after_u_is_the_hadamard_transform_of_the_prediction(n):
    index = np.repeat((np.arange(1 << n) << 1) | 1, 2)  # every signed input
    sign = np.tile([1, -1], 1 << n)
    for table in iter_tables(n):
        _check_state_after_u(TruthTable(n, table), index, sign)


@settings(max_examples=30, deadline=None)
@given(hyp.data())
def test_state_after_u_is_the_hadamard_transform_of_the_prediction_at_random_n(data):
    n = data.draw(hyp.integers(1, 12))
    kets = _random_inputs(data, n, 4)
    _check_state_after_u(_random_function(data, n), [k.index for k in kets], [k.sign for k in kets])


@settings(max_examples=10, deadline=None)
@given(hyp.data())
def test_run_matches_predict_at_large_n(data):
    n = data.draw(hyp.integers(13, 19))
    f = _random_function(data, n)
    (ket,) = _random_inputs(data, n, 1)
    assert run(f, ket).output == predict(f, ket).output
    assert success_probability(f, ket) == 1.0


@settings(max_examples=30, deadline=None)
@given(hyp.data())
def test_solve_inverts_predict_up_to_the_cap(data):
    n = data.draw(hyp.integers(1, CAPS["n"]))
    f = _random_function(data, n)
    (ket,) = _random_inputs(data, n, 1)
    assert solve_function(ket, predict(f, ket).output) == f


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_flipped_entry_fails_readout_in_every_column(data):
    n = data.draw(hyp.integers(2, 10))
    bits = list(_random_function(data, n).bits)
    bits[data.draw(hyp.integers(0, (1 << n) - 1))] ^= 1
    kets = _random_inputs(data, n, 8)
    f = TruthTable(n, tuple(bits))
    batch = _scale(*_simulate(f, [k.index for k in kets], [k.sign for k in kets]))
    _, sign = read_basis_columns(batch)
    assert not sign.any()


def _tolerance_reader(arr):
    """A column is a basis state when its first entry of largest magnitude
    is within 1e-9 of +-1 and every other entry within 1e-9 of 0, found a
    chunk of rows at a time: the reference for kernel batches."""
    cols = np.arange(arr.shape[1])
    top, bottom = arr.argmax(axis=0), arr.argmin(axis=0)
    high, low = arr[top, cols], -arr[bottom, cols]
    index = np.where((high > low) | ((high == low) & (top < bottom)), top, bottom)
    rest = np.zeros(len(cols))
    step = max(1, (1 << 15) // len(cols))
    for start in range(0, len(arr), step):
        mags = np.abs(arr[start : start + step])
        inside = (index >= start) & (index < start + step)
        mags[index[inside] - start, cols[inside]] = 0.0
        rest = np.maximum(rest, mags.max(axis=0))
    peak = arr[index, cols].astype(np.float64)
    ok = (np.abs(np.abs(peak) - 1.0) <= 1e-9) & (rest <= 1e-9)
    return index, np.where(ok, np.where(peak > 0, 1, -1), 0)


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_exact_reader_equals_the_tolerance_reader_on_kernel_batches(data):
    # Kernel batches of an admissible f, or of one with a flipped entry,
    # at n <= 10: the same signs, and the same index wherever sign != 0.
    n = data.draw(hyp.integers(1, 10))
    bits = list(_random_function(data, n).bits)
    if data.draw(hyp.booleans()):
        bits[data.draw(hyp.integers(0, (1 << n) - 1))] ^= 1
    f = TruthTable(n, tuple(bits))
    kets = _random_inputs(data, n, 16)
    batch = _scale(*_simulate(f, [k.index for k in kets], [k.sign for k in kets]))
    want_index, want_sign = _tolerance_reader(batch)
    index, sign = read_basis_columns(batch)
    assert sign.tolist() == want_sign.tolist()
    assert index[sign != 0].tolist() == want_index[sign != 0].tolist()
    assert np.array_equal(sign != 0, np.full(len(kets), is_admissible(f)))


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
    # A first-layer skip leaves the fill a wire short, and a second-layer
    # one leaves a 0 in every readout row that differs on the skipped wire.
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
import numpy as np
from symtest import circuits, pipeline
from symtest.boolfunc import ParityForm, from_parity_form
from symtest.statevec import BasisKet
n = 14
f = from_parity_form(ParityForm(n, (1, 1, 0) * 4 + (0, 1), 1))
ket = BasisKet(-1, (0, 1, 1) * 4 + (1, 0, 1))
clean = pipeline.run_vector(f, ket).amplitudes
stages = circuits._stages(pipeline._gates(f, pipeline.RotateQubit("first", 5, 0.3)))
rotated = np.empty((2 << n, 1))
circuits._simulate_batch(stages, [ket.index], [ket.sign], rotated)
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


def _whole_plan_probability(f, ket, fault):
    """success_probability by the whole plan: simulate every stage, then read
    the predicted row, scaled the same way."""
    target = predict(f, ket).output
    arr, h = _simulate(f, [ket.index], [ket.sign], fault)
    overlap = float(arr[target.index, 0]) * target.sign
    return overlap * overlap * 2.0 ** -h


def _assert_matches_whole_plan(f, ket, fault):
    got, want = success_probability(f, ket, fault), _whole_plan_probability(f, ket, fault)
    if isinstance(fault, RotateQubit):
        assert abs(got - want) <= 1e-13, (fault, got, want)
    else:
        assert got == want, (fault, got, want)


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_success_probability_equals_the_whole_plan_read(data):
    # The readout contracts product states on either side of U through its
    # table; skip, corrupt and fault-free results are those of the
    # simulated plan to the last bit, rotations within 1e-13.
    n = data.draw(hyp.integers(1, 12))
    f = _random_function(data, n)
    (ket,) = _random_inputs(data, n, 1)
    angle = data.draw(hyp.floats(-4, 4))
    faults = [None, CorruptOracleEntry(data.draw(hyp.integers(0, (1 << n) - 1)))]
    for layer in ("first", "second"):
        for q in range(n + 1):
            faults += [SkipHadamard(layer, q), RotateQubit(layer, q, angle)]
    for fault in faults:
        _assert_matches_whole_plan(f, ket, fault)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_success_probability_equals_the_whole_plan_read_exhaustively(n):
    pos, neg = generate_functions(n)
    faults = [None] + list(_all_faults(n))
    for f in pos + neg:
        for x, sign in product(range(1 << n), (1, -1)):
            ket = BasisKet(sign, int_to_bits(x, n) + (1,))
            for fault in faults:
                _assert_matches_whole_plan(f, ket, fault)


def test_success_probability_makes_no_butterfly_call():
    # Every fault is contracted from product states through U's table, with
    # no state to apply H to; run reads its output from the state after U.
    n = 4
    f = from_parity_form(ParityForm(n, (1, 0, 1, 1), 1))
    ket = BasisKet(-1, (0, 1, 1, 0, 1))
    with mock.patch.object(circuits, "butterfly", wraps=circuits.butterfly) as spy:
        for fault in [None] + list(_all_faults(n)):
            success_probability(f, ket, fault)
        assert spy.call_count == 0
        assert run(f, ket) == predict(f, ket)
        assert spy.call_count == 0


def test_run_memory_at_19_qubits():
    # One (2^20, 1) float64 state is 8 MB; the kernel works on it in place
    # through chunk-sized buffers, and the readout's products and row test
    # allocate only small sums.
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
    # run's float32 state is 4.2 MB and U is the fill's phase on a chunk of
    # rows at a time; a fault writes no state, and einsum casts U's table to
    # float32 a buffer at a time.
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
    # U, the fill's phase or a row gather, works through buffers of at most
    # one chunk, so the state itself is nearly all of the peak, with every
    # fault kind.
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


def test_second_layer_rotation_peak_memory_is_within_1_25_states_at_19_qubits():
    # The rotation splits the target row's product state in two; the overlap
    # is contracted through U's table, and no state is written.
    n = 19
    state = 8 << (n + 1)
    f = from_parity_form(ParityForm(n, (1, 0) * 9 + (1,), 1))
    ket = BasisKet(-1, (0, 1) * 9 + (1, 1))
    tracemalloc.start()
    try:
        p = success_probability(f, ket, RotateQubit("second", 19, 0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state, peak
    assert abs(p - math.cos(0.3) ** 2) <= 1e-12


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


def _gather_batch(gates, index, sign, arr):
    """The kernel with U always a row gather: the fill of stage 0, then
    every later stage through _apply_stages; returns the list's H count."""
    stages = circuits._stages(gates)
    circuits._fill(arr, index, sign, stages[0][1])
    circuits._apply_stages(stages[1:], arr)
    return sum(g.name == "H" for g in gates)


@pytest.mark.parametrize(
    "fault, gathers",
    [
        (None, 0),
        (SkipHadamard("second", 2), 0),
        (SkipHadamard("first", 1), 0),
        (CorruptOracleEntry(3), 0),
        (RotateQubit("second", 0, 0.4), 0),
        (RotateQubit("first", 2, 0.4), 0),
        (SkipHadamard("first", 4), 0),
    ],
)
def test_u_is_a_row_gather_only_where_the_fill_cannot_apply_it(fault, gathers):
    # success_probability contracts U with product states on either side of
    # it, and run applies it as the fill's phase, so neither makes a
    # _permute call.  In a batch, a first-layer rotation or the ancilla's H
    # skipped leaves U a row gather.  Either way the batch of every signed
    # input has the bytes of the fill-then-gather kernel.
    n = 4
    f = from_parity_form(ParityForm(n, (1, 0, 1, 1), 1))
    ket = BasisKet(-1, (0, 1, 1, 0, 1))
    with mock.patch.object(circuits, "_permute", wraps=circuits._permute) as spy:
        if fault is None:
            assert run(f, ket) == predict(f, ket)
        else:
            success_probability(f, ket, fault)
    assert spy.call_count == gathers
    index = np.repeat((np.arange(1 << n) << 1) | 1, 2)
    sign = np.tile([1, -1], 1 << n)
    arr, h = _simulate(f, index, sign, fault)
    want = np.empty_like(arr)
    assert _gather_batch(pipeline._gates(f, fault), index, sign, want) == h
    assert np.array_equal(arr.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize(
    "fault", [None, SkipHadamard("first", 3), SkipHadamard("second", 19), CorruptOracleEntry(5)]
)
def test_float32_run_peak_memory_is_within_0_6_states_at_19_qubits(fault):
    # run's batch is float32, half a float64 state, and the fill applies U's
    # phase through chunk buffers; a fault writes no state, and the corrupt
    # one adds its 0.5 MB table.
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


@pytest.mark.parametrize(
    "fault, want",
    [
        (None, 1.0),
        (SkipHadamard("first", 0), 0.5),
        (SkipHadamard("first", 19), 0.5),
        (SkipHadamard("second", 7), 0.5),
        (CorruptOracleEntry(0), (1 - 2.0**-18) ** 2),
        (CorruptOracleEntry((1 << 19) - 1), (1 - 2.0**-18) ** 2),
        (RotateQubit("second", 19, 0.4), math.cos(0.4) ** 2),
        (RotateQubit("first", 3, 0.4), math.cos(0.4) ** 2),
        (RotateQubit("first", 19, 0.4), math.cos(0.4) ** 2),
    ],
)
def test_fault_at_19_qubits_writes_no_state(fault, want):
    # Every fault is contracted from product states on either side of U and
    # U's table: no fill, row gather or butterfly, and a traced peak below
    # the 2^(k+2) bytes of the float32 batch on k = 20 wires that it does
    # not write.
    n = 19
    f = from_parity_form(ParityForm(n, (1, 1, 0) * 6 + (1,), 0))
    ket = BasisKet(1, (1, 0) * 9 + (0, 1))
    with ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(circuits, name, wraps=getattr(circuits, name)))
            for name in ("_fill", "_permute", "butterfly")
        ]
        tracemalloc.start()
        try:
            got = success_probability(f, ket, fault)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert [spy.call_count for spy in spies] == [0, 0, 0]
    assert peak < 1 << (n + 3), peak
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n", [18, 19])
@pytest.mark.parametrize("layer", ["first", "second"])
def test_rotation_near_a_quarter_turn_is_cos_squared(n, layer):
    # Near pi/2, cos^2 is small, so any rounding beyond that of cos and sin
    # shows: the probability stays within 1e-12 of cos^2, relative to it.
    f = from_parity_form(ParityForm(n, (1, 0, 1) * 6 + (0,) * (n - 18), 1))
    ket = BasisKet(-1, (0, 1, 1) * 6 + (1,) * (n - 17))
    for qubit in (0, 7, n):
        for angle in (1.5707, 1.57079, 1.570796):
            got = success_probability(f, ket, RotateQubit(layer, qubit, angle))
            want = math.cos(angle) ** 2
            assert abs(got - want) <= 1e-12 * want, (qubit, angle, got, want)


@contextmanager
def _float64_only():
    """Run the pipeline's and the kernel's batches in float64 whatever the gate list."""
    with ExitStack() as stack:
        for module in (pipeline, circuits):
            patch = mock.patch.object(module, "_batch_dtype", lambda stages: np.float64)
            stack.enter_context(patch)
        yield


def _outcome(call):
    try:
        return call()
    except NotBasisStateError as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_float32_pipeline_outputs_equal_float64_bit_for_bit(data):
    # Random tables, admissible or not, at n <= 8: run's readout and the skip
    # and corrupt batches in float32 are those in float64, to the last bit.
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
        arr, h = _simulate(f, *columns)
        assert arr.dtype == np.float32
        with _float64_only():
            wide = _scale(*_simulate(f, *columns))
        assert np.array_equal(_scale(arr, h).astype(np.float64).view(np.uint64), wide.view(np.uint64))
    got = [_outcome(lambda: run(f, ket)) for ket in kets]
    with _float64_only():
        want = [_outcome(lambda: run(f, ket)) for ket in kets]
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
