import math
import tracemalloc
from functools import reduce
from itertools import islice, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp

from symtest.bitops import bits_to_int, int_to_bits
from symtest.boolfunc import (
    NotAdmissibleError,
    ParityForm,
    TruthTable,
    from_parity_form,
    generate_functions,
    hex_decode,
)
from symtest import circuits, statevec
from symtest.circuits import (
    _BATCH_AMPLITUDES,
    CNOT,
    Circuit,
    Gate,
    H,
    X,
    _amplitude,
    _batch_dtype,
    _scale,
    _simulate_batch,
    _stages,
    assert_equivalent,
    compile_equivalent,
    equivalent,
    hadamard_layer,
    iter_basis_inputs,
    oracle_as_cnots,
    pipeline_as_circuit,
    simulate_circuit,
)
from symtest.oracle import QuantumOracle
from symtest.pipeline import run
from symtest.statevec import (
    BasisKet,
    StateVector,
    hadamard_all,
    ket_to_vector,
    parse_ket,
    vector_to_ket,
)

tt = TruthTable.from_string


def test_oracle_as_cnots_examples():
    assert oracle_as_cnots(tt("0011")).gates == (CNOT(0, 2),)
    assert oracle_as_cnots(tt("0110")).gates == (CNOT(0, 2), CNOT(1, 2))
    assert oracle_as_cnots(tt("0000")).gates == ()
    assert oracle_as_cnots(tt("1100")).gates == (CNOT(0, 2), X(2))


def test_oracle_as_cnots_rejects_non_admissible():
    with pytest.raises(NotAdmissibleError):
        oracle_as_cnots(tt("0001"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_circuit_computes_xor_into_ancilla(n):
    pos, neg = generate_functions(n)
    for f in pos + neg:
        circ = oracle_as_cnots(f)
        for t in range(1 << n):
            for k in (0, 1):
                bits = tuple((t >> (n - 1 - i)) & 1 for i in range(n)) + (k,)
                out = vector_to_ket(simulate_circuit(circ, BasisKet(1, bits)))
                assert out.sign == 1
                assert out.bits == bits[:-1] + (k ^ f.bits[t],)


def test_compile_equivalent_examples():
    c = compile_equivalent(tt("0011"))
    assert c.gates == (X(0),)
    assert c.global_sign == 1
    c = compile_equivalent(tt("1001"))
    assert c.gates == (X(0), X(1))
    assert c.global_sign == -1
    c = compile_equivalent(tt("0000"))
    assert c.gates == ()
    assert c.global_sign == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compile_equivalent_never_touches_ancilla(n):
    pos, neg = generate_functions(n)
    for f in pos + neg:
        for g in compile_equivalent(f).gates:
            assert n not in g.qubits


@pytest.mark.parametrize("table", ["0011", "0110"])
def test_pipeline_circuit_equals_compiled_on_ancilla_one(table):
    f = tt(table)
    assert assert_equivalent(
        pipeline_as_circuit(f),
        compile_equivalent(f),
        inputs=iter_basis_inputs(3, last_bit=1),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equivalence_generalizes(n):
    # Every admissible f: the wiring equals the compiled circuit on the
    # ancilla-1 inputs, and equivalent gives assert_equivalent's verdict on
    # the wiring and each single-gate mutant of it, on every input set.
    pos, neg = generate_functions(n)
    for f in pos + neg:
        wired, compiled = pipeline_as_circuit(f), compile_equivalent(f)
        assert assert_equivalent(wired, compiled, inputs=iter_basis_inputs(n + 1, last_bit=1))
        for gates in [wired.gates] + _single_gate_mutants(wired.gates, n + 1):
            a = Circuit(n + 1, gates)
            for last_bit in (None, 0, 1):
                want = assert_equivalent(a, compiled, inputs=iter_basis_inputs(n + 1, last_bit))
                assert equivalent(a, compiled, last_bit) == want, (a, last_bit)


def test_compiled_circuit_reproduces_run():
    for table in ("0011", "1001", "0110", "1111"):
        f = tt(table)
        circ = compile_equivalent(f)
        for ket in iter_basis_inputs(3, last_bit=1):
            got = vector_to_ket(simulate_circuit(circ, ket))
            assert got == run(f, ket).output


def test_simulate_circuit_examples():
    empty = Circuit(2)
    v = simulate_circuit(empty, parse_ket("+01"))
    assert np.array_equal(v.amplitudes, ket_to_vector(parse_ket("+01")).amplitudes)

    flip = Circuit(2, (X(0),))
    assert vector_to_ket(simulate_circuit(flip, parse_ket("+01"))) == parse_ket("+11")

    hh = Circuit(2, (H(0), H(0)))
    out = simulate_circuit(hh, parse_ket("+10"))
    assert np.allclose(out.amplitudes, ket_to_vector(parse_ket("+10")).amplitudes, atol=1e-12)


def test_simulate_circuit_global_sign():
    c = Circuit(1, (X(0),), global_sign=-1)
    assert vector_to_ket(simulate_circuit(c, parse_ket("+0"))) == parse_ket("-1")


@pytest.mark.parametrize("wires", [21, 40])
def test_simulate_circuit_qubit_cap(wires):
    # The cap is checked before the 2^wires state is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"circuit on {wires} wires exceeds the cap of 20"):
            simulate_circuit(Circuit(wires), BasisKet(1, (0,) * wires))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_simulate_circuit_width_mismatch():
    with pytest.raises(ValueError):
        simulate_circuit(Circuit(2), parse_ket("+011"))


def test_cnot_works_in_both_directions():
    down = Circuit(2, (CNOT(0, 1),))
    assert vector_to_ket(simulate_circuit(down, parse_ket("+10"))) == parse_ket("+11")
    up = Circuit(2, (CNOT(1, 0),))
    assert vector_to_ket(simulate_circuit(up, parse_ket("+01"))) == parse_ket("+11")
    assert vector_to_ket(simulate_circuit(up, parse_ket("+10"))) == parse_ket("+10")


def test_assert_equivalent_self():
    c = pipeline_as_circuit(tt("0110"))
    assert assert_equivalent(c, c)


def test_assert_equivalent_detects_difference():
    a = Circuit(2, (X(0),))
    b = Circuit(2, (X(1),))
    assert not assert_equivalent(a, b)


def test_float32_difference_meets_the_tolerance_in_float64():
    # Both batches are float32, and their difference is 1: a tolerance one
    # float64 step below 1 is 1 in float32, so it must be compared in float64.
    a, b = Circuit(1, (X(0),)), Circuit(1)
    assert assert_equivalent(a, b, 1.0, [parse_ket("+0")])
    assert not assert_equivalent(a, b, math.nextafter(1.0, 0), [parse_ket("+0")])


def test_x_gates_commute():
    f = tt("1001")
    base = compile_equivalent(f)
    for order in permutations(base.gates):
        assert assert_equivalent(base, Circuit(base.wires, tuple(order), base.global_sign))


def test_assert_equivalent_validation():
    for check in (assert_equivalent, equivalent):
        with pytest.raises(ValueError, match="wire counts differ: 2 vs 3"):
            check(Circuit(2), Circuit(3))
        with pytest.raises(ValueError):
            check(Circuit(13), Circuit(13))
    # equivalent decides H/X/CNOT circuits only.
    for gate in (Gate("U", (2,), tt("0110")), Gate("R", (0,), 0.5)):
        for pair in ((Circuit(3, (gate,)), Circuit(3)), (Circuit(3), Circuit(3, (H(0), gate)))):
            with pytest.raises(ValueError, match=f"H, X and CNOT gates, not {gate.name}"):
                equivalent(*pair)


def test_gate_validation():
    with pytest.raises(ValueError):
        CNOT(1, 1)
    with pytest.raises(ValueError):
        Gate("T", (0,))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Circuit(2, (X(2),))
    with pytest.raises(ValueError):
        Circuit(2, (), global_sign=0)
    # The pipeline stages need their argument, and only they take one.
    with pytest.raises(ValueError, match="U and R need an argument"):
        Gate("U", (2,))
    with pytest.raises(ValueError, match="U and R need an argument"):
        Gate("R", (0,))
    with pytest.raises(ValueError, match="U and R need an argument"):
        Gate("H", (0,), 0.5)
    # U acts on the last wire of an n+1 wire circuit, as the oracle does.
    with pytest.raises(ValueError, match="targets wire 2"):
        Gate("U", (1,), tt("0110"))
    with pytest.raises(ValueError, match="last of the 4 wires"):
        Circuit(4, (Gate("U", (2,), tt("0110")),))
    assert Circuit(3, (Gate("U", (2,), tt("0110")), Gate("R", (0,), 0.5))).wires == 3
    # U takes a truth table and R a finite real angle, checked when the gate is built.
    with pytest.raises(ValueError, match="U takes a TruthTable, got float"):
        Gate("U", (3,), 0.5)
    with pytest.raises(ValueError, match="R takes a real angle, got TruthTable"):
        Gate("R", (0,), tt("0110"))
    for angle in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            Gate("R", (0,), angle)
    assert Gate("R", (0,), np.float64(0.5)).arg == 0.5


def test_circuit_text_form():
    f = tt("1100")
    assert str(oracle_as_cnots(f)) == "wires=3 sign=+1\nCNOT 0 2\nX 2"
    assert str(compile_equivalent(f)) == "wires=3 sign=-1\nX 0"


# Dense reference: each gate as its full 2^k x 2^k matrix, wire 0 the
# leftmost Kronecker factor (the most significant index bit).
_I2 = np.eye(2)
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])


def _kron_on(k, placed):
    return reduce(np.kron, [placed.get(w, _I2) for w in range(k)])


def dense_unitary(circ):
    k = circ.wires
    u = np.eye(1 << k)
    for g in circ.gates:
        if g.name == "CNOT":
            c, t = g.qubits
            m = _kron_on(k, {c: _P0}) + _kron_on(k, {c: _P1, t: _X2})
        elif g.name == "R":
            c, s = np.cos(g.arg), np.sin(g.arg)
            m = _kron_on(k, {g.qubits[0]: np.array([[c, -s], [s, c]])})
        else:
            m = _kron_on(k, {g.qubits[0]: _H2 if g.name == "H" else _X2})
        u = m @ u
    return circ.global_sign * u


def dense_output(circ, ket):
    return ket.sign * dense_unitary(circ)[:, ket.index]


@hyp.composite
def circuits_on(draw, k):
    kinds = ["H", "X"] + (["CNOT"] if k > 1 else [])
    gates = []
    for kind in draw(hyp.lists(hyp.sampled_from(kinds), max_size=12)):
        if kind == "CNOT":
            c, t = draw(hyp.permutations(range(k)))[:2]
            gates.append(CNOT(c, t))
        else:
            gates.append(Gate(kind, (draw(hyp.integers(0, k - 1)),)))
    return Circuit(k, tuple(gates), draw(hyp.sampled_from([1, -1])))


def kets_on(k):
    bits = hyp.tuples(*[hyp.integers(0, 1)] * k)
    return hyp.builds(BasisKet, hyp.sampled_from([1, -1]), bits)


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_batch_kernel_matches_dense_reference(data):
    k = data.draw(hyp.integers(1, 5))
    a = data.draw(circuits_on(k))
    # Half the time b is a with a self-inverse pair inserted, so equal.
    if data.draw(hyp.booleans()):
        at = data.draw(hyp.integers(0, len(a.gates)))
        pair = data.draw(circuits_on(k)).gates[:1] * 2
        b = Circuit(k, a.gates[:at] + pair + a.gates[at:], a.global_sign)
    else:
        b = data.draw(circuits_on(k))
    kets = data.draw(hyp.lists(kets_on(k), max_size=12))
    # Batches of 1 to 8 columns, so that the inputs span several of them.
    columns = data.draw(hyp.sampled_from([1, 2, 3, 8]))

    for ket in kets[:4]:
        got = simulate_circuit(a, ket).amplitudes
        assert np.allclose(got, dense_output(a, ket), rtol=0, atol=1e-12)
    want = all(np.abs(dense_output(a, ket) - dense_output(b, ket)).max() <= 1e-9 for ket in kets)
    with mock.patch.object(circuits, "_BATCH_AMPLITUDES", columns << k):
        assert assert_equivalent(a, b, inputs=kets) == want
    for last_bit in (None, 0, 1):
        dense = all(
            np.abs(dense_output(a, ket) - dense_output(b, ket)).max() <= 1e-9
            for ket in iter_basis_inputs(k, last_bit)
        )
        assert equivalent(a, b, last_bit) == dense, last_bit


def test_kernel_covers_both_cnot_orders_and_h_parities():
    # Odd and even H counts, either CNOT direction, both signs, on 3 wires.
    for gates in (
        (H(0), CNOT(0, 2), H(1)),
        (H(2), CNOT(2, 0), H(2), CNOT(1, 0)),
        (H(0), H(1), H(2), CNOT(2, 1), X(1), H(0)),
    ):
        for sign in (1, -1):
            circ = Circuit(3, gates, sign)
            for ket in iter_basis_inputs(3):
                for signed in (ket, -ket):
                    got = simulate_circuit(circ, signed).amplitudes
                    assert np.allclose(got, dense_output(circ, signed), rtol=0, atol=1e-12)


def _batch(gates, kets):
    """The kernel's normalized (2^k, B) output, one column per ket."""
    arr = np.empty((1 << kets[0].k, len(kets)))
    h = _simulate_batch(_stages(gates), [k.index for k in kets], [k.sign for k in kets], arr)
    return _scale(arr, h)


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_repeated_h_wire_ends_a_run(data):
    # Each wire of a run of distinct H gates, then the same wires again in
    # any order: the repeated wire starts a new run, and H H = 2 I exactly.
    k = data.draw(hyp.integers(1, 8))
    wires = data.draw(hyp.lists(hyp.integers(0, k - 1), min_size=1, unique=True))
    again = data.draw(hyp.permutations(wires))
    gates = tuple(H(q) for q in wires + list(again))
    index = list(range(1 << k))
    arr = np.empty((1 << k, 1 << k))
    assert _simulate_batch(_stages(gates), index, [1] * len(index), arr) == 2 * len(wires)
    assert np.array_equal(arr, np.eye(1 << k) * 2.0 ** len(wires))


def test_h_runs_are_one_butterfly_call_per_wire_range():
    # A layer is one call whatever its gate order; a skipped wire splits
    # it, and a repeated wire or any other gate starts a new run.  The
    # leading run is the fill's and makes no call; behind an X the same
    # runs make the calls they always did.
    cases = [
        ((H(2), H(0), H(1), H(3)), [], [(0, 4)]),
        ((H(0), H(1), H(3)), [], [(0, 2), (3, 1)]),
        ((H(0), H(1), H(0)), [(0, 1)], [(0, 2), (0, 1)]),
        ((H(0), X(1), H(1), H(2), CNOT(0, 3), H(3)), [(1, 2), (3, 1)], [(0, 1), (1, 2), (3, 1)]),
    ]
    for gates, leading, behind_x in cases:
        for gates, calls in ((gates, leading), ((X(0),) + gates, behind_x)):
            arr = np.empty((16, 1))
            with mock.patch.object(circuits, "butterfly", wraps=circuits.butterfly) as spy:
                h = _simulate_batch(_stages(gates), [5], [1], arr)
            assert [c.args[1:] for c in spy.call_args_list] == calls
            assert h == sum(g.name == "H" for g in gates)
            want = dense_output(Circuit(4, gates), BasisKet(1, (0, 1, 0, 1)))
            assert np.allclose(_scale(arr, h)[:, 0], want, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(hyp.data())
def test_fill_matches_one_hot_butterflies_bit_for_bit(data):
    # The leading run, empty, partial or full and in any wire order, against
    # a one-hot batch put through the butterfly one wire at a time: the
    # same bytes, so no -0.0 where the butterfly leaves +0.0, in either
    # dtype and at chunks that split the fill's rows.
    k = data.draw(hyp.integers(1, 10))
    width = data.draw(hyp.integers(1, 17))
    index = data.draw(hyp.lists(hyp.integers(0, (1 << k) - 1), min_size=width, max_size=width))
    sign = data.draw(hyp.lists(hyp.sampled_from([1, -1]), min_size=width, max_size=width))
    wires = data.draw(hyp.permutations(range(k)))[: data.draw(hyp.integers(0, k))]
    dtype, view = data.draw(hyp.sampled_from([(np.float32, np.uint32), (np.float64, np.uint64)]))
    arr = np.empty((1 << k, width), dtype)
    chunk = data.draw(hyp.sampled_from([4, 64, statevec._CHUNK]))
    with mock.patch.object(statevec, "_CHUNK", chunk):
        assert _simulate_batch(_stages(tuple(H(q) for q in wires)), index, sign, arr) == len(wires)
    want = np.zeros((1 << k, width), dtype)
    want[index, np.arange(width)] = sign
    for q in wires:
        statevec.butterfly(want, q)
    assert np.array_equal(arr.view(view), want.view(view))
    dense = _kron_on(k, dict.fromkeys(wires, _H2)) * 2.0 ** (len(wires) / 2)
    assert np.allclose(arr, dense[:, index] * sign, rtol=0, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(hyp.data())
def test_kickback_fill_is_the_fill_then_the_u_gather_bit_for_bit(data):
    # A U right after a leading run that covers the ancilla is a phase the
    # fill applies: the same bytes as the fill followed by U's row gather,
    # signed zeros included, at any chunk size, table and ancilla bits.
    k = data.draw(hyp.integers(2, 10))
    width = data.draw(hyp.integers(1, 17))
    index = data.draw(hyp.lists(hyp.integers(0, (1 << k) - 1), min_size=width, max_size=width))
    sign = data.draw(hyp.lists(hyp.sampled_from([1, -1]), min_size=width, max_size=width))
    others = data.draw(hyp.permutations(range(k - 1)))
    lead = others[: data.draw(hyp.integers(0, k - 1))]
    lead.insert(data.draw(hyp.integers(0, len(lead))), k - 1)
    n = k - 1
    if data.draw(hyp.booleans()):
        mask = data.draw(hyp.lists(hyp.integers(0, 1), min_size=n, max_size=n))
        f = from_parity_form(ParityForm(n, tuple(mask), data.draw(hyp.integers(0, 1))))
    else:
        table = hyp.lists(hyp.integers(0, 1), min_size=1 << n, max_size=1 << n)
        f = TruthTable(n, data.draw(table))
    u = Gate("U", (n,), f)
    dtype, view = data.draw(hyp.sampled_from([(np.float32, np.uint32), (np.float64, np.uint64)]))
    chunk = data.draw(hyp.sampled_from([4, 64, statevec._CHUNK]))
    want, got = np.empty((1 << k, width), dtype), np.empty((1 << k, width), dtype)
    with mock.patch.object(statevec, "_CHUNK", chunk):
        circuits._fill(want, index, sign, lead)
        circuits._permute(want, [u])
        with mock.patch.object(circuits, "_permute", wraps=circuits._permute) as spy:
            stages = _stages(tuple(H(q) for q in lead) + (u,))
            assert _simulate_batch(stages, index, sign, got) == len(lead)
    assert spy.call_count == 0
    assert np.array_equal(got.view(view), want.view(view))


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_u_of_g_tables_is_g_single_table_runs_on_the_column_groups(data):
    # A U that holds g tables gives each consecutive group of columns the
    # bytes of the kernel run with that group's table alone, whatever the
    # tables, ancilla bits, leading run and chunk size.
    n = data.draw(hyp.integers(1, 8))
    g = data.draw(hyp.integers(1, 5))
    width = data.draw(hyp.integers(1, 4))  # columns per group
    table = hyp.lists(hyp.integers(0, 1), min_size=1 << n, max_size=1 << n)
    tables = tuple(TruthTable(n, data.draw(table)) for _ in range(g))
    kets = data.draw(hyp.lists(kets_on(n + 1), min_size=g * width, max_size=g * width))
    index, sign = [k.index for k in kets], [k.sign for k in kets]
    lead = data.draw(hyp.permutations(range(n)))[: data.draw(hyp.integers(0, n))]
    lead.insert(data.draw(hyp.integers(0, len(lead))), n)
    lead = tuple(H(q) for q in lead)
    rest = data.draw(hyp.sampled_from([(), hadamard_layer(n + 1)]))
    chunk = data.draw(hyp.sampled_from([4, 64, statevec._CHUNK]))
    got = np.empty((2 << n, g * width), np.float32)
    want = np.empty_like(got)
    with mock.patch.object(statevec, "_CHUNK", chunk):
        h = _simulate_batch(_stages(lead + (Gate("U", (n,), tables),) + rest), index, sign, got)
        for i, f in enumerate(tables):
            cols = slice(i * width, (i + 1) * width)
            part = np.empty((2 << n, width), np.float32)
            stages = _stages(lead + (Gate("U", (n,), f),) + rest)
            assert _simulate_batch(stages, index[cols], sign[cols], part) == h
            want[:, cols] = part
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_u_takes_a_non_empty_tuple_of_tables_on_its_wire():
    pair = (tt("0110"), tt("1001"))
    assert Gate("U", (2,), pair).arg == pair
    with pytest.raises(ValueError, match="non-empty tuple"):
        Gate("U", (2,), ())
    with pytest.raises(ValueError, match="U takes a TruthTable, got str"):
        Gate("U", (2,), (tt("0110"), "1001"))
    with pytest.raises(ValueError, match="U of an n=3 table targets wire 3"):
        Gate("U", (2,), (tt("0110"), tt("01101001")))
    with pytest.raises(ValueError, match="last of the 4 wires"):
        Circuit(4, (Gate("U", (2,), pair),))


def test_u_of_g_tables_needs_g_column_groups_and_the_fill():
    # The columns must split into one group per table; and only the fill
    # applies such a U, so after a skipped ancilla H or a first-layer
    # rotation it is refused before any row gather.
    tables = (tt("0110"), tt("1000"), tt("0011"))
    u = Gate("U", (2,), tables)
    layer = hadamard_layer(3)
    with pytest.raises(ValueError, match="4 columns do not split into 3 groups"):
        circuits._fill(np.empty((8, 4)), [1] * 4, [1] * 4, [0, 1, 2], tables)
    with pytest.raises(ValueError, match="4 columns do not split into 3 groups"):
        _simulate_batch(_stages(layer + (u,) + layer), [1] * 4, [1] * 4, np.empty((8, 4)))
    for gates in (layer[:2] + (u,) + layer, layer + (Gate("R", (0,), 0.4), u) + layer):
        with mock.patch.object(circuits, "_permute") as spy:
            with pytest.raises(ValueError, match="tuple of tables must follow"):
                _simulate_batch(_stages(gates), [1, 3, 5], [1] * 3, np.empty((8, 3)))
        assert spy.call_count == 0


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_pipeline_fill_and_u_match_the_oracle_on_a_hadamard_state(data):
    # Against the independent reference: QuantumOracle on hadamard_all of the ket.
    n = data.draw(hyp.integers(1, 8))
    f = TruthTable(n, data.draw(hyp.lists(hyp.integers(0, 1), min_size=1 << n, max_size=1 << n)))
    ket = data.draw(kets_on(n + 1))
    arr = np.empty((2 << n, 1))
    stages = _stages(hadamard_layer(n + 1) + (Gate("U", (n,), f),))
    h = _simulate_batch(stages, [ket.index], [ket.sign], arr)
    want = QuantumOracle(f).apply(hadamard_all(ket_to_vector(ket))).amplitudes
    assert np.allclose(_scale(arr, h)[:, 0], want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_r_stage_matches_dense_rotation(data):
    k = data.draw(hyp.integers(1, 5))
    angle = data.draw(hyp.floats(-4, 4))
    rotation = Gate("R", (data.draw(hyp.integers(0, k - 1)),), angle)
    # Random H/X/CNOT gates first, so the rotation acts on a general state.
    circ = Circuit(k, data.draw(circuits_on(k)).gates + (rotation,))
    kets = data.draw(hyp.lists(kets_on(k), min_size=1, max_size=4))
    batch = _batch(circ.gates, kets)
    for j, ket in enumerate(kets):
        assert np.allclose(batch[:, j], dense_output(circ, ket), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_u_stage_matches_oracle_column_by_column(data):
    n = data.draw(hyp.integers(1, 8))
    f = TruthTable(n, data.draw(hyp.lists(hyp.integers(0, 1), min_size=1 << n, max_size=1 << n)))
    # A rotation by less than pi/4 on every wire leaves cos != |sin| on the
    # ancilla, so the two amplitudes of every pair (2t, 2t+1) differ and a
    # missed or extra swap shows in the U stage's output.
    angles = data.draw(hyp.lists(hyp.floats(0.1, 0.7), min_size=n + 1, max_size=n + 1))
    rotations = tuple(Gate("R", (q,), a) for q, a in enumerate(angles))
    kets = data.draw(hyp.lists(kets_on(n + 1), min_size=1, max_size=6))
    before = _batch(rotations, kets)
    after = _batch(rotations + (Gate("U", (n,), f),), kets)
    oracle = QuantumOracle(f)
    for j in range(len(kets)):
        assert np.array_equal(after[:, j], oracle.apply(StateVector(before[:, j])).amplitudes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_u_stage_pipeline_equals_cnot_wiring_on_every_input(n):
    # Every basis input, ancilla 0 as well as 1: the U stage and the CNOT
    # oracle are the same unitary for admissible f.
    layer = hadamard_layer(n + 1)
    pos, neg = generate_functions(n)
    for f in pos + neg:
        staged = Circuit(n + 1, layer + (Gate("U", (n,), f),) + layer)
        assert assert_equivalent(staged, pipeline_as_circuit(f))


# At 12 wires a batch holds this many inputs.
CHUNK = _BATCH_AMPLITUDES >> 12


def _kets(wires, count, first_bit=None):
    kets = (k for k in iter_basis_inputs(wires) if first_bit in (None, k.bits[0]))
    return list(islice(kets, count))


@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_chunk_edges(count):
    assert CHUNK > 1
    f = from_parity_form(ParityForm(11, (1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1), 1))
    wired, compiled = pipeline_as_circuit(f), compile_equivalent(f)
    inputs = list(islice(iter_basis_inputs(12, last_bit=1), count))
    assert len(inputs) == count
    assert assert_equivalent(wired, compiled, inputs=inputs)
    assert assert_equivalent(wired, compiled, inputs=iter(inputs))  # one-shot generator
    # With the sign dropped the two differ on every input, the last one too.
    unsigned = Circuit(compiled.wires, compiled.gates)
    assert not assert_equivalent(wired, unsigned, inputs=inputs)
    assert not assert_equivalent(wired, unsigned, inputs=(ket for ket in inputs[-1:]))


def test_difference_only_in_last_partial_chunk():
    # CNOT(0, 1) acts as the identity exactly where wire 0 is 0.
    a, b = Circuit(12), Circuit(12, (CNOT(0, 1),))
    zero_first = _kets(12, 3 * CHUNK, first_bit=0)
    one_first = _kets(12, 1, first_bit=1)
    assert assert_equivalent(a, b, inputs=zero_first)
    assert not assert_equivalent(a, b, inputs=iter(zero_first[:CHUNK] + one_first))
    assert not assert_equivalent(a, b, inputs=zero_first[: 2 * CHUNK] + one_first)


def test_signed_inputs():
    f = tt("1001")
    wired, compiled = pipeline_as_circuit(f), compile_equivalent(f)
    inputs = list(iter_basis_inputs(3, last_bit=1))
    assert assert_equivalent(wired, compiled, inputs=[-ket for ket in inputs] + inputs)
    for ket in inputs:
        plus = simulate_circuit(wired, ket).amplitudes
        assert np.array_equal(simulate_circuit(wired, -ket).amplitudes, -plus)
        assert vector_to_ket(simulate_circuit(compiled, -ket)) == -run(f, ket).output
    # Mixed signs across several batches at 12 wires.
    f = from_parity_form(ParityForm(11, (0,) * 10 + (1,), 0))
    wired, compiled = pipeline_as_circuit(f), compile_equivalent(f)
    kets = islice(iter_basis_inputs(12, last_bit=1), 2 * CHUNK + 1)
    inputs = [ket if i % 3 else -ket for i, ket in enumerate(kets)]
    assert assert_equivalent(wired, compiled, inputs=inputs)
    assert not assert_equivalent(wired, Circuit(12, compiled.gates, -1), inputs=inputs)


def test_wrong_width_ket_in_later_chunk():
    c = Circuit(12, (H(0), H(0)))
    inputs = _kets(12, CHUNK + 1) + [parse_ket("+011")]
    with pytest.raises(ValueError, match="^input has 3 bits, circuit has 12 wires$"):
        assert_equivalent(c, c, inputs=inputs)
    with pytest.raises(ValueError, match="^input has 3 bits, circuit has 12 wires$"):
        simulate_circuit(c, parse_ket("+011"))


def test_equivalence_memory_is_bounded():
    # n = 11: 2,048 inputs of 12 wires; the peak stays near one (4096, 16)
    # batch per circuit however many inputs there are.  Both circuits plan
    # float32, so the two batches are 512 KiB.
    for f in (
        from_parity_form(ParityForm(11, (1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1), 1)),
        hex_decode("0x" + "69" * 256),  # the benchmark's equiv op
    ):
        wired, compiled = pipeline_as_circuit(f), compile_equivalent(f)
        tracemalloc.start()
        try:
            ok = assert_equivalent(wired, compiled, inputs=iter_basis_inputs(12, last_bit=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 1.2 * 1024 * 1024, peak


def _permutation_matrix(g, k):
    """The 0/1 matrix of one X, CNOT or U gate on k wires, built from the
    gate's definition on basis states: |x> goes to |g(x)>."""
    if g.name == "U":
        return QuantumOracle(g.arg).matrix()
    m = np.zeros((1 << k, 1 << k), dtype=np.uint8)
    for x in range(1 << k):
        bits = list(int_to_bits(x, k))
        if g.name == "X":
            bits[g.qubits[0]] ^= 1
        else:
            bits[g.qubits[1]] ^= bits[g.qubits[0]]
        m[bits_to_int(bits), x] = 1
    return m


@hyp.composite
def permutation_runs(draw, k):
    """Runs of X, CNOT and U gates on k wires, with the orderings that matter:
    CNOT(a, b) CNOT(b, a), X on a control wire of a following U, a CNOT
    from the last wire into the first, and X on wire 0."""
    table = hyp.lists(hyp.integers(0, 1), min_size=1 << (k - 1), max_size=1 << (k - 1))
    wire = hyp.integers(0, k - 1)
    kinds = hyp.sampled_from(["X", "CNOT", "U", "pair", "XU", "far", "X0"])
    gates = []
    for kind in draw(hyp.lists(kinds, max_size=8)):
        if k == 1 and kind != "X0":
            kind = "X"
        if kind in ("X", "X0"):
            gates.append(X(0 if kind == "X0" else draw(wire)))
        elif kind in ("CNOT", "pair"):
            c, t = draw(hyp.permutations(range(k)))[:2]
            gates += [CNOT(c, t), CNOT(t, c)] if kind == "pair" else [CNOT(c, t)]
        elif kind == "far":
            gates.append(CNOT(k - 1, 0))
        else:
            u = Gate("U", (k - 1,), TruthTable(k - 1, draw(table)))
            gates += [X(draw(hyp.integers(0, k - 2))), u] if kind == "XU" else [u]
    return gates


@settings(max_examples=80, deadline=None)
@given(hyp.data())
def test_permutation_runs_match_dense_permutations(data):
    # One row gather per run of X and CNOT gates and one per U, at chunks of
    # 4 and 64 amplitudes and the default: bit-identical to the gates
    # applied one by one as matrices.  The same plan then runs on a second
    # batch at another width and chunk.
    k = data.draw(hyp.integers(1, 10))
    gates = data.draw(permutation_runs(k))
    stages = circuits._stages(gates)
    perm = np.arange(1 << k)
    for g in gates:
        m = _permutation_matrix(g, k)
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
        perm = perm[m.argmax(axis=1)]  # (M v)[i] = v[j] for the one j with M[i, j] = 1
    widths = data.draw(hyp.lists(hyp.integers(1, 17), min_size=2, max_size=2, unique=True))
    chunks = data.draw(hyp.permutations([4, 64, statevec._CHUNK]))[:2]
    rng = np.random.default_rng(data.draw(hyp.integers(0, 2**32 - 1)))
    for width, chunk in zip(widths, chunks):
        arr = rng.standard_normal((1 << k, width))
        arr[rng.integers(0, 1 << k, 3), rng.integers(0, width, 3)] = [-0.0, np.nan, np.inf]
        want = arr[perm]
        with mock.patch.object(statevec, "_CHUNK", chunk):
            circuits._apply_stages(stages[1:], arr)
        assert np.array_equal(arr.view(np.uint64), want.view(np.uint64))


def _single_gate_mutants(gates, wires):
    """Each gate list one edit away from `gates`: a CNOT dropped or reversed,
    or an X added at any position on any of the wires."""
    mutants = []
    for i, g in enumerate(gates):
        if g.name == "CNOT":
            mutants.append(gates[:i] + gates[i + 1 :])
            mutants.append(gates[:i] + (CNOT(g.qubits[1], g.qubits[0]),) + gates[i + 1 :])
    for i in range(len(gates) + 1):
        mutants += [gates[:i] + (X(q),) + gates[i:] for q in range(wires)]
    return mutants


@settings(max_examples=30, deadline=None)
@given(hyp.data())
def test_each_single_gate_mutation_of_the_wiring_is_not_equivalent(data):
    # The wiring's CNOT run decides the verdict: dropping or reversing any
    # one CNOT of the wiring, or adding an X anywhere on any wire, makes it
    # differ from the compiled circuit on some ancilla-1 input.
    n = data.draw(hyp.integers(1, 5))
    mask = data.draw(hyp.lists(hyp.integers(0, 1), min_size=n, max_size=n))
    f = from_parity_form(ParityForm(n, tuple(mask), data.draw(hyp.integers(0, 1))))
    wired, compiled = pipeline_as_circuit(f), compile_equivalent(f)
    inputs = list(iter_basis_inputs(n + 1, last_bit=1))
    assert assert_equivalent(wired, compiled, inputs=inputs)
    assert equivalent(wired, compiled, last_bit=1)
    mutants = _single_gate_mutants(wired.gates, n + 1)
    assert len(mutants) == 2 * sum(mask) + (len(wired.gates) + 1) * (n + 1)
    for mutant in mutants:
        mutant = Circuit(n + 1, mutant)
        assert not assert_equivalent(mutant, compiled, inputs=inputs), mutant
        assert not equivalent(mutant, compiled, last_bit=1), mutant


@settings(max_examples=100, deadline=None)
@given(hyp.data())
def test_equivalent_matches_the_simulation_on_pairs_equal_on_a_fixed_ancilla(data):
    # a and b run the same circuits D, on the other wires, and C, around
    # prefixes that act alike only when the last wire holds last_bit:
    # CNOT(last, q) against X(q) when it is 1 and against nothing when it is
    # 0, and H X H, Z on the last wire, against the sign (-1)^last_bit.  Half
    # the time a takes one more gate, so the pair may differ anywhere.
    k = data.draw(hyp.integers(2, 7))
    last, last_bit = k - 1, data.draw(hyp.integers(0, 1))
    prefix_a, prefix_b, sign = [], [], 1
    for kind in data.draw(hyp.lists(hyp.sampled_from(["CNOT", "Z"]), min_size=1, max_size=3)):
        if kind == "CNOT":
            q = data.draw(hyp.integers(0, k - 2))
            prefix_a.append(CNOT(last, q))
            prefix_b += [X(q)] * last_bit
        else:
            prefix_a += [H(last), X(last), H(last)]
            sign *= (-1) ** last_bit
    if data.draw(hyp.booleans()):
        at = data.draw(hyp.integers(0, len(prefix_a)))
        prefix_a[at:at] = data.draw(circuits_on(k)).gates[:1]
    d, c = data.draw(circuits_on(k - 1)), data.draw(circuits_on(k))
    a = Circuit(k, d.gates + tuple(prefix_a) + c.gates, c.global_sign)
    b = Circuit(k, d.gates + tuple(prefix_b) + c.gates, c.global_sign * sign)
    for bit in (None, 0, 1):
        want = assert_equivalent(a, b, inputs=iter_basis_inputs(k, bit))
        assert equivalent(a, b, bit) == equivalent(b, a, bit) == want, bit


@settings(max_examples=200, deadline=None)
@given(hyp.data())
def test_stages_split_a_gate_list_into_the_kernels_runs(data):
    # The plan holds every gate in order, opens with the fill's H stage,
    # keeps each H stage on distinct wires and starts a new one only at a
    # repeated wire, never puts two P stages side by side, and keeps each U
    # and R alone.
    k = data.draw(hyp.integers(1, 6))
    wire = hyp.integers(0, k - 1)
    rotation = hyp.builds(lambda q, a: Gate("R", (q,), a), wire, hyp.floats(-4, 4))
    kinds = [wire.map(H), wire.map(X), rotation]
    if k > 1:
        table = data.draw(hyp.lists(hyp.integers(0, 1), min_size=1 << (k - 1), max_size=1 << (k - 1)))
        kinds.append(hyp.just(Gate("U", (k - 1,), TruthTable(k - 1, table))))
        kinds.append(hyp.permutations(range(k)).map(lambda p: CNOT(p[0], p[1])))
    gates = data.draw(hyp.lists(hyp.one_of(kinds), max_size=30))
    stages = circuits._stages(gates)
    assert [H(x) if kind == "H" else x for kind, items in stages for x in items] == gates
    assert stages[0][0] == "H"
    assert all(items for _, items in stages[1:])
    for kind, items in stages:
        if kind == "H":
            assert len(set(items)) == len(items)
        elif kind in ("U", "R"):
            assert len(items) == 1
    for (before, wires), (kind, items) in zip(stages, stages[1:]):
        assert (before, kind) != ("P", "P")
        if before == kind == "H":
            assert items[0] in wires


@pytest.mark.parametrize("table", [(0, 0), (0, 1), (1, 1)])
def test_lone_u_in_one_row_chunks(table):
    # At the smallest chunk size a chunk still holds two rows, one row pair
    # (2t, 2t+1), which is what U reads its table entry for.
    f = TruthTable(1, table)
    arr = np.arange(4.0)[:, None]
    with mock.patch.object(statevec, "_CHUNK", 4):
        circuits._permute(arr, [Gate("U", (1,), f)])
    assert np.array_equal(arr[:, 0], np.arange(4.0)[QuantumOracle(f).permutation])


@pytest.mark.parametrize("gates", [(X(0), CNOT(1, 19), X(5)), (CNOT(7, 0),)])
def test_permutation_memory_at_20_wires(gates):
    # The kernel moves rows through chunk-sized buffers, and StateVector
    # keeps the kernel's array: the peak is one state, no block-sized
    # temporary and no copy.
    state = 8 << 20
    ket = BasisKet(1, (1, 0) * 10)
    tracemalloc.start()
    try:
        out = simulate_circuit(Circuit(20, gates), ket)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state, peak
    # The row gather alone: a held chunk and index scratch, no block-sized buffer.
    arr = np.zeros((1 << 20, 1))
    tracemalloc.start()
    try:
        circuits._apply_stages(_stages(gates)[1:], arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * statevec._CHUNK, peak
    bits = list(ket.bits)
    for g in gates:
        bits[g.qubits[-1]] ^= 1 if g.name == "X" else bits[g.qubits[0]]
    assert vector_to_ket(out) == BasisKet(1, tuple(bits))


def test_hadamard_layer_at_20_wires_is_one_state():
    # The fill writes the whole layer into the kernel's array, which
    # StateVector then keeps.
    state = 8 << 20
    ket = BasisKet(-1, (0, 1, 1) * 6 + (1, 0))
    tracemalloc.start()
    try:
        out = simulate_circuit(Circuit(20, hadamard_layer(20)), ket)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state, peak
    assert not out.amplitudes.flags.writeable
    assert np.array_equal(out.amplitudes, hadamard_all(ket_to_vector(ket)).amplitudes)


# float32 batches


def test_batch_dtype_admits_24_hadamards_after_the_fill():
    # The fill's leading run does not count; a wire it repeats ends the run.
    for lead in ((), hadamard_layer(3), (H(1), H(0))):
        assert _batch_dtype(_stages(lead + (X(2),) + (H(0),) * 24)) == np.float32
        assert _batch_dtype(_stages(lead + (X(2),) + (H(0),) * 25)) == np.float64
    assert _batch_dtype(_stages(hadamard_layer(20) + (H(5),) * 24)) == np.float32
    assert _batch_dtype(_stages((H(0), H(0)) + (H(1),) * 23)) == np.float32
    assert _batch_dtype(_stages((H(0), H(0)) + (H(1),) * 24)) == np.float64
    assert _batch_dtype(_stages(())) == np.float32


def test_batch_dtype_gives_float64_to_any_rotation():
    r = Gate("R", (1,), 0.0)
    for gates in ((r,), (r,) + hadamard_layer(3), hadamard_layer(3) + (r,), (X(0), r, H(2))):
        assert _batch_dtype(_stages(gates)) == np.float64


@hyp.composite
def float32_gate_lists(draw, k):
    """H, X, CNOT and U gate lists on k wires that _batch_dtype runs in
    float32: a leading H run, then up to 24 H gates among the others."""
    lead = draw(hyp.permutations(range(k)))[: draw(hyp.integers(0, k))]
    gates = [H(q) for q in lead]
    kinds = ["H", "H", "X"] + (["CNOT", "U"] if k > 1 else [])
    for kind in draw(hyp.lists(hyp.sampled_from(kinds), max_size=36)):
        if kind == "CNOT":
            c, t = draw(hyp.permutations(range(k)))[:2]
            gates.append(CNOT(c, t))
        elif kind == "U":
            table = draw(hyp.lists(hyp.integers(0, 1), min_size=1 << (k - 1), max_size=1 << (k - 1)))
            gates.append(Gate("U", (k - 1,), TruthTable(k - 1, table)))
        elif kind == "H" and sum(g.name == "H" for g in gates) - len(lead) < 24:
            gates.append(H(draw(hyp.integers(0, k - 1))))
        elif kind == "X":
            gates.append(X(draw(hyp.integers(0, k - 1))))
    return tuple(gates)


@settings(max_examples=80, deadline=None)
@given(hyp.data())
def test_float32_batch_is_bit_identical_to_float64(data):
    # Scaled, then cast, the float32 batch equals the float64 batch bit for
    # bit, odd H counts (scaled in float64) and both input signs included.
    k = data.draw(hyp.integers(1, 10))
    gates = data.draw(float32_gate_lists(k))
    assert _batch_dtype(_stages(gates)) == np.float32
    kets = data.draw(hyp.lists(kets_on(k), min_size=1, max_size=6))
    index, sign = [ket.index for ket in kets], [ket.sign for ket in kets]
    out = []
    for dtype in (np.float32, np.float64):
        arr = np.empty((1 << k, len(kets)), dtype)
        out.append(_scale(arr, _simulate_batch(_stages(gates), index, sign, arr)))
    narrow, wide = out
    assert wide.dtype == np.float64
    assert np.array_equal(narrow.astype(np.float64).view(np.uint64), wide.view(np.uint64))


def _kickback_plan(table, first=None, second=None, before=(), after=()):
    """The stages of fill, R gates `before`, U(table), H layer and R gates
    `after` on k = table.n + 1 wires, each H layer without the wire `first`
    or `second` (None: none); a rotation is a (wire, angle) pair."""
    k = table.n + 1
    layers = [tuple(H(q) for q in range(k) if q != skip) for skip in (first, second)]
    before, after = (tuple(Gate("R", (q,), angle) for q, angle in r) for r in (before, after))
    return _stages(layers[0] + before + (Gate("U", (k - 1,), table),) + layers[1] + after)


def _check_contracted_amplitudes(stages, k, columns, rows):
    """_amplitude at each of `rows` of each signed input (index, sign) in
    `columns` writes no batch and is the simulated batch's entry: equal with
    no R, within 1e-12 of it with R."""
    index, sign = map(list, zip(*columns))
    want = np.empty((1 << k, len(columns)), _batch_dtype(stages))
    h = _simulate_batch(stages, index, sign, want)
    exact = all(kind != "R" for kind, _ in stages)
    with mock.patch.object(circuits, "_simulate_batch") as simulate:
        for j, (i, s) in enumerate(columns):
            for row in rows:
                got, got_h = _amplitude(stages, k, i, s, row)
                assert got_h == h
                if exact:
                    assert got == float(want[row, j]), (i, s, row)
                else:
                    assert abs(got - float(want[row, j])) <= 1e-12 * 2.0 ** (h / 2)
    assert not simulate.called


@pytest.mark.parametrize("k", [2, 3, 4])
def test_amplitude_contracts_fill_u_and_row_on_every_input_and_row(k):
    # Every table at k <= 3 and 8 random ones at k = 4 (mostly not
    # admissible), every index with both ancilla bits and both signs, every
    # row, and each layer-one H skip, the ancilla's making U a row gather in
    # the batch; the layer-two skip and no R, an R before U, an R after the
    # second layer or both cycle with them.
    n, skips = k - 1, [None, *range(k)]
    if k <= 3:
        tables = [TruthTable(n, bits) for bits in product((0, 1), repeat=1 << n)]
    else:
        rng = np.random.default_rng(29)
        tables = [TruthTable(n, rng.integers(0, 2, 1 << n).tolist()) for _ in range(8)]
    columns = [(i, s) for i in range(1 << k) for s in (1, -1)]
    for t, table in enumerate(tables):
        for c, first in enumerate(skips):
            second = skips[(t + c) % len(skips)]
            rotation = [((t + c) % k, 0.7)]
            before, after = rotation * ((t + c) % 2), rotation * ((t + c) // 2 % 2)
            stages = _kickback_plan(table, first, second, before, after)
            _check_contracted_amplitudes(stages, k, columns, range(1 << k))


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_amplitude_contracts_fill_u_and_row_up_to_12_wires(data):
    # Random tables, almost never admissible, on k = 2-12 wires, with up to
    # two R gates on each side of U: every row up to k = 6, 16 drawn rows above.
    k = data.draw(hyp.integers(2, 12))
    rng = np.random.default_rng(data.draw(hyp.integers(0, 2**32 - 1)))
    table = TruthTable(k - 1, rng.integers(0, 2, 1 << (k - 1)).tolist())
    first, second = (data.draw(hyp.sampled_from([None, *range(k)])) for _ in range(2))
    rotation = hyp.tuples(hyp.integers(0, k - 1), hyp.floats(-4, 4))
    before, after = (data.draw(hyp.lists(rotation, max_size=2)) for _ in range(2))
    row = hyp.integers(0, (1 << k) - 1)
    signed = hyp.tuples(row, hyp.sampled_from([1, -1]))
    columns = data.draw(hyp.lists(signed, min_size=1, max_size=3))
    rows = range(1 << k) if k <= 6 else data.draw(hyp.lists(row, min_size=16, max_size=16))
    stages = _kickback_plan(table, first, second, before, after)
    _check_contracted_amplitudes(stages, k, columns, rows)


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_negative_circuit_is_its_gates_on_the_negated_ket_byte_for_byte(data):
    # The global sign goes into the fill, so its zeros are +0.0, as the
    # negated ket's are, and R gates see the same signed inputs.
    k = data.draw(hyp.integers(1, 8))
    gates = list(data.draw(float32_gate_lists(k)))
    for _ in range(data.draw(hyp.integers(0, 2))):
        angle = data.draw(hyp.floats(-math.pi, math.pi))
        r = Gate("R", (data.draw(hyp.integers(0, k - 1)),), angle)
        gates.insert(data.draw(hyp.integers(0, len(gates))), r)
    ket = data.draw(kets_on(k))
    negative = simulate_circuit(Circuit(k, tuple(gates), -1), ket).amplitudes
    negated = simulate_circuit(Circuit(k, tuple(gates), 1), -ket).amplitudes
    assert np.array_equal(negative.view(np.uint64), negated.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_float32_equivalence_verdicts_equal_float64(data):
    k = data.draw(hyp.integers(1, 8))
    # b is a with a gate pair (a's unitary, maybe past 24 H), a with R by 0.0
    # (a's unitary in a float64 plan, so float32 meets float64), or any list.
    a = Circuit(k, data.draw(float32_gate_lists(k)), data.draw(hyp.sampled_from([1, -1])))
    kind = data.draw(hyp.sampled_from(["pair", "rotation", "other"]))
    if kind == "pair":
        pair = data.draw(float32_gate_lists(k))[:1] * 2
        b = Circuit(k, a.gates + pair, a.global_sign)
    elif kind == "rotation":
        rotation = Gate("R", (data.draw(hyp.integers(0, k - 1)),), 0.0)
        b = Circuit(k, a.gates + (rotation,), a.global_sign)
    else:
        b = Circuit(k, data.draw(float32_gate_lists(k)), data.draw(hyp.sampled_from([1, -1])))
    kets = data.draw(hyp.lists(kets_on(k), max_size=12))
    # The largest difference, in float64: the verdict flips between it and the float below it.
    diffs = (simulate_circuit(a, x).amplitudes - simulate_circuit(b, x).amplitudes for x in kets)
    d = max((float(np.abs(v).max()) for v in diffs), default=0.0)
    tol = data.draw(hyp.sampled_from([0.0, 1e-9, 0.3, d, math.nextafter(d, 0)]))
    got = assert_equivalent(a, b, tol, kets)
    assert got == (d <= tol)
    with mock.patch.object(circuits, "_batch_dtype", lambda stages: np.float64):
        assert assert_equivalent(a, b, tol, kets) == got
