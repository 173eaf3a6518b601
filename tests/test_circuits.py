import math
import tracemalloc
from functools import reduce
from itertools import islice, permutations
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
)
from symtest import circuits, statevec
from symtest.circuits import (
    _BATCH_AMPLITUDES,
    CNOT,
    Circuit,
    Gate,
    H,
    X,
    _batch_dtype,
    _scale,
    _simulate_batch,
    assert_equivalent,
    compile_equivalent,
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_equivalence_generalizes(n):
    pos, neg = generate_functions(n)
    for f in pos + neg:
        assert assert_equivalent(
            pipeline_as_circuit(f),
            compile_equivalent(f),
            inputs=iter_basis_inputs(n + 1, last_bit=1),
        )


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
    assert simulate_circuit(Circuit(3, (X(0),)), parse_ket("+000"), max_qubits=3).k == 3
    with pytest.raises(ValueError, match="exceeds the cap of 2"):
        simulate_circuit(Circuit(3), parse_ket("+000"), max_qubits=2)


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


def test_x_gates_commute():
    f = tt("1001")
    base = compile_equivalent(f)
    for order in permutations(base.gates):
        assert assert_equivalent(base, Circuit(base.wires, tuple(order), base.global_sign))


def test_assert_equivalent_validation():
    with pytest.raises(ValueError):
        assert_equivalent(Circuit(2), Circuit(3))
    with pytest.raises(ValueError):
        assert_equivalent(Circuit(13), Circuit(13))


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
    return _scale(arr, _simulate_batch(gates, [k.index for k in kets], [k.sign for k in kets], arr))


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
    assert _simulate_batch(gates, index, [1] * len(index), arr) == 2 * len(wires)
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
                h = _simulate_batch(gates, [5], [1], arr)
            assert [c.args[1:] for c in spy.call_args_list] == calls
            assert h == sum(g.name == "H" for g in gates)
            want = dense_output(Circuit(4, gates), BasisKet(1, (0, 1, 0, 1)))
            assert np.allclose(_scale(arr, h)[:, 0], want, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(hyp.data())
def test_fill_matches_one_hot_butterflies_bit_for_bit(data):
    # The leading run, empty, partial or full and in any wire order, against
    # a one-hot batch put through the butterfly one wire at a time: the
    # same bytes, so no -0.0 where the butterfly leaves +0.0.  A table of
    # fewer bits makes halves of up to 10 bits split as they do at 20 wires.
    k = data.draw(hyp.integers(1, 10))
    table_bits = data.draw(hyp.sampled_from([1, 2, 6]))
    width = data.draw(hyp.integers(1, 17))
    index = data.draw(hyp.lists(hyp.integers(0, (1 << k) - 1), min_size=width, max_size=width))
    sign = data.draw(hyp.lists(hyp.sampled_from([1, -1]), min_size=width, max_size=width))
    wires = data.draw(hyp.permutations(range(k)))[: data.draw(hyp.integers(0, k))]
    arr = np.empty((1 << k, width))
    with mock.patch.object(circuits, "_SYLVESTER_BITS", table_bits):
        assert _simulate_batch(tuple(H(q) for q in wires), index, sign, arr) == len(wires)
    want = np.zeros((1 << k, width))
    want[index, np.arange(width)] = sign
    for q in wires:
        statevec.butterfly(want, q)
    assert np.array_equal(arr.view(np.uint64), want.view(np.uint64))
    dense = _kron_on(k, dict.fromkeys(wires, _H2)) * 2.0 ** (len(wires) / 2)
    assert np.allclose(arr, dense[:, index] * sign, rtol=0, atol=1e-9)


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
    # n = 11: 2,048 inputs of 12 wires; the batches keep the peak near two
    # (4096, chunk) buffers however many inputs there are.
    f = from_parity_form(ParityForm(11, (1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1), 1))
    wired, compiled = pipeline_as_circuit(f), compile_equivalent(f)
    tracemalloc.start()
    try:
        ok = assert_equivalent(wired, compiled, inputs=iter_basis_inputs(12, last_bit=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 2 * 1024 * 1024


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
    # One row gather per run, at chunks of 4 and 64 amplitudes and the
    # default: bit-identical to the gates applied one by one as matrices.
    k = data.draw(hyp.integers(1, 10))
    width = data.draw(hyp.integers(1, 17))
    chunk = data.draw(hyp.sampled_from([4, 64, statevec._CHUNK]))
    gates = data.draw(permutation_runs(k))
    rng = np.random.default_rng(data.draw(hyp.integers(0, 2**32 - 1)))
    arr = rng.standard_normal((1 << k, width))
    arr[rng.integers(0, 1 << k, 3), rng.integers(0, width, 3)] = [-0.0, np.nan, np.inf]
    want = arr.copy()
    for g in gates:
        m = _permutation_matrix(g, k)
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
        want = want[m.argmax(axis=1)]  # (M v)[i] = v[j] for the one j with M[i, j] = 1
    with mock.patch.object(statevec, "_CHUNK", chunk):
        circuits._permute(arr, gates)
    assert np.array_equal(arr.view(np.uint64), want.view(np.uint64))


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
    # The kernel alone: a held chunk and index scratch, no block-sized buffer.
    arr = np.empty((1 << 20, 1))
    tracemalloc.start()
    try:
        _simulate_batch(gates, [ket.index], [1], arr)
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
        assert _batch_dtype(lead + (X(2),) + (H(0),) * 24) == np.float32
        assert _batch_dtype(lead + (X(2),) + (H(0),) * 25) == np.float64
    assert _batch_dtype(hadamard_layer(20) + (H(5),) * 24) == np.float32
    assert _batch_dtype((H(0), H(0)) + (H(1),) * 23) == np.float32
    assert _batch_dtype((H(0), H(0)) + (H(1),) * 24) == np.float64
    assert _batch_dtype(()) == np.float32


def test_batch_dtype_gives_float64_to_any_rotation():
    r = Gate("R", (1,), 0.0)
    for gates in ((r,), (r,) + hadamard_layer(3), hadamard_layer(3) + (r,), (X(0), r, H(2))):
        assert _batch_dtype(gates) == np.float64


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
    # bit, odd H counts (scaled in float64) and both global signs included.
    k = data.draw(hyp.integers(1, 10))
    gates = data.draw(float32_gate_lists(k))
    assert _batch_dtype(gates) == np.float32
    kets = data.draw(hyp.lists(kets_on(k), min_size=1, max_size=6))
    index, sign = [ket.index for ket in kets], [ket.sign for ket in kets]
    global_sign = data.draw(hyp.sampled_from([1, -1]))
    out = []
    for dtype in (np.float32, np.float64):
        arr = np.empty((1 << k, len(kets)), dtype)
        out.append(_scale(arr, _simulate_batch(gates, index, sign, arr), global_sign))
    narrow, wide = out
    assert wide.dtype == np.float64
    assert np.array_equal(narrow.astype(np.float64).view(np.uint64), wide.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_float32_equivalence_verdicts_equal_float64(data):
    k = data.draw(hyp.integers(1, 8))
    a = Circuit(k, data.draw(float32_gate_lists(k)), data.draw(hyp.sampled_from([1, -1])))
    if data.draw(hyp.booleans()):
        pair = data.draw(float32_gate_lists(k))[:1] * 2
        b = Circuit(k, a.gates + pair, a.global_sign)
    else:
        b = Circuit(k, data.draw(float32_gate_lists(k)), data.draw(hyp.sampled_from([1, -1])))
    tol = data.draw(hyp.sampled_from([0.0, 1e-9, 0.3]))
    kets = data.draw(hyp.lists(kets_on(k), max_size=12))
    got = assert_equivalent(a, b, tol, kets)
    with mock.patch.object(circuits, "_batch_dtype", lambda gates: np.float64):
        assert assert_equivalent(a, b, tol, kets) == got
