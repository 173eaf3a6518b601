import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp

from symtest.boolfunc import ParityForm, TruthTable, from_parity_form
from symtest.oracle import QuantumOracle, format_matrix
from symtest.statevec import BasisKet, StateVector, hadamard_all, ket_to_vector

tt = TruthTable.from_string

SUPERPOSITION = np.array([1, -1, 1, -1, 1, -1, 1, -1]) / math.sqrt(8)


@pytest.mark.parametrize(
    "table,pattern",
    [
        ("0000", [1, -1, 1, -1, 1, -1, 1, -1]),
        ("0011", [1, -1, 1, -1, -1, 1, -1, 1]),
        ("0101", [1, -1, -1, 1, 1, -1, -1, 1]),
        ("0110", [1, -1, -1, 1, -1, 1, 1, -1]),
    ],
)
def test_apply_on_reference_superposition(table, pattern):
    out = QuantumOracle(tt(table)).apply(StateVector(SUPERPOSITION))
    assert np.array_equal(out.amplitudes, np.array(pattern) / math.sqrt(8))


def test_apply_identity_for_zero_function():
    v = StateVector(SUPERPOSITION)
    out = QuantumOracle(tt("0000")).apply(v)
    assert np.array_equal(out.amplitudes, v.amplitudes)


def test_apply_at_20_qubits_is_one_state():
    # The gather makes the one new array, and the result keeps it.
    n = 19
    oracle = QuantumOracle(from_parity_form(ParityForm(n, (1, 0) * 9 + (1,), 0)))
    v = hadamard_all(ket_to_vector(BasisKet(1, (0,) * n + (1,))))
    state = v.amplitudes.nbytes
    tracemalloc.start()
    try:
        out = oracle.apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state, peak
    assert not out.amplitudes.flags.writeable
    assert np.array_equal(out.amplitudes, v.amplitudes[oracle.permutation])


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        QuantumOracle(tt("0011")).apply(StateVector([1, 0, 0, 0]))


def test_matrix_zero_function_is_identity():
    assert np.array_equal(QuantumOracle(tt("0000")).matrix(), np.eye(8, dtype=int))


def test_matrix_and_function_swaps_last_pair():
    m = QuantumOracle(tt("0001")).matrix()
    expected = np.eye(8, dtype=int)
    expected[6:8, 6:8] = [[0, 1], [1, 0]]
    assert np.array_equal(m, expected)


def test_matrix_constant_one_swaps_every_pair():
    m = QuantumOracle(tt("1111")).matrix()
    expected = np.zeros((8, 8), dtype=int)
    for t in range(4):
        expected[2 * t, 2 * t + 1] = 1
        expected[2 * t + 1, 2 * t] = 1
    assert np.array_equal(m, expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_twice_is_identity_all_functions(n):
    for bits in product((0, 1), repeat=1 << n):
        oracle = QuantumOracle(TruthTable(n, bits))
        for idx in range(1 << (n + 1)):
            v = ket_to_vector(BasisKet(1, tuple((idx >> (n - i)) & 1 for i in range(n + 1))))
            out = oracle.apply(oracle.apply(v))
            assert np.array_equal(out.amplitudes, v.amplitudes)


def test_is_involution_all_functions_n4():
    for value in range(1 << 16):
        assert QuantumOracle(TruthTable.from_value(4, value)).is_involution()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_agrees_with_apply_on_basis(n):
    for bits in product((0, 1), repeat=1 << n):
        oracle = QuantumOracle(TruthTable(n, bits))
        m = oracle.matrix()
        dim = 1 << (n + 1)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            applied = oracle.apply(StateVector(e)).amplitudes
            assert np.array_equal(m @ e, applied)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_is_permutation(n):
    for bits in product((0, 1), repeat=1 << n):
        m = QuantumOracle(TruthTable(n, bits)).matrix()
        assert np.array_equal(m.sum(axis=0), np.ones(1 << (n + 1), dtype=int))
        assert np.array_equal(m.sum(axis=1), np.ones(1 << (n + 1), dtype=int))


def test_apply_preserves_norm():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(8)
    v = StateVector(raw / np.linalg.norm(raw))
    out = QuantumOracle(tt("0110")).apply(v)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_matrix_size_cap():
    big = TruthTable(12, (0,) * (1 << 12))
    with pytest.raises(ValueError):
        QuantumOracle(big).matrix()
    assert QuantumOracle(TruthTable(11, (0,) * (1 << 11))).matrix().shape == (1 << 12, 1 << 12)


def test_format_matrix():
    text = format_matrix(QuantumOracle(TruthTable(1, (0, 1))).matrix())
    assert text == "1 0 0 0\n0 1 0 0\n0 0 0 1\n0 0 1 0"


@settings(max_examples=40, deadline=None)
@given(hyp.data())
def test_format_matrix_equals_per_entry_join(data):
    n = data.draw(hyp.integers(1, 4))
    table = data.draw(hyp.lists(hyp.integers(0, 1), min_size=1 << n, max_size=1 << n))
    m = QuantumOracle(TruthTable(n, table)).matrix()
    assert format_matrix(m) == "\n".join(" ".join(str(int(x)) for x in row) for row in m)
