import math
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp

from symtest import statevec
from symtest.statevec import (
    _CHUNK,
    BasisKet,
    EntangledError,
    NotBasisStateError,
    StateVector,
    butterfly,
    check_state_columns,
    factor_product_state,
    format_vector,
    hadamard_all,
    ket_to_vector,
    parse_ket,
    parse_vector,
    read_basis_columns,
    vector_to_ket,
)


def test_ket_to_vector_examples():
    assert list(ket_to_vector(parse_ket("+001")).amplitudes) == [0, 1, 0, 0, 0, 0, 0, 0]
    assert list(ket_to_vector(parse_ket("-001")).amplitudes) == [0, -1, 0, 0, 0, 0, 0, 0]
    assert list(ket_to_vector(parse_ket("+1")).amplitudes) == [0, 1]


def test_vector_to_ket_examples():
    v = StateVector([0, 0, 0, 0, 0, 1, 0, 0])
    assert vector_to_ket(v) == parse_ket("+101")
    v = StateVector([0, 0, 0, -1, 0, 0, 0, 0])
    assert vector_to_ket(v) == parse_ket("-011")


def test_vector_to_ket_rejects_superposition():
    v = StateVector(np.ones(8) / math.sqrt(8))
    with pytest.raises(NotBasisStateError):
        vector_to_ket(v)


def test_vector_to_ket_tolerance():
    v = StateVector([0.9999999, math.sqrt(1 - 0.9999999**2)])
    with pytest.raises(NotBasisStateError):
        vector_to_ket(v, tolerance=1e-9)
    ket = vector_to_ket(v, tolerance=1e-3)
    assert ket == BasisKet(1, (0,))


@pytest.mark.parametrize("k", range(1, 8))
def test_ket_vector_round_trip_exhaustive(k):
    for idx in range(1 << k):
        bits = tuple((idx >> (k - 1 - i)) & 1 for i in range(k))
        for sign in (1, -1):
            ket = BasisKet(sign, bits)
            assert vector_to_ket(ket_to_vector(ket)) == ket


@pytest.mark.parametrize("k", range(8, 13))
def test_ket_vector_round_trip_sampled(k):
    rng = np.random.default_rng(7)
    for _ in range(20):
        bits = tuple(rng.integers(0, 2, size=k).tolist())
        ket = BasisKet(int(rng.choice([1, -1])), bits)
        assert vector_to_ket(ket_to_vector(ket)) == ket


def test_hadamard_reference_vector():
    v = hadamard_all(ket_to_vector(parse_ket("+001")))
    expected = np.array([1, -1, 1, -1, 1, -1, 1, -1]) / math.sqrt(8)
    assert np.allclose(v.amplitudes, expected, rtol=0, atol=1e-15)


def test_hadamard_single_qubit():
    v = hadamard_all(ket_to_vector(parse_ket("+0")))
    assert np.allclose(v.amplitudes, np.array([1, 1]) / math.sqrt(2), rtol=0, atol=1e-15)


def test_hadamard_involution_on_random_kets():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        bits = tuple(rng.integers(0, 2, size=k).tolist())
        ket = BasisKet(int(rng.choice([1, -1])), bits)
        v = ket_to_vector(ket)
        back = hadamard_all(hadamard_all(v))
        assert np.allclose(back.amplitudes, v.amplitudes, rtol=0, atol=1e-9)


@pytest.mark.parametrize("k", range(1, 13))
def test_hadamard_norm_preservation(k):
    rng = np.random.default_rng(k)
    raw = rng.standard_normal(1 << k)
    v = StateVector(raw / np.linalg.norm(raw))
    out = hadamard_all(v)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_hadamard_sign_linearity():
    v = ket_to_vector(parse_ket("+0110"))
    neg = ket_to_vector(parse_ket("-0110"))
    assert np.allclose(hadamard_all(neg).amplitudes, -hadamard_all(v).amplitudes, rtol=0, atol=0)


@given(hyp.integers(min_value=0, max_value=255), hyp.sampled_from([1, -1]))
def test_hadamard_involution_property(index, sign):
    bits = tuple((index >> (7 - i)) & 1 for i in range(8))
    v = ket_to_vector(BasisKet(sign, bits))
    back = hadamard_all(hadamard_all(v))
    assert np.allclose(back.amplitudes, v.amplitudes, rtol=0, atol=1e-12)


@settings(deadline=None)
@given(hyp.integers(1, 8), hyp.integers(1, 8), hyp.data())
def test_butterfly_batch_matches_columns(k, width, data):
    qubit = data.draw(hyp.integers(0, k - 1))
    seed = data.draw(hyp.integers(0, 2**32 - 1))
    batch = np.random.default_rng(seed).standard_normal((1 << k, width))
    pairs = batch.reshape(1 << qubit, 2, -1)
    expected = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]], axis=1)
    columns = [batch[:, j].copy() for j in range(width)]
    butterfly(batch, qubit)
    assert np.array_equal(batch, expected.reshape(batch.shape))
    for j, col in enumerate(columns):
        butterfly(col, qubit)
        assert np.array_equal(batch[:, j], col)


def _single_wire(arr, qubit):
    """The one-wire butterfly (a, b) -> (a+b, a-b): the blocked kernel's reference."""
    a, b = arr.reshape(1 << qubit, 2, -1).transpose(1, 0, 2)
    return np.stack([a + b, a - b], axis=1).reshape(arr.shape)


@settings(max_examples=80, deadline=None)
@given(hyp.integers(1, 12), hyp.integers(1, 17), hyp.booleans(), hyp.data())
def test_blocked_butterfly_matches_single_wires_and_dense(k, width, integer, data):
    qubit = data.draw(hyp.integers(0, k - 1))
    count = data.draw(hyp.integers(1, k - qubit))
    rng = np.random.default_rng(data.draw(hyp.integers(0, 2**32 - 1)))
    if integer:
        batch = rng.integers(-8, 9, (1 << k, width)).astype(float)
    else:
        batch = rng.standard_normal((1 << k, width))
    if width == 1 and data.draw(hyp.booleans()):
        batch = batch[:, 0].copy()
    want = batch
    for q in range(qubit, qubit + count):
        want = _single_wire(want, q)
    wants = [want]
    if count <= 8:
        # The dense Kronecker product I (x) H^{(x)count} (x) I, on the reshaped axes.
        dense = reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * count)
        shaped = batch.reshape(1 << qubit, 1 << count, -1)
        wants.append(np.einsum("ij,ajb->aib", dense, shaped).reshape(batch.shape))
    got = batch.copy()
    butterfly(got, qubit, count)
    for want in wants:
        if integer:
            assert np.array_equal(got, want)
        else:
            # Compared as the unitary, normalized transform.
            assert np.abs(got - want).max() * 2.0 ** (-count / 2) <= 1e-12


def test_butterfly_allocates_only_its_scratch():
    arr = np.zeros((1 << 20, 1))
    arr[5] = 1.0
    tracemalloc.start()
    try:
        butterfly(arr, 0, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _CHUNK * 8 + 4096, peak
    assert np.array_equal(np.abs(arr), np.ones_like(arr))


def test_butterfly_rejects_strided_array():
    batch = np.zeros((4, 2))
    with pytest.raises(ValueError):
        butterfly(batch[:, 0], 0)
    for qubit, count in ((-1, 1), (2, 1), (1, 2), (0, 3), (1, -2)):
        with pytest.raises(ValueError, match="out of range"):
            butterfly(batch, qubit, count)


def test_butterfly_takes_float32_and_float64_only():
    for dtype in (np.float32, np.float64):
        arr = np.array([3, 1], dtype)
        butterfly(arr, 0)
        assert arr.dtype == dtype and arr.tolist() == [4, 2]
    for dtype in (np.int64, np.float16, np.complex128):
        with pytest.raises(ValueError, match="float32 or float64"):
            butterfly(np.zeros(4, dtype), 0)


def test_read_basis_columns():
    batch = np.array(
        [
            [0.0, 0.0, 0.5, np.nan],
            [-1.0, 0.0, 0.5, 0.0],
            [0.0, 1.0, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.0],
        ]
    )
    index, sign = read_basis_columns(batch)
    assert sign.tolist() == [-1, 1, 0, 0]
    assert index[:2].tolist() == [1, 2]


def _read_reference(arr, tolerance=1e-9):
    """read_basis_columns through one full-size np.abs: the reference."""
    mags = np.abs(arr)
    cols = np.arange(arr.shape[1])
    index = np.argmax(mags, axis=0)
    peak = mags[index, cols]
    mags[index, cols] = 0.0
    ok = (np.abs(peak - 1.0) <= tolerance) & (mags.max(axis=0) <= tolerance)
    return index, np.where(ok, np.where(arr[index, cols] > 0, 1, -1), 0)


@settings(max_examples=100, deadline=None)
@given(hyp.integers(1, 10), hyp.integers(1, 17), hyp.sampled_from([4, 64, _CHUNK]), hyp.data())
def test_read_basis_columns_matches_full_magnitude_reference(k, width, chunk, data):
    # Signed basis columns, some with a few entries overwritten: ties of
    # +-1, NaN, signed zeros, and values near 0 and 1.
    rng = np.random.default_rng(data.draw(hyp.integers(0, 2**32 - 1)))
    cols = np.arange(width)
    arr = np.zeros((1 << k, width))
    arr[rng.integers(0, 1 << k, width), cols] = rng.choice([1.0, -1.0], width)
    palette = [0.0, -0.0, 1.0, -1.0, 1e-10, -1e-10, 0.5, math.nan, 1 + 1e-10, -2.0]
    for j in cols:
        hits = rng.integers(0, 3)
        arr[rng.integers(0, 1 << k, hits), j] = rng.choice(palette, hits)
    before = arr.copy()
    with mock.patch.object(statevec, "_CHUNK", chunk):
        index, sign = read_basis_columns(arr)
    want_index, want_sign = _read_reference(arr)
    assert np.array_equal(arr, before, equal_nan=True)
    assert sign.tolist() == want_sign.tolist()
    assert index.tolist() == want_index.tolist()


def test_factor_reference_product_state():
    v = StateVector(np.array([1, -1, -1, 1, -1, 1, 1, -1]) / math.sqrt(8))
    factors = factor_product_state(v)
    expected = (1 / math.sqrt(2), -1 / math.sqrt(2))
    assert len(factors) == 3
    for pair in factors:
        assert pair == pytest.approx(expected, abs=1e-12)


def test_factor_basis_ket():
    factors = factor_product_state(ket_to_vector(parse_ket("+101")))
    assert factors == [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]


def test_factor_negative_basis_ket_carries_sign():
    factors = factor_product_state(ket_to_vector(parse_ket("-101")))
    recon = np.ones(1)
    for pair in factors:
        recon = np.kron(recon, np.array(pair))
    assert np.allclose(recon, ket_to_vector(parse_ket("-101")).amplitudes, rtol=0, atol=1e-12)


def test_factor_rejects_bell_state():
    # no rank-1 factorization: the 2x2 reshape has determinant 1, not 0
    amps = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert abs(np.linalg.det(amps.reshape(2, 2))) > 0.4
    with pytest.raises(EntangledError):
        factor_product_state(StateVector(amps))


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector([1, 0, 0])  # not a power of two
    with pytest.raises(ValueError):
        StateVector([1, 1])  # norm != 1
    for bad in ([math.nan, 0.0], [1.0, math.nan], [math.inf, 0.0], [0.0, -math.inf]):
        with pytest.raises(ValueError, match="must be finite"):
            StateVector(bad)
    v = StateVector([1, 0])
    with pytest.raises(ValueError):
        v.amplitudes[0] = 0.0  # frozen


def test_state_vector_never_aliases_a_writeable_array():
    arr = np.array([0.6, 0.0, 0.8, 0.0])
    v = StateVector(arr)
    arr[0], arr[2] = 0.8, 0.6
    assert v.amplitudes.tolist() == [0.6, 0.0, 0.8, 0.0]
    # A vector that keeps a kernel's array freezes it, and every view of it.
    h = hadamard_all(v)
    assert not np.shares_memory(h.amplitudes, v.amplitudes)
    for out in (h, ket_to_vector(parse_ket("+01"))):
        base = out.amplitudes if out.amplitudes.base is None else out.amplitudes.base
        assert not out.amplitudes.flags.writeable and not base.flags.writeable


def test_hadamard_all_at_20_qubits_is_one_state():
    # One copy of the input, transformed and divided in place, and kept.
    state = 8 << 20
    v = ket_to_vector(BasisKet(1, (1, 0) * 10))
    tracemalloc.start()
    try:
        out = hadamard_all(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state, peak
    assert np.array_equal(np.abs(out.amplitudes), np.full(1 << 20, 2.0**-10))


def test_check_state_columns_names_the_first_bad_column():
    batch = np.zeros((4, 3))
    batch[0] = 1.0
    check_state_columns(batch)
    batch[1, 1] = 1.0
    with pytest.raises(ValueError, match="norm 1.414"):
        check_state_columns(batch)
    batch[2, 2] = math.nan
    with pytest.raises(ValueError, match="must be finite, got nan"):
        check_state_columns(batch)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9])
def test_bad_tolerance_is_rejected(tolerance):
    v = ket_to_vector(parse_ket("+01"))
    for check in (vector_to_ket, factor_product_state):
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            check(v, tolerance)
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        read_basis_columns(np.eye(2), tolerance)


def test_basis_ket_validation():
    with pytest.raises(ValueError):
        BasisKet(2, (0, 1))
    with pytest.raises(ValueError):
        BasisKet(1, ())
    with pytest.raises(ValueError):
        BasisKet(1, (0, 2))


def test_ket_parse_format():
    assert str(parse_ket("+10001")) == "+10001"
    assert str(parse_ket("-00101")) == "-00101"
    assert parse_ket("101") == BasisKet(1, (1, 0, 1))
    assert str(-parse_ket("+101")) == "-101"
    with pytest.raises(ValueError):
        parse_ket("+10a")
    for empty in ("", "   ", "+", "-"):
        with pytest.raises(ValueError, match="not a bit string"):
            parse_ket(empty)


def test_vector_format_styles():
    assert format_vector(ket_to_vector(parse_ket("-001"))) == "(0 -1 0 0 0 0 0 0)"
    v = hadamard_all(ket_to_vector(parse_ket("+001")))
    assert format_vector(v) == "(1 -1 1 -1 1 -1 1 -1)/√8"
    v = StateVector([0.6, 0.8])
    assert format_vector(v) == "(0.6 0.8)"


def test_vector_parse_round_trip():
    for text in ["(1 -1 1 -1 1 -1 1 -1)/√8", "(1 -1)/sqrt(2)", "0.6, 0.8", "(0 1 0 0)"]:
        v = parse_vector(text)
        assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        parse_vector("(1 nope)/sqrt(2)")
    with pytest.raises(ValueError):
        parse_vector("")
    for text in ("(nan 0)", "(0 nan)", "(inf 0)", "(1 0)/sqrt(0)"):
        with pytest.raises(ValueError):
            parse_vector(text)


def test_ket_to_vector_cap():
    with pytest.raises(ValueError):
        ket_to_vector(BasisKet(1, (0,) * 21))
    ket_to_vector(BasisKet(1, (0,) * 21), max_qubits=21)
