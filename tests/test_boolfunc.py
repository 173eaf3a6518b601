import array
import string
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyp

from symtest.bitops import CAPS, CapError
from symtest.boolfunc import (
    FunctionClass,
    NotAdmissibleError,
    ParityForm,
    TruthTable,
    classify,
    from_parity_form,
    function_line,
    function_lines,
    generate_functions,
    hex_decode,
    is_admissible,
    is_invariant_under,
    iter_tables,
    listing_bytes,
    padded_hex,
    to_parity_form,
    _check_n,
)

tt = TruthTable.from_string


def all_parity_tables(n):
    """Independent enumeration: every affine parity truth table for n."""
    out = set()
    for mask in product((0, 1), repeat=n):
        for c in (0, 1):
            out.add(from_parity_form(ParityForm(n, mask, c)))
    return out


def all_tables(n):
    for bits in product((0, 1), repeat=1 << n):
        yield TruthTable(n, bits)


# generation

FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def reference_functions(n):
    """The paper's level-by-level construction, as 0/1 byte tables.

    Level 1 is (00), (01) positive and (11), (10) negative.  Each further
    level orders the previous level's tables and concatenates each with
    itself and with its mirror image (its complement).  Positives come out
    in construction order, which is ascending; negatives are sorted.
    """
    positives, negatives = [b"\0\0", b"\0\1"], [b"\1\1", b"\1\0"]
    for _ in range(n - 1):
        pos, neg = [], []
        for g in sorted(positives + negatives):
            for table in (g + g, g + g.translate(FLIP)):
                (pos if table[0] == 0 else neg).append(table)
        positives, negatives = pos, sorted(neg)
    return positives, negatives


@pytest.mark.parametrize("n", range(1, 11))
def test_stream_equals_level_by_level_construction(n):
    pos, neg = reference_functions(n)
    assert list(iter_tables(n)) == pos + neg
    got_pos, got_neg = generate_functions(n)
    assert [t.table for t in got_pos] == pos
    assert [t.table for t in got_neg] == neg


def test_generate_n1_matches_reference_listing():
    pos, neg = generate_functions(1)
    assert [str(t) for t in pos] == ["00", "01"]
    assert [str(t) for t in neg] == ["11", "10"]


def test_generate_n2_matches_reference_listing():
    pos, neg = generate_functions(2)
    assert [str(t) for t in pos] == ["0000", "0011", "0101", "0110"]
    # negatives in ascending numerical order
    assert [str(t) for t in neg] == ["1001", "1010", "1100", "1111"]


def test_generate_n3_matches_reference_listing():
    pos, neg = generate_functions(3)
    assert [str(t) for t in pos] == [
        "00000000", "00001111", "00110011", "00111100",
        "01010101", "01011010", "01100110", "01101001",
    ]
    assert [str(t) for t in neg] == [
        "10010110", "10011001", "10100101", "10101010",
        "11000011", "11001100", "11110000", "11111111",
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_count_law(n):
    pos, neg = generate_functions(n)
    tables = pos + neg
    assert len(pos) == len(neg) == 1 << n
    assert len(set(tables)) == 1 << (n + 1)
    assert all(is_admissible(t) for t in tables)


@pytest.mark.parametrize("n", range(1, 9))
def test_generated_set_equals_parity_set(n):
    pos, neg = generate_functions(n)
    assert set(pos) | set(neg) == all_parity_tables(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_mirror_recursion_structure(n):
    """Each positive table is a previous-level table concatenated with
    itself or with its mirror image (the complement)."""
    prev_pos, prev_neg = generate_functions(n - 1)
    prev = {t.bits for t in prev_pos + prev_neg}
    pos, _ = generate_functions(n)
    for t in pos:
        half = t.bits[: 1 << (n - 1)]
        other = t.bits[1 << (n - 1):]
        assert half in prev
        assert other == half or other == tuple(1 - b for b in half)


@pytest.mark.parametrize("n", [0, -1, 21])
def test_generate_bounds(n):
    with pytest.raises(ValueError):
        generate_functions(n)
    with pytest.raises(ValueError):
        iter_tables(n)  # before the first table is asked for


@pytest.mark.parametrize("n", range(1, 9))
def test_listing_size_is_the_widest_line_on_every_line(n):
    lines = list(function_lines(n))
    widest = max(map(len, lines))
    assert widest == len(lines[-1])  # the all-ones table has the most decimal digits
    assert listing_bytes(n) == widest * len(lines) >= sum(map(len, lines))


def test_listing_cap_admits_n12_and_refuses_n13():
    assert listing_bytes(12) == 6366 << 13  # 49.7 MiB
    assert listing_bytes(12) <= CAPS["listing"] < listing_bytes(13)
    with pytest.raises(CapError, match=r"198\.7 MiB, over the 64 MiB cap"):
        function_lines(13)  # before the first line is asked for


def test_listing_at_the_cap_streams_one_line_at_a_time():
    # 8192 lines of 6366 bytes at most: a walk that held a level of them would pass the bound.
    tracemalloc.start()
    try:
        count = sum(1 for _ in function_lines(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 8192
    assert peak < 256 << 10, peak


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_function_line_names_n_and_digits_over_the_int_str_limit():
    # 2^(2^14) - 1 has 4933 decimal digits, past Python's default limit of 4300.
    table = TruthTable(14, b"\1" * (1 << 14))
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError, match=r"n=14 takes up to 4933 decimal digits, over the limit of 4300"):
            function_line(table)
        assert len(function_line(TruthTable(13, b"\1" * (1 << 13))).split()[2]) == 2467
        sys.set_int_max_str_digits(0)  # no limit
        assert len(function_line(table).split()[2]) == 4933
    finally:
        sys.set_int_max_str_digits(old)


# admissibility


@pytest.mark.parametrize(
    "table,expected",
    [("0110", True), ("0001", False), ("00010111", False), ("0000", True), ("1010", True)],
)
def test_is_admissible_examples(table, expected):
    assert is_admissible(tt(table)) is expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_admissible_iff_parity_form_exists(n):
    parity_set = all_parity_tables(n)
    for t in all_tables(n):
        assert is_admissible(t) == (t in parity_set)


# parity form


@pytest.mark.parametrize(
    "table,mask,c",
    [("0011", (1, 0), 0), ("0110", (1, 1), 0), ("1111", (0, 0), 1), ("0101", (0, 1), 0)],
)
def test_to_parity_form_examples(table, mask, c):
    pf = to_parity_form(tt(table))
    assert (pf.mask, pf.complement) == (mask, c)


def test_to_parity_form_rejects_non_admissible():
    with pytest.raises(NotAdmissibleError):
        to_parity_form(tt("0001"))
    with pytest.raises(NotAdmissibleError):
        to_parity_form(tt("00010111"))


@settings(max_examples=30, deadline=None)
@given(hyp.integers(13, 16), hyp.data())
def test_to_parity_form_checks_every_block_past_12_variables(n, data):
    # Past 12 variables the table is checked 2^12 entries at a time: every
    # affine table round-trips, and one entry flipped anywhere is refused.
    mask = tuple(data.draw(hyp.lists(hyp.integers(0, 1), min_size=n, max_size=n)))
    pf = ParityForm(n, mask, data.draw(hyp.integers(0, 1)))
    table = from_parity_form(pf)
    assert to_parity_form(table) == pf
    flipped = bytearray(table.table)
    flipped[data.draw(hyp.integers(0, (1 << n) - 1))] ^= 1
    with pytest.raises(NotAdmissibleError):
        to_parity_form(TruthTable(n, flipped))


def test_brief_names_long_tables_by_n_and_hex_prefix():
    short = TruthTable.from_value(6, 1)
    assert short.brief() == str(short)
    long = TruthTable.from_value(20, 0xA5 << ((1 << 20) - 8))
    assert long.brief() == "$A500000000000000... (n=20)"
    with pytest.raises(NotAdmissibleError, match=r"^\$A500000000000000\.\.\. \(n=20\) is not"):
        to_parity_form(long)


@pytest.mark.parametrize(
    "n,mask,c,expected",
    [
        (2, (0, 1), 0, "0101"),
        (3, (0, 0, 0), 0, "00000000"),
        (3, (1, 1, 1), 0, "01101001"),
    ],
)
def test_from_parity_form_examples(n, mask, c, expected):
    assert str(from_parity_form(ParityForm(n, mask, c))) == expected


@given(
    hyp.integers(min_value=1, max_value=8).flatmap(
        lambda n: hyp.tuples(
            hyp.just(n),
            hyp.tuples(*[hyp.integers(0, 1)] * n),
            hyp.integers(0, 1),
        )
    )
)
def test_parity_form_round_trip(args):
    n, mask, c = args
    pf = ParityForm(n, mask, c)
    table = from_parity_form(pf)
    back = to_parity_form(table)
    assert back == pf
    assert table.bits[0] == c


def test_parity_expression():
    assert to_parity_form(tt("0110")).expression() == "x1^x2"
    assert to_parity_form(tt("0000")).expression() == "0"
    assert to_parity_form(tt("1111")).expression() == "1"
    assert to_parity_form(tt("1100")).expression() == "1^x1"


# classification


@pytest.mark.parametrize(
    "table,expected",
    [
        ("0101", FunctionClass.POSITIVE),
        ("1100", FunctionClass.NEGATIVE),
        ("0001", FunctionClass.NOT_ADMISSIBLE),
    ],
)
def test_classify_examples(table, expected):
    assert classify(tt(table)) is expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complement_swaps_class(n):
    pos, neg = generate_functions(n)
    for t in pos + neg:
        a, b = classify(t), classify(t.complement())
        assert {a, b} == {FunctionClass.POSITIVE, FunctionClass.NEGATIVE}


# hex encoding


def test_padded_hex_examples():
    assert padded_hex(tt("0011110000111100")) == "3C3C"
    assert tt("0011110000111100").value == 15420
    assert padded_hex(tt("0000000011111111")) == "00FF"
    assert padded_hex(tt("0000")) == "0"
    assert padded_hex(TruthTable.from_value(3, 0x0F)) == "0F"


def test_hex_decode_prefixes():
    assert hex_decode("$6996", 4).value == 27030
    assert hex_decode("0x6996", 4).value == 27030
    assert hex_decode("0X6996", 4).value == 27030
    assert hex_decode("6996", 4).value == 27030
    assert hex_decode("0011", 2) == tt("0011")


def test_hex_decode_round_trip():
    for value in (0, 3, 15420, 65535):
        t = TruthTable.from_value(4, value)
        assert hex_decode(padded_hex(t), 4) == t


def test_hex_decode_errors():
    with pytest.raises(ValueError):
        hex_decode("zz", 2)
    with pytest.raises(ValueError):
        hex_decode("FFFFF", 2)  # 20 bits into a 4-bit table
    with pytest.raises(ValueError):
        hex_decode("$", 2)
    for text in ("0_FF", "$0x00FF", "$+FF"):  # int(..., 16) takes each of these
        with pytest.raises(ValueError, match="malformed function string"):
            hex_decode(text, 4)


def _int_padded_hex(t):
    """The table's value as one Python int, formatted: the reference codec."""
    return format(t.value, f"0{max(1, (1 << t.n) // 4)}X")


def _int_hex_decode(text, n=None):
    """`hex_decode` through one Python int: the reference codec."""
    s = text.strip()
    prefix = 1 if s[:1] == "$" else 2 if s[:2].lower() == "0x" else 0
    body = s[prefix:]
    if not body or body.strip(string.hexdigits):
        raise ValueError(f"malformed function string: {text!r}")
    binary = not prefix and not s.strip("01")
    if n is None:
        size = len(s) if binary and len(s) >= 2 and not len(s) & (len(s) - 1) else 4 * len(body)
        if size & (size - 1):
            raise ValueError(f"cannot infer qubit count from {text!r}")
        n = size.bit_length() - 1
    _check_n(n)
    if binary and len(s) == 1 << n:
        return TruthTable.from_string(s)
    value = int(body, 16)
    if value >> (1 << n):
        raise ValueError(f"{text!r} does not fit a {1 << n}-bit truth table")
    return TruthTable.from_value(n, value)


def _outcome(decode, text, n):
    try:
        return decode(text, n)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_padded_hex_equals_the_int_codec_on_every_table(n):
    for t in all_tables(n):
        assert padded_hex(t) == _int_padded_hex(t)
        assert hex_decode(padded_hex(t), n) == t


@given(hyp.integers(1, 12).flatmap(lambda n: hyp.tuples(hyp.just(n), hyp.randoms())))
def test_padded_hex_equals_the_int_codec(args):
    n, rng = args
    t = TruthTable(n, bytes(rng.getrandbits(1) for _ in range(1 << n)))
    text = padded_hex(t)
    assert text == _int_padded_hex(t)
    assert hex_decode(text, n) == _int_hex_decode(text, n) == t


@given(
    hyp.integers(1, 5),
    hyp.sampled_from(["", "$", "0x", "0X"]),
    hyp.integers(0, 6),
    hyp.text(string.hexdigits, min_size=1, max_size=12),
)
def test_hex_decode_equals_the_int_codec(n, prefix, zeros, digits):
    # Odd and even lengths, surplus leading zeros, and bodies too wide for n.
    text = prefix + ("0" * zeros + digits)[:12]
    assert _outcome(hex_decode, text, n) == _outcome(_int_hex_decode, text, n)


@pytest.mark.parametrize(
    "text, n, message",
    [
        ("FFFFF", 2, "'FFFFF' does not fit a 4-bit truth table"),
        ("$100", 3, "'$100' does not fit a 8-bit truth table"),
        ("$3C 3C", 4, "malformed function string: '$3C 3C'"),
        ("0x", None, "malformed function string: '0x'"),
        ("$+FF", 3, "malformed function string: '$+FF'"),
        ("0_FF", None, "malformed function string: '0_FF'"),
        ("$0x00FF", 4, "malformed function string: '$0x00FF'"),
    ],
)
def test_hex_decode_errors_equal_the_int_codec(text, n, message):
    assert _outcome(hex_decode, text, n) == _outcome(_int_hex_decode, text, n)
    with pytest.raises(ValueError) as raised:
        hex_decode(text, n)
    assert str(raised.value) == message


def test_codec_equals_the_int_codec_at_the_n_cap():
    n = CAPS["n"]
    t = TruthTable(n, np.random.default_rng(20).integers(0, 2, 1 << n, dtype=np.uint8))
    text = padded_hex(t)
    assert text == _int_padded_hex(t)
    assert hex_decode("$" + text, n) == _int_hex_decode("$" + text, n) == t


# shift invariance


@pytest.mark.parametrize(
    "table,delta",
    [("0011", (0, 1)), ("0101", (1, 0)), ("0110", (1, 1))],
)
def test_invariance_reference_cases(table, delta):
    assert is_invariant_under(tt(table), delta)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_invariance_agrees_with_mask_parity(n):
    pos, neg = generate_functions(n)
    for t in pos + neg:
        mask = to_parity_form(t).mask_value
        for d in range(1 << n):
            shortcut = bin(d & mask).count("1") % 2 == 0
            bits = tuple((d >> (n - 1 - i)) & 1 for i in range(n))
            assert is_invariant_under(t, bits) == shortcut


def test_invariance_length_check():
    with pytest.raises(ValueError):
        is_invariant_under(tt("0110"), (1, 0, 1))
    # Each entry is one bit: (0, 3) is not read as (1, 1), nor (2, 0) as a row.
    for delta in ((0, 3), (2, 0), (0, -1)):
        with pytest.raises(ValueError, match=r"^delta must be 2 bits of 0 or 1, got \(\d, -?\d\)$"):
            is_invariant_under(tt("0011"), delta)


# type validation


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, (0, 1, 0))
    with pytest.raises(ValueError):
        TruthTable(2, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        TruthTable(0, ())
    with pytest.raises(ValueError):
        TruthTable(21, (0,) * (1 << 21))
    with pytest.raises(ValueError):
        TruthTable(2, b"\0\1\2\0")
    with pytest.raises(ValueError, match="0 or 1"):
        TruthTable(2, (0, 1, 256, 0))
    with pytest.raises(ValueError, match="0 or 1"):
        TruthTable(2, np.array([0, 1, -1, 0]))
    with pytest.raises(TypeError):
        TruthTable(2, 4)  # an int is not a table, although bytes(4) would be


@pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint32, bool])
def test_truth_table_reads_entries_not_raw_bytes(dtype):
    table = np.array([0, 1, 1, 0], dtype=dtype)
    assert TruthTable(2, table) == TruthTable(2, (0, 1, 1, 0))
    if table.itemsize > 1:
        # Its raw memory is 4 * itemsize bytes, all 0/1: a table for a larger n.
        n = (4 * table.itemsize).bit_length() - 1
        with pytest.raises(ValueError, match=f"needs {1 << n} bits, got 4"):
            TruthTable(n, table)


def test_truth_table_from_array_module():
    assert TruthTable(2, array.array("i", [1, 0, 0, 1])) == TruthTable(2, (1, 0, 0, 1))
    with pytest.raises(ValueError):
        TruthTable.from_string("01a1")
    with pytest.raises(ValueError):
        TruthTable.from_value(2, 16)


def test_parity_form_validation():
    with pytest.raises(ValueError):
        ParityForm(2, (1,), 0)
    with pytest.raises(ValueError):
        ParityForm(2, (1, 0), 2)


# the byte-string representation


def reference_admissible(s: str) -> bool:
    """The recursive definition: symmetric or antisymmetric at every halving level."""
    if len(s) == 2:
        return True
    r = s[::-1]
    if r != s and r.translate(str.maketrans("01", "10")) != s:
        return False
    half = len(s) // 2
    return reference_admissible(s[:half]) and reference_admissible(s[half:])


def parity_bits(n, mask, c):
    """Truth table of c XOR parity(x AND mask), entry by entry."""
    return [c ^ (bin(i & mask).count("1") & 1) for i in range(1 << n)]


@given(
    hyp.integers(min_value=1, max_value=12).flatmap(
        lambda n: hyp.tuples(
            hyp.just(n),
            hyp.integers(0, (1 << n) - 1),
            hyp.integers(0, 1),
            hyp.lists(hyp.integers(0, (1 << n) - 1), max_size=3, unique=True),
        )
    )
)
def test_representation_properties(args):
    """Every way of building a table gives one equal, equally hashed value;
    the derived forms agree with per-entry references."""
    n, mask, c, flips = args
    bits = parity_bits(n, mask, c)
    for i in flips:
        bits[i] ^= 1
    bits = tuple(bits)
    text = "".join(map(str, bits))
    value = int(text, 2)
    t = TruthTable(n, bits)
    same = [
        TruthTable(n, bytes(bits)),
        TruthTable(n, bytearray(bits)),
        TruthTable(n, np.array(bits, dtype=np.uint8)),
        TruthTable.from_string(text),
        TruthTable.from_value(n, value),
        hex_decode(f"${value:X}", n),
        hex_decode(padded_hex(t), n),
    ]
    if not flips:
        mask_bits = tuple((mask >> (n - 1 - i)) & 1 for i in range(n))
        same.append(from_parity_form(ParityForm(n, mask_bits, c)))
    for other in same:
        assert other == t and hash(other) == hash(t)
    assert type(t.bits) is tuple and t.bits == bits
    assert all(type(b) is int for b in t.bits)
    assert (str(t), t.value) == (text, value)
    assert t.complement().bits == tuple(1 - b for b in bits)
    assert is_admissible(t) == reference_admissible(text)


def test_max_n_round_trip():
    """hex -> classify -> parity form -> hex at the default cap, n = CAPS["n"]."""
    n = CAPS["n"]
    mask = 0xA5C3F
    pf = ParityForm(n, tuple((mask >> (n - 1 - i)) & 1 for i in range(n)), 1)
    text = padded_hex(from_parity_form(pf))
    assert len(text) == 1 << (n - 2)
    t = hex_decode("$" + text, n)
    assert classify(t) is FunctionClass.NEGATIVE
    assert to_parity_form(t) == pf
    assert padded_hex(t) == text
    for i in (0, 1, 12345, (1 << n) - 1):
        assert t.bits[i] == 1 ^ (bin(i & mask).count("1") & 1)
    flipped = bytearray(t.table)
    flipped[777] ^= 1
    broken = TruthTable(n, flipped)
    assert classify(broken) is FunctionClass.NOT_ADMISSIBLE
    with pytest.raises(NotAdmissibleError):
        to_parity_form(broken)
