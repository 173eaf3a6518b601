"""Boolean functions with recursive symmetry and their affine parity form.

A function on n variables is stored as its truth table: 2^n output bits,
one 0/1 byte each, ordered by input value, x1 being the most significant
input bit (inputs count 00, 01, 10, 11, ...).  The functions of interest
here are the "admissible" ones: tables that are symmetric (equal to their
reversal) or antisymmetric (equal to the complement of their reversal) at
every recursive halving level.  These are exactly the affine parity functions
f(x) = c XOR parity(x AND m), and there are 2^(n+1) of them: 2^n
"positive" (leading bit 0) and 2^n "negative" (leading bit 1).

`iter_tables` streams them depth first from the paper's doubling, each
table its first half t followed by t or its complement, so the stream
holds O(2^n) bytes.  `function_lines` is the listing from the same walk,
which doubles each line's binary, hex and decimal fields along with it.
"""

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .bitops import _check_cap, bits_to_int

# bytes.translate tables: complement 0/1 entries, and map them to and from text.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")
_TEXT = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")


class NotAdmissibleError(ValueError):
    """The truth table is not an affine parity function."""


class FunctionClass(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    NOT_ADMISSIBLE = "NotAdmissible"


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_cap("n", n, f"n={n}")


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function on n variables as an ordered 2^n bit sequence,
    given as any 0/1 sequence and stored as bytes, one byte per entry."""

    n: int
    table: bytes

    def __post_init__(self):
        _check_n(self.n)
        if isinstance(self.table, int):
            raise TypeError("truth table must be a 0/1 sequence, not an int")
        table = self.table
        if getattr(table, "itemsize", 1) != 1:  # bytes() would read a wide array's raw memory
            table = table.tolist()
        try:
            table = bytes(table)
        except ValueError:
            raise ValueError("truth table bits must be 0 or 1") from None
        if len(table) != 1 << self.n:
            raise ValueError(
                f"truth table for n={self.n} needs {1 << self.n} bits, got {len(table)}"
            )
        if table.translate(None, b"\0\1"):
            raise ValueError("truth table bits must be 0 or 1")
        object.__setattr__(self, "table", table)

    @classmethod
    def from_value(cls, n: int, value: int) -> "TruthTable":
        _check_n(n)
        size = 1 << n
        if value < 0 or value >> size:
            raise ValueError(f"{value} does not fit in {size} bits")
        return cls(n, format(value, f"0{size}b").encode().translate(_BITS))

    @classmethod
    def from_string(cls, text: str) -> "TruthTable":
        table = text.encode().translate(_BITS)
        return cls(max(len(table), 2).bit_length() - 1, table)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.table)

    @property
    def value(self) -> int:
        return int(str(self), 2)

    def brief(self) -> str:
        """The table as text up to 64 entries; a longer one as n and the hex
        of its first 64 entries, so that messages stay one short line."""
        if len(self.table) <= 64:
            return str(self)
        return f"${int(self.table[:64].translate(_TEXT), 2):016X}... (n={self.n})"

    def complement(self) -> "TruthTable":
        return TruthTable(self.n, self.table.translate(_FLIP))

    def __str__(self) -> str:
        return self.table.translate(_TEXT).decode("ascii")


@dataclass(frozen=True)
class ParityForm:
    """Canonical form of an admissible function: f(x) = c XOR parity(x AND m)."""

    n: int
    mask: tuple[int, ...]
    complement: int

    def __post_init__(self):
        if len(self.mask) != self.n:
            raise ValueError(f"mask must have {self.n} bits, got {len(self.mask)}")
        if any(b not in (0, 1) for b in self.mask) or self.complement not in (0, 1):
            raise ValueError("mask bits and complement must be 0 or 1")

    @property
    def mask_value(self) -> int:
        return bits_to_int(self.mask)

    def expression(self) -> str:
        """Human-readable XOR-of-variables form, e.g. '1^x2^x3'."""
        terms = [f"x{i + 1}" for i, b in enumerate(self.mask) if b]
        if self.complement:
            terms.insert(0, "1")
        return "^".join(terms) if terms else "0"


def _ascending(n: int, lead: int, leaf, double) -> Iterator:
    """Every admissible table on n variables with leading entry `lead`, in
    ascending order, depth first, from `leaf`, the one-entry table `lead`.
    Each comes from its first half t, one such table on n - 1 variables, as
    t+t or t+complement(t), which `double(t)` returns in that order; t+t is
    the smaller exactly when t's leading entry is 0, so `lead` indexes the
    one that comes first."""
    if n == 0:
        yield leaf
        return
    for t in _ascending(n - 1, lead, leaf, double):
        pair = double(t)
        yield pair[lead]
        yield pair[1 - lead]


def _walk(n: int, leaves: tuple, double) -> Iterator:
    """Every admissible table on n variables, in the order `iter_tables`
    gives.  `leaves` are the one-entry tables 0 and 1, and `double` is as in
    `_ascending`."""
    _check_n(n)
    negatives = _ascending(n, 1, leaves[1], double)
    if n == 1:
        negatives = reversed(list(negatives))
    return chain(_ascending(n, 0, leaves[0], double), negatives)


def _double_bytes(t: bytes) -> tuple[bytes, bytes]:
    return t + t, t + t.translate(_FLIP)


def iter_tables(n: int) -> Iterator[bytes]:
    """Stream the 0/1 byte table of every admissible function on n variables.

    Positives come first, in ascending order, then negatives: ascending for
    n >= 2, and (11), (10) for n = 1 as in the paper's listing.  The stream
    is depth first, so it holds one table per level, O(2^n) bytes in all.
    """
    return _walk(n, (b"\0", b"\1"), _double_bytes)


def generate_functions(n: int) -> tuple[list[TruthTable], list[TruthTable]]:
    """All positive and negative admissible functions on n variables, as
    lists in the order of `iter_tables`.

    The lists hold 2^(n+1) tables of 2^n entries, O(4^n) bytes; callers
    that only read each table once should take the stream instead.
    """
    tables = [TruthTable(n, table) for table in iter_tables(n)]
    return tables[: 1 << n], tables[1 << n :]


def is_admissible(tt: TruthTable) -> bool:
    """True iff the table is symmetric or antisymmetric at every halving level.

    Once a block passes, its right half is the (possibly complemented)
    reversal of its left half, and both operations preserve
    admissibility, so only the left half is checked further.
    """
    s = tt.table
    while len(s) > 2:
        r = s[::-1]
        if r != s and r.translate(_FLIP) != s:
            return False
        s = s[: len(s) // 2]
    return True


def _parity_table(mask: tuple[int, ...], complement: int) -> bytes:
    """Table of c XOR parity(x AND m), doubled once per variable: the new,
    more significant variable copies the table, or its complement where
    its mask bit is set.  x_n is the least significant index bit, so the
    mask is read from the end."""
    t = bytes([complement])
    for bit in reversed(mask):
        t += t.translate(_FLIP) if bit else t
    return t


def to_parity_form(tt: TruthTable) -> ParityForm:
    """Extract (mask, complement) with mask bit i = f(e_i) XOR f(0).

    The candidate form is checked against the table in place, 2^12 entries
    at a time, so that no 2^n-byte table is built; a table that is not an
    affine parity function raises NotAdmissibleError.
    """
    t = tt.table
    c = t[0]
    pf = ParityForm(tt.n, tuple(t[1 << (tt.n - 1 - i)] ^ c for i in range(tt.n)), c)
    low = min(tt.n, 12)
    block, high = _parity_table(pf.mask[tt.n - low :], c), bits_to_int(pf.mask[: tt.n - low])
    blocks = (block, block.translate(_FLIP) if high else block)  # no complement unless one is read
    for j in range(len(t) >> low):  # block j is complemented where parity(j & high) = 1
        if not t.startswith(blocks[(j & high).bit_count() & 1], j << low):
            raise NotAdmissibleError(f"{tt.brief()} is not an affine parity function")
    return pf


def from_parity_form(pf: ParityForm) -> TruthTable:
    return TruthTable(pf.n, _parity_table(pf.mask, pf.complement))


def classify(tt: TruthTable) -> FunctionClass:
    if not is_admissible(tt):
        return FunctionClass.NOT_ADMISSIBLE
    return FunctionClass.NEGATIVE if tt.table[0] else FunctionClass.POSITIVE


def padded_hex(tt: TruthTable) -> str:
    """Uppercase hex of the table value, one digit per 4 entries (at least
    one).  The entries, left-padded with zeros to a whole byte, are packed 8
    to a byte by `np.packbits`; the last digits of that hex are the value's."""
    packed = np.packbits(np.frombuffer(tt.table.rjust(8, b"\0"), np.uint8))
    return packed.tobytes().hex().upper()[-max(1, len(tt.table) // 4) :]


def hex_decode(text: str, n: int | None = None) -> TruthTable:
    """Parse a truth table from a binary or hex string: a bare 0/1 string of
    2^n digits is binary, and anything else is hex digits after at most one
    "$" or "0x" prefix.  Without n, a bare 0/1 string of power-of-two length
    >= 2 gives n directly, and any other string gives 4 bits a hex digit.

    Hex is read in one pass: `bytes.fromhex` on the digits, left-padded to
    an even count, which also checks them, then `np.unpackbits`.  The low
    2^n bits are the table, zero-padded on the left; a set bit above them
    does not fit."""
    s = text.strip()
    prefix = 1 if s[:1] == "$" else 2 if s[:2].lower() == "0x" else 0
    body = s[prefix:]
    digits = body.rjust(len(body) + len(body) % 2, "0")
    try:
        packed = bytes.fromhex(digits)
    except ValueError:  # a non-hex character, or a space inside a pair
        packed = b""
    if not body or 2 * len(packed) != len(digits):  # fromhex skips spaces
        raise ValueError(f"malformed function string: {text!r}")
    binary = not prefix and not s.strip("01")
    if n is None:
        size = len(s) if binary and len(s) >= 2 and not len(s) & (len(s) - 1) else 4 * len(body)
        if size & (size - 1):
            raise ValueError(f"cannot infer qubit count from {text!r}")
        n = size.bit_length() - 1
    _check_n(n)
    size = 1 << n
    if binary and len(s) == size:
        return TruthTable.from_string(s)
    bits = np.unpackbits(np.frombuffer(packed, np.uint8))
    if bits[:-size].any():
        raise ValueError(f"{text!r} does not fit a {size}-bit truth table")
    return TruthTable(n, bits[-size:].tobytes().rjust(size, b"\0"))


def is_invariant_under(tt: TruthTable, delta) -> bool:
    """True iff f(x) = f(x XOR delta) for every input x."""
    if len(delta) != tt.n or any(b not in (0, 1) for b in delta):
        raise ValueError(f"delta must be {tt.n} bits of 0 or 1, got {tuple(delta)}")
    f = np.frombuffer(tt.table, np.uint8)
    return bool(np.array_equal(f, f[np.arange(f.size) ^ bits_to_int(tuple(delta))]))


def _check_decimal_digits(n: int) -> None:
    """Raise ValueError when the decimal field of a line for n, up to the
    digits of 2^(2^n) - 1, may pass Python's int-to-str limit."""
    digits = math.ceil((1 << n) * math.log10(2))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and digits > limit:
        raise ValueError(f"n={n} takes up to {digits} decimal digits, over the limit of {limit}")


def function_line(tt: TruthTable) -> str:
    """One-line listing form: "<binary> <hex> <decimal> <class>".  It derives
    each field from the table on its own, through `str`, `padded_hex`, the
    value and `classify`, so it is the reference that `function_lines` is
    tested against.  Raises ValueError when the decimal field may pass
    Python's int-to-str limit."""
    _check_decimal_digits(tt.n)
    return f"{tt} {padded_hex(tt)} {tt.value} {classify(tt).value}"


def listing_bytes(n: int) -> int:
    """Size of the listing for n with every line at the widest: 2^n binary
    and 2^n/4 hex digits, the decimal digits of 2^(2^n) - 1, the class name,
    three spaces and a newline, on each of 2^(n+1) lines."""
    size = 1 << n
    width = size + max(1, size // 4) + math.ceil(size * math.log10(2)) + len("Positive") + 4
    return width << (n + 1)


# str.translate tables: complement binary digits, and hex digits d to F - d.
_FLIP_TEXT = str.maketrans("01", "10")
_FLIP_HEX = str.maketrans("0123456789ABCDEF", "FEDCBA9876543210")
_LABELS = {"0": FunctionClass.POSITIVE.value, "1": FunctionClass.NEGATIVE.value}


def _double_line(half: tuple[str, str, int]) -> tuple[tuple[str, str, int], ...]:
    """`_ascending`'s doubling on (binary text, hex text, value) triples: the
    texts concatenate, complemented by translation, and the values shift.  A
    half of 4 or more entries has whole hex digits; below that the hex is
    the value's single digit."""
    text, hex_text, value = half
    size = len(text)
    flip_text = text.translate(_FLIP_TEXT)
    same, flip = (value << size) | value, (value << size) | ((1 << size) - 1 - value)
    if size < 4:
        return (text + text, format(same, "X"), same), (text + flip_text, format(flip, "X"), flip)
    return (
        (text + text, hex_text + hex_text, same),
        (text + flip_text, hex_text + hex_text.translate(_FLIP_HEX), flip),
    )


def function_lines(n: int) -> Iterator[str]:
    """Stream `function_line` of every table of `iter_tables`, newline ended.

    The same doubling walk builds each line's binary, hex and decimal value
    as it goes, so `str(value)` is the only conversion a line takes; the
    class is the leading entry, which the walk chose.  A listing over
    CAPS["listing"], or a decimal field past Python's int-to-str limit,
    raises here, so before the first line.
    """
    lines = _walk(n, (("0", "0", 0), ("1", "1", 1)), _double_line)
    _check_cap("listing", listing_bytes(n), f"the listing for n={n}")
    _check_decimal_digits(n)
    return (f"{text} {hex_text} {value} {_LABELS[text[0]]}\n" for text, hex_text, value in lines)
