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
holds O(2^n) bytes; `function_lines` prints that stream as the listing.
"""

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .bitops import bits_to_int

MAX_N = 20
# The most `gen` may print.  Listings grow 4x per variable; this admits
# n <= 12 (49.7 MiB) and refuses n = 13 (198.7 MiB).
MAX_LISTING_BYTES = 64 << 20

# bytes.translate tables: complement 0/1 entries, and map them to and from text.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")
_TEXT = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")


class NotAdmissibleError(ValueError):
    """The truth table is not an affine parity function."""


class ListingTooLargeError(ValueError):
    """The function listing would be larger than MAX_LISTING_BYTES."""


class FunctionClass(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    NOT_ADMISSIBLE = "NotAdmissible"


def _check_n(n: int, max_n: int = MAX_N) -> None:
    if not 1 <= n <= max_n:
        raise ValueError(f"n must be in 1..{max_n}, got {n}")


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


def _ascending(n: int, lead: int) -> Iterator[bytes]:
    """Every admissible table on n variables with leading entry `lead`, in
    ascending order, depth first.  Each comes from its first half t, one
    such table on n - 1 variables, as t+t or t+complement(t), and t+t is the
    smaller exactly when t's leading entry is 0."""
    if n == 0:
        yield bytes([lead])
        return
    for t in _ascending(n - 1, lead):
        same, flip = t + t, t + t.translate(_FLIP)
        yield from (flip, same) if lead else (same, flip)


def iter_tables(n: int, max_n: int = MAX_N) -> Iterator[bytes]:
    """Stream the 0/1 byte table of every admissible function on n variables.

    Positives come first, in ascending order, then negatives: ascending for
    n >= 2, and (11), (10) for n = 1 as in the paper's listing.  The stream
    is depth first, so it holds one table per level, O(2^n) bytes in all.
    """
    _check_n(n, max_n)
    negatives = (b"\1\1", b"\1\0") if n == 1 else _ascending(n, 1)
    return chain(_ascending(n, 0), negatives)


def generate_functions(n: int, max_n: int = MAX_N) -> tuple[list[TruthTable], list[TruthTable]]:
    """All positive and negative admissible functions on n variables, as
    lists in the order of `iter_tables`.

    The lists hold 2^(n+1) tables of 2^n entries, O(4^n) bytes; callers
    that only read each table once should take the stream instead.
    """
    tables = [TruthTable(n, table) for table in iter_tables(n, max_n)]
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


def _parity_table(pf: ParityForm) -> bytes:
    """Table of c XOR parity(x AND m), doubled once per variable: the new,
    more significant variable copies the table, or its complement where
    its mask bit is set.  x_n is the least significant index bit, so the
    mask is read from the end."""
    t = bytes([pf.complement])
    for bit in reversed(pf.mask):
        t += t.translate(_FLIP) if bit else t
    return t


def to_parity_form(tt: TruthTable) -> ParityForm:
    """Extract (mask, complement) with mask bit i = f(e_i) XOR f(0).

    The candidate form is checked against the whole table; a table that
    is not an affine parity function raises NotAdmissibleError.
    """
    t = tt.table
    c = t[0]
    pf = ParityForm(tt.n, tuple(t[1 << (tt.n - 1 - i)] ^ c for i in range(tt.n)), c)
    if _parity_table(pf) != t:
        raise NotAdmissibleError(f"{tt.brief()} is not an affine parity function")
    return pf


def from_parity_form(pf: ParityForm) -> TruthTable:
    return TruthTable(pf.n, _parity_table(pf))


def classify(tt: TruthTable) -> FunctionClass:
    if not is_admissible(tt):
        return FunctionClass.NOT_ADMISSIBLE
    return FunctionClass.NEGATIVE if tt.table[0] else FunctionClass.POSITIVE


def padded_hex(tt: TruthTable) -> str:
    """Uppercase hex of the table value, zero-padded to one digit per 4 bits."""
    return format(tt.value, f"0{max(1, (1 << tt.n) // 4)}X")


def hex_decode(text: str, n: int, max_n: int = MAX_N) -> TruthTable:
    """Parse a truth table from a binary or hex string.

    Accepts a bare binary string of exactly 2^n bits, or hex with a "$"
    or "0x" prefix, or bare hex.  A bare all-0/1 string whose length is
    not 2^n is read as hex.
    """
    _check_n(n, max_n)
    size = 1 << n
    s = text.strip()
    if len(s) == size and not s.strip("01"):
        return TruthTable.from_string(s)
    try:
        value = int(s.removeprefix("$"), 16)  # base-16 int() takes a "0x" prefix itself
    except ValueError:
        raise ValueError(f"malformed function string: {text!r}") from None
    if value >> size:
        raise ValueError(f"{text!r} does not fit a {size}-bit truth table")
    return TruthTable.from_value(n, value)


def is_invariant_under(tt: TruthTable, delta) -> bool:
    """True iff f(x) = f(x XOR delta) for every input x."""
    if len(delta) != tt.n:
        raise ValueError(f"delta must have {tt.n} bits, got {len(delta)}")
    f = np.frombuffer(tt.table, np.uint8)
    return bool(np.array_equal(f, f[np.arange(f.size) ^ bits_to_int(tuple(delta))]))


def function_line(tt: TruthTable) -> str:
    """One-line listing form: "<binary> <hex> <decimal> <class>".  Raises
    ValueError when the decimal field may pass Python's int-to-str limit."""
    digits = math.ceil((1 << tt.n) * math.log10(2))  # of 2^(2^n) - 1, the widest
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and digits > limit:
        raise ValueError(f"n={tt.n} takes up to {digits} decimal digits, over the limit of {limit}")
    return f"{tt} {padded_hex(tt)} {tt.value} {classify(tt).value}"


def listing_bytes(n: int) -> int:
    """Size of the listing for n with every line at the widest: 2^n binary
    and 2^n/4 hex digits, the decimal digits of 2^(2^n) - 1, the class name,
    three spaces and a newline, on each of 2^(n+1) lines."""
    size = 1 << n
    width = size + max(1, size // 4) + math.ceil(size * math.log10(2)) + len("Positive") + 4
    return width << (n + 1)


def function_lines(n: int, max_n: int = MAX_N) -> Iterator[str]:
    """Stream `function_line` of every table of `iter_tables`, newline ended.

    A listing over MAX_LISTING_BYTES raises ListingTooLargeError here, so
    before the first line.
    """
    tables = iter_tables(n, max_n)
    size = listing_bytes(n)
    if size > MAX_LISTING_BYTES:
        raise ListingTooLargeError(
            f"the listing for n={n} is {size / (1 << 20):.1f} MiB, "
            f"over the {MAX_LISTING_BYTES >> 20} MiB cap"
        )
    return _lines(tables, max(1, (1 << n) // 4))


def _lines(tables: Iterator[bytes], digits: int) -> Iterator[str]:
    """One int conversion per table gives both number fields; the class is
    the leading entry, which the construction chose."""
    labels = (FunctionClass.POSITIVE.value, FunctionClass.NEGATIVE.value)
    for table in tables:
        text = table.translate(_TEXT).decode("ascii")
        value = int(text, 2)
        yield f"{text} {value:0{digits}X} {value} {labels[table[0]]}\n"
