"""Boolean functions with recursive symmetry and their affine parity form.

A function on n variables is stored as its truth table: 2^n output bits,
one 0/1 byte each, ordered by input value, x1 being the most significant
input bit (inputs count 00, 01, 10, 11, ...).  The functions of interest
here are the "admissible" ones: tables that are symmetric (equal to their
reversal) or antisymmetric (equal to the complement of their reversal) at
every recursive halving level.  These are exactly the affine parity functions
f(x) = c XOR parity(x AND m), and there are 2^(n+1) of them: 2^n
"positive" (leading bit 0) and 2^n "negative" (leading bit 1).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bitops import bits_to_int

MAX_N = 20

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


def generate_functions(n: int, max_n: int = MAX_N) -> tuple[list[TruthTable], list[TruthTable]]:
    """Build all positive and negative admissible functions on n variables.

    Level 1 is (00), (01) positive and (11), (10) negative.  Each further
    level orders the previous level's tables and concatenates each with
    itself and with its mirror image (its complement, the table at the
    mirrored list position).  Positives come out in construction order,
    which is ascending; negatives are reported in ascending numerical
    order for n >= 2.
    """
    _check_n(n, max_n)
    positives = [b"\0\0", b"\0\1"]
    negatives = [b"\1\1", b"\1\0"]
    for _ in range(n - 1):
        pos: list[bytes] = []
        neg: list[bytes] = []
        for g in sorted(positives + negatives):
            for table in (g + g, g + g.translate(_FLIP)):
                (pos if table[0] == 0 else neg).append(table)
        positives, negatives = pos, sorted(neg)
    return (
        [TruthTable(n, table) for table in positives],
        [TruthTable(n, table) for table in negatives],
    )


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
    """One-line listing form: "<binary> <hex> <decimal> <class>"."""
    return f"{tt} {padded_hex(tt)} {tt.value} {classify(tt).value}"
