"""Bit-vector helpers shared across the package.

Bit sequences are MSB-first: element 0 of a vector is the leftmost label
(x1) and the most significant bit of the packed integer.
"""

from collections.abc import Sequence


def bits_to_int(bits: Sequence[int]) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    if value < 0 or value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not a bit string: {text!r}")
    return tuple(int(c) for c in text)


def format_bits(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)
