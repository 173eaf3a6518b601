"""Bit-vector helpers and the size caps shared across the package.

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


class CapError(ValueError):
    """A request is larger than one of the size caps in CAPS."""


# Every size cap, each set by the budget beside it (2 vCPUs, Python 3.11, numpy 2.4).
CAPS = {
    "n": 20,  # table variables: 2^n bytes, 1 MiB at 20, where hex decode + classify take 5 ms
    "qubits": 20,  # state wires: 2^k float64, 8 MiB at 20, where `run` takes 1.1-1.2 ms
    "equiv": 12,  # assert_equivalent's 2^(k-1) inputs of 2^k amplitudes: 0.05 s at 12, 0.20-0.24 s at 13
    "matrix": 12,  # 4^k one-byte entries: 16 MiB and 32 MiB of text at 12, 4x per qubit more
    "verify": 9,  # 4^(n+1) pipelines: 0.05-0.06 s at 7, 0.26-0.38 s at 8, 1.7-2.6 s at 9
    "chart": 6,  # 2^n rows of 2^n cells: 33 KB of text at 6, 4x per n more
    "listing": 64 << 20,  # gen's bytes, 4x per n: 49.7 MiB (0.24-0.29 s) at n = 12, 198.7 at 13
}


def _check_cap(cap: str, value: int, what: str) -> None:
    """Raise CapError if `value`, as `what` names it, is over CAPS[cap]."""
    limit = CAPS[cap]
    if value > limit and cap == "listing":  # a byte count, shown in MiB
        raise CapError(f"{what} is {value / (1 << 20):.1f} MiB, over the {limit >> 20} MiB cap")
    if value > limit:
        raise CapError(f"{what} exceeds the cap of {limit}")
