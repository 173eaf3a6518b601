"""Reference results that the benchmark checks symtest's outputs against.

Everything here is computed from the workload's own inputs with numpy and
the standard library; nothing calls symtest, so a defect in symtest's
encoders, generator or renderers cannot hide inside an expectation.

Conventions match the README: truth-table index i encodes (x1..xn) with
x1 as the most significant bit, and a ket's last bit is the ancilla.
"""

import math

import numpy as np


def bit_string(value: int, width: int) -> str:
    """MSB-first binary digits of `value`, `width` wide."""
    return format(value, f"0{width}b")


def mask_bits(mask: int, n: int) -> list[int]:
    """Positions (0 = x1) of the set bits of an n-bit mask."""
    return [i for i in range(n) if (mask >> (n - 1 - i)) & 1]


def table(n: int, mask: int, complement: int) -> np.ndarray:
    """Truth table of f(x) = complement XOR parity(x AND mask), as 0/1 uint8."""
    idx = np.arange(1 << n, dtype=np.uint32)
    return ((np.bitwise_count(idx & np.uint32(mask)) & 1) ^ complement).astype(np.uint8)


def table_text(bits: np.ndarray) -> str:
    """The table as a string of '0'/'1' characters."""
    return (bits + ord("0")).tobytes().decode("ascii")


def table_value(bits: np.ndarray) -> int:
    return int(table_text(bits), 2)


def table_hex(bits: np.ndarray) -> str:
    """Uppercase hex of the table value, padded to one digit per four entries."""
    return format(table_value(bits), f"0{max(1, bits.size // 4)}X")


def ket(sign: int, x: int, n: int) -> str:
    """Printed form of the signed ket |x, 1> on n+1 wires, e.g. "-0101"."""
    return ("+" if sign > 0 else "-") + bit_string(x, n) + "1"


def pipeline_output(n: int, mask: int, complement: int, sign: int, x: int) -> tuple[int, int]:
    """(sign, x) of H.U_f.H applied to sign|x, 1>: sign.(-1)^c |x XOR m, 1>."""
    return sign * (-1 if complement else 1), x ^ mask


def classify(complement: int, admissible: bool) -> str:
    if not admissible:
        return "NotAdmissible"
    return "Negative" if complement else "Positive"


def parity_line(n: int, mask: int, complement: int) -> str:
    terms = [f"x{i + 1}" for i in mask_bits(mask, n)]
    if complement:
        terms.insert(0, "1")
    expression = "^".join(terms) if terms else "0"
    return f"mask={bit_string(mask, n)} complement={complement} f={expression}"


def skip_probability() -> float:
    return 0.5


def rotate_probability(angle: float) -> float:
    return math.cos(angle) ** 2


def corrupt_probability(n: int) -> float:
    return (1.0 - 2.0 ** (1 - n)) ** 2


def equiv_listing(n: int, mask: int, complement: int) -> str:
    """`symtest equiv` output: the H-CNOT-H wiring, its X-gate equivalent, the verdict."""
    k = n + 1
    hadamards = [f"H {q}" for q in range(k)]
    oracle = [f"CNOT {i} {n}" for i in mask_bits(mask, n)] + ([f"X {n}"] if complement else [])
    wired = [f"wires={k} sign=+1"] + hadamards + oracle + hadamards
    compiled = [f"wires={k} sign={'-1' if complement else '+1'}"]
    compiled += [f"X {i}" for i in mask_bits(mask, n)]
    return "\n".join(wired + ["--"] + compiled + ["equivalent"]) + "\n"


def all_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Truth tables (rows) of every positive function, indexed by mask, and their values."""
    idx = np.arange(1 << n, dtype=np.uint32)
    masks = np.arange(1 << n, dtype=np.uint32)
    rows = (np.bitwise_count(masks[:, None] & idx[None, :]) & 1).astype(np.uint8)
    return rows, [table_value(row) for row in rows]


def gen_listing(n: int) -> str:
    """`symtest gen n`: positives then negatives, each in ascending value order."""
    rows, values = all_tables(n)
    width = max(1, (1 << n) // 4)
    full = (1 << (1 << n)) - 1
    lines = []
    for complement, label in ((0, "Positive"), (1, "Negative")):
        entries = sorted(
            ((value ^ full if complement else value, row ^ complement)
             for value, row in zip(values, rows)),
            key=lambda entry: entry[0],
        )
        lines += [
            f"{table_text(row)} {value:0{width}X} {value} {label}" for value, row in entries
        ]
    return "\n".join(lines) + "\n"


def function_id(i: int) -> str:
    """Spreadsheet-style catalog label: a..z, aa, ab, ..."""
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def chart_listing(n: int, csv: bool, signed: bool) -> str:
    """`symtest chart n`: cell (y, x) is the id of the positive function with mask x XOR y."""
    _, values = all_tables(n)
    rank = {value: r for r, value in enumerate(sorted(values))}
    mask_id = [function_id(rank[value]) for value in values]
    labels = [bit_string(i, n) + "1" for i in range(1 << n)]
    rows = [[("±" if signed else "") + mask_id[y ^ x] for x in range(1 << n)] for y in range(1 << n)]
    if csv:
        lines = ["," + ",".join(labels)]
        lines += [label + "," + ",".join(row) for label, row in zip(labels, rows)]
    else:
        w = n + 1
        lines = [" " * w + " " + " ".join(labels)]
        lines += [
            (label + " " + " ".join(c.ljust(w) for c in row)).rstrip()
            for label, row in zip(labels, rows)
        ]
    return "\n".join(lines) + "\n"
