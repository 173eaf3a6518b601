"""Function catalogs and input/output mapping charts.

The catalog lists the positive functions for one n in ascending numeric
order, labeled a, b, c, ...  The chart is the full input-state versus
output-state grid: cell (y, x) holds the id of the one positive function
mapping +|x,1> to +|y,1>, namely the function with mask x XOR y.  Every
row and column contains each id exactly once (a Latin square).  Negative
functions reach the same cells with the output sign flipped; the signed
render flag annotates that.
"""

from dataclasses import dataclass
from itertools import islice

from .bitops import _check_cap, format_bits, int_to_bits
from .boolfunc import TruthTable, iter_tables, padded_hex, to_parity_form


def function_id(i: int) -> str:
    """Spreadsheet-style label: a..z, then aa, ab, ..."""
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


@dataclass(frozen=True)
class FunctionCatalog:
    n: int
    entries: tuple[tuple[str, TruthTable], ...]

    def table_for(self, id: str) -> TruthTable:
        for label, tt in self.entries:
            if label == id:
                return tt
        raise KeyError(id)


@dataclass(frozen=True)
class MappingChart:
    n: int
    labels: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]

    def cell(self, output_index: int, input_index: int) -> str:
        return self.cells[output_index][input_index]


def build_catalog(n: int) -> FunctionCatalog:
    """All positive functions, ascending, labeled alphabetically."""
    _check_cap("chart", n, f"catalog or chart for n={n}")
    positives = islice(iter_tables(n), 1 << n)  # the first 2^n tables, ascending
    entries = tuple((function_id(i), TruthTable(n, t)) for i, t in enumerate(positives))
    return FunctionCatalog(n, entries)


def build_chart(n: int) -> MappingChart:
    """Grid of function ids: rows are output states, columns input states."""
    catalog = build_catalog(n)  # checks the cap
    mask_id = [""] * (1 << n)
    for label, tt in catalog.entries:
        mask_id[to_parity_form(tt).mask_value] = label
    labels = tuple(format_bits(int_to_bits(i, n)) + "1" for i in range(1 << n))
    cells = tuple(
        tuple(mask_id[y ^ x] for x in range(1 << n)) for y in range(1 << n)
    )
    return MappingChart(n, labels, cells)


def render(item, format: str = "text", signed: bool = False) -> str:
    """Deterministic text or CSV rendering of a catalog or chart."""
    if format not in ("text", "csv"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(item, FunctionCatalog):
        return _render_catalog(item, format)
    if isinstance(item, MappingChart):
        return _render_chart(item, format, signed)
    raise TypeError(f"cannot render {type(item).__name__}")


def _render_catalog(catalog: FunctionCatalog, format: str) -> str:
    if format == "csv":
        return "".join(
            f"{label},{tt},{padded_hex(tt)},{tt.value}\n" for label, tt in catalog.entries
        )
    return "".join(f"{label} {padded_hex(tt)} {tt.value}\n" for label, tt in catalog.entries)


def _render_chart(chart: MappingChart, format: str, signed: bool) -> str:
    def cell(id: str) -> str:
        return "±" + id if signed else id

    if format == "csv":
        lines = ["," + ",".join(chart.labels)]
        for label, row in zip(chart.labels, chart.cells):
            lines.append(label + "," + ",".join(cell(c) for c in row))
        return "\n".join(lines) + "\n"
    w = len(chart.labels[0])
    lines = [" " * w + " " + " ".join(chart.labels)]
    for label, row in zip(chart.labels, chart.cells):
        lines.append((label + " " + " ".join(cell(c).ljust(w) for c in row)).rstrip())
    return "\n".join(lines) + "\n"
