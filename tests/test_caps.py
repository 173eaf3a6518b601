"""Every size cap in CAPS, at its limit and one past it, through each entry point."""

import itertools
import re
import tracemalloc

import pytest

from symtest import charts, circuits, oracle, pipeline, statevec
from symtest.bitops import CAPS, CapError
from symtest.boolfunc import (
    TruthTable,
    function_lines,
    generate_functions,
    hex_decode,
    iter_tables,
    listing_bytes,
)
from symtest.cli import dispatch
from symtest.statevec import BasisKet

# The smallest n whose listing is over the byte cap; every other cap is a count.
LISTING_N = next(n for n in itertools.count(1) if listing_bytes(n) > CAPS["listing"])


def _ket(k: int) -> BasisKet:
    return BasisKet(1, (0,) * (k - 1) + (1,))


def _qubits(k: int) -> TruthTable:
    """The zero table whose oracle and pipeline act on k qubits."""
    return TruthTable(k - 1, bytes(1 << (k - 1)))


# cap: [(entry point, what its message names, whether the call at the cap is
# cheap enough to run here, and what builds its argument)].  Each entry point
# is given the cap's value or the first value past it: as is, or through its
# builder, which runs before the traced call.
ENTRY_POINTS = {
    "n": [
        (lambda n: TruthTable(n, b""), "n={}", False, int),
        (lambda n: TruthTable.from_value(n, 0), "n={}", True, int),
        (iter_tables, "n={}", True, int),
        (generate_functions, "n={}", False, int),
        (lambda n: hex_decode("0", n), "n={}", True, int),
        (function_lines, "n={}", False, int),
    ],
    "qubits": [
        (statevec.ket_to_vector, "ket on {} qubits", True, _ket),
        (
            lambda k: circuits.simulate_circuit(circuits.Circuit(k), _ket(k)),
            "circuit on {} wires",
            True,
            int,
        ),
        (lambda f: pipeline.run(f, _ket(f.n + 1)), "pipeline on {} qubits", True, _qubits),
        (lambda f: pipeline.run_vector(f, _ket(f.n + 1)), "pipeline on {} qubits", True, _qubits),
        (
            lambda f: pipeline.success_probability(f, _ket(f.n + 1)),
            "pipeline on {} qubits",
            True,
            _qubits,
        ),
    ],
    "equiv": [
        (
            lambda k: circuits.assert_equivalent(
                circuits.Circuit(k), circuits.Circuit(k), inputs=[_ket(k)]
            ),
            "equivalence check on {} wires",
            True,
            int,
        ),
    ],
    "matrix": [(lambda f: oracle.QuantumOracle(f).matrix(), "matrix on {} qubits", True, _qubits)],
    "verify": [(pipeline.verify_all, "verify for n={}", True, int)],
    "chart": [
        (charts.build_catalog, "catalog or chart for n={}", True, int),
        (charts.build_chart, "catalog or chart for n={}", True, int),
    ],
    "listing": [(function_lines, "the listing for n={}", True, int)],
}


def _cases():
    assert set(ENTRY_POINTS) == set(CAPS)
    for cap, entries in ENTRY_POINTS.items():
        for i, entry in enumerate(entries):
            yield pytest.param(cap, *entry, id=f"{cap}-{i}")


@pytest.mark.parametrize("cap,call,what,cheap,build", list(_cases()))
def test_one_past_each_cap_is_refused_before_allocating(cap, call, what, cheap, build):
    """cap + 1 (for the byte cap, the first n past it) is refused with the
    cap's message, under 1 MB of traced memory; the cap itself is accepted."""
    at, past = (LISTING_N - 1, LISTING_N) if cap == "listing" else (CAPS[cap], CAPS[cap] + 1)
    if cap == "listing":
        mib = listing_bytes(past) / (1 << 20)
        message = f"{what.format(past)} is {mib:.1f} MiB, over the {CAPS[cap] >> 20} MiB cap"
    else:
        message = f"{what.format(past)} exceeds the cap of {CAPS[cap]}"
    argument = build(past)
    tracemalloc.start()
    try:
        with pytest.raises(CapError, match=f"^{re.escape(message)}$"):
            call(argument)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    if cheap:
        call(build(at))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", str(CAPS["verify"] + 1)),
        ("chart", str(CAPS["chart"] + 1)),
        ("catalog", str(CAPS["chart"] + 1)),
        ("gen", str(LISTING_N)),
    ],
)
def test_the_cli_refuses_one_past_a_cap_with_exit_1(capsys, argv):
    assert dispatch(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "cap" in captured.err
