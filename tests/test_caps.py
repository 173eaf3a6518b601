"""Every size cap in CAPS, at its limit and one past it, through each entry point."""

import functools
import itertools
import os
import re
import subprocess
import sys
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

try:
    import resource
except ImportError:  # not on Windows
    resource = None

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
        (
            lambda k: circuits.equivalent(circuits.Circuit(k), circuits.Circuit(k)),
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


# x(n-2) ^ x(n-1) ^ xn at n = 11, whose equiv and matrix act on 12 wires, both caps.
_WIDE = "0x" + "69" * (1 << (CAPS["equiv"] - 4))
_RUN_AT_THE_CAP = f"""
from symtest.boolfunc import ParityForm, from_parity_form
from symtest.pipeline import predict, run
from symtest.statevec import BasisKet
n = {CAPS["qubits"] - 1}
f = from_parity_form(ParityForm(n, (1,) * n, 1))
ket = BasisKet(-1, (0, 1) * (n // 2) + (1,) * (n % 2 + 1))
assert run(f, ket) == predict(f, ket)
"""
_CLASSIFY_AT_THE_CAP = f"""
from symtest.boolfunc import FunctionClass, classify, hex_decode
f = hex_decode("69" * {1 << (CAPS["n"] - 3)})
assert (f.n, classify(f)) == ({CAPS["n"]}, FunctionClass.POSITIVE)
"""
# cap: the child's arguments to the interpreter, each running one entry point at the cap.
AT_THE_CAP = {
    "verify": ["-m", "symtest.cli", "verify", str(CAPS["verify"])],
    "equiv": ["-m", "symtest.cli", "equiv", _WIDE],
    "matrix": ["-m", "symtest.cli", "matrix", _WIDE],
    "listing": ["-m", "symtest.cli", "gen", str(LISTING_N - 1)],
    "chart": ["-m", "symtest.cli", "chart", str(CAPS["chart"])],
    "catalog": ["-m", "symtest.cli", "catalog", str(CAPS["chart"])],
    "qubits": ["-c", _RUN_AT_THE_CAP],
    "n": ["-c", _CLASSIFY_AT_THE_CAP],
}


def _child(args, limit=None):
    """Run the interpreter on `args` with the source tree importable, under an
    address-space limit of `limit` bytes (the child's alone) and 30 s of wall clock."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(statevec.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap_memory():
        if limit is not None:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args],
        env=env,
        preexec_fn=cap_memory,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=30,
    )


@functools.cache
def _import_peak() -> int:
    """VmPeak, in bytes, of a child that only imports the CLI and reads its own status."""
    status = "import sys, symtest.cli; sys.stderr.write(open('/proc/self/status').read())"
    done = _child(["-c", status])
    assert done.returncode == 0, done.stderr
    (kb,) = re.findall(r"^VmPeak:\s+(\d+) kB$", done.stderr, re.MULTILINE)
    return int(kb) << 10


@pytest.mark.parametrize("cap", list(AT_THE_CAP))
def test_each_cap_at_its_limit_in_a_child_under_64_mib_over_import(cap):
    """The costliest call each cap admits finishes in 30 s, in an address
    space of the import's peak plus 64 MiB."""
    if resource is None or not os.path.exists("/proc/self/status"):
        pytest.skip("needs the resource module and /proc")
    done = _child(AT_THE_CAP[cap], _import_peak() + (64 << 20))
    assert done.returncode == 0, done.stderr
