"""The benchmark's workloads: seeded inputs, the op cycle, and each op's check.

A workload is a fixed cycle of ops that one closed-loop client repeats:
each op starts when the previous one has returned and been checked.
Inputs come from `random.Random(seed)` and numpy only, and each op's
expected result comes from `expected`, so symtest sees nothing but the
generated arguments.  Runs always end on a whole cycle, so the mix of op
kinds is the same in every run.

Command ops go through `symtest.cli.dispatch` in-process with stdout and
stderr captured; `wide` calls the library, because nobody passes a
2^19-entry table on a command line.  Every call looks its target up on
the symtest module at call time, so the tracer's wrappers see it.
"""

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import expected

SIZES = {
    "full": {
        "verify_n": 6,
        "equiv_n": 11,
        "equiv_weight": 6,
        "wide_n": 19,
        "wide_functions": 3,
        "table_n": 16,
        "gen_n": 10,
        "chart_n": 6,
    },
    # The smallest sizes every op accepts; for the benchmark's own tests.
    "smoke": {
        "verify_n": 2,
        "equiv_n": 3,
        "equiv_weight": 2,
        "wide_n": 3,
        "wide_functions": 2,
        "table_n": 4,
        "gen_n": 2,
        "chart_n": 2,
    },
}

# |success probability - expected| allowed for faulted runs: a skipped
# Hadamard leaves an odd butterfly count, which divides by sqrt(2) and
# returns 0.4999999999999999 rather than 0.5.
PROBABILITY_TOLERANCE = 1e-12


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # Returns None when the result is right, else a short description.
    check: Callable[[object], str | None]


def _dispatch(argv: list[str]) -> tuple[int, str, str]:
    from symtest import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind: str, argv: list[str], code: int, out: str, err_prefix: str = "") -> Op:
    """A command whose exit code and stdout must match exactly; stderr must
    start with `err_prefix`, or be empty when that is empty."""

    def check(result) -> str | None:
        got_code, got_out, got_err = result
        if got_code != code:
            return f"exit {got_code}, want {code}: {got_err.strip()[:200]}"
        if got_out != out:
            return f"stdout differs: got {got_out[:80]!r}, want {out[:80]!r}"
        err_ok = got_err.startswith(err_prefix) if err_prefix else not got_err
        if not err_ok:
            return f"stderr {got_err[:80]!r}, want prefix {err_prefix!r}"
        return None

    return Op(kind, lambda: _dispatch(argv), check)


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple(int(c) for c in expected.bit_string(value, width))


class Workload:
    name = ""
    # Op kinds; the first two give main_p50_ref and side_p50_ref.
    kinds: tuple[str, ...] = ()

    def __init__(self, size: str, seed: int):
        self.size = SIZES[size]
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Import symtest and build the program objects the workload keeps;
        for a command workload, that is the CLI module."""
        import symtest.cli  # noqa: F401

    def cycle(self) -> list[Op]:
        raise NotImplementedError


class Sweep(Workload):
    """`verify 6` and, as a third of the ops, `equiv` at n = 11 (12 wires):
    thousands of tiny pipelines per command, so per-call overhead in
    pipeline, oracle and circuits dominates."""

    name = "sweep"
    kinds = ("verify", "equiv")

    def cycle(self) -> list[Op]:
        return [self._verify(), self._verify(), self._equiv()]

    def _verify(self) -> Op:
        n = self.size["verify_n"]
        total = 1 << (2 * n + 2)
        return _cli_op("verify", ["verify", str(n)], 0, f"PASS {total}/{total}\n")

    def _equiv(self) -> Op:
        # The mask weight is fixed so that every equiv simulates the same
        # number of gates; only which wires carry them is seeded.
        n, weight = self.size["equiv_n"], self.size["equiv_weight"]
        mask = sum(1 << (n - 1 - i) for i in self.rng.sample(range(n), weight))
        complement = self.rng.getrandbits(1)
        arg = "$" + expected.table_hex(expected.table(n, mask, complement))
        return _cli_op("equiv", ["equiv", arg], 0, expected.equiv_listing(n, mask, complement))


class Wide(Workload):
    """Fault-free `run` and faulted `success_probability` at n = 19 (20
    qubits): 8 MiB float64 states outgrow L2, so statevec butterfly copies
    dominate; no CLI parsing."""

    name = "wide"
    kinds = ("run", "fault")

    def setup(self) -> None:
        from symtest import boolfunc, pipeline, statevec

        self.pipeline, self.statevec = pipeline, statevec
        n = self.size["wide_n"]
        self.functions = []
        for _ in range(self.size["wide_functions"]):
            mask, complement = self.rng.getrandbits(n), self.rng.getrandbits(1)
            form = boolfunc.ParityForm(n, _bits(mask, n), complement)
            self.functions.append((mask, complement, boolfunc.from_parity_form(form)))

    def cycle(self) -> list[Op]:
        return [
            self._run(),
            self._fault("skip"),
            self._run(),
            self._fault("rotate"),
            self._run(),
            self._fault("corrupt"),
        ]

    def _input(self):
        n = self.size["wide_n"]
        mask, complement, tt = self.rng.choice(self.functions)
        x, sign = self.rng.getrandbits(n), self.rng.choice((1, -1))
        return mask, complement, tt, x, sign, self.statevec.BasisKet(sign, _bits(x, n) + (1,))

    def _run(self) -> Op:
        n = self.size["wide_n"]
        mask, complement, tt, x, sign, ket = self._input()
        want_sign, want_x = expected.pipeline_output(n, mask, complement, sign, x)
        want_bits = _bits(want_x, n) + (1,)

        def check(result) -> str | None:
            got = result.output
            if (got.sign, got.bits, result.ancilla_ok) != (want_sign, want_bits, True):
                return f"run gave {got.sign:+d}|{got.bits}>, want {want_sign:+d}|{want_bits}>"
            return None

        return Op("run", lambda: self.pipeline.run(tt, ket), check)

    def _fault(self, kind: str) -> Op:
        n, rng, p = self.size["wide_n"], self.rng, self.pipeline
        _, _, tt, _, _, ket = self._input()
        layer, qubit = rng.choice(("first", "second")), rng.randrange(n + 1)
        if kind == "skip":
            fault, want = p.SkipHadamard(layer, qubit), expected.skip_probability()
        elif kind == "rotate":
            angle = rng.uniform(0.05, 1.5)
            fault, want = p.RotateQubit(layer, qubit, angle), expected.rotate_probability(angle)
        else:
            fault = p.CorruptOracleEntry(rng.randrange(1 << n))
            want = expected.corrupt_probability(n)

        def check(result) -> str | None:
            if abs(result - want) > PROBABILITY_TOLERANCE:
                return f"{fault} gave probability {result!r}, want {want!r}"
            return None

        return Op("fault", lambda: self.pipeline.success_probability(tt, ket, fault), check)


class Tables(Workload):
    """`classify`, `parity`, `predict` and `solve` at n = 16, plus `gen 10`
    and `chart 6` at low shares: truth-table decode, encode, validation and
    admissibility, with no state-vector work."""

    name = "tables"
    kinds = ("table", "gen", "chart")
    _REJECTED = "NotAdmissible: "

    def __init__(self, size: str, seed: int):
        super().__init__(size, seed)
        self._gen_listing = None
        self._chart_listings = {}

    def cycle(self) -> list[Op]:
        # A quarter of the classify/parity/predict functions have one
        # flipped entry; rejecting them is the correct outcome.
        flipped = {cmd: self.rng.randrange(4) for cmd in ("classify", "parity", "predict")}
        ops = []
        for j in range(4):
            ops += [self._table(cmd, flipped[cmd] == j) for cmd in flipped]
            ops.append(self._solve())
            if j == 1:
                ops.append(self._gen())
            elif j != 3:
                ops.append(self._chart())
        return ops

    def _signed_ket(self) -> tuple[int, int]:
        return self.rng.choice((1, -1)), self.rng.getrandbits(self.size["table_n"])

    def _table(self, cmd: str, flip: bool) -> Op:
        n, rng = self.size["table_n"], self.rng
        mask, complement = rng.getrandbits(n), rng.getrandbits(1)
        bits = expected.table(n, mask, complement)
        if flip:
            bits[rng.randrange(1 << n)] ^= 1
        arg = "$" + expected.table_hex(bits)
        if cmd == "classify":
            return _cli_op(
                "table", [cmd, arg], int(flip), expected.classify(complement, not flip) + "\n"
            )
        argv = [cmd, arg]
        if cmd == "parity":
            want = expected.parity_line(n, mask, complement)
        else:
            sign, x = self._signed_ket()
            argv.append(expected.ket(sign, x, n))
            want = expected.ket(*expected.pipeline_output(n, mask, complement, sign, x), n)
        if flip:
            return _cli_op("table", argv, 1, "", self._REJECTED)
        return _cli_op("table", argv, 0, want + "\n")

    def _solve(self) -> Op:
        n = self.size["table_n"]
        (s_in, x), (s_out, y) = self._signed_ket(), self._signed_ket()
        want = expected.table_hex(expected.table(n, x ^ y, int(s_in != s_out)))
        argv = ["solve", expected.ket(s_in, x, n), expected.ket(s_out, y, n)]
        return _cli_op("table", argv, 0, want + "\n")

    def _gen(self) -> Op:
        n = self.size["gen_n"]
        if self._gen_listing is None:
            self._gen_listing = expected.gen_listing(n)
        return _cli_op("gen", ["gen", str(n)], 0, self._gen_listing)

    def _chart(self) -> Op:
        n = self.size["chart_n"]
        csv, signed = self.rng.random() < 0.5, self.rng.random() < 0.5
        if (csv, signed) not in self._chart_listings:
            self._chart_listings[csv, signed] = expected.chart_listing(n, csv, signed)
        argv = ["chart", str(n)] + (["--format", "csv"] if csv else []) + (["--signed"] if signed else [])
        return _cli_op("chart", argv, 0, self._chart_listings[csv, signed])


WORKLOADS = {w.name: w for w in (Sweep, Wide, Tables)}
