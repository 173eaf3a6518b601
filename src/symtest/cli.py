"""Command-line front end.

Function arguments are binary or hex ("$3C3C", "0x69", bare hex); state
arguments are signed bitstrings including the ancilla bit ("+10001").
Everything is deterministic, so there are no seed flags.  Exit codes:
0 success, 1 domain error (error name on stderr), 2 usage error.

The parser is built once per process, on the first `dispatch`: parsing
leaves it unchanged, and it looks up sys.stdout and sys.stderr only when
it prints.
"""

import argparse
import functools
import sys

from . import boolfunc, charts, circuits, pipeline, statevec
from .bitops import format_bits
from .boolfunc import FunctionClass, NotAdmissibleError, TruthTable
from .oracle import QuantumOracle, matrix_lines
from .statevec import EntangledError, NotBasisStateError, StateVector


def parse_function(text: str, n: int | None = None) -> TruthTable:
    """Decode a function argument, inferring n from the string when needed."""
    return boolfunc.hex_decode(text, n)


def parse_fault(text: str) -> pipeline.Fault:
    """Grammar: skip:<layer>:<qubit> | rotate:<layer>:<qubit>:<radians> | corrupt:<index>."""
    parts = text.split(":")
    kind = parts[0].lower()
    try:
        if kind == "skip" and len(parts) == 3:
            return pipeline.SkipHadamard(parts[1], int(parts[2]))
        if kind == "rotate" and len(parts) == 4:
            return pipeline.RotateQubit(parts[1], int(parts[2]), float(parts[3]))
        if kind == "corrupt" and len(parts) == 2:
            return pipeline.CorruptOracleEntry(int(parts[1]))
    except ValueError as e:
        raise ValueError(f"malformed fault spec {text!r}: {e}") from None
    raise ValueError(f"malformed fault spec {text!r}")


def _cmd_gen(args) -> int:
    sys.stdout.writelines(boolfunc.function_lines(args.n))
    return 0


def _cmd_classify(args) -> int:
    cls = boolfunc.classify(parse_function(args.function))
    print(cls.value)
    return 0 if cls is not FunctionClass.NOT_ADMISSIBLE else 1


def _cmd_parity(args) -> int:
    pf = boolfunc.to_parity_form(parse_function(args.function))
    print(f"mask={format_bits(pf.mask)} complement={pf.complement} f={pf.expression()}")
    return 0


def _cmd_simulate(args) -> int:
    state = statevec.parse_ket(args.state)
    f = parse_function(args.function, state.k - 1)
    if args.vector:
        vec = pipeline.run_vector(f, state)
        print(statevec.format_vector(vec))
        return 0
    print(pipeline.run(f, state).output)
    return 0


def _cmd_predict(args) -> int:
    state = statevec.parse_ket(args.state)
    f = parse_function(args.function, state.k - 1)
    print(pipeline.predict(f, state).output)
    return 0


def _cmd_solve(args) -> int:
    tt = pipeline.solve_function(statevec.parse_ket(args.input), statevec.parse_ket(args.output))
    print(boolfunc.padded_hex(tt))
    return 0


def _cmd_catalog(args) -> int:
    print(charts.render(charts.build_catalog(args.n), args.format), end="")
    return 0


def _cmd_chart(args) -> int:
    print(charts.render(charts.build_chart(args.n), args.format, signed=args.signed), end="")
    return 0


def _cmd_equiv(args) -> int:
    f = parse_function(args.function)
    wired = circuits.pipeline_as_circuit(f)
    compiled = circuits.compile_equivalent(f)
    ok = circuits.equivalent(wired, compiled, last_bit=1)
    print(wired)
    print("--")
    print(compiled)
    print("equivalent" if ok else "not equivalent")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    report = pipeline.verify_all(args.n)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_fault(args) -> int:
    state = statevec.parse_ket(args.state)
    f = parse_function(args.function, state.k - 1)
    fault = parse_fault(args.fault) if args.fault else None
    p = pipeline.success_probability(f, state, fault)
    print(f"{p:.12g}")
    return 0


def _cmd_factor(args) -> int:
    v = statevec.parse_vector(args.vector)
    factors = statevec.factor_product_state(v, tolerance=args.tolerance)
    lines = [statevec.format_vector(StateVector(pair)) for pair in factors]
    print("\n".join(lines))  # nothing is printed unless every factor formats
    return 0


def _cmd_matrix(args) -> int:
    m = QuantumOracle(parse_function(args.function)).matrix()
    sys.stdout.writelines(matrix_lines(m))  # a block of rows at a time, never the whole text
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: every call returns it, so no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="symtest",
        description="Simulate, predict, and chart symmetric/antisymmetric quantum test functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, **arguments):
        p = sub.add_parser(name, help=help)
        for arg, kwargs in arguments.items():
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
        return p

    # Each flag goes only on the subcommands that read it.
    add("gen", _cmd_gen, "list all admissible functions for n", n={"type": int})
    add("classify", _cmd_classify, "Positive, Negative, or NotAdmissible", function={})
    add("parity", _cmd_parity, "mask and complement of an admissible function", function={})
    p = add(
        "simulate",
        _cmd_simulate,
        "run the Hadamard-oracle-Hadamard pipeline",
        function={},
        state={},
    )
    p.add_argument("--vector", action="store_true", help="print the final state vector")
    add("predict", _cmd_predict, "analytic pipeline output (no simulation)", function={}, state={})
    add("solve", _cmd_solve, "function mapping one state to another", input={}, output={})
    p = add("catalog", _cmd_catalog, "positive-function catalog for n", n={"type": int})
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p = add("chart", _cmd_chart, "input/output mapping chart for n", n={"type": int})
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--signed", action="store_true", help="annotate negative counterparts")
    add("equiv", _cmd_equiv, "check wiring vs compiled equivalent", function={})
    add("verify", _cmd_verify, "exhaustive run-vs-predict sweep for n", n={"type": int})
    p = add(
        "fault",
        _cmd_fault,
        "success probability under an injected fault",
        function={},
        state={},
    )
    p.add_argument(
        "fault",
        nargs="?",
        default=None,
        help="skip:<layer>:<qubit> | rotate:<layer>:<qubit>:<radians> | corrupt:<index>",
    )
    p = add("factor", _cmd_factor, "split a product state into qubit factors", vector={})
    p.add_argument("--tolerance", type=float, default=1e-9, help="numeric tolerance")
    add("matrix", _cmd_matrix, "print the oracle permutation matrix", function={})
    return parser


_DOMAIN_ERRORS = (NotAdmissibleError, NotBasisStateError, EntangledError)


def dispatch(argv: list[str]) -> int:
    """Route argv to a subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as e:
        name = type(e).__name__
        name = name[: -len("Error")] if name.endswith("Error") else name
        print(f"{name}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
