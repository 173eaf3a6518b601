import contextlib
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from symtest import cli
from symtest.boolfunc import TruthTable, function_line, iter_tables
from symtest.cli import dispatch, parse_fault, parse_function
from symtest.pipeline import CorruptOracleEntry, RotateQubit, SkipHadamard


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate(capsys):
    code, out, _ = run_cli(capsys, "simulate", "0011", "+001")
    assert (code, out) == (0, "+101\n")


def test_simulate_hex_function(capsys):
    code, out, _ = run_cli(capsys, "simulate", "$3333", "+00001")
    assert (code, out) == (0, "+00101\n")


def test_simulate_vector_flag(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--vector", "1111", "+001")
    assert (code, out) == (0, "(0 -1 0 0 0 0 0 0)\n")


def test_simulate_non_admissible_exits_1(capsys):
    code, out, err = run_cli(capsys, "simulate", "0001", "+001")
    assert code == 1
    assert out == ""
    assert err.startswith("NotBasisState:")
    # Amplitudes 7/8 and 1/8 here, which a tolerance of 0.3 would read as the ket +01101.
    code, out, err = run_cli(capsys, "simulate", "0011110000111101", "+00001")
    assert (code, out) == (1, "")
    assert err == (
        "NotBasisState: pipeline output for f=0011110000111101 is not a basis state "
        "(function not admissible)\n"
    )


def test_predict(capsys):
    code, out, _ = run_cli(capsys, "predict", "$3333", "+00001")
    assert (code, out) == (0, "+00101\n")


def test_solve(capsys):
    code, out, _ = run_cli(capsys, "solve", "+10001", "+11101")
    assert (code, out) == (0, "3C3C\n")


def test_classify_positive(capsys):
    code, out, _ = run_cli(capsys, "classify", "0110")
    assert (code, out) == (0, "Positive\n")


def test_classify_not_admissible_exits_1(capsys):
    code, out, _ = run_cli(capsys, "classify", "00010111")
    assert (code, out) == (1, "NotAdmissible\n")


def test_gen(capsys):
    code, out, _ = run_cli(capsys, "gen", "2")
    assert code == 0
    assert out.splitlines() == [
        "0000 0 0 Positive",
        "0011 3 3 Positive",
        "0101 5 5 Positive",
        "0110 6 6 Positive",
        "1001 9 9 Negative",
        "1010 A 10 Negative",
        "1100 C 12 Negative",
        "1111 F 15 Negative",
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_gen_lines_match_function_line(capsys, n):
    # function_line classifies through is_admissible, independently of the
    # construction that gen reads the class from.
    code, out, _ = run_cli(capsys, "gen", str(n))
    assert code == 0
    assert out.splitlines() == [function_line(TruthTable(n, t)) for t in iter_tables(n)]


def test_gen_10_output_matches_its_pinned_digest(capsys):
    code, out, _ = run_cli(capsys, "gen", "10")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "ab655635199d6a642db3bdd14c5bfc34ea2dfa3b068a2de3601d4314c8d36af0"


def test_gen_over_the_listing_cap_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "gen", "13")
    assert (code, out) == (1, "")
    assert "198.7 MiB, over the 64 MiB cap" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_gen_over_the_int_str_limit_prints_nothing(capsys):
    # n = 12's widest decimal field has 1234 digits; the check runs before the first line.
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run_cli(capsys, "gen", "12")
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (1, "")
    assert err == "error: n=12 takes up to 1234 decimal digits, over the limit of 640\n"


def test_gen_at_the_listing_cap_streams_in_little_memory():
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = dispatch(["gen", "12"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20, peak


def test_gen_at_the_listing_cap_finishes_in_a_subprocess():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open(os.devnull, "w") as sink:
        done = subprocess.run(
            [sys.executable, "-m", "symtest.cli", "gen", "12"],
            env=env,
            stdout=sink,
            stderr=subprocess.PIPE,
            text=True,
            timeout=20,
        )
    assert done.returncode == 0, done.stderr


def test_parity(capsys):
    code, out, _ = run_cli(capsys, "parity", "0110")
    assert (code, out) == (0, "mask=11 complement=0 f=x1^x2\n")


def test_parity_not_admissible(capsys):
    code, out, err = run_cli(capsys, "parity", "0001")
    assert code == 1
    assert err.startswith("NotAdmissible:")


def test_catalog_csv(capsys):
    code, out, _ = run_cli(capsys, "catalog", "2", "--format", "csv")
    assert (code, out) == (0, "a,0000,0,0\nb,0011,3,3\nc,0101,5,5\nd,0110,6,6\n")


def test_chart_text(capsys):
    code, out, _ = run_cli(capsys, "chart", "1")
    assert (code, out) == (0, "   01 11\n01 a  b\n11 b  a\n")


def test_equiv(capsys):
    code, out, _ = run_cli(capsys, "equiv", "0011")
    assert code == 0
    assert "CNOT 0 2" in out
    assert out.rstrip().endswith("equivalent")


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "2")
    assert (code, out) == (0, "PASS 64/64\n")


def test_fault_none(capsys):
    code, out, _ = run_cli(capsys, "fault", "0011", "+001")
    assert (code, out) == (0, "1\n")


def test_fault_skip(capsys):
    code, out, _ = run_cli(capsys, "fault", "0011", "+001", "skip:second:0")
    assert (code, out) == (0, "0.5\n")


def test_fault_corrupt(capsys):
    code, out, _ = run_cli(capsys, "fault", "0011", "+001", "corrupt:0")
    assert (code, out) == (0, "0.25\n")


def test_fault_bad_spec(capsys):
    code, _, err = run_cli(capsys, "fault", "0011", "+001", "melt:0")
    assert code == 1
    assert "fault spec" in err


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_fault_non_finite_angle(capsys, angle):
    code, out, err = run_cli(capsys, "fault", "0011", "+001", f"rotate:first:1:{angle}")
    assert (code, out) == (1, "")
    assert err == f"error: rotation angle must be finite, got {angle}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "0110", "--tolerance", "5"),
        ("classify", "0110", "--max-qubits", "-3"),
        ("verify", "2", "--max-qubits", "2"),
        ("fault", "0011", "+001", "--tolerance", "0.1"),
        ("equiv", "0011", "--max-qubits", "4"),
        ("gen", "2", "--tolerance", "0.1"),
        ("factor", "(1 -1)/sqrt(2)", "--max-qubits", "4"),
        ("gen", "2", "--max-qubits", "1"),
        ("simulate", "0011", "+001", "--max-qubits", "2"),
        ("fault", "0011", "+001", "--max-qubits", "2"),
        # simulate and equiv read exact results and take no tolerance.
        ("simulate", "0011110000111101", "+00001", "--tolerance", "0.3"),
        ("simulate", "--vector", "1111", "+001", "--tolerance", "1e-6"),
        ("equiv", "0011", "--tolerance", "1e-6"),
    ],
)
def test_unread_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_flags_where_they_are_read(capsys):
    assert run_cli(capsys, "factor", "(1 -1)/sqrt(2)", "--tolerance", "1e-6")[0] == 0


def test_factor(capsys):
    code, out, _ = run_cli(capsys, "factor", "(1 -1 -1 1 -1 1 1 -1)/sqrt(8)")
    assert code == 0
    assert out == "(1 -1)/√2\n" * 3


def test_factor_entangled(capsys):
    code, _, err = run_cli(capsys, "factor", "(1 0 0 1)/sqrt(2)")
    assert code == 1
    assert err.startswith("Entangled:")


@pytest.mark.parametrize(
    "vector, tolerance, want",
    [
        # Within 0.7 the 0.6 amplitude is dropped, and the kept half is a unit
        # vector again; within 0.5 nothing is dropped and the pair is entangled.
        ("(0.6 0 0 0.8)", "0.7", (0, "(0 1)\n(0 1)\n", "")),
        ("(0.6 0 0 0.8)", "0.5", (1, "", "Entangled: vector has no single-qubit factorization\n")),
        # Both halves are within 1; the empty one is dropped, not divided by.
        ("(1 0 0 0)", "1", (0, "(1 0)\n(1 0)\n", "")),
    ],
)
def test_factor_drops_a_half_within_the_tolerance(capsys, vector, tolerance, want):
    assert run_cli(capsys, "factor", vector, "--tolerance", tolerance) == want


@pytest.mark.parametrize("vector", ["(nan 0)", "(0 nan)", "(inf 0)", "(0 0)/sqrt(0)"])
def test_factor_rejects_non_finite_vector(capsys, vector):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "factor", vector)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        # The tolerance is refused before anything is factored: a product of
        # three qubits, an entangled pair and a single qubit all get the same error.
        ("factor", "(1 -1 -1 1 -1 1 1 -1)/sqrt(8)"),
        ("factor", "(1 0 0 1)/sqrt(2)"),
        ("factor", "(1 -1)/sqrt(2)"),
    ],
)
def test_bad_tolerance_is_rejected(capsys, argv, tolerance):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--tolerance", tolerance)
    assert (code, out) == (1, "")
    shown = {"nan": "nan", "inf": "inf", "-1": "-1.0"}[tolerance]
    assert err == f"error: tolerance must be finite and non-negative, got {shown}\n"


def test_rejection_messages_stay_short(capsys):
    # A non-admissible n = 16 function: its table alone is 65,536 characters.
    function = "$8" + "0" * 16383
    code, _, err = run_cli(capsys, "parity", function)
    assert code == 1
    assert err.startswith("NotAdmissible: $8000000000000000... (n=16)")
    assert len(err) < 200
    code, _, err = run_cli(capsys, "simulate", function, "+" + "0" * 16 + "1")
    assert code == 1
    assert err.startswith("NotBasisState:")
    assert len(err) < 200
    # Up to 64 entries the table is still named in full.
    code, _, err = run_cli(capsys, "parity", "$8" + "0" * 15)
    assert err == f"NotAdmissible: 1{'0' * 63} is not an affine parity function\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "0011", ""),
        ("simulate", "0011", "  "),
        ("fault", "0011", "+"),
        ("solve", "", "+01"),
        ("solve", "+01", "-"),
    ],
)
def test_empty_state_argument(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: not a bit string")


def test_matrix(capsys):
    code, out, _ = run_cli(capsys, "matrix", "01")
    assert code == 0
    assert out == "1 0 0 0\n0 1 0 0\n0 0 0 1\n0 0 1 0\n"


def test_usage_error_is_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "0011")
    assert code == 2
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_carries_no_flag_or_positional_over(capsys):
    # One process, one parser: each second command leaves out what the first gave.
    signed_csv = (
        ",001,011,101,111\n001,±a,±c,±b,±d\n011,±c,±a,±d,±b\n"
        "101,±b,±d,±a,±c\n111,±d,±b,±c,±a\n"
    )
    text = (
        "    001 011 101 111\n001 a   c   b   d\n011 c   a   d   b\n"
        "101 b   d   a   c\n111 d   b   c   a\n"
    )
    entangled = "Entangled: vector has no single-qubit factorization\n"
    usage = (
        "usage: symtest simulate [-h] [--vector] function state\n"
        "symtest simulate: error: the following arguments are required: state\n"
    )
    steps = [
        (("simulate", "--vector", "1111", "+001"), (0, "(0 -1 0 0 0 0 0 0)\n", "")),
        (("simulate", "1111", "+001"), (0, "-001\n", "")),
        (("chart", "2", "--signed", "--format", "csv"), (0, signed_csv, "")),
        (("chart", "2"), (0, text, "")),
        (("fault", "0011", "+001", "skip:first:0"), (0, "0.5\n", "")),
        (("fault", "0011", "+001"), (0, "1\n", "")),
        (("factor", "(0.6 0 0 0.8)", "--tolerance", "0.7"), (0, "(0 1)\n(0 1)\n", "")),
        (("factor", "(0.6 0 0 0.8)"), (1, "", entangled)),
        (("simulate", "0011"), (2, "", usage)),
        (("simulate", "0011", "+001"), (0, "+101\n", "")),
    ]
    for argv, want in steps:
        assert run_cli(capsys, *argv) == want, argv


def test_help_is_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "simulate" in out


def test_parse_function_inference():
    assert parse_function("0011").n == 2
    assert parse_function("$3C3C").n == 4
    assert parse_function("0x69").n == 3
    assert parse_function("69").n == 3
    with pytest.raises(ValueError):
        parse_function("123")  # 12 bits is not a power of two
    with pytest.raises(ValueError):
        parse_function("$zz")
    for text in ("0_FF", "$0x00FF", "$+FF"):  # int(..., 16) takes each of these
        with pytest.raises(ValueError, match="malformed function string"):
            parse_function(text)


def test_parse_fault_grammar():
    assert parse_fault("skip:first:0") == SkipHadamard("first", 0)
    assert parse_fault("rotate:second:1:0.5") == RotateQubit("second", 1, 0.5)
    assert parse_fault("corrupt:3") == CorruptOracleEntry(3)
    for bad in ("skip:first", "rotate:first:1", "corrupt:x", "skip:first:one", "nope"):
        with pytest.raises(ValueError):
            parse_fault(bad)
