import warnings

import pytest

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
    ],
)
def test_unread_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_flags_where_they_are_read(capsys):
    assert run_cli(capsys, "simulate", "0011", "+001", "--tolerance", "1e-6")[:2] == (0, "+101\n")
    assert run_cli(capsys, "simulate", "0011", "+001", "--max-qubits", "2")[0] == 1
    assert run_cli(capsys, "fault", "0011", "+001", "--max-qubits", "2")[0] == 1
    assert run_cli(capsys, "gen", "2", "--max-qubits", "1")[0] == 1
    assert run_cli(capsys, "equiv", "0011", "--tolerance", "1e-6")[0] == 0
    assert run_cli(capsys, "factor", "(1 -1)/sqrt(2)", "--tolerance", "1e-6")[0] == 0


def test_factor(capsys):
    code, out, _ = run_cli(capsys, "factor", "(1 -1 -1 1 -1 1 1 -1)/sqrt(8)")
    assert code == 0
    assert out == "(1 -1)/√2\n" * 3


def test_factor_entangled(capsys):
    code, _, err = run_cli(capsys, "factor", "(1 0 0 1)/sqrt(2)")
    assert code == 1
    assert err.startswith("Entangled:")


@pytest.mark.parametrize("vector", ["(nan 0)", "(0 nan)", "(inf 0)", "(0 0)/sqrt(0)"])
def test_factor_rejects_non_finite_vector(capsys, vector):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "factor", vector)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


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


def test_parse_fault_grammar():
    assert parse_fault("skip:first:0", 2) == SkipHadamard("first", 0)
    assert parse_fault("rotate:second:1:0.5", 2) == RotateQubit("second", 1, 0.5)
    assert parse_fault("corrupt:3", 2) == CorruptOracleEntry(3)
    for bad in ("skip:first", "rotate:first:1", "corrupt:x", "skip:first:one", "nope"):
        with pytest.raises(ValueError):
            parse_fault(bad, 2)
