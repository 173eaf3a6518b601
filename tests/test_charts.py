import pytest

from symtest.bitops import CAPS, bits_to_int
from symtest.boolfunc import to_parity_form
from symtest.charts import build_catalog, build_chart, function_id, render
from symtest.pipeline import run
from symtest.statevec import BasisKet

TABLE_N4 = [
    ("a", "0000", 0),
    ("b", "00FF", 255),
    ("c", "0F0F", 3855),
    ("d", "0FF0", 4080),
    ("e", "3333", 13107),
    ("f", "33CC", 13260),
    ("g", "3C3C", 15420),
    ("h", "3CC3", 15555),
    ("i", "5555", 21845),
    ("j", "55AA", 21930),
    ("k", "5A5A", 23130),
    ("l", "5AA5", 23205),
    ("m", "6666", 26214),
    ("n", "6699", 26265),
    ("o", "6969", 26985),
    ("p", "6996", 27030),
]


def test_catalog_n4_matches_reference_table():
    catalog = build_catalog(4)
    got = [(label, format(t.value, "04X"), t.value) for label, t in catalog.entries]
    assert got == TABLE_N4


def test_catalog_n2():
    catalog = build_catalog(2)
    assert [(label, str(t)) for label, t in catalog.entries] == [
        ("a", "0000"),
        ("b", "0011"),
        ("c", "0101"),
        ("d", "0110"),
    ]


def test_catalog_n3_hex_column():
    catalog = build_catalog(3)
    assert [format(t.value, "02X") for _, t in catalog.entries] == [
        "00", "0F", "33", "3C", "55", "5A", "66", "69",
    ]


def test_catalog_entries_strictly_ascending():
    for n in range(1, 7):
        values = [t.value for _, t in build_catalog(n).entries]
        assert values == sorted(values)
        assert len(set(values)) == 1 << n


def test_catalog_table_for():
    catalog = build_catalog(4)
    assert catalog.table_for("g").value == 0x3C3C
    with pytest.raises(KeyError):
        catalog.table_for("z")


def test_chart_reference_cells():
    chart = build_chart(4)
    assert chart.cell(0b1110, 0b1000) == "g"  # output 11101, input 10001
    assert chart.cell(0b0010, 0b0000) == "e"  # output 00101, input 00001
    for x in range(16):
        assert chart.cell(x, x) == "a"


@pytest.mark.parametrize("n", range(1, CAPS["chart"] + 1))
def test_chart_is_latin_square(n):
    chart = build_chart(n)
    ids = {label for label, _ in build_catalog(n).entries}
    for row in chart.cells:
        assert set(row) == ids
    for col in zip(*chart.cells):
        assert set(col) == ids


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_agrees_with_pipeline(n):
    chart = build_chart(n)
    catalog = build_catalog(n)
    for y in range(1 << n):
        for x in range(1 << n):
            f = catalog.table_for(chart.cell(y, x))
            bits = tuple((x >> (n - 1 - i)) & 1 for i in range(n)) + (1,)
            out = run(f, BasisKet(1, bits)).output
            assert out.sign == 1
            assert bits_to_int(out.bits[:-1]) == y


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_symmetry(n):
    chart = build_chart(n)
    for y in range(1 << n):
        for x in range(1 << n):
            assert chart.cell(y, x) == chart.cell(x, y)


def test_chart_second_half_ids_shift_rows():
    # ids i..p sit one row (last output bit flipped) away from their
    # mask-partners a..h: masks differ exactly in the last bit
    chart = build_chart(4)
    catalog = build_catalog(4)
    partner = {}
    for label, table in catalog.entries:
        m = bits_to_int(to_parity_form(table).mask)
        partner[m] = label
    for y in range(16):
        for x in range(16):
            here = chart.cell(y, x)
            there = chart.cell(y ^ 1, x)
            m_here = bits_to_int(to_parity_form(catalog.table_for(here)).mask)
            assert partner[m_here ^ 1] == there


def test_render_catalog_csv_reference():
    assert render(build_catalog(2), "csv") == "a,0000,0,0\nb,0011,3,3\nc,0101,5,5\nd,0110,6,6\n"


def test_render_catalog_text():
    assert render(build_catalog(2), "text") == "a 0 0\nb 3 3\nc 5 5\nd 6 6\n"


def test_render_chart_n1_text():
    assert render(build_chart(1)) == "   01 11\n01 a  b\n11 b  a\n"


def test_render_chart_csv_structure():
    out = render(build_chart(2), "csv")
    lines = out.split("\n")
    assert lines[0] == ",001,011,101,111"
    assert lines[1] == "001,a,c,b,d"
    assert out.endswith("\n")
    assert "\r" not in out


def test_render_signed_annotation():
    out = render(build_chart(1), "csv", signed=True)
    assert "±a" in out and "±b" in out


def test_render_deterministic():
    assert render(build_chart(4)) == render(build_chart(4))
    assert render(build_catalog(4), "csv") == render(build_catalog(4), "csv")


def test_two_letter_ids():
    assert function_id(0) == "a"
    assert function_id(25) == "z"
    assert function_id(26) == "aa"
    assert function_id(27) == "ab"
    catalog = build_catalog(5)
    assert catalog.entries[26][0] == "aa"
    assert len(catalog.entries) == 32


def test_bounds():
    with pytest.raises(ValueError):
        build_catalog(7)
    with pytest.raises(ValueError):
        build_chart(0)


def test_render_rejects_unknown():
    with pytest.raises(ValueError):
        render(build_catalog(2), "yaml")
    with pytest.raises(TypeError):
        render("not a chart")
