from fractions import Fraction

import pytest

from hadamardesque import (
    DenseMatrix,
    FormatError,
    SqrtRational,
    format_matrix,
    parse_matrix,
)


EXACT_TEXT = """2 3
1 -3/4 sqrt(2)
0 2 -sqrt(1/2)
"""


def test_exact_roundtrip():
    matrix = parse_matrix(EXACT_TEXT)
    assert matrix.is_exact
    assert matrix.entries[0][1:] == (Fraction(-3, 4), SqrtRational.sqrt(2))
    assert format_matrix(matrix) == EXACT_TEXT
    assert parse_matrix(format_matrix(matrix)) == matrix


def test_auto_mode_switches_to_float():
    matrix = parse_matrix("1 2\n0.5 2\n")
    assert not matrix.is_exact
    assert matrix.entries == ((0.5, 2.0),)


def test_float_roundtrip():
    matrix = parse_matrix("2 2\n0.5 -1.25\n3.0 2.0\n")
    assert not matrix.is_exact
    assert parse_matrix(format_matrix(matrix)) == matrix


def test_exact_mode_rejects_decimals():
    with pytest.raises(FormatError, match=r"line 2.*'1\.5'"):
        parse_matrix("1 2\n1.5 2\n", exact=True)


def test_header_errors():
    with pytest.raises(FormatError, match="header"):
        parse_matrix("not a header\n1 2\n")
    with pytest.raises(FormatError, match="positive"):
        parse_matrix("0 2\n")
    with pytest.raises(FormatError, match="empty"):
        parse_matrix("   \n")


def test_row_count_and_width_errors():
    with pytest.raises(FormatError, match="expected 2 rows"):
        parse_matrix("2 2\n1 1\n")
    with pytest.raises(FormatError, match="line 3: expected 2 entries"):
        parse_matrix("2 2\n1 1\n1\n")


def test_bad_token_names_line():
    with pytest.raises(FormatError, match="line 2"):
        parse_matrix("1 2\nfoo 1\n", exact=True)


def test_ragged_or_empty_rows_are_rejected():
    with pytest.raises(ValueError, match="equal length"):
        DenseMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError, match="at least one row"):
        DenseMatrix(())
    with pytest.raises(ValueError, match="at least one row"):
        DenseMatrix(((),))


def test_accessors():
    matrix = parse_matrix("2 3\n1 2 3\n4 5 6\n")
    assert matrix.shape == (2, 3)
    assert matrix.row(2) == (4, 5, 6)
    with pytest.raises(IndexError):
        matrix.row(3)
    with pytest.raises(IndexError):
        matrix.row(0)


def _counting(monkeypatch, name):
    """Patch hadamardesque.dense.<name> with a wrapper that counts its calls."""
    import hadamardesque.dense as dense

    calls = []
    real = getattr(dense, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(dense, name, counted)
    return calls


@pytest.mark.parametrize("exact", [False, True], ids=["auto", "exact"])
def test_parse_work_is_one_call_per_distinct_token(monkeypatch, exact):
    rows = [["3/4", "-3/4", "sqrt(2)", "3/4"], ["-3/4", "3/4", "-sqrt(2)", "6/8"],
            ["sqrt(2)", "sqrt(2)", "-sqrt(2)", "-3/4"]]
    text = "3 4\n" + "".join(" ".join(row) + "\n" for row in rows)
    calls = _counting(monkeypatch, "parse_scalar")
    matrix = parse_matrix(text, exact=exact)
    distinct = list(dict.fromkeys(tok for row in rows for tok in row))
    assert calls == distinct  # 12 entries, 5 distinct tokens, first-occurrence order
    assert matrix.entries[0][0] is matrix.entries[1][1] is matrix.entries[0][3]
    assert matrix.entries[0][0] == matrix.entries[1][3]  # "6/8" is its own token


def test_auto_float_conversion_is_one_call_per_distinct_token(monkeypatch):
    calls = _counting(monkeypatch, "_finite_float")
    matrix = parse_matrix("2 3\n0.5 -1/2 1/2\n-0.5 1/2 -1/2\n")
    assert not matrix.is_exact
    assert len(calls) == 4  # "0.5", "-1/2", "1/2", "-0.5"
    assert matrix.entries == ((0.5, -0.5, 0.5), (-0.5, 0.5, -0.5))


def test_repeated_bad_token_names_the_line_of_its_first_occurrence():
    with pytest.raises(FormatError, match=r"^line 3: .*'x!'"):
        parse_matrix("3 2\n1 1\n1 x!\nx! x!\n")
    # The first bad token in row-major order wins, whichever is repeated.
    with pytest.raises(FormatError, match=r"^line 3: .*'y!'"):
        parse_matrix("3 2\n1 1\ny! 1\nx! y!\n")


def test_repeated_unconvertible_token_names_the_line_of_its_first_occurrence():
    # A 401-digit integer is exact until a decimal forces floats; it then overflows.
    huge = "1" + "0" * 400
    text = f"4 2\n1 1\n1 {huge}\n{huge} 0.5\n{huge} 1\n"
    with pytest.raises(FormatError, match=r"^line 3: non-finite"):
        parse_matrix(text)


def test_format_keeps_equal_entries_of_different_types_apart():
    # 1 and 1.0 are equal (and hash equal) but print as different tokens.
    matrix = DenseMatrix(((1, 1.0, -1), (1.0, 1, -1.0)), is_exact=False)
    assert format_matrix(matrix) == "2 3\n1 1.0 -1\n1.0 1 -1.0\n"


def test_format_work_is_one_call_per_distinct_entry_object(monkeypatch):
    half, root = Fraction(1, 2), SqrtRational.sqrt(2)
    matrix = DenseMatrix(((half, root, half), (-root, half, root)))
    calls = _counting(monkeypatch, "format_scalar")
    assert format_matrix(matrix) == "2 3\n1/2 sqrt(2) 1/2\n-sqrt(2) 1/2 sqrt(2)\n"
    assert len(calls) == 3  # half, root and one -root object
