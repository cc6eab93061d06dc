import math
from fractions import Fraction

import pytest

from hadamardesque import (
    DenseMatrix,
    FormatError,
    HadamardesqueMatrix,
    SqrtRational,
    WeightedColumn,
    column_set_matrix,
    format_matrix,
    pair_product_table,
    parse_matrix,
    sylvester,
    truth_table,
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
    """Patch hadamardesque.dense.<name> with a wrapper that records its arguments."""
    import hadamardesque.dense as dense

    calls = []
    real = getattr(dense, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dense, name, counted)
    return calls


@pytest.mark.parametrize("exact", [False, True], ids=["auto", "exact"])
def test_parse_work_is_one_call_per_distinct_token(monkeypatch, exact):
    rows = [["3/4", "-3/4", "sqrt(2)", "3/4"], ["-3/4", "3/4", "-sqrt(2)", "6/8"],
            ["sqrt(2)", "sqrt(2)", "-sqrt(2)", "-3/4"]]
    text = "3 4\n" + "".join(" ".join(row) + "\n" for row in rows)
    parses = _counting(monkeypatch, "parse_scalar")
    builds = _counting(monkeypatch, "_build_scalar")
    matrix = parse_matrix(text, exact=exact)
    # 12 entries, 5 distinct tokens: parsing keeps their integers and builds no value.
    assert parses == builds == []
    assert matrix._squares == ((1, (9, 16)), (-1, (9, 16)), (1, (2, 1)), (-1, (2, 1)), (1, (9, 16)))
    entries = matrix.entries
    # Reading builds each unsigned token once, in first-occurrence order; "-x" negates x's value.
    assert builds == [(False, False, 3, 4), (False, True, 2, 1), (False, False, 6, 8)]
    assert parses == []
    assert entries[0][0] is entries[1][1] is entries[0][3]
    assert entries[0][1] is entries[1][0] is entries[2][3]
    assert entries[0][1] == -entries[0][0]
    assert entries[0][0] == entries[1][3]  # "6/8" is its own token
    assert entries[0][0] is not entries[1][3]
    format_matrix(matrix)
    assert len(builds) == 3


def test_negated_token_parses_its_unsigned_part_once_when_it_comes_first(monkeypatch):
    builds = _counting(monkeypatch, "_build_scalar")
    matrix = parse_matrix("2 2\n-5 -sqrt(3)\n5 +5\n")
    assert builds == []
    assert matrix.entries == ((-5, -SqrtRational.sqrt(3)), (5, 5))
    # "5" is built for "-5", then reused; "+5" is a token of its own.
    assert builds == [(False, False, 5, 1), (False, True, 3, 1), (False, False, 5, 1)]
    assert matrix.entries[1][0] is not matrix.entries[1][1]


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


def test_negated_zero_keeps_the_sign_of_its_token():
    # "-0" negates the exact 0 before the float conversion; "-0.0" is a float.
    matrix = parse_matrix("2 3\n-0 -0.0 0.5\n0 0.0 -0.5\n")
    assert not matrix.is_exact
    signs = [[math.copysign(1, e) for e in row] for row in matrix.entries]
    assert signs == [[1, -1, 1], [1, 1, -1]]
    assert format_matrix(matrix) == "2 3\n0.0 -0.0 0.5\n0.0 0.0 -0.5\n"


# --- the coded form: distinct entries plus a read-only code array -------------


def coded_matrices():
    half, root = Fraction(1, 2), SqrtRational.sqrt(2)
    weighted = HadamardesqueMatrix(3, (WeightedColumn(2, 3, 2), WeightedColumn(Fraction(1, 4), 2),
                                       WeightedColumn(2, 4), WeightedColumn(9, 1)))
    return {
        "parsed": parse_matrix("3 4\n1/2 -1/2 sqrt(2) 1/2\n-sqrt(2) 0.5 1/2 -1/2\n1 1 1 1\n"),
        "constructed": DenseMatrix(((half, root, half), (-root, half, root))),
        "truth_table": truth_table(4),
        "pair_product_table": pair_product_table(4),
        "sylvester": sylvester(3),
        "sylvester_0": sylvester(0),
        "column_set": column_set_matrix(4, [7, 1, 6, 4]),
        "dense": weighted.dense(),
    }


@pytest.mark.parametrize("name", list(coded_matrices()))
def test_codes_are_read_only(name):
    matrix = coded_matrices()[name]
    with pytest.raises(ValueError, match="read-only"):
        matrix._codes[0, 0] = 0


@pytest.mark.parametrize("name", list(coded_matrices()))
def test_every_distinct_entry_is_used_and_codes_follow_first_occurrence(name):
    matrix = coded_matrices()[name]
    assert matrix._codes.shape == matrix.shape
    first_seen = list(dict.fromkeys(matrix._codes.ravel().tolist()))
    assert first_seen == list(range(len(matrix._distinct)))
    assert len({id(e) for e in matrix._distinct}) == len(matrix._distinct)
    entry = matrix._distinct.__getitem__
    assert matrix.entries == tuple(tuple(map(entry, row)) for row in matrix._codes.tolist())


def test_weighted_matrix_expands_to_signed_roots():
    matrix = coded_matrices()["dense"]
    root = SqrtRational.sqrt(2)
    # Columns: truth column 3 (x2) and 4 of weight 2, 2 of weight 1/4, 1 of weight 9.
    assert matrix.entries == (
        (root, root, Fraction(1, 2), root, 3),
        (root, root, Fraction(-1, 2), -root, 3),
        (-root, -root, Fraction(1, 2), -root, 3),
    )
    assert matrix._distinct == (root, Fraction(1, 2), 3, Fraction(-1, 2), -root)


def test_constructed_and_parsed_matrices_compare_and_hash_equal():
    half, root = Fraction(1, 2), SqrtRational.sqrt(2)
    matrices = [
        DenseMatrix(((half, root, half), (-root, half, root))),
        DenseMatrix(((0.5, -1.25), (3.0, 2.0)), is_exact=False),
        sylvester(2),
        DenseMatrix(((1, 2),)),
    ]
    for matrix in matrices:
        again = parse_matrix(format_matrix(matrix))
        rebuilt = DenseMatrix(matrix.entries, matrix.is_exact)
        assert again == matrix == rebuilt
        assert hash(again) == hash(matrix) == hash(rebuilt)
    # Equal values of other types compare equal, as tuples of them do.
    assert DenseMatrix(((1, 2),)) == DenseMatrix(((1.0, Fraction(2)),))
    assert hash(DenseMatrix(((1, 2),))) == hash(DenseMatrix(((1.0, Fraction(2)),)))
    assert DenseMatrix(((1, 2),)) != DenseMatrix(((1, 2),), is_exact=False)
    assert DenseMatrix(((1, 2),)) != DenseMatrix(((1, 3),))
    assert repr(DenseMatrix(((1, 2),))) == "DenseMatrix(entries=((1, 2),), is_exact=True)"


def test_equal_entries_of_different_types_stay_distinct():
    matrix = DenseMatrix(((1, 1.0, True), (True, 1.0, 1)), is_exact=False)
    assert [type(e) for e in matrix._distinct] == [int, float, bool]
    assert matrix._codes.tolist() == [[0, 1, 2], [2, 1, 0]]
    assert format_matrix(matrix) == "2 3\n1 1.0 1\n1 1.0 1\n"


# --- the grammar is ASCII -----------------------------------------------------


@pytest.mark.parametrize("exact", [False, True], ids=["auto", "exact"])
@pytest.mark.parametrize("token", ["\u0661", "-\u0661", "\uff11.0", "1_0", "1_0.5", "-1_0"])
def test_non_ascii_and_underscored_tokens_are_malformed(token, exact):
    # float() reads an Arabic-Indic or fullwidth digit and an underscore; the grammar does not.
    kind = "exact" if exact else "scalar"
    with pytest.raises(FormatError, match=rf"^line 3: malformed {kind} token {token!r}$"):
        parse_matrix(f"2 2\n1 1\n{token} 1\n", exact=exact)


@pytest.mark.parametrize("header", ["\u0662 2", "2 \u00b2", "\uff12 2"])
def test_non_ascii_header_digits_are_a_header_error(header):
    with pytest.raises(FormatError, match=rf"^line 1: expected header 'm n', got {header!r}$"):
        parse_matrix(f"{header}\n1 1\n1 -1\n")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_rows_end_at_newline_only(newline):
    text = newline.join(["2 2", "1 1", "1 -1", ""])
    assert parse_matrix(text) == parse_matrix("2 2\n1 1\n1 -1\n")
    for separator in ("\u2028", "\x85", "\u2029", "\x1c", "\f", "\v"):
        with pytest.raises(FormatError, match="^expected 2 rows after the header, found 1$"):
            parse_matrix(f"2 2\n1 1{separator}1 -1\n")


@pytest.mark.parametrize("separator", ["\u00a0", "\u3000", "\x1c", "\x1f"])
def test_tokens_split_at_ascii_whitespace_only(separator):
    with pytest.raises(FormatError, match="^line 2: expected 2 entries, found 1$"):
        parse_matrix(f"1 2\n1{separator}-1\n")
    assert parse_matrix("1 2\n1\t-1 \v\f\r\n") == parse_matrix("1 2\n1 -1\n")
