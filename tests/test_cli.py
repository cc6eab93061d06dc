import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import goldens
from limits import run_cli_limited
import hadamardesque
from hadamardesque import parse_matrix, parse_scalar, to_hadamardesque, pairwise_dots
from hadamardesque.cli import main


TRUTH_3 = "3 4\n1 1 1 1\n1 -1 1 -1\n1 1 -1 -1\n"
TRUTH_4 = (
    "4 8\n"
    "1 1 1 1 1 1 1 1\n"
    "1 -1 1 -1 1 -1 1 -1\n"
    "1 1 -1 -1 1 1 -1 -1\n"
    "1 1 1 1 -1 -1 -1 -1\n"
)
CT_3 = "3 4\n1 -1 1 -1\n1 1 -1 -1\n1 -1 -1 1\n"
CT_4 = (
    "6 8\n"
    "1 -1 1 -1 1 -1 1 -1\n"
    "1 1 -1 -1 1 1 -1 -1\n"
    "1 -1 -1 1 1 -1 -1 1\n"
    "1 1 1 1 -1 -1 -1 -1\n"
    "1 -1 1 -1 -1 1 -1 1\n"
    "1 1 -1 -1 -1 -1 1 1\n"
)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(goldens.EXAMPLE_MATRIX_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- golden table output -------------------------------------------------------


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("truth-table", "3"), TRUTH_3),
        (("truth-table", "4"), TRUTH_4),
        (("ct-table", "3"), CT_3),
        (("ct-table", "4"), CT_4),
        (("gen-hadamard", "1"), "2 2\n1 1\n1 -1\n"),
    ],
)
def test_table_goldens(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_gen_hadamard_matches_library(capsys):
    code, out, _ = run(capsys, "gen-hadamard", "2")
    assert code == 0
    assert parse_matrix(out).entries == goldens.H4


# --- crv / dots -------------------------------------------------------------------


def test_crv_golden_line(capsys, example_file):
    code, out, _ = run(capsys, "crv", example_file)
    assert code == 0
    assert out == "7 9 0 0 5 1 0 1\n"


def test_crv_json_roundtrip(capsys, example_file):
    code, out, _ = run(capsys, "crv", example_file, "--json")
    record = json.loads(out)
    assert code == 0
    assert record["m"] == 4
    assert [Fraction(v) for v in record["v"]] == list(goldens.EXAMPLE_CRV)


def test_dots_reparse_to_equal_values(capsys, example_file):
    code, out, _ = run(capsys, "dots", example_file)
    assert code == 0
    values = tuple(parse_scalar(tok) for tok in out.split())
    assert values == goldens.EXAMPLE_DOTS


def test_dots_json(capsys, example_file):
    code, out, _ = run(capsys, "dots", example_file, "--json")
    record = json.loads(out)
    assert [Fraction(v) for v in record["a"]] == list(goldens.EXAMPLE_DOTS)


# --- classify / in-span ---------------------------------------------------------------


def test_classify_hadamard(capsys, tmp_path):
    path = tmp_path / "h4.txt"
    path.write_text("4 4\n" + "\n".join(" ".join(str(e) for e in row) for row in goldens.H4) + "\n")
    code, out, _ = run(capsys, "classify", str(path))
    record = json.loads(out)
    assert code == 0
    assert record["hadamard"] and record["sign_matrix_in_span"] and record["lattice_point_in_span"]
    assert record["verdicts_agree"]


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5))
def test_classify_sylvester_orders(capsys, tmp_path, k):
    code, out, _ = run(capsys, "gen-hadamard", str(k))
    assert code == 0
    path = tmp_path / f"h{k}.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "classify", str(path))
    record = json.loads(out)
    assert code == 0
    assert record["hadamard"] and record["sign_matrix_in_span"] and record["lattice_point_in_span"]


def test_classify_of_a_square_matrix_that_does_not_factor(capsys, tmp_path):
    path = tmp_path / "unequal.txt"
    path.write_text("2 2\n1 1\n2 -1\n")
    code, out, err = run(capsys, "classify", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "order": 2,
        "hadamard": False,
        "sign_matrix_in_span": False,
        "lattice_point_in_span": False,
        "verdicts_agree": True,
        "representation": None,
        "flipped_columns": [],
        "violations": [],
    }


def test_classify_non_square_is_argument_error(capsys, tmp_path):
    path = tmp_path / "t3.txt"
    path.write_text(TRUTH_3)
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "square" in err


def test_in_span_plain_file(capsys, tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1 0 0 1 0 1 1 0\n")
    code, out, _ = run(capsys, "in-span", str(path))
    assert code == 0
    assert out == "true\n"


def test_in_span_of_a_length_that_is_not_a_power_of_two(capsys, tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1 0 1\n")
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: length 3 is not a power of two\n"


def test_in_span_json_record_with_violations(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"m": 4, "v": ["1", "0", "0", "0", "0", "0", "0", "0"]}))
    code, out, _ = run(capsys, "in-span", str(path))
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "false"
    assert len(lines) == 7
    assert lines[1] == "pair L=1 rows=(1,2) residual=1"


@pytest.mark.parametrize(
    "record",
    [
        {"m": 4},
        {"v": ["1", "0", "0", "0", "0", "0", "0", "0"]},
        {"m": 4, "v": "1 0 0 0 0 0 0 0"},
        {"m": 4, "v": 7},
        {"m": [4], "v": ["1", "0", "0", "0", "0", "0", "0", "0"]},
        {"m": 4, "v": [None, "0", "0", "0", "0", "0", "0", "0"]},
    ],
)
def test_in_span_malformed_json_record_is_argument_error(capsys, tmp_path, record):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "in-span", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_in_span_of_a_deeply_nested_json_record_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"m": 2, "v": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_in_span_of_a_truncated_json_record_names_the_file(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"m": 2')
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: Expecting ',' delimiter")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    ("command", "name", "text"),
    [
        ("in-span", "v.txt", "[" * 100_000 + "]" * 100_000),
        ("crv", "m.txt", "1 1\n" + "x" * 100_000 + "\n"),
        ("crv", "m.txt", "1 " * 100_000 + "\n1\n"),
    ],
    ids=["in-span", "crv", "crv-header"],
)
def test_a_long_bad_token_gives_one_short_error_line(capsys, tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    ("name", "text", "what"),
    [("v.txt", "1 x 1 1", "weight"), ("v.json", '{"m": 2, "v": ["1", "x"]}', '"v" entry')],
    ids=["plain", "json"],
)
def test_in_span_of_a_malformed_weight_names_the_file(capsys, tmp_path, name, text, what):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {what}: malformed exact token 'x'\n"


def test_construct_with_a_malformed_shift_names_the_option(capsys):
    code, out, err = run(capsys, "construct", "2", "1", "--shift=x")
    assert (code, out) == (2, "")
    assert err == "error: --shift: malformed exact token 'x'\n"


def test_in_span_of_a_long_non_string_json_entry_gives_one_short_error_line(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"m": 1, "v": [{"a": "x" * 100_000}, "1"]}))
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f'error: {path}: "v" entry must be a rational token or an integer')
    assert err.count("\n") == 1 and len(err.encode()) < 200


@pytest.mark.parametrize("m", (0, -1))
def test_in_span_of_an_order_below_one_is_an_input_error(capsys, tmp_path, m):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"m": m, "v": []}))
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: order m must be integral >= 1, got {m}\n"


# --- construct -------------------------------------------------------------------------


def test_construct_canonical_golden(capsys):
    code, out, _ = run(capsys, "construct", "2", "2")
    assert code == 0
    assert out == "2 1\nsqrt(2)\nsqrt(2)\n"


def test_construct_output_reparses_to_target(capsys):
    target = "1,1/2,-2"
    code, out, _ = run(capsys, "construct", "3", target)
    assert code == 0
    matrix = to_hadamardesque(parse_matrix(out))
    assert pairwise_dots(matrix).values == (Fraction(1), Fraction(1, 2), Fraction(-2))


def test_construct_rational_flavor(capsys):
    code, out, _ = run(capsys, "construct", "2", "1/2", "--flavor", "rational")
    assert code == 0
    assert out == "2 2\n1/2 1/2\n1/2 1/2\n"


def test_construct_multiset_record(capsys):
    code, out, _ = run(capsys, "construct", "2", "1/2", "--flavor", "irrational", "--multiset")
    record = json.loads(out)
    assert code == 0
    assert record == {"m": 2, "columns": [["1/8", 1, 4]]}


def test_construct_irrational_dense_output(capsys):
    code, out, _ = run(capsys, "construct", "2", "1/2", "--flavor", "irrational")
    assert code == 0
    assert out == "2 4\nsqrt(1/8) sqrt(1/8) sqrt(1/8) sqrt(1/8)\nsqrt(1/8) sqrt(1/8) sqrt(1/8) sqrt(1/8)\n"
    matrix = to_hadamardesque(parse_matrix(out))
    assert pairwise_dots(matrix).values == (Fraction(1, 2),)


def test_construct_irrational_target_is_infeasible(capsys):
    code, _, err = run(capsys, "construct", "3", "1,sqrt(2),0", "--flavor", "rational")
    assert code == 3
    assert "infeasible" in err


def test_construct_bad_token(capsys):
    code, _, err = run(capsys, "construct", "2", "nope")
    assert code == 2
    assert "nope" in err


def test_construct_shift_option(capsys):
    code, out, _ = run(capsys, "construct", "2", "2", "--shift", "5", "--multiset")
    record = json.loads(out)
    assert record["columns"] == [["6", 1, 1], ["4", 2, 1]]


# Mixed target denominators; a zero weight (a dropped column) in the m=4 cases; the
# uniform flavors carry d > 1 and multiplicities > 1.
MULTISET_GOLDENS = [
    ("3", "1/2 1/3 1/4", "canonical", "minimal",
     '{"m": 3, "columns": [["5/12", 1, 1], ["1/24", 2, 1], ["1/8", 3, 1]]}'),
    ("3", "1/2 1/3 1/4", "canonical", "minimal-integer",
     '{"m": 3, "columns": [["61/48", 1, 1], ["43/48", 2, 1], ["47/48", 3, 1], ["41/48", 4, 1]]}'),
    ("3", "1/2 1/3 1/4", "canonical", "2/3",
     '{"m": 3, "columns": [["15/16", 1, 1], ["9/16", 2, 1], ["31/48", 3, 1], ["25/48", 4, 1]]}'),
    ("3", "1/2 1/3 1/4", "rational", "minimal",
     '{"m": 3, "columns": [["1/576", 1, 240], ["1/576", 2, 24], ["1/576", 3, 72]]}'),
    ("3", "1/2 1/3 1/4", "rational", "minimal-integer",
     '{"m": 3, "columns": [["1/2304", 1, 2928], ["1/2304", 2, 2064], ["1/2304", 3, 2256], '
     '["1/2304", 4, 1968]]}'),
    ("3", "1/2 1/3 1/4", "rational", "2/3",
     '{"m": 3, "columns": [["1/2304", 1, 2160], ["1/2304", 2, 1296], ["1/2304", 3, 1488], '
     '["1/2304", 4, 1200]]}'),
    ("3", "1/2 1/3 1/4", "irrational", "minimal",
     '{"m": 3, "columns": [["1/1152", 1, 480], ["1/1152", 2, 48], ["1/1152", 3, 144]]}'),
    ("3", "1/2 1/3 1/4", "irrational", "minimal-integer",
     '{"m": 3, "columns": [["1/4608", 1, 5856], ["1/4608", 2, 4128], ["1/4608", 3, 4512], '
     '["1/4608", 4, 3936]]}'),
    ("3", "1/2 1/3 1/4", "irrational", "2/3",
     '{"m": 3, "columns": [["1/4608", 1, 4320], ["1/4608", 2, 2592], ["1/4608", 3, 2976], '
     '["1/4608", 4, 2400]]}'),
    ("4", "1/2 -1/3 1/4 0 2/5 -1", "canonical", "minimal",
     '{"m": 4, "columns": [["23/80", 1, 1], ["67/120", 3, 1], ["19/48", 4, 1], ["7/16", 5, 1], '
     '["7/20", 6, 1], ["5/24", 7, 1], ["59/240", 8, 1]]}'),
    ("4", "1/2 -1/3 1/4 0 2/5 -1", "rational", "minimal",
     '{"m": 4, "columns": [["1/57600", 1, 16560], ["1/57600", 3, 32160], ["1/57600", 4, 22800], '
     '["1/57600", 5, 25200], ["1/57600", 6, 20160], ["1/57600", 7, 12000], '
     '["1/57600", 8, 14160]]}'),
    ("4", "1/2 -1/3 1/4 0 2/5 -1", "irrational", "minimal",
     '{"m": 4, "columns": [["1/115200", 1, 33120], ["1/115200", 3, 64320], '
     '["1/115200", 4, 45600], ["1/115200", 5, 50400], ["1/115200", 6, 40320], '
     '["1/115200", 7, 24000], ["1/115200", 8, 28320]]}'),
]


@pytest.mark.parametrize("m, target, flavor, shift, golden", MULTISET_GOLDENS)
def test_construct_multiset_goldens(capsys, m, target, flavor, shift, golden):
    code, out, err = run(capsys, "construct", m, target, "--flavor", flavor, "--shift", shift,
                         "--multiset")
    assert (code, out, err) == (0, golden + "\n", "")


# --- search ------------------------------------------------------------------------------


def test_search_odd_order_output(capsys):
    code, out, _ = run(capsys, "search", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "no solutions (exhaustive)"
    assert lines[1].startswith("summary: solutions=0 nodes=0")
    assert "exhaustive=true" in lines[1]


def test_search_order_one_finds_the_matrix_verify_set_accepts(capsys):
    code, out, _ = run(capsys, "search", "1")
    assert code == 0
    assert out.splitlines()[0] == "1: 1"
    assert "solutions=1 nodes=1" in out and "exhaustive=true" in out
    assert run(capsys, "verify-set", "1", "1")[:2] == (0, "true\n")


def test_search_order_four_streams_solutions(capsys):
    code, out, _ = run(capsys, "search", "4")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "4: 1 4 6 7"
    assert lines[1] == "4: 2 3 5 8"
    assert lines[2].startswith("summary: solutions=2")


def test_search_json_report(capsys):
    code, out, _ = run(capsys, "search", "4", "--json")
    record = json.loads(out)
    assert code == 0
    assert record["solutions"] == [[1, 4, 6, 7], [2, 3, 5, 8]]
    assert record["nodes"] == 4
    assert record["exhaustive"] is True


def test_search_node_limit_exit_code(capsys):
    code, out, _ = run(capsys, "search", "6", "--node-limit", "10")
    assert code == 4
    assert "limit=nodes" in out


@pytest.mark.parametrize("flag", ["--node-limit", "--time-limit"])
def test_search_negative_budget_is_an_input_error(capsys, flag):
    code, out, err = run(capsys, "search", "4", flag, "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_search_of_an_odd_order_past_the_table_budget(capsys):
    code, out, _ = run(capsys, "search", "29")
    assert code == 0
    assert out.splitlines()[0] == "no solutions (exhaustive)"


def test_search_normalize_flag(capsys):
    code, out, _ = run(capsys, "search", "4", "--normalize")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "4: 1 4 6 7"
    assert lines[1].startswith("summary: solutions=1")


# --- verify-set / errors -----------------------------------------------------------------


def test_verify_set(capsys):
    code, out, _ = run(capsys, "verify-set", "4", "1", "4", "6", "7")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "verify-set", "4", "1", "2", "3", "4")
    assert (code, out) == (0, "false\n")


@pytest.mark.parametrize("m", ("0", "-2"))
def test_verify_set_of_a_nonpositive_order_is_an_input_error(capsys, m):
    code, out, err = run(capsys, "verify-set", m, "1")
    assert (code, out) == (2, "")
    assert err == f"error: order m must be integral >= 1, got {m}\n"


def test_missing_file_is_argument_error(capsys):
    code, _, err = run(capsys, "crv", "/nonexistent/file.txt")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_matrix_names_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 1\n1 bogus!\n")
    code, _, err = run(capsys, "crv", str(path))
    assert code == 2
    assert "line 3" in err and "bogus!" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 1\n1_0\n", "line 2: malformed scalar token '1_0'"),
        ("2 2\n\u0661 1\n1 -1\n", "line 2: malformed scalar token '\u0661'"),
        ("\u0662 2\n1 1\n1 -1\n", "line 1: expected header 'm n', got '\u0662 2'"),
        ("2 \u00b2\n1 1\n1 -1\n", "line 1: expected header 'm n', got '2 \u00b2'"),
    ],
    ids=["underscore", "arabic-indic-digit", "arabic-indic-header", "superscript-header"],
)
def test_matrix_text_outside_the_ascii_grammar_is_an_input_error(capsys, tmp_path, text, message):
    # float() and int() read these; the grammar does not.
    path = tmp_path / "unicode.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "crv", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("2 1\n1\u20282\n", "expected 2 rows after the header, found 1"),
        ("2 1\n1\x852\n", "expected 2 rows after the header, found 1"),
        ("1 2\n1\u00a0-1\n", "line 2: expected 2 entries, found 1"),
        ("2 2\n1 1\n1\u00a0 -1\n", "line 3: malformed scalar token '1\\xa0'"),
    ],
    ids=["line-separator", "next-line", "no-break-space", "no-break-space-in-token"],
)
def test_non_ascii_separators_are_input_errors(capsys, tmp_path, text, message):
    # str.splitlines() and str.split() break at these; the format does not.
    path = tmp_path / "separators.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "crv", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("separator", ["\u00a0", "\u2028"], ids=["no-break-space", "line-separator"])
def test_weight_and_target_tokens_split_at_ascii_whitespace_only(capsys, tmp_path, separator):
    # str.split() breaks at these, reading two weights and three targets; the grammar does not.
    path = tmp_path / "v.txt"
    path.write_text(f"1{separator}1\n", encoding="utf-8")
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, err = run(capsys, "construct", "3", f"1{separator}0 0")
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_weight_file_tokens_are_parsed_once_each(capsys, tmp_path, monkeypatch):
    import hadamardesque.cli as cli

    calls = []
    real = cli._rational
    monkeypatch.setattr(cli, "_rational", lambda value, what: calls.append(value) or real(value, what))
    path = tmp_path / "v.txt"
    path.write_text("1 1/2\n1/2 1\t1 1/2 1/2 1\n")
    code, out, _ = run(capsys, "in-span", str(path))
    assert code == 0 and out.startswith("false\n")
    assert calls == ["1", "1/2"]


@pytest.mark.parametrize("command", ["crv", "dots"])
def test_factoring_a_grammar_file_builds_no_value_per_distinct_token(capsys, tmp_path, command):
    # 2 x 200 columns of distinct scales: 400 distinct tokens, 800 entries.
    scales = [f"sqrt({k}/{k + 1})" if k % 2 else f"{k}/{k + 2}" for k in range(1, 201)]
    path = tmp_path / "scaled.txt"
    path.write_text(f"2 200\n{' '.join(scales)}\n{' '.join('-' + s for s in scales)}\n")
    counts = {"Fraction": 0, "SqrtRational": 0}
    root = hadamardesque.SqrtRational
    fraction_new, root_init, root_make = Fraction.__new__, root.__init__, root._make.__func__

    def counted_fraction(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    def counted_root(make):
        def counted(*args):
            counts["SqrtRational"] += 1
            return make(*args)
        return counted

    # Every SqrtRational is made by __init__ or _make.
    with mock.patch.object(Fraction, "__new__", counted_fraction), \
            mock.patch.object(root, "__init__", counted_root(root_init)), \
            mock.patch.object(root, "_make", classmethod(counted_root(root_make))):
        code, out, _ = run(capsys, command, str(path))
    assert code == 0 and out
    # crv prints 2 weights and dots 1 pair sum; a few Fractions make them.
    assert counts["SqrtRational"] == 0 and counts["Fraction"] < 20, counts


def test_crlf_matrix_file_parses(capsys, tmp_path, example_file):
    path = tmp_path / "crlf.txt"
    path.write_bytes(goldens.EXAMPLE_MATRIX_TEXT.replace("\n", "\r\n").encode())
    assert run(capsys, "crv", str(path)) == run(capsys, "crv", example_file)
    assert run(capsys, "crv", str(path))[0] == 0


@pytest.mark.parametrize("command", ["crv", "dots", "classify"])
def test_entry_past_the_int_digit_limit_names_line(capsys, tmp_path, command):
    # 5,000 digits is past Python's default int-string limit of 4,300.
    path = tmp_path / "huge.txt"
    path.write_text("2 2\n1 1\n1 " + "7" * 5000 + "\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3: ") and err.count("\n") == 1
    assert "5000 digits" in err and "7" * 100 not in err


@pytest.mark.parametrize("argv", [["crv"], ["crv", "--json"], ["dots"], ["dots", "--json"]])
def test_output_past_the_int_digit_limit_names_the_value(capsys, tmp_path, argv):
    # Entries of 3,001 digits parse; their square 10^6000 has 6,001 digits,
    # past Python's default int-string limit of 4,300.
    path = tmp_path / "long.txt"
    path.write_text("2 1\n1" + "0" * 3000 + "\n-1" + "0" * 3000 + "\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "6001 digits" in err and "too long to print" in err
    assert "1000000000" in err and "0" * 100 not in err
    assert "int_max_str_digits" not in err


def test_resource_limit_exit_code(capsys):
    code, _, err = run(capsys, "truth-table", "20")
    assert code == 4
    assert err.startswith("resource limit:")


@pytest.fixture
def ones_column_31(tmp_path):
    path = tmp_path / "ones31.txt"
    path.write_text("31 1\n" + "1\n" * 31)
    return str(path)


def test_dots_of_a_tall_matrix_are_computed(capsys, ones_column_31):
    code, out, _ = run(capsys, "dots", ones_column_31)
    assert code == 0
    assert out.split() == ["1"] * 465


def test_crv_of_a_tall_matrix_is_a_resource_limit(capsys, ones_column_31):
    code, out, err = run(capsys, "crv", ones_column_31)
    assert (code, out) == (4, "")
    assert err.startswith("resource limit:")


def test_construct_of_a_tall_matrix_is_a_resource_limit(capsys):
    code, out, err = run(capsys, "construct", "31", ",".join(["0"] * 465))
    assert (code, out) == (4, "")
    assert err.startswith("resource limit:")


def test_module_entry_point_runs_the_cli():
    src = str(Path(hadamardesque.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "hadamardesque", "gen-hadamard", "1"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "2 2\n1 1\n1 -1\n", "")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_non_hadamardesque_matrix_is_argument_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1\n2\n")
    code, _, err = run(capsys, "dots", str(path))
    assert code == 2
    assert "column 1" in err


@pytest.mark.parametrize("command", ["dots", "crv", "classify"])
@pytest.mark.parametrize(
    "token", ["inf", "-inf", "1e400", "nan", pytest.param("1" + "0" * 400, id="10**400")]
)
def test_non_finite_float_is_an_input_error(capsys, tmp_path, command, token):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"2 2\n1 1\n1.0 {token}\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and repr(token) in err


def test_crv_of_entries_near_the_float_maximum(capsys, tmp_path):
    # The float sum of the moduli overflows; the mean is then taken exactly.
    path = tmp_path / "big.txt"
    path.write_text("2 1\n1e308\n-1e308\n")
    code, out, err = run(capsys, "crv", str(path))
    q = Fraction(1e308) ** 2
    assert len(str(q)) == 617
    assert (code, out, err) == (0, f"0 {q}\n", "")


def test_gen_hadamard_of_a_huge_order_is_a_resource_limit(capsys):
    code, out, err = run(capsys, "gen-hadamard", "100000000000")
    assert (code, out) == (4, "")
    assert err.startswith("resource limit:")


def test_verify_set_of_a_huge_order_is_false(capsys):
    code, out, _ = run(capsys, "verify-set", "100000000000", "1")
    assert (code, out) == (0, "false\n")


def test_in_span_of_a_huge_order_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"m": 10**20, "v": [1]}))
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("token,shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
def test_tol_must_be_finite_and_nonnegative(capsys, tmp_path, token, shown):
    path = tmp_path / "unequal.txt"
    path.write_text("2 2\n1.0 1\n2.5 -1\n")
    code, out, err = run(capsys, "dots", str(path), "--tol", token)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "tolerance" in err and shown in err


# --- outputs over the entry budget, under a 3 GiB address-space limit ---------------------


def assert_refused_cleanly(result):
    assert (result.returncode, result.stdout) == (4, "")
    assert result.stderr.startswith("resource limit:")
    assert "Traceback" not in result.stderr


def test_crv_of_28_rows_is_refused_before_allocating(tmp_path):
    path = tmp_path / "ones28.txt"
    path.write_text("28 1\n" + "1\n" * 28)
    assert_refused_cleanly(run_cli_limited("crv", str(path)))


def test_construct_of_28_rows_is_refused_before_allocating():
    assert_refused_cleanly(run_cli_limited("construct", "28", ",".join(["0"] * 378)))


@pytest.mark.parametrize("command", ["truth-table", "ct-table", "search"])
def test_huge_orders_are_refused_before_allocating(command):
    assert_refused_cleanly(run_cli_limited(command, "100000000000"))


def test_search_of_a_huge_odd_order_is_exhausted_at_the_root():
    result = run_cli_limited("search", "100000000001")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "no solutions (exhaustive)"


# --- every CLI number goes through the token grammar ------------------------------------


@pytest.mark.parametrize(
    "name,text",
    [
        ("v.txt", "sqrt(2) 1\n"),
        ("v.json", '{"m": 2, "v": ["1/0", "1"]}'),
        ("v.json", '{"m": 2, "v": [1e400, 1]}'),
        ("v.json", '{"m": 2, "v": [0.5, 1]}'),
        ("v.json", '{"m": 2, "v": [true, 1]}'),
        ("v.json", '{"m": 2, "v": [null, 1]}'),
        ("v.json", '{"m": 2, "v": ["sqrt(2)", 1]}'),
        ("v.json", '{"m": 2, "v": [" 1", 1]}'),
        ("v.json", '{"m": 2, "v": ["1\\n", "1"]}'),
    ],
)
def test_in_span_entries_outside_the_grammar_are_input_errors(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "in-span", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_in_span_json_entries_may_be_integers_or_tokens(capsys, tmp_path):
    text, record = tmp_path / "v.txt", tmp_path / "v.json"
    text.write_text("1 1 2 1\n")
    record.write_text('{"m": 3, "v": [1, "1", "sqrt(4)", "2/2"]}')
    expected = run(capsys, "in-span", str(text))
    assert expected[0] == 0 and expected[1].startswith("false\n")
    assert run(capsys, "in-span", str(record)) == expected


@pytest.mark.parametrize("shift", ["sqrt(2)", "-sqrt(3/5)", "1/0", "0.5", "x"])
def test_construct_shift_outside_the_rationals_is_an_input_error(capsys, shift):
    code, out, err = run(capsys, "construct", "2", "1", f"--shift={shift}")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_cli_builds_fractions_in_one_helper():
    import hadamardesque.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    helpers = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_rational"
    ]
    assert len(helpers) == 1
    inside = {id(node) for node in ast.walk(helpers[0])}
    stray = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and id(node) not in inside
    ]
    assert stray == []


# --- no input makes a file-reading command print a traceback ----------------------------

TOKENS = st.sampled_from(
    ["1", "-1", "0", "3/4", "-2/6", "sqrt(2)", "-sqrt(1/2)", "sqrt(9/4)", "0.5", "-1.0",
     "x", "", "sqrt()", "sqrt(-2)", "--3", "1/", "2e3", "1/0", "sqrt(1/0)", "-0/0",
     "inf", "-inf", "nan", "1e400", "1.7976931348623157e308", "1" + "0" * 400, "9" * 5000,
     "sqrt(" + "7" * 400 + ")"]
)
JSON_VALUES = st.sampled_from(
    ['"1"', '"3/4"', '"sqrt(2)"', '"1/0"', '"x"', '" 1"', '"0.5"', "1", "0", "-1",
     "0.5", "1e400", "true", "false", "null", "[1]", "{}", "1" + "0" * 400]
)
TOL = st.sampled_from(["0", "1e-9", "1", "nan", "inf", "-1"])


@st.composite
def file_commands(draw):
    kind = draw(st.sampled_from(["in-span-text", "in-span-json", "construct", "matrix"]))
    if kind == "in-span-text":
        return ["in-span", "FILE"], " ".join(draw(st.lists(TOKENS, max_size=5)))
    if kind == "in-span-json":
        m = draw(st.sampled_from(["1", "2", "3", "0", "-1", "40", "2.0", "true", "null", '"2"']))
        values = ", ".join(draw(st.lists(JSON_VALUES, max_size=4)))
        return ["in-span", "FILE"], f'{{"m": {m}, "v": [{values}]}}'
    if kind == "construct":
        m = draw(st.integers(min_value=-1, max_value=4))
        # A leading space keeps argparse from reading "-1/2,..." as an option.
        argv = ["construct", str(m), " " + ",".join(draw(st.lists(TOKENS, max_size=7)))]
        if draw(st.booleans()):
            argv.append("--shift=" + draw(TOKENS | st.sampled_from(["minimal", "minimal-integer"])))
        argv += draw(st.sampled_from([[], ["--multiset"], ["--flavor=rational"],
                                      ["--flavor=irrational"]]))
        return argv, None
    command = draw(st.sampled_from(["dots", "crv", "classify"]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    header = draw(st.sampled_from([f"{rows} {cols}", f"{rows} {cols + 1}", "0 1", "x"]))
    body = [" ".join(draw(st.lists(TOKENS, min_size=cols, max_size=cols))) for _ in range(rows)]
    argv = [command, "FILE"] + draw(st.sampled_from([[], ["--exact"]]))
    if command != "classify" and draw(st.booleans()):
        argv += ["--tol=" + draw(TOL)] + draw(st.sampled_from([[], ["--json"]]))
    return argv, "\n".join([header, *body]) + "\n"


@settings(max_examples=300, deadline=None)
@given(file_commands())
def test_file_reading_commands_never_print_a_traceback(command):
    argv, text = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(("error: ", "infeasible: ", "resource limit: "))
