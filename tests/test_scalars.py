from fractions import Fraction

import pytest

from hadamardesque import FormatError, SqrtRational, format_scalar, parse_scalar
from hadamardesque.scalars import _shown


def test_sqrt_of_perfect_square_collapses_to_fraction():
    assert SqrtRational.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert isinstance(SqrtRational.sqrt(Fraction(9, 4)), Fraction)
    assert SqrtRational.sqrt(0) == 0


def test_sqrt_of_nonsquare_is_irrational():
    root2 = SqrtRational.sqrt(2)
    assert isinstance(root2, SqrtRational)
    assert not root2.is_rational
    with pytest.raises(ValueError):
        root2.as_fraction()


def test_sqrt_of_negative_rejected():
    with pytest.raises(ValueError):
        SqrtRational.sqrt(-1)


def test_products_collapse_when_rational():
    root2 = SqrtRational.sqrt(2)
    assert root2 * root2 == 2
    assert isinstance(root2 * root2, Fraction)
    assert (-root2) * root2 == -2
    root6 = root2 * SqrtRational.sqrt(3)
    assert isinstance(root6, SqrtRational)
    assert root6.square == 6


def test_scaling_by_rationals():
    root2 = SqrtRational.sqrt(2)
    assert (3 * root2).square == 18
    assert (Fraction(1, 2) * root2).square == Fraction(1, 2)
    assert (-1 * root2) == -root2


def test_addition_same_radicand():
    root2 = SqrtRational.sqrt(2)
    assert root2 + root2 == SqrtRational.sqrt(8)
    assert root2 - root2 == 0
    assert root2 + (-root2) == 0
    half = SqrtRational.sqrt(Fraction(1, 2))
    assert half + half == root2  # 2 * sqrt(1/2) = sqrt(2)


def test_addition_incommensurable_raises():
    with pytest.raises(ValueError):
        SqrtRational.sqrt(2) + SqrtRational.sqrt(3)
    with pytest.raises(ValueError):
        SqrtRational.sqrt(2) + 1


def test_rational_interop_eq_and_hash():
    two = SqrtRational(2)
    assert two == Fraction(2) == 2
    assert hash(two) == hash(Fraction(2))
    assert SqrtRational.sqrt(2) != Fraction(3, 2)


def test_float_conversion():
    assert float(SqrtRational.sqrt(2)) == pytest.approx(2 ** 0.5)
    assert float(-SqrtRational.sqrt(Fraction(1, 2))) == pytest.approx(-(0.5 ** 0.5))


def test_format_tokens():
    assert format_scalar(SqrtRational.sqrt(3)) == "sqrt(3)"
    assert format_scalar(-SqrtRational.sqrt(Fraction(1, 2))) == "-sqrt(1/2)"
    assert format_scalar(Fraction(3, 2)) == "3/2"
    assert format_scalar(Fraction(-7)) == "-7"
    assert format_scalar(5) == "5"
    assert (format_scalar(True), format_scalar(False)) == ("1", "0")
    assert format_scalar(SqrtRational(0)) == "0"


@pytest.mark.parametrize("token", ["7", "-3/4", "sqrt(5)", "-sqrt(2/3)", "sqrt(9)", "0"])
def test_parse_format_roundtrip(token):
    value = parse_scalar(token)
    assert parse_scalar(format_scalar(value)) == value


def test_parse_sqrt_collapses():
    assert parse_scalar("sqrt(9)") == 3
    assert parse_scalar("-sqrt(4/9)") == Fraction(-2, 3)


@pytest.mark.parametrize("token", ["1.5", "x", "sqrt()", "sqrt(-2)", "1/0", "--3", "2e3"])
def test_parse_rejects_malformed_exact_tokens(token):
    with pytest.raises(FormatError):
        parse_scalar(token)


@pytest.mark.parametrize(
    ("token", "exact", "message"),
    [
        ("[" * 100_000 + "]" * 100_000, True, "malformed exact token"),
        ("\u0661" * 100_000, False, "malformed scalar token"),
        ("x" * 100_000, False, "malformed scalar token"),
        ("1/" + "0" * 4_000, True, "zero denominator in token"),
        ("1" + "0" * 100_000 + ".0", False, "non-finite scalar token"),
    ],
    ids=["exact", "non-ascii", "not-a-float", "zero-denominator", "non-finite"],
)
def test_refused_long_tokens_are_shortened(token, exact, message):
    with pytest.raises(FormatError) as refused:
        parse_scalar(token, exact=exact)
    assert str(refused.value) == f"{message} {token[:20]!r}... ({len(token)} characters)"


@pytest.mark.parametrize("token", ["x" * 500, "1/" + "0" * 498])
def test_refused_tokens_of_500_characters_are_echoed_in_full(token):
    with pytest.raises(FormatError, match=f"token {token!r}$"):
        parse_scalar(token)


@pytest.mark.parametrize(
    ("value", "shown"),
    [
        (1.5, "1.5"),
        (None, "None"),
        ({"a": "x" * 480}, repr({"a": "x" * 480})),
        ({"a": "x" * 100_000}, "{'a': 'xxxxxxxxxxxxx... (100009 characters)"),
        (["1"] * 200, "['1', '1', '1', '1',... (1000 characters)"),
    ],
    ids=["float", "none", "short-dict", "long-dict", "long-list"],
)
def test_non_string_values_are_shown_by_their_repr(value, shown):
    assert _shown(value) == shown


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "auto"])
@pytest.mark.parametrize(
    "token",
    ["9" * 5000, "-1/" + "3" * 4400, "sqrt(" + "2" * 4400 + ")"],
    ids=["integer", "denominator", "radicand"],
)
def test_parse_refuses_integers_past_the_digit_limit(token, exact):
    with pytest.raises(FormatError, match=r"token '.{1,20}'\.\.\. with \d{4} digits"):
        parse_scalar(token, exact=exact)


def test_parse_auto_prefers_exact():
    assert parse_scalar("3/4", exact=False) == Fraction(3, 4)
    assert parse_scalar("0.25", exact=False) == 0.25


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "auto"])
@pytest.mark.parametrize("token", ["3\n", "3/4\n", "sqrt(2)\n", "0.5\n", " 3", "3\t"])
def test_parse_refuses_whitespace_around_a_token(token, exact):
    # A `$` anchor would accept a trailing newline, and float() strips whitespace.
    with pytest.raises(FormatError):
        parse_scalar(token, exact=exact)
