"""Exact scalars of the form sign * sqrt(radicand), radicand rational.

Column scales in equal-modulus matrices are square roots of rational
weights, so a closed scalar type needs exactly this shape: products stay in
the family, and sums are exact whenever the radicands are commensurable.
Instances are canonical (they store the sign and the *square* of the value),
so two equal values always compare and hash equal, and rational-valued
instances interoperate with int and Fraction.

Text tokens follow one grammar, shared by matrix files and the CLI: an
optional sign, then ``p``, ``p/q``, ``sqrt(p)`` or ``sqrt(p/q)`` with p, q
unsigned integers.  Each token is matched once and its value built from the
captured integers.  Outside exact parsing, decimal literals are read as
finite floats.

It also holds the input checks of the whole API: _checked for integers,
_checked_rational for rationals, and _shown for the values they quote.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from numbers import Integral

from .errors import FormatError

# Groups: sign, "sqrt(" (which then requires the closing parenthesis), p, q.
# Matched with fullmatch: `$` would also match before a trailing newline.
_TOKEN = r"([+-]?)(sqrt\()?(\d+)(?:/(\d+))?(?(2)\))"
_TOKEN_RE = re.compile(_TOKEN, re.ASCII)
# The same grammar over UTF-8 bytes, one token per line, for many tokens at once.
_TOKEN_LINES_RE = re.compile(f"^{_TOKEN}$".encode(), re.MULTILINE)


def _exact_sqrt(value: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational if it is rational, else None."""
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


class SqrtRational:
    """Value ``sign * sqrt(square)`` with ``square`` a nonnegative rational.

    Arithmetic returns a plain Fraction whenever the result is rational, so
    sums of products of same-modulus entries collapse to exact rationals.
    """

    __slots__ = ("_sign", "_square")

    def __init__(self, value=0):
        if isinstance(value, SqrtRational):
            self._sign, self._square = value._sign, value._square
            return
        frac = Fraction(_checked_rational("value", value))
        self._sign = (frac > 0) - (frac < 0)
        self._square = frac * frac

    @classmethod
    def _make(cls, sign: int, square: Fraction) -> "SqrtRational":
        self = cls.__new__(cls)
        self._sign = 0 if square == 0 else sign
        self._square = square
        return self

    @classmethod
    def sqrt(cls, radicand) -> "SqrtRational | Fraction":
        """Principal square root of a nonnegative rational, exact.

        Returns a Fraction when the radicand is a perfect square.
        """
        rad = radicand if type(radicand) is Fraction else Fraction(_checked_rational("radicand", radicand))
        if rad.numerator < 0:
            raise ValueError(f"square root of negative value {rad}")
        root = _exact_sqrt(rad)
        if root is not None:
            return root
        return cls._make(1, rad)

    @property
    def sign(self) -> int:
        return self._sign

    @property
    def square(self) -> Fraction:
        """The exact square of the value (always rational)."""
        return self._square

    @property
    def is_rational(self) -> bool:
        return _exact_sqrt(self._square) is not None

    def as_fraction(self) -> Fraction:
        root = _exact_sqrt(self._square)
        if root is None:
            raise ValueError(f"{self} is irrational")
        return self._sign * root

    @staticmethod
    def _coerce(other) -> "SqrtRational | None":
        if isinstance(other, SqrtRational):
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtRational(other)
        return None

    @staticmethod
    def _collapse(sign: int, square: Fraction):
        """Return a Fraction when rational, else a canonical SqrtRational."""
        root = _exact_sqrt(square)
        if root is not None:
            return sign * root
        return SqrtRational._make(sign, square)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._collapse(self._sign * rhs._sign, self._square * rhs._square)

    __rmul__ = __mul__

    def __neg__(self):
        return SqrtRational._make(-self._sign, self._square)

    def __abs__(self):
        return SqrtRational._collapse(1 if self._sign else 0, self._square)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self._sign == 0:
            return SqrtRational._collapse(rhs._sign, rhs._square)
        if rhs._sign == 0:
            return SqrtRational._collapse(self._sign, self._square)
        ratio = _exact_sqrt(self._square / rhs._square)
        if ratio is None:
            raise ValueError(
                f"cannot add incommensurable square roots {self} and {rhs} exactly"
            )
        # self = (sign * ratio) * sqrt(rhs.square), so the sum is a single root.
        coeff = self._sign * ratio + rhs._sign
        sign = (coeff > 0) - (coeff < 0)
        return SqrtRational._collapse(sign, coeff * coeff * rhs._square)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__add__(-self)

    def __eq__(self, other):
        if isinstance(other, SqrtRational):
            return self._sign == other._sign and self._square == other._square
        if isinstance(other, (int, Fraction)):
            root = _exact_sqrt(self._square)
            return root is not None and self._sign * root == other
        return NotImplemented

    def __hash__(self):
        root = _exact_sqrt(self._square)
        if root is not None:
            return hash(self._sign * root)
        return hash((self._sign, self._square))

    def __bool__(self):
        return self._sign != 0

    def __float__(self):
        return self._sign * math.sqrt(float(self._square))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"SqrtRational({format_scalar(self)!r})"


def format_scalar(value) -> str:
    """Render a scalar as a shared-format token."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, Fraction)):
        return _rational_token(value)
    if isinstance(value, SqrtRational):
        if value.is_rational:
            return _rational_token(value.as_fraction())
        prefix = "-" if value.sign < 0 else ""
        return f"{prefix}sqrt({_rational_token(value.square)})"
    if isinstance(value, float):
        return repr(value)
    raise TypeError(f"cannot format {value!r} as a scalar token")


def _rational_token(value: int | Fraction) -> str:
    """str(value); FormatError for a value past the interpreter's int-string digit limit."""
    try:
        return str(value)
    except ValueError:
        num, den = abs(value.numerator), value.denominator
        digits = _digit_count(num) + (_digit_count(den) if den != 1 else 0)
        head = "-" * (value < 0) + str(num // 10 ** max(_digit_count(num) - 20, 0))
        raise FormatError(f"value {head!r}... with {digits} digits is too long to print") from None


def _digit_count(n: int) -> int:
    """Decimal digits of an integer n >= 1, counted without converting it to a string."""
    low = int((n.bit_length() - 1) * math.log10(2)) + 1  # the digits of 2^(bit_length - 1)
    return low + (n >= 10**low)


def _shown(token) -> str:
    """repr(token) for an error message: in full up to 500 characters, else its first 20 and its length.

    A string is measured in its own characters, anything else in those of its repr.
    """
    text, show = (token, repr) if isinstance(token, str) else (repr(token), str)
    if len(text) <= 500:
        return show(text)
    return f"{show(text[:20])}... ({len(text)} characters)"


def _checked(name: str, value, least: int, kind: type = Integral):
    """`value` if it is a `kind` >= `least`, as an int when `kind` is Integral; else ValueError.

    The one check of every integer the API takes and of the search budgets:
    bool is refused, NaN fails the comparison, and numpy integers pass.
    """
    if isinstance(value, bool) or not isinstance(value, kind) or not value >= least:
        raise ValueError(f"{name} must be {kind.__name__.lower()} >= {least}, got {_shown(value)}")
    return operator.index(value) if kind is Integral else value


def _checked_rational(name: str, value):
    """`value` if it is an int or a Fraction, a numpy integer as an int; else TypeError.

    The one check of every rational the API takes: bool, float, str,
    Decimal, None and SqrtRational are refused, so nothing is rounded or parsed.
    """
    if type(value) is int or isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an int or a Fraction, got {_shown(value)}")
    return operator.index(value)


def parse_scalar(token: str, *, exact: bool = True):
    """Parse one scalar token.

    A grammar token gives its exact value: a Fraction, or a SqrtRational for
    an irrational root.  A decimal literal gives a finite float, unless
    `exact` is set, which refuses it as a malformed exact token.  Tokens
    are ASCII and hold no whitespace: a decimal literal with a non-ASCII
    character, an underscore or surrounding whitespace, all of which
    float() accepts, is malformed.
    """
    match = _TOKEN_RE.fullmatch(token)
    if match is None:
        if exact:
            raise FormatError(f"malformed exact token {_shown(token)}")
        if not token.isascii() or "_" in token or token.strip() != token:  # float() reads all three
            raise FormatError(f"malformed scalar token {_shown(token)}")
        try:
            value = float(token)
        except ValueError:
            raise FormatError(f"malformed scalar token {_shown(token)}") from None
        return _finite_float(value, token)
    sign, root, num, den = match.groups()
    try:
        p, q = int(num), 1 if den is None else int(den)
    except ValueError:  # past the interpreter's int-string digit limit
        digits = len(num) + len(den or "")
        raise FormatError(f"token {token[:20]!r}... with {digits} digits is too long") from None
    if q == 0:
        raise FormatError(f"zero denominator in token {_shown(token)}")
    return _build_scalar(sign == "-", root is not None, p, q)


def _build_scalar(negative: bool, root: bool, p: int, q: int):
    """The value of the grammar token with these parts: a Fraction, or a SqrtRational."""
    value = Fraction(p, q)
    if root:
        value = SqrtRational.sqrt(value)
    return -value if negative else value


def _grammar_parts(tokens: list[bytes]) -> list[tuple[bool, bool, int, int]] | None:
    """(negative, root, p, q) of every token, or None unless parse_scalar reads each without error.

    The tokens are UTF-8 bytes free of ASCII whitespace, as bytes.split()
    leaves them.  They are matched in one call, one token per line: every
    line matches exactly when there are as many matches as tokens.  None
    leaves it to parse_scalar to refuse the first bad token.
    """
    found = _TOKEN_LINES_RE.findall(b"\n".join(tokens))
    if len(found) != len(tokens):
        return None
    try:
        parts = [(sign == b"-", root != b"", int(num), int(den) if den else 1)
                 for sign, root, num, den in found]
    except ValueError:  # past the interpreter's int-string digit limit
        return None
    return parts if all(q for _, _, _, q in parts) else None


def _signed_squares(parts: list[tuple[bool, bool, int, int]]) -> tuple[tuple[int, tuple[int, int]], ...]:
    """Sign (0 for zero) and square, in lowest terms, of each token with these parts.

    The square of sqrt(p/q) is p/q, and that of p/q is p^2/q^2.
    """
    table = []
    for negative, root, p, q in parts:
        g = math.gcd(p, q)
        p, q = p // g, q // g
        table.append(((-1 if negative else 1) if p else 0, (p, q) if root else (p * p, q * q)))
    return tuple(table)


def _finite_float(value, token: str) -> float:
    """float(value), refusing inf, nan and overflow: no exact weight exists for them."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise FormatError(f"non-finite scalar token {_shown(token)}")
    return out
