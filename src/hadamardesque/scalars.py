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
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FormatError

# Groups: sign, "sqrt(" (which then requires the closing parenthesis), p, q.
_TOKEN_RE = re.compile(r"([+-]?)(sqrt\()?(\d+)(?:/(\d+))?(?(2)\))$")


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
        frac = Fraction(value)
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
        rad = Fraction(radicand)
        if rad < 0:
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


def parse_scalar(token: str, *, exact: bool = True):
    """Parse one scalar token.

    A grammar token gives its exact value: a Fraction, or a SqrtRational for
    an irrational root.  A decimal literal gives a finite float, unless
    `exact` is set, which refuses it as a malformed exact token.
    """
    match = _TOKEN_RE.match(token)
    if match is None:
        if exact:
            raise FormatError(f"malformed exact token {token!r}")
        try:
            value = float(token)
        except ValueError:
            raise FormatError(f"malformed scalar token {token!r}") from None
        return _finite_float(value, token)
    sign, root, num, den = match.groups()
    try:
        value = Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in token {token!r}") from None
    except ValueError:  # past the interpreter's int-string digit limit
        digits = len(num) + len(den or "")
        raise FormatError(f"token {token[:20]!r}... with {digits} digits is too long") from None
    if root:
        value = SqrtRational.sqrt(value)
    return -value if sign == "-" else value


def _finite_float(value, token: str) -> float:
    """float(value), refusing inf, nan and overflow: no exact weight exists for them."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise FormatError(f"non-finite scalar token {token!r}")
    return out
