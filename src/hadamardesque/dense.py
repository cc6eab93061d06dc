"""Dense matrices with exact or float entries, plus the shared text format.

The text format is the interchange surface for every tool in the package:

    m n
    <row 1: n whitespace-separated tokens>
    ...
    <row m>

Entries are tokens of the one grammar in `scalars`: an optional sign, then
``p``, ``p/q``, ``sqrt(p)`` or ``sqrt(p/q)``.  Decimal literals make a
float matrix unless the parse is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import FormatError
from .scalars import SqrtRational, _finite_float, format_scalar, parse_scalar


def _coerce_exact(entry):
    if isinstance(entry, bool):
        raise TypeError("bool is not a matrix entry")
    if isinstance(entry, int):
        return entry
    if isinstance(entry, Fraction):
        return entry
    if isinstance(entry, SqrtRational):
        return entry.as_fraction() if entry.is_rational else entry
    if isinstance(entry, float):
        raise TypeError(f"float entry {entry!r} in an exact matrix")
    raise TypeError(f"unsupported matrix entry {entry!r}")


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable row-major matrix; entries exact scalars or floats."""

    entries: tuple[tuple, ...]
    is_exact: bool = True

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValueError("all rows must have equal length")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "DenseMatrix":
        """An exact matrix; rational-valued roots collapse to Fractions."""
        return DenseMatrix(tuple(tuple(_coerce_exact(e) for e in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int):
        """Entry at 1-based row i, column j."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple:
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} out of range")
        return self.entries[i - 1]

    def column(self, j: int) -> tuple:
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} out of range")
        return tuple(row[j - 1] for row in self.entries)

    def to_float(self) -> list[list[float]]:
        return [[float(e) for e in row] for row in self.entries]


def format_matrix(matrix: DenseMatrix) -> str:
    lines = [f"{matrix.rows} {matrix.cols}"]
    for row in matrix.entries:
        lines.append(" ".join(format_scalar(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, *, exact: bool = False) -> DenseMatrix:
    """Parse the shared text format, each distinct token once.

    The matrix is exact unless a token is a decimal literal, in which case
    every parsed value is converted to a finite float.  With `exact` set, a
    decimal literal is an error instead.  The exact work (and the float
    conversion) runs once per distinct token string, and equal tokens share
    one immutable value, so a file of scaled sign columns costs about its
    distinct tokens, not its entries.  Token errors name the line of the
    first bad token in row-major order.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise FormatError(f"line {header_no}: expected header 'm n', got {header.strip()!r}")
    n_rows, n_cols = int(parts[0]), int(parts[1])
    if n_rows < 1 or n_cols < 1:
        raise FormatError(f"line {header_no}: dimensions must be positive")
    body = lines[1:]
    if len(body) != n_rows:
        raise FormatError(f"expected {n_rows} rows after the header, found {len(body)}")

    tokens: list[tuple[int, list[str]]] = []
    for line_no, line in body:
        row_tokens = line.split()
        if len(row_tokens) != n_cols:
            raise FormatError(
                f"line {line_no}: expected {n_cols} entries, found {len(row_tokens)}"
            )
        tokens.append((line_no, row_tokens))

    values: dict[str, object] = {}  # token -> value, in first-occurrence order
    first_line: dict[str, int] = {}
    try:
        for line_no, row_tokens in tokens:
            for tok in dict.fromkeys(row_tokens):
                if tok not in values:
                    values[tok] = parse_scalar(tok, exact=exact)
                    first_line[tok] = line_no
        is_exact = not any(isinstance(v, float) for v in values.values())
        if not is_exact:
            for tok, value in values.items():
                line_no = first_line[tok]
                values[tok] = _finite_float(value, tok)
    except FormatError as exc:
        raise FormatError(f"line {line_no}: {exc}") from None
    value_of = values.__getitem__
    return DenseMatrix(
        tuple(tuple(map(value_of, row_tokens)) for _, row_tokens in tokens), is_exact=is_exact
    )
