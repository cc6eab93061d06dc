"""Dense matrices with exact or float entries, plus the shared text format.

The text format is the interchange surface for every tool in the package:

    m n
    <row 1: n whitespace-separated tokens>
    ...
    <row m>

Entries are tokens of the one grammar in `scalars`: an optional sign, then
``p``, ``p/q``, ``sqrt(p)`` or ``sqrt(p/q)``.  Decimal literals make a
float matrix unless the parse is exact, as a float entry does a matrix
built in Python.  The format is ASCII throughout: lines end at ``\n`` (so
a ``\r\n`` file reads the same), and tokens are separated by ASCII
whitespace only.  Any other character, a Unicode line or space separator
included, belongs to a token or line and is an error that names its line.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from typing import Sequence

import numpy as np

from .errors import FormatError
from .scalars import (
    SqrtRational,
    _build_scalar,
    _checked,
    _checked_rational,
    _finite_float,
    _grammar_parts,
    _shown,
    _signed_squares,
    format_scalar,
    parse_scalar,
)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class DenseMatrix:
    """Immutable row-major matrix; entries exact scalars or finite floats.

    The matrix is stored as its distinct entry objects, each once, and a
    read-only integer array of shape rows x cols whose codes index them.
    A file of scaled sign columns holds about two distinct entries per
    distinct scale, so readers of the matrix work per distinct entry and
    index the codes.  `entries`, the row tuples, is a view derived on first
    use; `==` and `hash` compare it and `is_exact`: no entry is a float.

    An exact matrix also has a private table `_squares`: the sign (0 for
    zero) and the square, as an integer pair in lowest terms, of each
    distinct entry, which is all that factoring reads.  A parsed exact
    matrix holds that table, its distinct tokens and their integers, and
    builds its distinct entries, `_distinct`, the first time they are
    read; any other matrix derives the table from its entries.
    """

    _codes: np.ndarray
    is_exact: bool

    def __init__(self, entries):
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("all rows must have equal length")
        # Entries are told apart by identity: 1 and 1.0 are equal but print apart.
        flat = list(chain.from_iterable(entries))
        ids = list(map(id, flat))
        _, codes = _first_occurrence_codes(ids)
        distinct = tuple(map(_checked_entry, dict(zip(ids, flat)).values()))  # one check each
        self._set(codes.reshape(len(entries), width), _distinct=distinct)

    @classmethod
    def _of_codes(cls, distinct: tuple, codes: np.ndarray) -> DenseMatrix:
        """The matrix whose entry (i, j) is distinct[codes[i, j]], unchecked.

        codes is a nonempty 2-d integer array, made read-only here.  Every
        distinct entry must be used, and codes must follow first occurrence
        in row-major order, so that a matrix has one coded form.
        """
        self = cls.__new__(cls)
        self._set(codes, _distinct=distinct)
        return self

    @classmethod
    def _of_tokens(cls, tokens: list[bytes], parts: list, codes: np.ndarray) -> DenseMatrix:
        """The exact matrix of grammar tokens, unchecked; _distinct is built when read.

        tokens are the distinct tokens, as UTF-8 bytes, and parts their
        scalars._grammar_parts; codes is as for _of_codes.
        """
        self = cls.__new__(cls)
        self._set(codes, _tokens=tokens, _parts=parts, _squares=_signed_squares(parts))
        return self

    def _set(self, codes: np.ndarray, **stored) -> None:
        codes.flags.writeable = False
        self.__dict__.update(stored, _codes=codes)
        # One float entry makes a float matrix; grammar tokens make none, so _distinct stays unbuilt.
        self.__dict__["is_exact"] = "_tokens" in stored or not any(isinstance(e, float) for e in self._distinct)

    @cached_property
    def _distinct(self) -> tuple:
        """The distinct entries of a parsed exact matrix, one object per distinct token.

        Each unsigned token text is built once, in first-occurrence order,
        and a token "-x" is the negation of x's object.
        """
        built: dict[bytes, object] = {}
        values = []
        for token, (negative, root, p, q) in zip(self._tokens, self._parts):
            base = token[1:] if negative else token
            if base not in built:
                built[base] = _build_scalar(False, root, p, q)
            values.append(-built[base] if negative else built[base])
        return tuple(values)

    @cached_property
    def _squares(self) -> tuple[tuple[int, tuple[int, int]], ...]:
        """(sign, square in lowest terms) of each distinct exact entry, from its value."""
        table = []
        for entry in self._distinct:
            if isinstance(entry, SqrtRational):
                table.append((entry.sign, entry.square.as_integer_ratio()))
            else:
                p, q = entry.as_integer_ratio()
                table.append(((p > 0) - (p < 0), (p * p, q * q)))
        return tuple(table)

    @cached_property
    def entries(self) -> tuple[tuple, ...]:
        """The entries as a tuple of row tuples."""
        entry = self._distinct.__getitem__
        return tuple(tuple(map(entry, row)) for row in self._codes.tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.is_exact) == (other.entries, other.is_exact)

    def __hash__(self):
        return hash((self.entries, self.is_exact))

    def __repr__(self) -> str:
        return f"DenseMatrix(entries={self.entries!r})"

    @property
    def rows(self) -> int:
        return self._codes.shape[0]

    @property
    def cols(self) -> int:
        return self._codes.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._codes.shape

    def row(self, i: int) -> tuple:
        if _checked("row i", i, 1) > self.rows:
            raise IndexError(f"row {i} out of range")
        return self.entries[i - 1]


def _checked_entry(entry):
    """A matrix entry as stored: a finite float as a float, a SqrtRational as it is, else a checked rational."""
    if not isinstance(entry, float):
        return entry if isinstance(entry, SqrtRational) else _checked_rational("matrix entry", entry)
    if not np.isfinite(entry):
        raise ValueError(f"matrix entry must be finite, got {_shown(entry)}")
    return float(entry)  # the same object for a float, a float for numpy's


def _first_occurrence_codes(keys: Sequence) -> tuple[dict, np.ndarray]:
    """A code for each distinct key, in order of first occurrence, and every key's code."""
    code = defaultdict(count().__next__)
    return code, np.fromiter(map(code.__getitem__, keys), np.intp, len(keys))


def _sign_matrix(negative: np.ndarray) -> DenseMatrix:
    """The matrix of ints 1 and -1 that is -1 where the boolean array is set.

    The leading entry must be 1, as in every table of truth columns.
    """
    if not negative.size:
        raise ValueError("matrix must have at least one row and one column")
    return DenseMatrix._of_codes((1, -1) if negative.any() else (1,), negative.view(np.uint8))


def format_matrix(matrix: DenseMatrix) -> str:
    """The shared text format, formatting each distinct entry once.

    Rows are joined from the formatted distinct entries by code.  Distinct
    entries are distinct objects, not values: 1 and 1.0 are equal but
    print as different tokens.
    """
    token = np.array(list(map(format_scalar, matrix._distinct)), object)
    lines = [f"{matrix.rows} {matrix.cols}"]
    lines.extend(map(" ".join, token[matrix._codes].tolist()))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, *, exact: bool = False) -> DenseMatrix:
    """Parse the shared text format into its distinct tokens and their codes.

    The rows are read into one row-major token list, and each distinct
    token gets one code, in order of first occurrence.  The distinct tokens
    are then matched against the grammar in one call.  When every one is a
    grammar token, the matrix is exact and no value is built: the matrix
    keeps each distinct token's integers and its sign and square in lowest
    terms, which is all factoring reads, and builds the values the first
    time its entries are read.

    Otherwise some token is not a grammar token, so the matrix is a float
    matrix: each distinct token is parsed once, as written, and every
    parsed value is converted to a finite float, so ``-0`` is 0.0; with
    `exact` set, a decimal literal is an error instead.
    Token errors name the line of the first bad token in row-major order.
    """
    # Split as bytes: bytes.split() breaks at ASCII whitespace only.
    data = text.encode("utf-8", "surrogatepass")
    lines = [(n, line) for n, line in enumerate(data.split(b"\n"), start=1) if line.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        got = header.strip().decode("utf-8", "surrogatepass")
        raise FormatError(f"line {header_no}: expected header 'm n', got {_shown(got)}")
    n_rows, n_cols = int(parts[0]), int(parts[1])
    if n_rows < 1 or n_cols < 1:
        raise FormatError(f"line {header_no}: dimensions must be positive")
    body = lines[1:]
    if len(body) != n_rows:
        raise FormatError(f"expected {n_rows} rows after the header, found {len(body)}")

    tokens: list[bytes] = []
    for line_no, line in body:
        row_tokens = line.split()
        if len(row_tokens) != n_cols:
            raise FormatError(
                f"line {line_no}: expected {n_cols} entries, found {len(row_tokens)}"
            )
        tokens += row_tokens

    code, codes = _first_occurrence_codes(tokens)
    codes = codes.reshape(n_rows, n_cols)
    distinct = list(code)
    token_parts = _grammar_parts(distinct)
    if token_parts is not None:
        return DenseMatrix._of_tokens(distinct, token_parts, codes)

    distinct = [raw.decode("utf-8", "surrogatepass") for raw in distinct]
    values: list = []
    try:
        for tok in distinct:
            values.append(parse_scalar(tok, exact=exact))
        for k, tok in enumerate(distinct):
            values[k] = _finite_float(values[k], tok)
    except FormatError as exc:
        line_no = body[tokens.index(tok.encode("utf-8", "surrogatepass")) // n_cols][0]
        raise FormatError(f"line {line_no}: {exc}") from None
    return DenseMatrix._of_codes(tuple(values), codes)
