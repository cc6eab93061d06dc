"""Equal-modulus-column matrices, their weight vectors, and classification.

A matrix is m-Hadamardesque when every column is a positive multiple of a
truth-table column: all coordinates of a column share one modulus and the
leading coordinate is positive.  Such a matrix is summarised exactly by its
representation vector (one nonnegative rational weight per truth column,
the sum of squared scales), and every pairwise row dot product is the dot
product of that vector with one pair-product row: a sum over the matrix's
columns of weight times the two rows' signs.  Rows are orthogonal exactly
when every such pair sum vanishes, i.e. the vector lies in the free span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from operator import mul
from typing import Sequence

import numpy as np

from .dense import DenseMatrix, _first_occurrence_codes
from .errors import ShapeError
from .scalars import SqrtRational, format_scalar
from .walsh import (
    _check_entries,
    _pair_sums,
    _rational_numerators,
    _sign_block,
    pair_count,
    pair_rows,
)

DEFAULT_FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class WeightedColumn:
    """A truth-table column scaled by sqrt(q), repeated `multiplicity` times."""

    q: Fraction
    index: int
    multiplicity: int = 1

    def __post_init__(self):
        if not isinstance(self.q, Fraction):
            object.__setattr__(self, "q", Fraction(self.q))
        if self.q.numerator <= 0:
            raise ValueError(f"column weight must be positive, got {self.q}")
        if self.index < 1:
            raise ValueError(f"column index must be >= 1, got {self.index}")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")


@dataclass(frozen=True, init=False, repr=False)
class HadamardesqueMatrix:
    """An ordered multiset of weighted truth-table columns on m rows.

    The matrix is stored as three parallel tuples of Python ints, one entry
    per column: its truth column index, its weight numerator over one common
    denominator, and its multiplicity, plus that denominator.  The
    denominator is the lcm of the weights' reduced denominators, so equal
    matrices hold equal tuples and `==` and `hash` compare them.
    `columns` is a view of the same matrix as WeightedColumns, in order,
    derived on first use.
    """

    m: int
    _weights: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]

    def __init__(self, m: int, columns: Sequence[WeightedColumn]):
        if m < 1:
            raise ValueError(f"row count must be >= 1, got {m}")
        if not columns:
            raise ValueError("a matrix needs at least one column")
        # Bit length, not 1 << (m - 1): a huge m must not build a huge int.
        top = max(col.index for col in columns)
        if (top - 1).bit_length() >= m:
            raise ValueError(f"column index {top} out of range [1, 2^{m - 1}] for m={m}")
        numerators, den = _rational_numerators([col.q for col in columns])
        indices = tuple([col.index for col in columns])
        multiplicities = tuple([col.multiplicity for col in columns])
        self.__dict__.update(m=m, _weights=(indices, tuple(numerators), multiplicities, den))

    @classmethod
    def _of_weights(cls, m: int, indices, numerators, multiplicities, den: int) -> HadamardesqueMatrix:
        """The matrix stored as the given integer tuples, unchecked.

        Column k is truth column indices[k] of weight numerators[k] / den,
        repeated multiplicities[k] times; numerators and multiplicities must
        be positive.  den must be the lcm of the weights' reduced
        denominators, which is what makes equal matrices hold equal tuples.
        """
        self = cls.__new__(cls)
        weights = (tuple(indices), tuple(numerators), tuple(multiplicities), den)
        self.__dict__.update(m=m, _weights=weights)
        return self

    @cached_property
    def columns(self) -> tuple[WeightedColumn, ...]:
        """The columns as WeightedColumns, in order."""
        indices, numerators, multiplicities, den = self._weights
        return tuple(WeightedColumn(Fraction(x, den), j, k)
                     for j, x, k in zip(indices, numerators, multiplicities))

    def __repr__(self) -> str:
        return f"HadamardesqueMatrix(m={self.m!r}, columns={self.columns!r})"

    @property
    def n(self) -> int:
        """Total column count, multiplicities included."""
        return sum(self._weights[2])

    def dense(self) -> DenseMatrix:
        """Expand to a dense exact matrix; entries are +-sqrt(q).

        Refused past OUTPUT_ENTRY_BUDGET entries (m * n, multiplicities included).
        """
        _check_entries(f"dense {self.m} x {self.n} matrix", self.m * self.n, 0)
        # One square root per distinct weight, coded by first column: row 1 is
        # positive, so every root comes before every negation.
        indices, numerators, times, den = self._weights
        weights, weight_codes = _first_occurrence_codes(numerators)
        roots = [SqrtRational.sqrt(Fraction(x, den)) for x in weights]
        column = np.repeat(weight_codes, times)
        negative = np.repeat(_sign_block(self.m, indices) < 0, times, axis=1)
        # A negation is coded by its first negative entry in row-major order.
        first_row = np.where(negative.any(axis=0), negative.argmax(axis=0), self.m)
        by_row = np.argsort(first_row, kind="stable")
        negated = list(dict.fromkeys(column[by_row[first_row[by_row] < self.m]].tolist()))
        negated_code = np.zeros(len(roots), np.intp)
        negated_code[negated] = np.arange(len(roots), len(roots) + len(negated))
        codes = np.where(negative, negated_code[column], column)
        return DenseMatrix._of_codes(tuple(roots) + tuple(-roots[k] for k in negated), codes)


@dataclass(frozen=True)
class RepresentationVector:
    """Per-truth-column squared-scale weights; length 2^(m-1), all >= 0."""

    m: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.values)
        # n = 2^(m-1) tested by bit length: shifting by a huge m can exhaust memory.
        if self.m < 1:
            raise ValueError(f"order m must be at least 1, got {self.m}")
        if n.bit_length() != self.m or n & (n - 1):
            raise ValueError(f"expected 2^{self.m - 1} coordinates for m={self.m}, got {n}")
        values = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if any(v.numerator < 0 for v in values):
            raise ValueError("representation vector coordinates must be nonnegative")

    def to_record(self) -> dict:
        return {"m": self.m, "v": [format_scalar(v) for v in self.values]}


@dataclass(frozen=True)
class PairwiseDots:
    """All pairwise row dot products, in pair_index order."""

    m: int
    values: tuple

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"pairwise dots need m >= 2, got {self.m}")
        if len(self.values) != pair_count(self.m):
            raise ValueError(
                f"expected {pair_count(self.m)} dot products for m={self.m}, "
                f"got {len(self.values)}"
            )

    def to_record(self) -> dict:
        return {"m": self.m, "a": [format_scalar(v) for v in self.values]}


@dataclass(frozen=True)
class SpanCheck:
    """Result of a free-span membership test, with violating pairs on failure."""

    in_span: bool
    violations: tuple[tuple[int, Fraction], ...]

    def __bool__(self) -> bool:
        return self.in_span


@dataclass(frozen=True)
class Factorization:
    """Outcome of factoring a dense matrix into weighted truth columns."""

    matrix: HadamardesqueMatrix
    flipped_columns: tuple[int, ...]


# ---------------------------------------------------------------------------
# Factoring dense matrices


def factor_columns(matrix: DenseMatrix, tol: float | None = None) -> Factorization:
    """Factor each column as sqrt(q) times a truth column, the whole matrix at once.

    An exact column factors when every entry has the square of its leading
    entry; q is that square, and an entry's sign relative to the lead gives
    its truth-column sign.  A float column factors when every modulus lies
    within the relative tolerance of the largest; q is the square of the
    mean modulus, its float sum taken left to right down the column (and
    exactly where that sum overflows).  Columns whose leading entry is not
    positive are normalised by a global sign flip (their pairwise products
    are unchanged); the flipped input positions are reported.

    The work is array work over the whole matrix.  Each distinct entry is
    read once, and the matrix's codes spread what was read to the entries:
    in an exact matrix, its square and sign, with squares grouped by value
    so that equal values held in separate objects factor too; in a float
    matrix, its float64 value.  The modulus test, the relative signs and
    the column indices then run as numpy passes, and the weights come out
    as integer numerators over the lcm of the distinct weights'
    denominators; no WeightedColumn is built.  Raises ShapeError, naming
    the first bad column, for a zero column or a column whose entries do
    not share one modulus, and ValueError for a tolerance that is negative
    or not finite.
    """
    if tol is not None and not 0 <= tol < inf:  # also rejects NaN
        raise ValueError(f"modulus tolerance must be finite and >= 0, got {tol!r}")
    if matrix.is_exact and tol:
        raise ValueError("exact matrices require tol=0")
    tol = DEFAULT_FLOAT_TOL if tol is None else tol
    m = matrix.rows
    if matrix.is_exact:
        square, sign, weights = _exact_squares(matrix)
        spread = (square != square[0]).any(axis=0)
        zero = ~spread & (sign[0] == 0)
        positive = sign > 0
        code = square[0]
    else:
        values = np.array(matrix._distinct, np.float64)[matrix._codes]
        moduli = np.abs(values)
        top = moduli.max(axis=0)
        zero = top == 0.0
        with np.errstate(over="ignore"):
            spread = top - moduli.min(axis=0) > tol * top
        positive = values > 0
        code, weights = _float_weights(moduli)
    bad = zero | spread
    if bad.any():
        j = int(bad.argmax())
        if zero[j]:
            raise ShapeError(f"column {j + 1} is zero")
        raise ShapeError(f"column {j + 1}: entries do not share a common modulus")
    den = lcm(*{q for _, q in weights})
    numerators = [p * (den // q) for p, q in weights]
    indices = _column_indices(positive[1:] != positive[0])
    factored = HadamardesqueMatrix._of_weights(
        m, indices, map(numerators.__getitem__, code.tolist()), (1,) * len(indices), den)
    return Factorization(factored, tuple((np.flatnonzero(~positive[0]) + 1).tolist()))


def _exact_squares(matrix: DenseMatrix) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Square group and sign of every entry, and each group's square in lowest terms.

    Each distinct entry's sign and square come from the matrix's table of
    them, which a parsed matrix fills from its tokens' integers.  Squares
    are grouped by value, and the matrix's codes spread groups and signs
    to the entries.
    """
    groups: dict[tuple[int, int], int] = {}  # square (p, q) -> group number, first seen first
    group, sign = [], []
    for s, square in matrix._squares:
        group.append(groups.setdefault(square, len(groups)))
        sign.append(s)
    codes = matrix._codes
    return np.array(group)[codes], np.array(sign, np.int8)[codes], list(groups)


def _float_weights(moduli: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Each column's weight number, and the distinct weights in lowest terms.

    A weight is the exact square of the column's mean modulus.  The moduli
    are summed in float, one row at a time: the left-to-right order of a
    plain loop (Python 3.12's sum() compensates, numpy's sum pairs).
    """
    total = moduli[0].copy()
    with np.errstate(over="ignore"):
        for row in moduli[1:]:
            total += row
    means = total / len(moduli)
    distinct, code = np.unique(means, return_inverse=True)
    # np.unique sorts inf last, so leaving it out keeps every finite code.
    ratios = [x.as_integer_ratio() for x in distinct.tolist() if x != inf]
    weights = [(p * p, q * q) for p, q in ratios]
    for j in np.flatnonzero(means == inf).tolist():  # the sum overflowed: average exactly
        code[j] = len(weights)
        mean = sum(map(Fraction, moduli[:, j].tolist())) / len(moduli)
        weights.append((mean.numerator ** 2, mean.denominator ** 2))
    return code, weights


def _column_indices(bits: np.ndarray) -> list[int]:
    """1-based truth column index of each column of sign bits (bit k: row k + 2 negative)."""
    if len(bits) <= 62:
        return ((1 << np.arange(len(bits), dtype=np.int64)) @ bits + 1).tolist()
    width = (len(bits) + 7) // 8
    packed = np.packbits(bits, axis=0, bitorder="little").T.tobytes()
    return [int.from_bytes(packed[k:k + width], "little") + 1
            for k in range(0, len(packed), width)]


def to_hadamardesque(matrix: DenseMatrix) -> HadamardesqueMatrix:
    """Factor a dense matrix at factor_columns' default tolerance; return its matrix."""
    return factor_columns(matrix).matrix


# ---------------------------------------------------------------------------
# Representation vectors and dot products


def _column_weights(matrix: HadamardesqueMatrix) -> tuple[Sequence[int], Sequence[int], int]:
    """Truth column index and total weight numerator of every column, over one denominator."""
    indices, numerators, multiplicities, den = matrix._weights
    if multiplicities.count(1) < len(multiplicities):
        numerators = list(map(mul, numerators, multiplicities))
    return indices, numerators, den


def column_representation(matrix: HadamardesqueMatrix) -> RepresentationVector:
    """Sum the squared scales of every occurrence of each truth column."""
    _check_entries(f"weight vector of order {matrix.m}", 1, matrix.m - 1)
    indices, numerators, den = _column_weights(matrix)
    sums = [0] * (1 << (matrix.m - 1))
    for j, x in zip(indices, numerators):
        sums[j - 1] += x
    zero = Fraction(0)
    return RepresentationVector(matrix.m, tuple(Fraction(x, den) if x else zero for x in sums))


def pairwise_dots(matrix: HadamardesqueMatrix) -> PairwiseDots:
    """Exact pairwise row dot products.

    The dot product of rows (i, j) is the sum over the matrix's truth
    columns of weight times s_i * s_j: the dot product of the
    representation vector with the pair-product row for (i, j).  Refused
    past OUTPUT_ENTRY_BUDGET dot products (m > 2896).
    """
    if matrix.m < 2:
        raise ValueError("pairwise dots need at least two rows")
    _check_entries(f"pairwise dots of order {matrix.m}", pair_count(matrix.m), 0)
    indices, numerators, den = _column_weights(matrix)
    values = tuple(Fraction(x, den) for x in _pair_sums(matrix.m, indices, numerators))
    return PairwiseDots(matrix.m, values)


def in_free_span(v) -> SpanCheck:
    """Is v orthogonal to every pair-product row?

    Equivalently, does v lie in the span of the Hadamard rows that no row
    pair realises?  Accepts a RepresentationVector or any rational sequence
    of length 2^(m-1), from which m is read (difference vectors may be
    negative).  On failure the violating pair indices are returned with
    their residual dot products.
    """
    values = list(v.values if isinstance(v, RepresentationVector) else v)
    n = len(values)
    if n == 0 or n & (n - 1):
        raise ValueError(f"vector length must be a power of two, got {n}")
    numerators, den = _rational_numerators(values)
    return _span_check(n.bit_length(), range(1, n + 1), numerators, den)


def _span_check(m: int, indices, numerators: list[int], den: int) -> SpanCheck:
    """Free-span test of the weights numerators / den on truth columns indices."""
    violations = tuple(
        (L, Fraction(residual, den))
        for L, residual in enumerate(_pair_sums(m, indices, numerators), start=1)
        if residual
    )
    return SpanCheck(not violations, violations)


# ---------------------------------------------------------------------------
# Hadamard tests


def _entries_unit(matrix: DenseMatrix) -> bool:
    return all(e == 1 or e == -1 for e in matrix._distinct)


def _direct_row_dots_zero(matrix: DenseMatrix) -> bool:
    """Rows pairwise orthogonal, by one integer Gram product; entries must be +-1."""
    signs = np.array([1 if e == 1 else -1 for e in matrix._distinct], np.int64)[matrix._codes]
    gram = signs @ signs.T
    return not np.any(gram[np.triu_indices(len(gram), 1)])


def is_hadamard(matrix: DenseMatrix) -> bool:
    """Square, entries +-1, rows pairwise orthogonal (so M Mt = m I)."""
    if matrix.rows != matrix.cols:
        return False
    return _entries_unit(matrix) and _direct_row_dots_zero(matrix)


@dataclass(frozen=True)
class SquareClassification:
    """Three independently evaluated Hadamard criteria for a square matrix.

    * hadamard: entries +-1 and rows pairwise orthogonal (direct test).
    * sign_matrix_in_span: the matrix factors into weighted truth columns,
      has +-1 entries, and its representation vector lies in the free span.
    * lattice_point_in_span: the representation vector has m support
      entries, all of weight 1, and lies in the free span.  `representation`
      is that support as sorted (index, weight) pairs, None if unfactored.
    """

    order: int
    hadamard: bool
    sign_matrix_in_span: bool
    lattice_point_in_span: bool
    representation: tuple[tuple[int, Fraction], ...] | None
    flipped_columns: tuple[int, ...]
    violations: tuple[tuple[int, Fraction], ...]

    @property
    def verdicts_agree(self) -> bool:
        return self.hadamard == self.sign_matrix_in_span == self.lattice_point_in_span

    def to_record(self) -> dict:
        return {
            "order": self.order,
            "hadamard": self.hadamard,
            "sign_matrix_in_span": self.sign_matrix_in_span,
            "lattice_point_in_span": self.lattice_point_in_span,
            "verdicts_agree": self.verdicts_agree,
            "representation": None
            if self.representation is None
            else [[j, format_scalar(w)] for j, w in self.representation],
            "flipped_columns": list(self.flipped_columns),
            "violations": [
                {"pair": L, "rows": list(pair_rows(L)), "residual": format_scalar(r)}
                for L, r in self.violations
            ],
        }


def classify_square(matrix: DenseMatrix) -> SquareClassification:
    """Evaluate the three equivalent Hadamard criteria independently."""
    if matrix.rows != matrix.cols:
        raise ValueError(f"classification needs a square matrix, got {matrix.shape}")
    m = matrix.rows
    direct = is_hadamard(matrix)
    try:
        factored = factor_columns(matrix)
    except ShapeError:
        return SquareClassification(m, direct, False, False, None, (), ())
    indices, numerators, den = _column_weights(factored.matrix)
    support: dict[int, int] = {}
    for j, x in zip(indices, numerators):
        support[j] = support.get(j, 0) + x
    rep = tuple((j, Fraction(support[j], den)) for j in sorted(support))
    span = _span_check(m, indices, numerators, den)
    return SquareClassification(
        order=m,
        hadamard=direct,
        sign_matrix_in_span=_entries_unit(matrix) and span.in_span,
        lattice_point_in_span=len(rep) == m and all(w == 1 for _, w in rep) and span.in_span,
        representation=rep,
        flipped_columns=factored.flipped_columns,
        violations=span.violations,
    )
