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
from math import inf, lcm
from operator import getitem

import numpy as np

from .dense import DenseMatrix
from .errors import ShapeError
from .scalars import SqrtRational, format_scalar
from .walsh import (
    _check_entries,
    _pair_sums,
    _rational_numerators,
    _sign_block,
    column_from_signs,
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

    @property
    def scale(self):
        """The positive column scale sqrt(q), exact."""
        return SqrtRational.sqrt(self.q)


@dataclass(frozen=True)
class HadamardesqueMatrix:
    """An ordered multiset of weighted truth-table columns on m rows."""

    m: int
    columns: tuple[WeightedColumn, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"row count must be >= 1, got {self.m}")
        if not self.columns:
            raise ValueError("a matrix needs at least one column")
        # Bit length, not 1 << (m - 1): a huge m must not build a huge int.
        top = max(col.index for col in self.columns)
        if (top - 1).bit_length() >= self.m:
            raise ValueError(
                f"column index {top} out of range [1, 2^{self.m - 1}] for m={self.m}"
            )

    @property
    def n(self) -> int:
        """Total column count, multiplicities included."""
        return sum(c.multiplicity for c in self.columns)

    def dense(self) -> DenseMatrix:
        """Expand to a dense exact matrix; entries are +-sqrt(q).

        Refused past OUTPUT_ENTRY_BUDGET entries (m * n, multiplicities included).
        """
        _check_entries(f"dense {self.m} x {self.n} matrix", self.m * self.n, 0)
        # Each column's two entries are built once and picked by sign; both are canonical.
        scales = [col.scale for col in self.columns]
        times = [col.multiplicity for col in self.columns]
        picks = [(s, -s) for s, k in zip(scales, times) for _ in range(k)]
        signs = _sign_block(self.m, [col.index for col in self.columns])
        negative = np.repeat(signs < 0, times, axis=1).tolist()
        return DenseMatrix(tuple(tuple(map(getitem, picks, row)) for row in negative))


@dataclass(frozen=True)
class RepresentationVector:
    """Per-truth-column squared-scale weights; length 2^(m-1), all >= 0."""

    m: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.values)
        # n = 2^(m-1) tested by bit length: shifting by a huge m can exhaust memory.
        if self.m < 1 or n.bit_length() != self.m or n & (n - 1):
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


def _lead(lead) -> tuple:
    """An exact leading entry's negation, square and sign, and a memo of the
    sign of each entry object compared with it, keyed by id."""
    if isinstance(lead, SqrtRational):
        return -lead, lead.square, lead.sign, {id(lead): 1}
    return -lead, lead * lead, (lead > 0) - (lead < 0), {id(lead): 1}


def factor_columns(matrix: DenseMatrix, tol: float | None = None) -> Factorization:
    """Factor each column as sqrt(q) times a truth column, in one pass per column.

    Every entry is compared with the column's leading entry: an exact entry
    must equal it (sign +1) or its negation (sign -1), with q its square; a
    float entry's modulus must lie within the relative tolerance of the
    largest, with q the squared mean modulus.  Columns whose leading entry
    is not positive are normalised by a global sign flip (their pairwise
    products are unchanged); the flipped input positions are reported.

    Exact work is done once per distinct value object, not per entry: a
    leading entry's negation, square and sign once per call, and each
    entry's comparison with a leading entry once, remembered by identity
    (a parsed file shares one object per distinct token).  A first sight
    compares by value, so equal entries that are distinct objects factor
    too.  Raises ShapeError for a zero column or a column whose entries do not
    share one modulus, and ValueError for a tolerance that is negative or
    not finite.
    """
    if tol is not None and not 0 <= tol < inf:  # also rejects NaN
        raise ValueError(f"modulus tolerance must be finite and >= 0, got {tol!r}")
    exact = matrix.is_exact
    if exact and tol:
        raise ValueError("exact matrices require tol=0")
    tol = DEFAULT_FLOAT_TOL if tol is None else tol
    columns = []
    flipped = []
    leads: dict[int, tuple] = {}  # id(exact leading entry) -> _lead(entry)
    squares: dict[float, Fraction] = {}  # float mean modulus -> its exact square
    for j, col in enumerate(zip(*matrix.entries), start=1):
        lead = col[0]
        if exact:
            neg, q, sign, seen = leads.get(id(lead)) or leads.setdefault(id(lead), _lead(lead))
            signs = list(map(seen.get, map(id, col)))
            if None in signs:  # an entry object new to this lead: compare by value, once
                signs = [
                    seen[id(e)] if id(e) in seen
                    else seen.setdefault(id(e), 1 if e == lead else -1 if e == neg else 0)
                    for e in col
                ]
            spread = 0 in signs
            zero, up = not (spread or sign), sign > 0
        else:
            moduli = list(map(abs, col))
            top = max(moduli)
            zero, spread = top == 0.0, top - min(moduli) > tol * top
            up = lead > 0
            signs = [1 if (e > 0) == up else -1 for e in col]
            mean = sum(moduli) / len(moduli)
            if mean == inf:  # the float sum overflowed: average the moduli exactly
                q = (sum(map(Fraction, moduli)) / len(moduli)) ** 2
            else:
                q = squares.get(mean) or squares.setdefault(mean, Fraction(mean) ** 2)
        if zero:
            raise ShapeError(f"column {j} is zero")
        if spread:
            raise ShapeError(f"column {j}: entries do not share a common modulus")
        if not up:
            flipped.append(j)
        columns.append(WeightedColumn(q=q, index=column_from_signs(signs)))
    return Factorization(HadamardesqueMatrix(matrix.rows, tuple(columns)), tuple(flipped))


def to_hadamardesque(matrix: DenseMatrix) -> HadamardesqueMatrix:
    """Factor a dense matrix at factor_columns' default tolerance; return its matrix."""
    return factor_columns(matrix).matrix


# ---------------------------------------------------------------------------
# Representation vectors and dot products


def _column_weights(matrix: HadamardesqueMatrix) -> tuple[list[int], list[int], int]:
    """Truth column index and weight numerator of every column, over one common denominator."""
    den = lcm(*{col.q.denominator for col in matrix.columns})
    numerators = [c.q.numerator * (den // c.q.denominator) * c.multiplicity for c in matrix.columns]
    return [col.index for col in matrix.columns], numerators, den


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


def same_pairwise_dots(v: RepresentationVector, w: RepresentationVector) -> SpanCheck:
    """Do two representation vectors force identical pairwise row dots?

    True exactly when their difference is orthogonal to every pair-product
    row; the difference may be negative coordinatewise.
    """
    if v.m != w.m:
        raise ValueError(f"order mismatch: {v.m} vs {w.m}")
    v_nums, v_den = _rational_numerators(v.values)
    w_nums, w_den = _rational_numerators(w.values)
    den = lcm(v_den, w_den)
    v_scale, w_scale = den // v_den, den // w_den
    diff = [a * v_scale - b * w_scale for a, b in zip(v_nums, w_nums)]
    return _span_check(v.m, range(1, len(diff) + 1), diff, den)


# ---------------------------------------------------------------------------
# Hadamard tests


def _entries_unit(matrix: DenseMatrix) -> bool:
    return all(e == 1 or e == -1 for row in matrix.entries for e in row)


def _direct_row_dots_zero(matrix: DenseMatrix) -> bool:
    """Rows pairwise orthogonal, by one integer Gram product; entries must be +-1."""
    signs = np.array([[1 if e == 1 else -1 for e in row] for row in matrix.entries], np.int64)
    gram = signs @ signs.T
    return not np.any(gram[np.triu_indices(len(gram), 1)])


def is_hadamard(matrix: DenseMatrix) -> bool:
    """Square, entries +-1, rows pairwise orthogonal (so M Mt = m I)."""
    if matrix.rows != matrix.cols:
        return False
    return _entries_unit(matrix) and _direct_row_dots_zero(matrix)


def is_partial_hadamard(matrix: DenseMatrix) -> bool:
    """Entries +-1 and rows pairwise orthogonal; the matrix may be rectangular.

    The direct dot-product verdict is cross-checked against the pair sums
    of the factored columns (representation vector in the free span); the
    two are equivalent, so a mismatch signals an internal error.
    """
    if not _entries_unit(matrix):
        return False
    if matrix.rows < 2:
        return True
    direct = _direct_row_dots_zero(matrix)
    indices, numerators, _ = _column_weights(to_hadamardesque(matrix))
    in_span = not any(_pair_sums(matrix.rows, indices, numerators))
    if direct != in_span:
        raise RuntimeError("direct and free-span orthogonality tests disagree")
    return direct


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
