"""Sign tables and Sylvester Hadamard matrices, fixed by bitmasks.

The truth table of order m is the m x 2^(m-1) matrix whose columns are all
sign vectors (1, +-1, ..., +-1).  Column j encodes its signs in the bits of
j-1: row k (k >= 2) is negative exactly when bit k-2 of j-1 is set.  One
function, _sign_block, applies that rule; every +-1 table here is built from
its output.  The search engine builds no table: its row bitsets read bit
k-2 of each candidate's j-1 directly.
With that convention, row k of the truth table is the Sylvester Hadamard
row with mask 2^(k-2) (row 1 is mask 0), and the coordinatewise product of
two truth rows is the Hadamard row whose mask is the XOR of theirs
(row_mask, pair_to_mask).  Every output that grows with 2^(m-1) (dense
tables, Sylvester matrices, weight vectors, dense expansions) is refused
past OUTPUT_ENTRY_BUDGET entries before anything is allocated; pair sums
cost what their column list costs.

A useful identity (not an operation): permuting the truth columns permutes
the columns of the pair-product table and of the Hadamard matrix the same
way, so all row-level statements are column-order free.

>>> truth_table(3).entries
((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1))
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

import numpy as np

from .dense import DenseMatrix, _sign_matrix
from .errors import ResourceLimitError

# Every output (table, matrix or weight vector) is refused past this many entries.
OUTPUT_ENTRY_BUDGET = 1 << 22
# An int64 butterfly cannot overflow while the input's l1 norm stays below this.
_INT64_BOUND = 1 << 63


def _check_order(m: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"order m must be a positive integer, got {m!r}")


def _check_entries(what: str, factor: int, exponent: int,
                   budget: int = OUTPUT_ENTRY_BUDGET) -> None:
    """Refuse `what`, of factor * 2^exponent entries, if that exceeds `budget`."""
    # Bound the exponent before shifting by it: 1 << exponent alone can exhaust memory.
    small = exponent <= budget.bit_length()
    if small and factor << exponent <= budget:
        return
    count = factor << exponent if small else f"{factor}*2^{exponent}"
    raise ResourceLimitError(f"{what} needs {count} entries, over the budget {budget}")


def _check_columns(m: int, indices: Sequence[int]) -> None:
    # Bit lengths, not 1 << (m - 1): a huge m must not build a huge int.
    if indices and (min(indices) < 1 or (max(indices) - 1).bit_length() >= m):
        raise IndexError(f"column index out of range [1, 2^{m - 1}] for m={m}")


def _sorted_columns(m: int, columns) -> list[int]:
    """`columns` as ascending ints, after checking the order m, each index's type and the range."""
    _check_order(m)
    indices = []
    for j in columns:
        try:
            indices.append(operator.index(j))
        except TypeError:
            raise ValueError(f"column index must be an integer, got {j!r}") from None
    indices.sort()
    _check_columns(m, indices)
    return indices


# ---------------------------------------------------------------------------
# Sign columns and truth table


def _sign_block(m: int, indices: Sequence[int]) -> np.ndarray:
    """int8 array of shape (m, len(indices)) holding truth columns `indices`."""
    _check_columns(m, indices)
    width = (m + 6) // 8  # bytes holding the m-1 sign bits of a column index
    raw = b"".join(int(j - 1).to_bytes(width, "little") for j in indices)
    packed = np.frombuffer(raw, np.uint8).reshape(len(indices), width)
    bits = np.unpackbits(packed, axis=1, count=m - 1, bitorder="little")
    block = np.ones((m, len(indices)), np.int8)
    block[1:] -= 2 * bits.T.view(np.int8)
    return block


def _pair_block(m: int, indices: Sequence[int]) -> np.ndarray:
    """int8 pair-product rows, in pair_index order, of truth columns `indices`.

    The pairs (i, j) of one later row j are consecutive, so each run of
    them is multiplied in place by row j: the result is the only array of
    its size.
    """
    block = _sign_block(m, indices)
    _, earlier = np.tril_indices(m, -1)
    out = block[earlier]
    for j in range(1, m):
        start = j * (j - 1) // 2
        out[start:start + j] *= block[j]
    return out


def truth_table(m: int) -> DenseMatrix:
    """Dense m x 2^(m-1) truth table, within OUTPUT_ENTRY_BUDGET entries (m <= 18)."""
    _check_order(m)
    _check_entries(f"truth table of order {m}", m, m - 1)
    return _sign_matrix(_sign_block(m, range(1, (1 << (m - 1)) + 1)) < 0)


# ---------------------------------------------------------------------------
# Row pairs and their Hadamard row masks


def pair_count(m: int) -> int:
    _check_order(m)
    return m * (m - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Linear index of the ordered row pair (i, j), i < j.

    Pairs are ordered (1,2), (1,3), (2,3), (1,4), (2,4), (3,4), ...
    """
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    return (j - 1) * (j - 2) // 2 + i


def pair_rows(linear: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    if linear < 1:
        raise ValueError(f"pair index must be >= 1, got {linear}")
    j = (1 + isqrt(8 * linear - 7)) // 2 + 1
    i = linear - (j - 1) * (j - 2) // 2
    return i, j


def row_mask(k: int) -> int:
    """Hadamard row mask of truth-table row k: 0 for row 1, else 2^(k-2)."""
    if k < 1:
        raise ValueError(f"row must be >= 1, got {k}")
    return 0 if k == 1 else 1 << (k - 2)


def pair_to_mask(m: int, linear: int) -> int:
    """Hadamard row mask of the pair-product row with the given linear index."""
    if not 1 <= linear <= pair_count(m):
        raise IndexError(f"pair index {linear} out of range [1, {pair_count(m)}]")
    i, j = pair_rows(linear)
    return row_mask(i) ^ row_mask(j)


def pair_masks(m: int) -> frozenset[int]:
    """Masks of the Hadamard rows realised by some row pair (m(m-1)/2 of them)."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return frozenset(pair_to_mask(m, L) for L in range(1, pair_count(m) + 1))


def free_masks(m: int) -> frozenset[int]:
    """Masks of the remaining Hadamard rows, unconstrained by any row pair."""
    _check_order(m)
    _check_entries(f"mask list of order {m}", 1, m - 1)
    used = pair_masks(m)
    return frozenset(mask for mask in range(1 << (m - 1)) if mask not in used)


def pair_product_table(m: int) -> DenseMatrix:
    """Dense m(m-1)/2 x 2^(m-1) table of columnwise pairwise products (m <= 16)."""
    if pair_count(m) < 1:  # pair_count rejects non-integer and nonpositive m
        raise ValueError(f"need m >= 2, got {m}")
    _check_entries(f"pair-product table of order {m}", pair_count(m), m - 1)
    return _sign_matrix(_pair_block(m, range(1, (1 << (m - 1)) + 1)) < 0)


# ---------------------------------------------------------------------------
# Sylvester matrices and the fast transform


def sylvester(k: int) -> DenseMatrix:
    """The 2^k x 2^k Sylvester Hadamard matrix with +-1 entries (k <= 11)."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"exponent k must be a nonnegative integer, got {k!r}")
    _check_entries(f"Sylvester matrix of order 2^{k}", 1, 2 * k)
    negative = np.zeros((1, 1), bool)
    for _ in range(k):  # [[H, H], [H, -H]]
        negative = np.block([[negative, negative], [negative, ~negative]])
    return _sign_matrix(negative)


def fwht(values: Sequence) -> list:
    """Fast Walsh-Hadamard transform in natural (Hadamard) row order.

    Returns the dot products of `values` with every row of the Sylvester
    matrix of matching order: out[mask] = <values, row mask+1>.  Applying
    it twice multiplies the input by N.

    Exact over int and Fraction inputs.  Ints in give ints out; any
    Fraction in gives Fractions out.  Rational input is scaled to integer
    numerators over the lcm of its denominators, transformed as integers,
    and divided back.  The integer transform runs as a numpy int64
    butterfly when the numerators satisfy sum(|v|) < 2^63: every
    intermediate is a signed subset sum of the inputs, so none can
    overflow.  Larger inputs run the same butterfly over Python ints.  Any
    other entry type raises TypeError.
    """
    n = len(values)
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if all(isinstance(v, int) for v in values):
        return _int_fwht(values)
    numerators, den = _rational_numerators(values)
    return [Fraction(x, den) for x in _int_fwht(numerators)]


def _rational_numerators(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators of int/Fraction values over their least common denominator."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"exact transform needs int or Fraction entries, got {v!r}")
    den = lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_fwht(values: Sequence[int]) -> list[int]:
    n = len(values)
    # object dtype keeps Python ints, exact at any size.
    dtype = np.int64 if sum(map(abs, values)) < _INT64_BOUND else object
    out = np.array(values, dtype=dtype)
    half = 1
    while half < n:
        blocks = out.reshape(-1, 2, half)
        x, y = blocks[:, 0], blocks[:, 1]
        out = np.stack((x + y, x - y), axis=1)
        half *= 2
    return out.reshape(n).tolist()


def _pair_sums(m: int, indices: Sequence[int], numerators: Sequence[int]) -> list[int]:
    """sum_c numerators[c] * s_i(c) * s_j(c) per row pair (i, j), in pair_index order.

    s(c) is truth column indices[c].  Exact: int64 while sum(|w|) < 2^63 (every
    partial sum is a signed subset sum of the weights), Python ints past that.
    """
    # Measured for m = 6..16: the sign-block Gram product beats the FWHT up to
    # n*m ~ 2*2^m in int64, ~ 2^m/3 in Python ints.  n*m < 2^m sends a matrix's
    # own columns to the Gram product, near-full weight vectors to the FWHT.
    # Bit length, not 1 << m: a huge m must not build a huge int.
    if (m * len(indices)).bit_length() <= m:
        dtype = np.int64 if sum(map(abs, numerators)) < _INT64_BOUND else object
        block = _sign_block(m, indices).astype(dtype)
        gram = (block * np.array(numerators, dtype=dtype)) @ block.T
        later, earlier = np.tril_indices(m, -1)
        return gram[later, earlier].tolist()
    weights = [0] * (1 << (m - 1))
    for j, w in zip(indices, numerators):
        weights[j - 1] += w
    spectrum = _int_fwht(weights)
    return [spectrum[pair_to_mask(m, L)] for L in range(1, pair_count(m) + 1)]
