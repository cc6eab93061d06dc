"""Independent reference computations the fast paths are tested against.

Everything here deliberately avoids the library's bit formulas: Hadamard
matrices come from the doubling recursion, truth tables from the
column-doubling recursion, dot products from literal sums of products, the
column-set oracle enumerates subsets outright, the realizations build
their matrices one WeightedColumn at a time, the matrix parser reads every
entry on its own, and the matrix printer finds equal entries by id().
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from hadamardesque import (
    ConstructionOptions,
    DenseMatrix,
    FormatError,
    HadamardesqueMatrix,
    WeightedColumn,
    construct_crv,
    parse_scalar,
)
from hadamardesque.construct import _UNIFORM_REASON, _target_fractions
from hadamardesque.scalars import _finite_float, format_scalar


def sylvester_by_doubling(k: int):
    """H(2^k) via the block recursion [[H, H], [H, -H]]."""
    rows = [[1]]
    for _ in range(k):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return tuple(tuple(r) for r in rows)


def truth_by_recursion(m: int):
    """Truth table via doubling: copy the columns, append a +1/-1 row."""
    rows = [[1]]
    for _ in range(m - 1):
        width = len(rows[0])
        rows = [r + r for r in rows] + [[1] * width + [-1] * width]
    return tuple(tuple(r) for r in rows)


def column_index_of_signs(signs) -> int:
    """1-based truth column index of a sign vector with a leading +1, by the bit rule.

    Row k (k >= 2) negative adds 2^(k-2) to the index.
    """
    assert signs[0] == 1 and all(s in (1, -1) for s in signs)
    return 1 + sum(2 ** (k - 2) for k, s in enumerate(signs, start=1) if k >= 2 and s == -1)


def pair_products_by_rows(m: int):
    """Pairwise-product table: literal products of truth-table row pairs."""
    truth = truth_by_recursion(m)
    rows = []
    for j in range(2, m + 1):
        for i in range(1, j):
            rows.append(tuple(a * b for a, b in zip(truth[i - 1], truth[j - 1])))
    return tuple(rows)


def naive_wht(values):
    """All dot products with the rows of the doubling-built Hadamard matrix."""
    n = len(values)
    k = n.bit_length() - 1
    assert 1 << k == n
    hadamard = sylvester_by_doubling(k)
    return [sum(h * v for h, v in zip(row, values)) for row in hadamard]


def row_dots(entries):
    """Pairwise dot products of the rows of a dense matrix, in pair order."""
    out = []
    for j in range(1, len(entries)):
        for i in range(j):
            out.append(sum(a * b for a, b in zip(entries[i], entries[j])))
    return tuple(out)


def column_product_sums(entries):
    """Sum of the pairwise-product vectors of every column (the column route)."""
    m = len(entries)
    n_pairs = m * (m - 1) // 2
    total = [0] * n_pairs
    for col in zip(*entries):
        pos = 0
        for j in range(1, m):
            for i in range(j):
                total[pos] = total[pos] + col[i] * col[j]
                pos += 1
    return tuple(total)


def brute_force_column_sets(m: int, chunk: int = 200_000):
    """All m-subsets of truth columns with orthogonal rows, by enumeration.

    Returns (solutions, subsets_checked).  Vectorised over the
    recursion-built truth table, so it shares no code with the engine.
    """
    truth = np.array(truth_by_recursion(m), dtype=np.int16)
    n_cols = truth.shape[1]
    pair_rows_arr = []
    for j in range(1, m):
        for i in range(j):
            pair_rows_arr.append(truth[i] * truth[j])
    products = np.array(pair_rows_arr, dtype=np.int16).T  # (columns, pairs)

    solutions = []
    checked = 0
    combos = itertools.combinations(range(n_cols), m)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        checked += len(block)
        idx = np.array(block, dtype=np.int64)
        sums = products[idx].sum(axis=1)
        for hit in np.flatnonzero(~sums.any(axis=1)):
            solutions.append(tuple(int(x) + 1 for x in block[hit]))
    return solutions, checked


def columns_orthogonal_to_ones(m: int):
    """Ascending indices of the truth columns whose literal dot with column 1 is 0."""
    columns = list(zip(*truth_by_recursion(m)))
    return tuple(c for c, col in enumerate(columns, start=1)
                 if sum(a * b for a, b in zip(columns[0], col)) == 0)


def search_walk(m: int, force_first_column: bool = False, node_limit: int | None = None):
    """The search engine's walk, by a literal pure-Python DFS (even m only).

    Column 1 (all ones) is forced in both modes and is the first node.
    The columns of the recursion-built truth table orthogonal to it are then
    chosen in ascending order.  With r columns still to choose, a column is
    admitted when every row-pair sum stays within r - 1 after adding its
    products, and admitted columns are taken in ascending order only while
    at least r of them are left, the current one included.  Each taken
    column is one node, counted before it is expanded.  At most node_limit
    nodes are visited.

    Without force_first_column, every set the walk finds is followed by its
    translates: for each of the 2^(m-1) sign vectors d with d[0] = +1, in
    ascending order of the index of the truth column d, the set whose
    columns are d times the found ones, kept when column d is its smallest.

    Returns (walk, emitted): the chosen-column tuple of every node in visit
    order, and (solution, nodes visited when it was found) for every
    emitted solution.
    """
    assert m % 2 == 0
    truth = truth_by_recursion(m)
    columns = list(zip(*truth))
    index_of = {col: c for c, col in enumerate(columns, start=1)}
    pairs = [(i, j) for j in range(1, m) for i in range(j)]
    products = [None] + [tuple(col[i] * col[j] for i, j in pairs) for col in columns]
    orthogonal = columns_orthogonal_to_ones(m)
    walk, emitted = [], []

    class Stop(Exception):
        pass

    def visit(chosen):
        if node_limit is not None and len(walk) >= node_limit:
            raise Stop
        walk.append(chosen)

    def emit(found):
        if force_first_column:
            emitted.append((found, len(walk)))
            return
        for d in columns:
            translate = sorted(index_of[tuple(a * b for a, b in zip(d, columns[c - 1]))]
                               for c in found)
            if translate[0] == index_of[d]:
                emitted.append((tuple(translate), len(walk)))

    def expand(chosen, sums, start, remaining):
        if remaining == 0:
            if not any(sums):
                emit(chosen)
            return
        admitted = [
            c for c in orthogonal
            if c >= start and all(abs(s + t) <= remaining - 1 for s, t in zip(sums, products[c]))
        ]
        for taken, c in enumerate(admitted):
            if len(admitted) - taken < remaining:
                break
            visit(chosen + (c,))
            expand(chosen + (c,), [s + t for s, t in zip(sums, products[c])], c + 1, remaining - 1)

    try:
        visit((1,))
        expand((1,), list(products[1]), 2, m - 1)
    except Stop:
        pass
    return walk, emitted


def random_fraction(rng, num_range=9, den_range=9, allow_negative=True) -> Fraction:
    num = rng.randint(1, num_range)
    if allow_negative and rng.random() < 0.5:
        num = -num
    if rng.random() < 0.2:
        num = 0
    return Fraction(num, rng.randint(1, den_range))


def _square_and_sign(entry):
    if hasattr(entry, "square"):  # SqrtRational keeps both exactly
        return entry.square, entry.sign
    return Fraction(entry) ** 2, (entry > 0) - (entry < 0)


def factor_by_squares(entries):
    """Factor dense columns from per-entry squares and signs.

    Each normalised sign column is looked up in the recursion-built truth
    table.  Returns the (q, index) pairs and the flipped column positions;
    raises ValueError for a zero column or one with mixed moduli.
    """
    truth_columns = list(zip(*truth_by_recursion(len(entries))))
    pairs, flipped = [], []
    for pos, col in enumerate(zip(*entries), start=1):
        squares, signs = zip(*map(_square_and_sign, col))
        if set(squares) == {0}:
            raise ValueError(f"column {pos} is zero")
        if len(set(squares)) != 1:
            raise ValueError(f"column {pos} has mixed moduli")
        if signs[0] < 0:
            signs = tuple(-s for s in signs)
            flipped.append(pos)
        pairs.append((squares[0], truth_columns.index(signs) + 1))
    return tuple(pairs), tuple(flipped)


def factor_by_lead(entries):
    """Factor exact dense columns literally, one column and one entry at a time.

    Each entry is compared by value with its column's leading entry: equal
    gives sign +1, equal to the lead's negation -1, and anything else means
    the moduli differ.  A column that passes with a zero lead is zero.
    Signs taken against the lead are those of the column flipped to a
    positive lead, and the index is built from them bit by bit: row k
    (k >= 2) negative adds 2^(k-2).  Returns the
    (q, index) pairs and the flipped positions; raises ValueError, with
    factor_columns' message, for the first bad column.
    """
    pairs, flipped = [], []
    for pos, col in enumerate(zip(*entries), start=1):
        lead = col[0]
        signs = []
        for entry in col:
            if entry == lead:
                signs.append(1)
            elif entry == -lead:
                signs.append(-1)
            else:
                raise ValueError(f"column {pos}: entries do not share a common modulus")
        square, sign = _square_and_sign(lead)
        if sign == 0:
            raise ValueError(f"column {pos} is zero")
        if sign < 0:
            flipped.append(pos)
        index = 1
        for bit, s in enumerate(signs[1:]):
            if s == -1:
                index += 2**bit
        pairs.append((Fraction(square), index))
    return tuple(pairs), tuple(flipped)


# ---------------------------------------------------------------------------
# Matrix realizations column by column, through WeightedColumn and the
# public HadamardesqueMatrix(m, columns) constructor.


def realize_canonical(v):
    """One column of scale sqrt(v_i) per nonzero weight."""
    columns = tuple(
        WeightedColumn(q=value, index=i)
        for i, value in enumerate(v.values, start=1)
        if value
    )
    if not columns:
        raise ValueError("all-zero weight vector: a matrix needs at least one column")
    return HadamardesqueMatrix(v.m, columns)


def realize_uniform_rational(m, a, options=None):
    """Every weight p/q (lowest terms) as p*q*(d/q)^2 columns of scale 1/d, d the lcm of the q."""
    opts = options or ConstructionOptions(flavor="rational")
    target = _target_fractions(m, a, reason=_UNIFORM_REASON)
    v = construct_crv(m, target, opts)
    staged = [
        (i, value.numerator, value.denominator)
        for i, value in enumerate(v.values, start=1)
        if value
    ]
    if not staged:
        raise ValueError("all-zero weight vector: a matrix needs at least one column")
    d = math.lcm(*(den for _, _, den in staged))
    q = Fraction(1, d * d)
    columns = tuple(
        WeightedColumn(q=q, index=i, multiplicity=num * den * (d // den) ** 2)
        for i, num, den in staged
    )
    return HadamardesqueMatrix(m, columns)


def realize_uniform_irrational(m, a, options=None):
    """Every column of the uniform rational realization doubled, at half the squared scale."""
    base = realize_uniform_rational(m, a, options)
    q = base.columns[0].q / 2  # every column shares the scale 1/d^2
    columns = tuple(
        WeightedColumn(q=q, index=col.index, multiplicity=col.multiplicity * 2)
        for col in base.columns
    )
    return HadamardesqueMatrix(m, columns)


def construct_by_columns(m, a, options):
    """construct_matrix's dispatch over the column-by-column realizations."""
    if options.flavor == "canonical":
        return realize_canonical(construct_crv(m, a, options))
    if options.flavor == "rational":
        return realize_uniform_rational(m, a, options)
    return realize_uniform_irrational(m, a, options)


# ---------------------------------------------------------------------------
# The text format entry by entry.


def parse_by_token(text: str, exact: bool = False) -> DenseMatrix:
    """parse_matrix with no sharing: parse_scalar on every entry as written.

    Entries are parsed in row-major order, then, if any is a float, every
    entry is converted to a finite float in the same order; the first
    failure names its line.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise FormatError(f"line {header_no}: expected header 'm n', got {header.strip()!r}")
    n_rows, n_cols = int(parts[0]), int(parts[1])
    if n_rows < 1 or n_cols < 1:
        raise FormatError(f"line {header_no}: dimensions must be positive")
    if len(lines) - 1 != n_rows:
        raise FormatError(f"expected {n_rows} rows after the header, found {len(lines) - 1}")
    rows = []
    for line_no, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n_cols:
            raise FormatError(f"line {line_no}: expected {n_cols} entries, found {len(tokens)}")
        rows.append((line_no, tokens))
    values = []
    for line_no, tokens in rows:
        try:
            values.append([parse_scalar(tok, exact=exact) for tok in tokens])
        except FormatError as exc:
            raise FormatError(f"line {line_no}: {exc}") from None
    is_exact = not any(isinstance(v, float) for row in values for v in row)
    if not is_exact:
        for (line_no, tokens), row in zip(rows, values):
            try:
                row[:] = [_finite_float(v, tok) for v, tok in zip(row, tokens)]
            except FormatError as exc:
                raise FormatError(f"line {line_no}: {exc}") from None
    return DenseMatrix(tuple(map(tuple, values)))


def format_by_id(matrix: DenseMatrix) -> str:
    """The shared text format, formatting each distinct entry object once.

    Tokens are remembered by identity, not by value: 1 and 1.0 are equal
    but print as different tokens.
    """
    objects: dict[int, object] = {}
    for row in matrix.entries:
        objects.update(zip(map(id, row), row))
    token = {key: format_scalar(entry) for key, entry in objects.items()}.__getitem__
    lines = [f"{matrix.rows} {matrix.cols}"]
    lines.extend(" ".join(map(token, map(id, row))) for row in matrix.entries)
    return "\n".join(lines) + "\n"
