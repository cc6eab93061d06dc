"""Hunt Hadamard matrices as subsets of truth-table columns.

A Hadamard matrix of order m is an m-subset of the 2^(m-1) truth columns
whose pairwise products sum to zero on every row pair; equivalently its 0/1
weight vector has m ones and vanishing Walsh spectrum on every pair mask.
The engine runs depth-first over ascending column indices, keeping the
m(m-1)/2 running pair sums as a small integer array.

Pruning: a pair sum built from k columns contributes +-1 per column, so it
always has the parity of k; with r columns still to choose, a branch dies
as soon as any |pair sum| exceeds r, and no odd order ever leaves the root
(the final parity cannot be even).  Ascending indices enumerate subsets,
not permutations.  Optionally the all-ones column can be forced into every
solution: negating the rows where any chosen column is negative (then
renormalising column signs) maps solutions onto solutions containing it.

The prune is read off *tight* pairs.  For even m, a node with r columns
still to choose has every pair sum s of the parity of r, and |s| <= r
because its parent admitted it.  A candidate column adds t = +-1, and
|s + t| <= r - 1 can fail only when |s| = r, where t must have the sign
opposite to s.  A pair that is tight at a node stays tight, with the same
sign, in every child, so a column that passes a child's test passed its
parent's too.  Candidates are therefore one Python-int bitset over the
columns (bit j-1 for column j): a child takes its parent's surviving bits
above its own column and ANDs in, for each tight pair p, ``minus[p]`` (the
columns whose product on p is -1) or its complement ``plus[p]``.  Both are
built once per run from the pair-sign table.

The search is one sequential depth-first walk from the root under one set
of budgets, so partial runs are deterministic too: every run visits the same
nodes in the same order, a node-limited run repeats exactly, and a
time-limited run returns a prefix of that walk.

Solutions are reported as index subsets: one subset stands for every column
ordering of the same dense matrix, so matrices are recovered up to column
permutation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .classify import is_hadamard
from .dense import DenseMatrix, _sign_matrix
from .walsh import _check_columns, _check_entries, _pair_block, _pair_sums, _sign_block, pair_count

ENGINE_TABLE_BUDGET = 1 << 27  # pair-product table entries (int8 bytes)


@dataclass(frozen=True)
class SearchOptions:
    node_limit: int | None = None
    time_limit: float | None = None
    force_first_column: bool = False

    def __post_init__(self):
        for name in ("node_limit", "time_limit"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class SearchReport:
    m: int
    solutions: tuple[tuple[int, ...], ...]
    nodes: int
    elapsed: float
    exhaustive: bool
    limit_fired: str | None
    normalized: bool

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "solutions": [list(s) for s in self.solutions],
            "nodes": self.nodes,
            "elapsed": self.elapsed,
            "exhaustive": self.exhaustive,
            "limit_fired": self.limit_fired,
            "normalized": self.normalized,
        }


def column_set_matrix(m: int, columns) -> DenseMatrix:
    """Dense +-1 matrix whose columns are the given truth columns."""
    return _sign_matrix(_sign_block(m, sorted(columns)) < 0)


def pair_sign_table(m: int) -> np.ndarray:
    """int8 table of shape (pairs, columns): the pairwise products of every column."""
    _check_entries(f"pair-sign table of order {m}", pair_count(m), m - 1, ENGINE_TABLE_BUDGET)
    return _pair_block(m, range(1, (1 << (m - 1)) + 1))


class _Stop(Exception):
    """Ends a run; its one argument is the budget that fired."""


@dataclass(slots=True)
class _Run:
    """Node count, solutions, budgets and solution callback of one search run."""

    m: int
    node_limit: int | None
    deadline: float | None
    solution_limit: int | None
    on_solution: object
    nodes: int = 0
    solutions: list = field(default_factory=list)

    def visit(self):
        # Check before counting: a run never reports more than node_limit
        # nodes, and a tree of exactly node_limit nodes still finishes.
        if self.node_limit is not None and self.nodes >= self.node_limit:
            raise _Stop("nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop("time")
        self.nodes += 1

    def emit(self, chosen: tuple[int, ...]):
        if not verify_column_set(self.m, chosen):
            raise RuntimeError(f"engine emitted a non-solution {chosen} for m={self.m}")
        self.solutions.append(chosen)
        if self.on_solution is not None:
            self.on_solution(chosen)
        if self.solution_limit is not None and len(self.solutions) >= self.solution_limit:
            raise _Stop("solutions")


def _dfs(table: np.ndarray, minus: list[int], plus: list[int], chosen: tuple[int, ...],
         sums: np.ndarray, candidates: int, remaining: int, run: _Run) -> None:
    """Walk the subtree below `chosen`, whose pair sums are `sums`.

    `candidates` holds the columns above the last chosen one that passed
    every ancestor's test.  With `remaining` = r > 0, a column j passes this
    node's test when |s + table[:, j-1]| <= r - 1 on every pair.  Sums have
    the parity of r (m is even) and |s| <= r, so only tight pairs (|s| = r)
    can fail it, and on those the column's product must be -sign(s): one
    AND with ``minus[p]`` or ``plus[p]`` per tight pair.  Tight pairs stay
    tight in every child, so the inherited bits already passed the
    ancestors' tests and the ANDs leave exactly this node's feasible set.
    Columns are then visited in ascending order up to the last one leaving
    room for the rest.
    """
    if remaining == 0:
        if not np.any(sums):
            run.emit(chosen)
        return
    row = sums.tobytes()  # a tight sum r or -r is the int8 byte r or 256 - r
    for value, masks in ((remaining, minus), (256 - remaining, plus)):
        p = row.find(value)
        while p >= 0:
            candidates &= masks[p]
            p = row.find(value, p + 1)
    hi = table.shape[1] - remaining + 1  # last index leaving room for the rest
    while candidates:
        low = candidates & -candidates
        j = low.bit_length()
        if j > hi:
            return
        candidates ^= low
        run.visit()
        _dfs(table, minus, plus, chosen + (j,), sums + table[:, j - 1], candidates,
             remaining - 1, run)


def find_hadamard_column_sets(m: int, limit: int | None = None,
                              options: SearchOptions | None = None,
                              on_solution=None) -> SearchReport:
    """Stream all m-subsets of truth columns that form a Hadamard matrix.

    Every solution is triple-checked as soon as it is found, then handed to
    `on_solution`: its running pair sums are zero, verify_column_set's pair
    sums vanish, and its dense matrix passes the direct Hadamard test.  The
    report says whether the tree was fully explored and which budget (if
    any) cut the run short.  Odd orders end at the root; even orders whose
    pair-sign table exceeds ENGINE_TABLE_BUDGET (m >= 22) raise
    ResourceLimitError.
    """
    opts = options or SearchOptions()
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if limit is not None and limit < 1:
        raise ValueError(f"solution limit must be >= 1, got {limit}")
    started = time.monotonic()
    deadline = None if opts.time_limit is None else started + opts.time_limit
    run = _Run(m, opts.node_limit, deadline, limit, on_solution)
    reason = None
    # Parity of the final pair sums equals the parity of m: odd orders are
    # exhausted at the root without expanding anything.
    if m % 2 == 0:
        table = pair_sign_table(m)
        everything = (1 << table.shape[1]) - 1  # bit j-1 stands for column j
        minus = [int.from_bytes(np.packbits(row < 0, bitorder="little").tobytes(), "little")
                 for row in table]
        plus = [everything ^ bits for bits in minus]
        try:
            if opts.force_first_column:
                run.visit()
                _dfs(table, minus, plus, (1,), table[:, 0], everything - 1, m - 1, run)
            else:
                sums = np.zeros(table.shape[0], dtype=np.int8)
                _dfs(table, minus, plus, (), sums, everything, m, run)
        except _Stop as stop:
            reason = stop.args[0]

    return SearchReport(
        m=m,
        solutions=tuple(run.solutions),
        nodes=run.nodes,
        elapsed=time.monotonic() - started,
        exhaustive=reason is None,
        limit_fired=reason,
        normalized=opts.force_first_column,
    )


def verify_column_set(m: int, columns) -> bool:
    """Is this column set a Hadamard matrix?  Three redundant layers.

    Checks the size, the free-span membership of the 0/1 weight vector, and
    the direct Hadamard test on the dense matrix; the latter two must agree
    whenever the size is right, so a mismatch raises.
    """
    cols = sorted(columns)
    if len(set(cols)) != len(cols):
        raise ValueError("column set contains duplicates")
    _check_columns(m, cols)
    if len(cols) != m:
        return False
    span_ok = not any(_pair_sums(m, cols, [1] * len(cols)))
    dense_ok = is_hadamard(column_set_matrix(m, cols))
    if span_ok != dense_ok:
        raise RuntimeError("span and dense Hadamard verdicts disagree")
    return span_ok
