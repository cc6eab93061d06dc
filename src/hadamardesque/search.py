"""Hunt Hadamard matrices as subsets of truth-table columns.

A Hadamard matrix of order m is an m-subset of the 2^(m-1) truth columns
whose pairwise products sum to zero on every row pair; equivalently its 0/1
weight vector has m ones and vanishing Walsh spectrum on every pair mask.
So any two rows agree in exactly m/2 of the chosen columns and disagree in
the other m/2.  The engine runs depth-first over ascending column indices
(subsets, not permutations) and counts, for each of the P = m(m-1)/2 row
pairs, the chosen columns whose product on it is +1 and those where it is
-1.  Neither count may pass m/2, so a branch dies as soon as one would, and
no odd order ever leaves the root.  This is the pair-sum bound: with k
columns chosen, r = m - k to go and pair sum s = plus - minus, where
plus + minus = k, s <= r holds exactly when plus <= m/2 and s >= -r exactly
when minus <= m/2.

Write a column as its pattern c - 1, whose bit k-2 is set when row k is
negative (row 1 is always +1).  The walk finds only *normalized* sets,
those holding the all-ones column 1, and their other columns are
*balanced*: their patterns have m/2 bits set.  A square +-1 matrix H with
H H^T = m I is invertible, with inverse H^T / m, so H^T H = m I too and its
columns are pairwise orthogonal.  Every column other than the all-ones one
therefore has entry sum 0, that is m/2 entries -1.  So the walk's
candidates are the C(m-1, m/2) balanced columns: 35 of 127 at m=8, 462 of
2,047 at m=12 and 92,378 of 524,287 at m=20.

Every other set is emitted as a translate of a normalized one.  The
translate of a set N by a pattern x is T_x(N) = {((c - 1) XOR x) + 1 :
c in N}.  Two rules make this exact:

- XOR by x negates the rows in x.  Bit k-2 of (c - 1) XOR x differs from
  that of c - 1 exactly when bit k-2 of x is set, so T_x(N) is N with rows
  k of x's bits negated, and row 1 stays +1.  A row negation D (diagonal
  +-1) keeps D H (D H)^T = D (m I) D = m I, so translates of solutions are
  solutions.  T_x T_y = T_(x XOR y), and T_x(N) holds pattern x, the image
  of N's pattern 0.  So a solution S equals T_x(N) with N = T_x(S)
  normalized exactly when x is in S, and S comes from exactly one pair
  (N, x) with x = min S = min T_x(N).
- p XOR x < x exactly when x holds p's top bit (p > 0): p XOR x and x
  differ in p's bits only, and the highest of them is p's top bit.  So
  x = min T_x(N) exactly when x & H == 0, where H is the OR of the top bits
  of N's nonzero patterns.

An unnormalized run therefore emits, for each normalized set N as the walk
finds it, T_x(N) for every x with x & H == 0 in ascending order (x = 0 is N
itself), and emits every solution once.  The node count and node_limit
count the normalized walk in both modes.

The counts sit in 2P lanes, plus lane p and minus lane P + p for pairs p
in pair_index order, and bit k of a lane mask stands for lane k.  A node
keeps them as *count levels*, m/2 + 1 lane masks: levels[c] holds the
lanes whose count is c, and the set {1} has its minus lanes at level 0 and
its plus lanes at level 1.  A lane at level m/2 is *saturated*, a tight
pair of the pair-sum view (plus = m/2 is s = r, minus = m/2 is s = -r),
and every later column must then have product -1 (plus lane) or +1 (minus
lane) on that pair.  Counts never fall, so a saturated lane stays
saturated in every child, and a column that passes a child's test passed
its parent's too.  Candidates are therefore one Python-int bitset over the
balanced columns, bit j-1 standing for the j-th of them in ascending
order: a child takes its parent's surviving bits above its own column and
ANDs in, for each lane it newly saturated, the mask of the columns that
leave that lane alone: ``minus[p]`` (the columns whose product on p is -1)
for plus lane p, its complement ``plus[p]`` for minus lane p.  Those lanes
are the ones its column adds to, the column's *inc*, that its parent holds
at level m/2 - 1, the parent's *near*: one AND of two lane masks.  No
count passes m/2, as no candidate adds to a saturated lane.  A walked
child moves each lane of its inc up one level, and a child that ends a set
is a solution exactly when all 2P lanes then read m/2: those of its
parent's top level and the inc lanes of its parent's near.  No table is
built: a product is -1 where just one row of its pair is negative, so
minus[p] of pair (i, k) is R_i XOR R_k, R_k holding the balanced columns
negative on row k (R_1 = 0), and a column's inc is the plus lanes XOR
touch[k], both lanes of each pair on row k, for each row k it negates.

The room bound counts survivors.  A node with r columns to go takes its
next candidate as a child only while at least r candidates are left, that
one included: the child must take its r - 1 columns from the survivors
above its own column, and its own survivors are a subset of those.  The
node tests each child in place, one AND per lane the child newly
saturates, and walks it only if r - 1 survivors are left.  Up to 1024
candidate bits (m <= 12) a popcount costs about one AND, so the node
counts after each AND and stops at the first shortfall; on wider sets
it tests for zero and counts once.

The search is one sequential depth-first walk from the root under one set
of budgets, so partial runs are deterministic too: every run visits the same
nodes in the same order, a node-limited run repeats exactly, and a
time-limited run returns a prefix of that walk.

Solutions are reported as index subsets: one subset stands for every column
ordering of the same dense matrix, so matrices are recovered up to column
permutation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .classify import is_hadamard
from .dense import DenseMatrix, _sign_matrix
from .walsh import _check_entries, _pair_sums, _sign_block, _sorted_columns, pair_count

ENGINE_TABLE_BUDGET = 1 << 30  # bits of the 2P lane masks over the balanced columns


@dataclass(frozen=True)
class SearchOptions:
    node_limit: int | None = None
    time_limit: float | None = None
    force_first_column: bool = False

    def __post_init__(self):
        _check_budget("node_limit", self.node_limit, Integral, 0)
        _check_budget("time_limit", self.time_limit, Real, 0)


def _check_budget(name: str, value, kind: type, least: int) -> None:
    """Refuse a budget that is set but is not a `kind` >= `least`; bool and NaN are neither."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, kind) or not value >= least):
        raise ValueError(f"{name} must be {kind.__name__.lower()} >= {least}, got {value!r}")


@dataclass(frozen=True)
class SearchReport:
    """The outcome of one search run.

    `solutions` lists the sets in emission order.  `nodes` counts the
    normalized walk, which an unnormalized run also takes: it emits each
    normalized set's translates as the walk finds it, so `nodes` and the
    node limit mean the same walk whether `normalized` is set or not.
    """

    m: int
    solutions: tuple[tuple[int, ...], ...]
    nodes: int
    elapsed: float
    exhaustive: bool
    limit_fired: str | None
    normalized: bool

    def to_record(self) -> dict:
        return dict(vars(self), solutions=[list(s) for s in self.solutions])


def column_set_matrix(m: int, columns) -> DenseMatrix:
    """Dense +-1 matrix whose columns are the given truth columns."""
    return _sign_matrix(_sign_block(m, _sorted_columns(m, columns)) < 0)


def _balanced_columns(m: int) -> list[int]:
    """The columns whose pattern has m/2 bits set, ascending, within the lane-mask budget.

    The 2P lane masks have m(m-1) * C(m-1, m/2) bits, at least (m-1) * 2^(m-1)
    as the central binomial is the largest of the m binomials C(m-1, k),
    which sum to 2^(m-1).  An order whose 2^(m-1) is over the budget is
    refused on that bound, by bit length, before math.comb builds a huge int.
    """
    what = f"lane masks of order {m}"
    if m - 1 >= ENGINE_TABLE_BUDGET.bit_length():
        _check_entries(f"{what} (bounded below)", m - 1, m - 1, ENGINE_TABLE_BUDGET)
    _check_entries(what, 2 * pair_count(m) * math.comb(m - 1, m // 2), 0, ENGINE_TABLE_BUDGET)
    # Gosper's hack: the next larger int with as many bits set as p.
    p, end, columns = (1 << m // 2) - 1, 1 << m - 1, []
    while p < end:
        columns.append(p + 1)
        low = p & -p
        carry = p + low
        p = ((carry ^ p) >> 2) // low | carry
    return columns


class _Stop(Exception):
    """Ends a run; its one argument is the budget that fired."""


@dataclass(slots=True)
class _Run:
    """Node count, chosen columns, solutions, budgets and solution callback of one search run."""

    m: int
    normalized: bool
    node_limit: int | None
    deadline: float | None
    solution_limit: int | None
    on_solution: object
    nodes: int = 0
    solutions: list = field(default_factory=list)
    chosen: list = field(default_factory=lambda: [1])  # the node being visited, column 1 first

    def visit(self):
        # Check before counting: a run never reports more than node_limit
        # nodes, and a tree of exactly node_limit nodes still finishes.
        if self.node_limit is not None and self.nodes >= self.node_limit:
            raise _Stop("nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop("time")
        self.nodes += 1

    def emit(self, found: tuple[int, ...]):
        """Report the normalized set `found` and, unless normalized, its translates.

        The translates are T_x(found) for the x sharing no bit with the top
        bits of found's patterns, in ascending order (see the module
        docstring); x = 0 is `found` itself.
        """
        free = 0
        if not self.normalized:
            top_bits = 0
            for c in found[1:]:  # found[0] is column 1, pattern 0
                top_bits |= 1 << (c - 1).bit_length() - 1
            free = ((1 << self.m - 1) - 1) ^ top_bits
        x = 0
        while True:
            chosen = tuple(sorted(((c - 1) ^ x) + 1 for c in found))
            if not verify_column_set(self.m, chosen):
                raise RuntimeError(f"engine emitted a non-solution {chosen} for m={self.m}")
            self.solutions.append(chosen)
            if self.on_solution is not None:
                self.on_solution(chosen)
            if self.solution_limit is not None and len(self.solutions) >= self.solution_limit:
                raise _Stop("solutions")
            x = (x - free) & free  # the next submask of free, ascending
            if x == 0:
                return


_NARROW_BITS = 1024  # columns up to which a popcount costs about one AND (15 at m = 20)


class _Lanes(dict):
    """The count lanes of one even order: columns, masks and root levels.

    `columns` is column 1 followed by the balanced columns in ascending
    order, and bit j-1 of a candidate bitset stands for `columns[j]`.  As a
    dict it maps such a j to its column's inc, built from `touch` when first
    asked for.  `masks[lane]` is the candidate bitset that leaves `lane` alone,
    `root` the count levels of the set {1} and `full` the mask of all 2P lanes.
    """

    __slots__ = ("columns", "touch", "masks", "root", "full", "everything")

    def __init__(self, m: int):
        super().__init__()
        balanced = _balanced_columns(m)
        self.columns = (1, *balanced)
        patterns = np.array(balanced, np.int64) - 1
        rows = [0] + [int.from_bytes(np.packbits(patterns >> k & 1, bitorder="little").tobytes(),
                                     "little") for k in range(m - 1)]
        pairs = [(i, k) for k in range(1, m) for i in range(k)]  # pair_index order, rows from 0
        self.touch = [sum(1 << p for p, pair in enumerate(pairs * 2) if r in pair) for r in range(m)]
        plus = (1 << len(pairs)) - 1  # column 1 adds to every plus lane
        self.root = [plus << len(pairs), plus] + [0] * (m // 2 - 1)
        self.full = self.root[0] | plus
        self.everything = (1 << len(balanced)) - 1
        minus = [rows[i] ^ rows[k] for i, k in pairs]
        self.masks = minus + [self.everything ^ bits for bits in minus]

    def __missing__(self, j: int) -> int:
        touch, pattern, inc = self.touch, self.columns[j] - 1, self.root[1]  # column 1's inc
        while pattern:  # a negated row moves each of its pairs from the plus to the minus lane
            inc ^= touch[(pattern & -pattern).bit_length()]
            pattern &= pattern - 1
        return self.setdefault(j, inc)


def _walk(lanes: _Lanes, levels: list[int], candidates: int, remaining: int, run: _Run) -> None:
    """Walk the subtree below `run.chosen`, whose count levels are `levels`.

    `candidates` are the balanced columns above the last chosen one that
    pass this node's test, at least `remaining` >= 1 of them.  Child j newly
    saturates the lanes ``lanes[j] & near``, near being level m/2 - 1; its
    own levels are built if it is walked.
    """
    masks, columns, chosen = lanes.masks, lanes.columns, run.chosen
    need, left, near = remaining - 1, candidates.bit_count(), levels[-2]
    narrow = len(columns) <= _NARROW_BITS
    while left >= remaining:
        low = candidates & -candidates
        j = low.bit_length()
        candidates ^= low
        left -= 1
        chosen.append(columns[j])
        run.visit()
        if need:
            inc = lanes[j]
            fill, survivors = inc & near, candidates  # the lanes the child newly saturates
            while fill and survivors:
                survivors &= masks[(fill & -fill).bit_length() - 1]
                if narrow and survivors.bit_count() < need:
                    break
                fill &= fill - 1
            else:
                if survivors.bit_count() >= need:
                    child, below, keep = [], 0, ~inc
                    for level in levels:  # each lane of inc moves up one level
                        child.append(below & inc | level & keep)
                        below = level
                    _walk(lanes, child, survivors, need, run)
        elif levels[-1] | near & lanes[j] == lanes.full:
            run.emit(tuple(chosen))
        chosen.pop()


def find_hadamard_column_sets(m: int, limit: int | None = None,
                              options: SearchOptions | None = None,
                              on_solution=None) -> SearchReport:
    """Stream all m-subsets of truth columns that form a Hadamard matrix.

    The walk finds the sets holding the all-ones column; unless
    `force_first_column` is set, each is followed by its row-negation
    translates, so every solution is emitted once.  Every solution is
    triple-checked as soon as it is found, then handed to `on_solution`:
    the count lanes of the normalized set it comes from all read m/2,
    verify_column_set's pair sums vanish, and its dense matrix passes the
    direct Hadamard test.  The report says whether the tree was fully
    explored and which budget (if any) cut the run short.  Odd orders end
    at the root; even orders whose lane masks over the balanced columns
    exceed ENGINE_TABLE_BUDGET bits (m >= 26) raise ResourceLimitError.
    """
    opts = options or SearchOptions()
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    _check_budget("limit", limit, Integral, 1)
    started = time.monotonic()
    deadline = None if opts.time_limit is None else started + opts.time_limit
    run = _Run(m, opts.force_first_column, opts.node_limit, deadline, limit, on_solution)
    reason = None
    # Parity of the final pair sums equals the parity of m: odd orders are
    # exhausted at the root without expanding anything.
    if m % 2 == 0:
        lanes = _Lanes(m)
        try:  # column 1 saturates lanes only at m=2, which its one balanced column passes
            run.visit()
            _walk(lanes, lanes.root, lanes.everything, m - 1, run)
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
    cols = _sorted_columns(m, columns)
    if len(set(cols)) != len(cols):
        raise ValueError("column set contains duplicates")
    if len(cols) != m:
        return False
    span_ok = not any(_pair_sums(m, cols, [1] * len(cols)))
    dense_ok = is_hadamard(column_set_matrix(m, cols))
    if span_ok != dense_ok:
        raise RuntimeError("span and dense Hadamard verdicts disagree")
    return span_ok
