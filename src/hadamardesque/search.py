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

Work splits across workers by the first two chosen columns.  Exhaustive and
solution-limited runs return an identical solution set for any worker
count; node- or time-limited partial runs depend on scheduling.

Solutions are reported as index subsets: one subset stands for every column
ordering of the same dense matrix, so matrices are recovered up to column
permutation.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import in_free_span, is_hadamard
from .dense import DenseMatrix
from .errors import ResourceLimitError
from .walsh import pair_count, pair_to_mask, truth_table_entry

ENGINE_ORDER_CAP = 28
ENGINE_TABLE_BUDGET = 1 << 27  # pair-product table entries (int8 bytes)


@dataclass(frozen=True)
class SearchOptions:
    workers: int = 1
    node_limit: int | None = None
    time_limit: float | None = None
    force_first_column: bool = False
    prune: bool = True  # bound/parity pruning; disable only to measure node counts
    order_cap: int = ENGINE_ORDER_CAP

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SearchReport:
    m: int
    solutions: tuple[tuple[int, ...], ...]
    nodes: int
    elapsed: float
    exhaustive: bool
    limit_fired: str | None
    normalized: bool
    workers: int

    def dense_solution(self, which: int) -> DenseMatrix:
        return column_set_matrix(self.m, self.solutions[which])

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "solutions": [list(s) for s in self.solutions],
            "nodes": self.nodes,
            "elapsed": self.elapsed,
            "exhaustive": self.exhaustive,
            "limit_fired": self.limit_fired,
            "normalized": self.normalized,
            "workers": self.workers,
        }


def column_set_matrix(m: int, columns) -> DenseMatrix:
    """Dense +-1 matrix whose columns are the given truth columns."""
    cols = sorted(columns)
    rows = tuple(
        tuple(truth_table_entry(m, k, j) for j in cols) for k in range(1, m + 1)
    )
    return DenseMatrix(rows)


def pair_sign_table(m: int, *, cap: int = ENGINE_ORDER_CAP) -> np.ndarray:
    """int8 table of shape (pairs, columns): the pairwise products of every column."""
    if not 2 <= m <= cap:
        raise ValueError(f"order m={m} out of the engine range [2, {cap}]")
    n_pairs = pair_count(m)
    n_cols = 1 << (m - 1)
    if n_pairs * n_cols > ENGINE_TABLE_BUDGET:
        raise ResourceLimitError(
            f"pair-sign table for m={m} needs {n_pairs * n_cols} entries, "
            f"over the budget {ENGINE_TABLE_BUDGET}"
        )
    masks = np.array([pair_to_mask(m, L) for L in range(1, n_pairs + 1)], dtype=np.int64)
    cols = np.arange(n_cols, dtype=np.int64)
    bits = masks[:, None] & cols[None, :]
    for shift in (32, 16, 8, 4, 2, 1):
        bits ^= bits >> shift
    return (1 - 2 * (bits & 1)).astype(np.int8)


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _TaskContext:
    """Per-task budget state; deadline is shared, node budget is a snapshot."""

    __slots__ = ("nodes", "node_budget", "deadline", "solutions", "solution_budget")

    def __init__(self, node_budget, deadline, solution_budget):
        self.nodes = 0
        self.node_budget = node_budget
        self.deadline = deadline
        self.solutions = []
        self.solution_budget = solution_budget

    def visit(self):
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _Stop("nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop("time")

    def emit(self, chosen: tuple[int, ...]):
        self.solutions.append(chosen)
        if self.solution_budget is not None and len(self.solutions) >= self.solution_budget:
            raise _Stop("solutions")


def _dfs(table: np.ndarray, chosen: tuple[int, ...], sums: np.ndarray, start: int,
         remaining: int, prune: bool, ctx: _TaskContext) -> None:
    if remaining == 0:
        if not np.any(sums):
            ctx.emit(chosen)
        return
    n_cols = table.shape[1]
    hi = n_cols - remaining + 1  # last index leaving room for the rest
    if start > hi:
        return
    segment = table[:, start - 1 : hi]
    candidates = sums[:, None] + segment
    if prune:
        # Sums have the parity of the chosen-column count, so for even m the
        # bound check below is the whole parity-aware prune (odd m never
        # leaves the root).
        feasible = np.flatnonzero((np.abs(candidates) <= remaining - 1).all(axis=0))
    else:
        feasible = np.arange(hi - start + 1)
    for offset in feasible:
        ctx.visit()
        j = start + int(offset)
        _dfs(table, chosen + (j,), candidates[:, offset], j + 1, remaining - 1, prune, ctx)


def _run_task(table, prefix, sums, m, prune, node_budget, deadline, solution_budget):
    ctx = _TaskContext(node_budget, deadline, solution_budget)
    reason = None
    try:
        _dfs(table, prefix, sums, prefix[-1] + 1 if prefix else 1, m - len(prefix), prune, ctx)
    except _Stop as stop:
        reason = stop.reason
    return ctx.solutions, ctx.nodes, reason


def _prefix_tasks(table: np.ndarray, m: int, options: SearchOptions):
    """Ascending two-column prefixes with their pair sums.

    Counts a node per prefix that survives pruning, matching the DFS.
    """
    n_cols = table.shape[1]
    first_range = (1,) if options.force_first_column else range(1, n_cols - (m - 1) + 1)
    tasks = []
    nodes = 0
    for j1 in first_range:
        sums1 = table[:, j1 - 1].astype(np.int16)
        if options.prune and np.any(np.abs(sums1) > m - 1):
            continue
        nodes += 1
        for j2 in range(j1 + 1, n_cols - (m - 2) + 1):
            sums2 = sums1 + table[:, j2 - 1]
            if options.prune and np.any(np.abs(sums2) > m - 2):
                continue
            nodes += 1
            tasks.append(((j1, j2), sums2))
    return tasks, nodes


def find_hadamard_column_sets(m: int, limit: int | None = None,
                              options: SearchOptions | None = None,
                              on_solution=None) -> SearchReport:
    """Stream all m-subsets of truth columns that form a Hadamard matrix.

    Every emitted solution is triple-checked: its pair sums are zero, its
    0/1 weight vector passes the free-span test, and its dense matrix passes
    the direct Hadamard test.  The report says whether the tree was fully
    explored and which budget (if any) cut the run short.
    """
    opts = options or SearchOptions()
    if not 2 <= m <= opts.order_cap:
        raise ValueError(f"order m={m} out of the engine range [2, {opts.order_cap}]")
    if limit is not None and limit < 1:
        raise ValueError(f"solution limit must be >= 1, got {limit}")
    started = time.monotonic()
    deadline = None if opts.time_limit is None else started + opts.time_limit

    def finish(solutions, nodes, exhaustive, limit_fired):
        ordered = tuple(solutions[:limit]) if limit is not None else tuple(solutions)
        for sol in ordered:
            _verify_emitted(m, sol)
            if on_solution is not None:
                on_solution(sol)
        return SearchReport(
            m=m,
            solutions=ordered,
            nodes=nodes,
            elapsed=time.monotonic() - started,
            exhaustive=exhaustive,
            limit_fired=limit_fired,
            normalized=opts.force_first_column,
            workers=opts.workers,
        )

    # Parity of the final pair sums equals the parity of m: odd orders are
    # exhausted at the root without expanding anything.
    if opts.prune and m % 2:
        return finish([], 0, True, None)

    table = pair_sign_table(m, cap=opts.order_cap)
    tasks, prefix_nodes = _prefix_tasks(table, m, opts)
    total_nodes = prefix_nodes
    solutions: list[tuple[int, ...]] = []
    limit_fired = None
    exhaustive = True

    def node_budget_left():
        if opts.node_limit is None:
            return None
        return max(0, opts.node_limit - total_nodes)

    if opts.workers == 1:
        for prefix, sums in tasks:
            if limit is not None and len(solutions) >= limit:
                limit_fired = "solutions"
                exhaustive = False
                break
            budget = node_budget_left()
            if budget == 0:
                limit_fired = "nodes"
                exhaustive = False
                break
            found, nodes, reason = _run_task(
                table, prefix, sums, m, opts.prune, budget, deadline,
                None if limit is None else limit - len(solutions),
            )
            total_nodes += nodes
            solutions.extend(found)
            if reason in ("nodes", "time"):
                limit_fired = reason
                exhaustive = False
                break
            if reason == "solutions":
                limit_fired = "solutions"
                exhaustive = False
                break
        return finish(solutions, total_nodes, exhaustive, limit_fired)

    # Parallel: dispatch waves of tasks, merge results in task order so the
    # reported set is independent of the worker count for exhaustive and
    # solution-limited runs.
    wave_size = opts.workers * 4
    with ThreadPoolExecutor(max_workers=opts.workers) as pool:
        for wave_start in range(0, len(tasks), wave_size):
            wave = tasks[wave_start : wave_start + wave_size]
            budget = node_budget_left()
            if budget == 0:
                limit_fired = "nodes"
                exhaustive = False
                break
            futures = [
                pool.submit(_run_task, table, prefix, sums, m, opts.prune,
                            budget, deadline, limit)
                for prefix, sums in wave
            ]
            stop_reason = None
            for future in futures:
                found, nodes, reason = future.result()
                total_nodes += nodes
                solutions.extend(found)
                if reason in ("nodes", "time"):
                    stop_reason = reason
            if stop_reason is not None:
                limit_fired = stop_reason
                exhaustive = False
                break
            if limit is not None and len(solutions) >= limit:
                limit_fired = "solutions"
                exhaustive = False
                break
    return finish(solutions, total_nodes, exhaustive, limit_fired)


def _verify_emitted(m: int, columns: tuple[int, ...]) -> None:
    if not verify_column_set(m, columns):
        raise RuntimeError(f"engine emitted a non-solution {columns} for m={m}")


def verify_column_set(m: int, columns) -> bool:
    """Is this column set a Hadamard matrix?  Three redundant layers.

    Checks the size, the free-span membership of the 0/1 weight vector, and
    the direct Hadamard test on the dense matrix; the latter two must agree
    whenever the size is right, so a mismatch raises.
    """
    cols = sorted(columns)
    if len(set(cols)) != len(cols):
        raise ValueError("column set contains duplicates")
    n = 1 << (m - 1)
    if any(not 1 <= j <= n for j in cols):
        raise IndexError(f"column index out of range [1, {n}]")
    size_ok = len(cols) == m
    indicator = [0] * n
    for j in cols:
        indicator[j - 1] = 1
    span_ok = bool(in_free_span(indicator, m))
    dense_ok = is_hadamard(column_set_matrix(m, cols))
    if size_ok and span_ok != dense_ok:
        raise RuntimeError("span and dense Hadamard verdicts disagree")
    return size_ok and span_ok and dense_ok
