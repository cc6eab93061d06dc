import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import goldens
from limits import GIB, run_limited
from oracles import (
    brute_force_column_sets,
    column_index_of_signs,
    columns_orthogonal_to_ones,
    row_dots,
    search_walk,
    truth_by_recursion,
)
from hadamardesque import search
from hadamardesque.walsh import _pair_block
from hadamardesque import (
    ResourceLimitError,
    SearchOptions,
    column_set_matrix,
    find_hadamard_column_sets,
    is_hadamard,
    sylvester,
    verify_column_set,
)


@pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
def test_balanced_columns_are_those_orthogonal_to_the_ones_column(m):
    orthogonal = columns_orthogonal_to_ones(m)
    assert len(orthogonal) == math.comb(m - 1, m // 2)
    assert search._Lanes(m).columns == (1, *orthogonal)


def test_order_two_exact_solution():
    report = find_hadamard_column_sets(2)
    assert report.solutions == ((1, 2),)
    assert report.exhaustive
    assert report.limit_fired is None


@pytest.mark.parametrize("m", (3, 5, 7))
def test_odd_orders_empty_without_expansion(m):
    started = time.monotonic()
    report = find_hadamard_column_sets(m)
    assert report.solutions == ()
    assert report.exhaustive
    assert report.nodes == 0
    assert time.monotonic() - started < 0.1


def test_order_four_matches_brute_force():
    report = find_hadamard_column_sets(4)
    oracle, checked = brute_force_column_sets(4)
    assert checked == 70
    assert report.exhaustive
    assert sorted(report.solutions) == sorted(oracle) == sorted(goldens.M4_SOLUTIONS)
    for solution in report.solutions:
        dense = column_set_matrix(4, solution)
        assert all(d == 0 for d in row_dots(dense.entries))


def test_order_six_empty_exhaustive():
    report = find_hadamard_column_sets(6)
    assert report.solutions == ()
    assert report.exhaustive


def test_solution_limit():
    report = find_hadamard_column_sets(4, limit=1)
    assert report.solutions == ((1, 4, 6, 7),)
    assert report.limit_fired == "solutions"
    assert not report.exhaustive


def test_solutions_stream_before_the_search_ends(monkeypatch):
    visits = []
    visit = search._Run.visit

    def counting_visit(run):
        visit(run)
        visits.append(run.nodes)

    monkeypatch.setattr(search._Run, "visit", counting_visit)
    seen_at = []
    options = SearchOptions(force_first_column=True)
    report = find_hadamard_column_sets(
        8, options=options, on_solution=lambda columns: seen_at.append(len(visits))
    )
    assert report.solutions[0] == (1, 16, 52, 61, 86, 91, 103, 106)
    assert len(seen_at) == len(report.solutions) == 30
    assert seen_at[0] == 970 < report.nodes == len(visits) == 15_712


def _engine_walk(monkeypatch, m, force_first_column, node_limit=None):
    """The engine's run as search_walk reports it: node tuples and emission counts.

    The third item holds the report, without its elapsed time, and the
    chosen columns and candidates of every node the walk enters, each
    entered with room for its set.
    """
    visits, walk, emitted, entered = [], [], [], []
    visit, walk_below = search._Run.visit, search._walk

    def counting_visit(run):
        visit(run)
        visits.append(run.nodes)
        walk.append(tuple(run.chosen))

    def entering_walk(lanes, levels, candidates, remaining, run):
        assert candidates.bit_count() >= remaining
        entered.append((tuple(run.chosen), candidates))
        walk_below(lanes, levels, candidates, remaining, run)

    with monkeypatch.context() as patch:
        patch.setattr(search._Run, "visit", counting_visit)
        patch.setattr(search, "_walk", entering_walk)
        options = SearchOptions(node_limit=node_limit, force_first_column=force_first_column)
        report = find_hadamard_column_sets(
            m, options=options, on_solution=lambda columns: emitted.append((columns, visits[-1]))
        )
    assert report.nodes == len(visits) == len(walk)
    assert report.solutions == tuple(columns for columns, _ in emitted)
    return walk, emitted, (dict(report.to_record(), elapsed=None), entered)


@pytest.mark.parametrize("force_first_column", [False, True])
@pytest.mark.parametrize(
    ("m", "node_limit"), [(4, None), (6, None), (8, 4_000), (10, 3_000), (12, 2_000)]
)
def test_walk_matches_the_literal_pair_sum_dfs(monkeypatch, m, node_limit, force_first_column):
    walk, emitted, _ = _engine_walk(monkeypatch, m, force_first_column, node_limit)
    assert (walk, emitted) == search_walk(m, force_first_column, node_limit)
    if node_limit is not None:
        assert len(walk) == node_limit


def test_walk_matches_the_literal_pair_sum_dfs_on_wide_bitsets(monkeypatch):
    # Over 1,024 candidate bits a node tests its survivors for zero, not by count.
    assert len(search._Lanes(14).columns) > search._NARROW_BITS == 1024
    walk, emitted, _ = _engine_walk(monkeypatch, 14, True, 300)
    assert (walk, emitted) == search_walk(14, True, 300)
    assert len(walk) == 300


@pytest.mark.parametrize(
    ("m", "force_first_column", "node_limit", "narrow_bits"),
    [
        (8, False, None, 0),
        (8, True, None, 0),
        (10, False, 50_000, 0),
        (12, True, 20_000, 0),
        (14, True, 20_000, 1 << 30),
    ],
)
def test_wide_and_narrow_survivor_tests_take_the_same_walk(
    monkeypatch, m, force_first_column, node_limit, narrow_bits
):
    # Counting after each AND and counting once at the end are two routes to
    # the same decisions: the same nodes, solutions and report either way.
    default = _engine_walk(monkeypatch, m, force_first_column, node_limit)
    monkeypatch.setattr(search, "_NARROW_BITS", narrow_bits)
    assert _engine_walk(monkeypatch, m, force_first_column, node_limit) == default


def _literal_products(m):
    """products[c - 1][p]: truth column c's literal product on the p-th row pair, pair order."""
    truth = truth_by_recursion(m)
    pairs = [(i, j) for j in range(1, m) for i in range(j)]
    return [tuple(truth[i][c] * truth[j][c] for i, j in pairs) for c in range(len(truth[0]))]


@pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
def test_column_incs_match_the_literal_products(m):
    lanes, products = search._Lanes(m), _literal_products(m)
    pairs = len(products[0])
    for j, c in enumerate(lanes.columns[1:], start=1):
        lanes_hit = [p if s == 1 else pairs + p for p, s in enumerate(products[c - 1])]
        assert lanes[j] == sum(1 << k for k in lanes_hit)


@pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
def test_lane_masks_match_the_literal_products(m):
    # Plus lane p is left alone by the columns whose product on pair p is -1,
    # minus lane P + p by those whose product is +1.
    lanes, products = search._Lanes(m), _literal_products(m)
    pairs = len(products[0])
    assert len(lanes.masks) == 2 * pairs
    for lane, mask in enumerate(lanes.masks):
        sign = -1 if lane < pairs else 1
        assert mask == sum(1 << j - 1 for j, c in enumerate(lanes.columns[1:], start=1)
                           if products[c - 1][lane % pairs] == sign)
    plus = (1 << pairs) - 1  # column 1's product is +1 on every pair
    assert lanes.root == [plus << pairs, plus] + [0] * (m // 2 - 1)
    assert lanes.full == (1 << 2 * pairs) - 1


def test_lane_masks_match_masks_packed_from_the_pair_block():
    for m in (14, 16, 18, 20):
        lanes = search._Lanes(m)
        table = _pair_block(m, lanes.columns[1:])  # int8 products, one row per pair
        minus = [int.from_bytes(np.packbits(row < 0, bitorder="little").tobytes(), "little")
                 for row in table]
        assert lanes.masks == minus + [lanes.everything ^ bits for bits in minus]


def _products_by_bits(m):
    """products(c): truth column c's product on each row pair, pair order, without a table.

    Row k >= 2 of column c is -1 when bit k-2 of c - 1 is set, the rule
    oracles.column_index_of_signs inverts.
    """
    pairs = [(i, j) for j in range(1, m) for i in range(j)]

    @functools.cache
    def products(c):
        signs = [1] + [-1 if (c - 1) >> k & 1 else 1 for k in range(m - 1)]
        return tuple(signs[i] * signs[j] for i, j in pairs)

    return products


def _check_levels_at_every_node(m, node_limit, products):
    """Run a normalized search, checking every node's count levels.

    `products(c)` is truth column c's product on each row pair.  Whenever a
    node pushes a child, its levels[c] must hold exactly the lanes whose
    count over the node's chosen columns is c, near must be its level
    m/2 - 1, and the child's inc must meet near in the lanes the child adds to.
    Returns the number of children checked and of those tested against a
    nonempty near.
    """
    checked, visit = [], search._Run.visit

    def checking_visit(run):
        visit(run)
        node = sys._getframe(1)  # the node testing the child just pushed
        if node.f_code is not search._walk.__code__:
            return  # the root, visited by find_hadamard_column_sets
        *parent, child = run.chosen
        pairs = len(products(child))
        counts = [sum(products(c)[p] == sign for c in parent)
                  for sign in (1, -1) for p in range(pairs)]
        levels = [sum(1 << k for k, count in enumerate(counts) if count == level)
                  for level in range(m // 2 + 1)]
        hits = sum(1 << p if s == 1 else 1 << pairs + p for p, s in enumerate(products(child)))
        local = node.f_locals
        assert local["levels"] == levels
        assert local["near"] == levels[-2]
        assert local["lanes"][local["j"]] & local["near"] == hits & levels[-2]
        checked.append(bool(levels[-2]))

    search._Run.visit = checking_visit
    try:
        report = find_hadamard_column_sets(m, options=SearchOptions(node_limit=node_limit,
                                                                    force_first_column=True))
    finally:
        search._Run.visit = visit
    assert len(checked) == report.nodes - 1
    return len(checked), sum(checked)


@pytest.mark.parametrize(
    ("m", "node_limit"), [(4, None), (6, None), (8, 2_000), (10, 2_000), (12, 2_000), (24, 300)]
)
def test_near_lanes_match_counts_recomputed_from_the_chosen_columns(m, node_limit):
    if m <= 12:
        table = _literal_products(m)
        checked, near = _check_levels_at_every_node(m, node_limit, lambda c: table[c - 1])
        assert 0 < near <= checked
        return
    # The largest admitted order: its mask build runs under the address-space
    # guard, and near lanes first appear at its eleventh node, so 289 of the
    # 299 children are tested against a nonempty near.
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_search import _check_levels_at_every_node, _products_by_bits\n"
        f"print(*_check_levels_at_every_node({m}, {node_limit}, _products_by_bits({m})))\n"
    )
    result = run_limited(code, limit=2 * GIB)
    assert (result.returncode, result.stdout, result.stderr) == (0, "299 289\n", "")


def test_node_limit_partial():
    report = find_hadamard_column_sets(8, options=SearchOptions(node_limit=50))
    assert not report.exhaustive
    assert report.limit_fired == "nodes"
    assert report.nodes == 50


def test_time_limit_partial():
    for m, seconds in ((10, 0.05), (12, 0.01)):
        started = time.monotonic()
        report = find_hadamard_column_sets(m, options=SearchOptions(time_limit=seconds))
        assert time.monotonic() - started < 1.0
        assert not report.exhaustive
        assert report.limit_fired == "time"


@pytest.mark.parametrize("seconds", (0.5, 2.5, 8.5))
def test_time_limit_holds_through_the_build(monkeypatch, seconds):
    # Each reading of the fake clock is one second after the last, the start
    # reads 0, and the build reads it 5 times over the 462 balanced columns
    # of order 12 (a stride of 100), then once per row bitset: the deadline
    # passes in the column enumeration (0.5, 2.5) or between row bitsets (8.5).
    def root_visit(run):
        raise AssertionError("the walk started after the deadline")

    monkeypatch.setattr(search.time, "monotonic", itertools.count().__next__)
    monkeypatch.setattr(search, "_CLOCK_STRIDE", 100)
    monkeypatch.setattr(search._Run, "visit", root_visit)
    report = find_hadamard_column_sets(12, options=SearchOptions(time_limit=seconds))
    assert (report.nodes, report.solutions, report.exhaustive) == (0, (), False)
    assert report.limit_fired == "time"


def test_time_limit_at_the_largest_order_stops_in_the_build():
    started = time.monotonic()
    report = find_hadamard_column_sets(24, options=SearchOptions(time_limit=0.01))
    assert time.monotonic() - started < 0.3  # the whole build: about 0.5 s on a 2-core x86 box
    assert (report.nodes, report.limit_fired) == (0, "time")


@pytest.mark.parametrize(
    ("m", "fields", "nodes"),
    [
        (4, {}, 4),
        (4, {"force_first_column": True}, 4),
        (5, {"force_first_column": True}, 0),
        (6, {}, 40),
        (6, {"force_first_column": True}, 40),
    ],
)
def test_exhaustive_node_counts_pinned(m, fields, nodes):
    report = find_hadamard_column_sets(m, options=SearchOptions(**fields))
    assert report.exhaustive
    assert report.limit_fired is None
    assert report.nodes == nodes
    expected = goldens.M4_SOLUTIONS if m == 4 else ()
    if fields.get("force_first_column"):
        expected = tuple(s for s in expected if s[0] == 1)
    assert sorted(report.solutions) == sorted(expected)


def test_node_limit_boundary():
    whole = find_hadamard_column_sets(6, options=SearchOptions(node_limit=40))
    assert whole.exhaustive
    assert whole.limit_fired is None
    assert whole.nodes == 40
    cut = find_hadamard_column_sets(6, options=SearchOptions(node_limit=39))
    assert not cut.exhaustive
    assert cut.limit_fired == "nodes"
    assert cut.nodes == 39


def test_node_limited_runs_repeat():
    runs = [
        find_hadamard_column_sets(8, options=SearchOptions(node_limit=10_000))
        for _ in range(2)
    ]
    assert runs[0].nodes == runs[1].nodes == 10_000
    assert runs[0].solutions and runs[0].solutions == runs[1].solutions
    assert runs[0].limit_fired == runs[1].limit_fired == "nodes"


@pytest.mark.parametrize(
    ("m", "fields"),
    [
        (16, {"force_first_column": True, "node_limit": 20_000}),
        (20, {"node_limit": 2_000}),
    ],
)
def test_large_order_node_limited_runs_repeat(m, fields):
    runs = [find_hadamard_column_sets(m, options=SearchOptions(**fields)) for _ in range(2)]
    assert runs[0].nodes == runs[1].nodes == fields["node_limit"]
    assert runs[0].solutions == runs[1].solutions
    assert runs[0].limit_fired == runs[1].limit_fired == "nodes"
    assert runs[0].normalized == fields.get("force_first_column", False)


@pytest.mark.parametrize(
    "fields",
    [
        {"node_limit": -5},
        {"time_limit": -1.0},
        {"time_limit": float("nan")},
        {"node_limit": 2.5},
        {"time_limit": "1"},
        {"node_limit": True},
        {"time_limit": False},
    ],
)
def test_negative_budgets_rejected(fields):
    (name,) = fields
    with pytest.raises(ValueError, match=f"^{name} must be"):
        SearchOptions(**fields)


@pytest.mark.parametrize("limit", (0, -1, 1.5, True, "2"))
def test_solution_limit_must_be_a_positive_integer(limit):
    with pytest.raises(ValueError, match="^limit must be integral >= 1"):
        find_hadamard_column_sets(4, limit=limit)


def test_normalized_search():
    report = find_hadamard_column_sets(4, options=SearchOptions(force_first_column=True))
    assert report.normalized
    assert report.solutions == ((1, 4, 6, 7),)


def test_pruning_reduces_nodes_without_changing_solutions():
    # Without pruning the walk would visit every ascending d-prefix of the 8
    # columns that leaves room for the other 4 - d: C(4 + d, d) of them.
    unpruned_nodes = sum(math.comb(4 + d, d) for d in range(1, 5))
    pruned = find_hadamard_column_sets(4)
    oracle, _ = brute_force_column_sets(4)
    assert sorted(pruned.solutions) == sorted(oracle)
    assert pruned.nodes < unpruned_nodes == 125
    normalized = find_hadamard_column_sets(4, options=SearchOptions(force_first_column=True))
    assert normalized.nodes <= pruned.nodes


@pytest.mark.parametrize(("m", "normalized", "total"), [(2, 1, 1), (4, 1, 2), (8, 30, 480)])
def test_unnormalized_count_is_normalized_count_times_translates(m, normalized, total):
    # Every solution has m normalized translates and every normalized set
    # 2^(m-1) translates, so |unnormalized| = |normalized| * 2^(m-1) / m.
    everything = find_hadamard_column_sets(m)
    first_column = find_hadamard_column_sets(m, options=SearchOptions(force_first_column=True))
    assert everything.exhaustive and first_column.exhaustive
    assert len(first_column.solutions) == normalized
    assert len(everything.solutions) == total == normalized * 2 ** (m - 1) // m
    assert everything.nodes == first_column.nodes
    assert set(first_column.solutions) == {s for s in everything.solutions if s[0] == 1}
    # Closed under every row negation: multiply each column by a truth column d.
    columns = list(zip(*truth_by_recursion(m)))
    index_of = {col: c for c, col in enumerate(columns, start=1)}
    solutions = set(everything.solutions)
    assert len(solutions) == total
    for d in columns:
        negated = [index_of[tuple(a * b for a, b in zip(d, col))] for col in columns]
        assert {tuple(sorted(negated[c - 1] for c in s)) for s in solutions} == solutions
    assert all(verify_column_set(m, s) for s in solutions)
    if m == 2:
        assert everything.solutions == ((1, 2),)


def test_order_eight_finds_solution():
    report = find_hadamard_column_sets(8, limit=1)
    # Pinned: the walk to the first order-8 solution, node for node.
    assert report.nodes == 970
    assert report.solutions == ((1, 16, 52, 61, 86, 91, 103, 106),)
    assert report.limit_fired == "solutions"
    (solution,) = report.solutions
    assert verify_column_set(8, solution)
    assert is_hadamard(column_set_matrix(8, solution))


def test_verify_column_set():
    assert verify_column_set(4, goldens.H4_COLUMN_SET)
    assert verify_column_set(2, (1, 2))
    assert not verify_column_set(4, (1, 2, 3, 4))
    assert not verify_column_set(4, (1, 4, 6))  # wrong size
    with pytest.raises(ValueError):
        verify_column_set(4, (1, 1, 6, 7))
    with pytest.raises(IndexError):
        verify_column_set(4, (1, 4, 6, 9))


@pytest.mark.parametrize("m", (0, -2))
@pytest.mark.parametrize("columns", ((), (1,)))
def test_column_set_functions_check_the_order_first(m, columns):
    for check in (verify_column_set, column_set_matrix):
        with pytest.raises(ValueError, match=f"order m must be integral >= 1, got {m}"):
            check(m, columns)


@pytest.mark.parametrize("columns", ([1, 4.0, 6, 7], [1, 4.5, 6, 7], [1, "6", 4, 7]))
def test_column_set_functions_name_a_non_integer_index(columns):
    bad = next(c for c in columns if not isinstance(c, int))
    for check in (verify_column_set, column_set_matrix):
        with pytest.raises(ValueError, match=f"column index must be integral >= 1, got {bad!r}"):
            check(4, columns)
    assert verify_column_set(4, map(np.int64, goldens.H4_COLUMN_SET))


def test_verify_column_set_order_32():
    h32 = sylvester(5)
    columns = [column_index_of_signs(col) for col in zip(*h32.entries)]
    assert verify_column_set(32, columns)
    # No Hadamard matrix has a column negative on every row but the first.
    assert not verify_column_set(32, columns[:-1] + [1 << 31])


def test_engine_range_checks():
    with pytest.raises(ValueError):
        find_hadamard_column_sets(0)
    report = find_hadamard_column_sets(29)
    assert (report.solutions, report.nodes, report.exhaustive) == ((), 0, True)
    with pytest.raises(ResourceLimitError, match="bounded below"):
        find_hadamard_column_sets(32)
    # 2 * 325 lanes of C(25, 12) = 5,200,300 bits each is over 2^30 bits, and
    # order 24's 2 * 276 lanes of C(23, 12) = 1,352,078 bits fit.
    with pytest.raises(ResourceLimitError, match="3380195000"):
        find_hadamard_column_sets(26)
    assert 2 * 276 * math.comb(23, 12) == 746_347_056 <= search.ENGINE_TABLE_BUDGET
    with pytest.raises(ValueError):
        find_hadamard_column_sets(4, limit=0)


@pytest.mark.parametrize("normalized", [False, True])
def test_order_one_is_its_root(normalized):
    # No row pairs: the set {1} is the (1) Hadamard matrix, found at the root.
    report = find_hadamard_column_sets(1, options=SearchOptions(force_first_column=normalized))
    assert (report.solutions, report.nodes, report.exhaustive) == (((1,),), 1, True)
    report = find_hadamard_column_sets(1, options=SearchOptions(node_limit=0))
    assert (report.solutions, report.nodes, report.limit_fired) == ((), 0, "nodes")


def test_dense_solution_and_record():
    report = find_hadamard_column_sets(4)
    assert is_hadamard(column_set_matrix(report.m, report.solutions[0]))
    record = json.loads(json.dumps(report.to_record()))
    assert record["solutions"] == [[1, 4, 6, 7], [2, 3, 5, 8]]
    assert record["exhaustive"] is True


def test_largest_admitted_order_builds_its_masks_and_stops_on_nodes():
    # Order 24's 746,347,056 lane-mask bits are within 2^30 (test_engine_range_checks).
    code = (
        "from hadamardesque import SearchOptions, find_hadamard_column_sets\n"
        "report = find_hadamard_column_sets(24, options=SearchOptions(node_limit=10))\n"
        "print(report.nodes, report.limit_fired)\n"
    )
    result = run_limited(code, limit=2 * GIB)
    assert (result.returncode, result.stdout, result.stderr) == (0, "10 nodes\n", "")
