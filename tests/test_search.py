import json
import math
import time

import numpy as np
import pytest

import goldens
from oracles import brute_force_column_sets, pair_products_by_rows, row_dots, search_walk
from hadamardesque import search
from hadamardesque import (
    ResourceLimitError,
    SearchOptions,
    column_from_signs,
    column_set_matrix,
    find_hadamard_column_sets,
    is_hadamard,
    pair_sign_table,
    sylvester,
    verify_column_set,
)


def test_pair_sign_table_matches_column_products():
    for m in (2, 3, 5):
        assert tuple(map(tuple, pair_sign_table(m).tolist())) == pair_products_by_rows(m)


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
    report = find_hadamard_column_sets(4, on_solution=lambda columns: seen_at.append(len(visits)))
    assert report.solutions == goldens.M4_SOLUTIONS
    assert len(seen_at) == 2
    assert seen_at[0] < report.nodes == len(visits) == 27


def _engine_walk(monkeypatch, m, force_first_column, node_limit=None):
    """The engine's run as search_walk reports it: node tuples and emission counts."""
    visits, walk, emitted = [], [], []
    visit, dfs = search._Run.visit, search._dfs

    def counting_visit(run):
        visit(run)
        visits.append(run.nodes)

    def recording_dfs(table, minus, plus, chosen, *rest):
        if chosen:
            walk.append(chosen)
        dfs(table, minus, plus, chosen, *rest)

    monkeypatch.setattr(search._Run, "visit", counting_visit)
    monkeypatch.setattr(search, "_dfs", recording_dfs)
    options = SearchOptions(node_limit=node_limit, force_first_column=force_first_column)
    report = find_hadamard_column_sets(
        m, options=options, on_solution=lambda columns: emitted.append((columns, visits[-1]))
    )
    assert report.nodes == len(visits) == len(walk)
    assert report.solutions == tuple(columns for columns, _ in emitted)
    return walk, emitted


@pytest.mark.parametrize("force_first_column", [False, True])
@pytest.mark.parametrize(("m", "node_limit"), [(4, None), (6, None), (8, 4_000)])
def test_walk_matches_the_literal_pair_sum_dfs(monkeypatch, m, node_limit, force_first_column):
    walk, emitted = _engine_walk(monkeypatch, m, force_first_column, node_limit)
    assert (walk, emitted) == search_walk(m, force_first_column, node_limit)
    if node_limit is not None:
        assert len(walk) == node_limit


def test_node_limit_partial():
    report = find_hadamard_column_sets(6, options=SearchOptions(node_limit=50))
    assert not report.exhaustive
    assert report.limit_fired == "nodes"
    assert report.nodes == 50


def test_time_limit_partial():
    for m, seconds in ((8, 0.05), (12, 0.01)):
        started = time.monotonic()
        report = find_hadamard_column_sets(m, options=SearchOptions(time_limit=seconds))
        assert time.monotonic() - started < 1.0
        assert not report.exhaustive
        assert report.limit_fired == "time"


@pytest.mark.parametrize(
    ("m", "fields", "nodes"),
    [
        (4, {}, 27),
        (4, {"force_first_column": True}, 10),
        (5, {"force_first_column": True}, 0),
        (6, {}, 6579),
        (6, {"force_first_column": True}, 790),
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
    whole = find_hadamard_column_sets(6, options=SearchOptions(node_limit=6579))
    assert whole.exhaustive
    assert whole.limit_fired is None
    assert whole.nodes == 6579
    cut = find_hadamard_column_sets(6, options=SearchOptions(node_limit=6578))
    assert not cut.exhaustive
    assert cut.limit_fired == "nodes"
    assert cut.nodes == 6578


def test_node_limited_runs_repeat():
    runs = [
        find_hadamard_column_sets(8, options=SearchOptions(node_limit=20_000))
        for _ in range(2)
    ]
    assert runs[0].nodes == runs[1].nodes == 20_000
    assert runs[0].solutions == runs[1].solutions
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
    "fields", [{"node_limit": -5}, {"time_limit": -1.0}, {"time_limit": float("nan")}]
)
def test_negative_budgets_rejected(fields):
    with pytest.raises(ValueError):
        SearchOptions(**fields)


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


def test_order_eight_finds_solution():
    report = find_hadamard_column_sets(8, limit=1)
    assert len(report.solutions) == 1
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


def test_verify_column_set_order_32():
    h32 = sylvester(5)
    columns = [column_from_signs(h32.column(j)) for j in range(1, 33)]
    assert verify_column_set(32, columns)
    # No Hadamard matrix has a column negative on every row but the first.
    assert not verify_column_set(32, columns[:-1] + [1 << 31])


def test_engine_range_checks():
    with pytest.raises(ValueError):
        find_hadamard_column_sets(1)
    report = find_hadamard_column_sets(29)
    assert (report.solutions, report.nodes, report.exhaustive) == ((), 0, True)
    with pytest.raises(ResourceLimitError):
        find_hadamard_column_sets(30)
    with pytest.raises(ValueError):
        find_hadamard_column_sets(4, limit=0)


def test_dense_solution_and_record():
    report = find_hadamard_column_sets(4)
    assert is_hadamard(column_set_matrix(report.m, report.solutions[0]))
    record = json.loads(json.dumps(report.to_record()))
    assert record["solutions"] == [[1, 4, 6, 7], [2, 3, 5, 8]]
    assert record["exhaustive"] is True


def test_sign_table_dtype_and_shape():
    table = pair_sign_table(6)
    assert table.shape == (15, 32)
    assert table.dtype == np.int8
    assert set(np.unique(table)) == {-1, 1}
