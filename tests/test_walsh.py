import ast
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import goldens
from oracles import (
    column_index_of_signs,
    naive_wht,
    pair_products_by_rows,
    row_dots,
    sylvester_by_doubling,
    truth_by_recursion,
)
import hadamardesque
from hadamardesque import (
    OUTPUT_ENTRY_BUDGET,
    DenseMatrix,
    HadamardesqueMatrix,
    ResourceLimitError,
    WeightedColumn,
    column_representation,
    construct_crv,
    free_masks,
    fwht,
    pair_count,
    pair_index,
    pair_masks,
    pair_product_table,
    pair_rows,
    pair_to_mask,
    pairwise_dots,
    row_mask,
    sylvester,
    to_hadamardesque,
    truth_table,
)
from hadamardesque.walsh import _check_entries, _pair_block, _sign_block


# --- Sylvester matrices ----------------------------------------------------


def test_sylvester_small_goldens():
    assert sylvester(0).entries == ((1,),)
    assert sylvester(1).entries == goldens.H2
    assert sylvester(2).entries == goldens.H4


@pytest.mark.parametrize("k", range(0, 9))
def test_sylvester_matches_doubling_recursion(k):
    assert sylvester(k).entries == sylvester_by_doubling(k)


def test_sylvester_equals_kronecker_power():
    power = np.ones((1, 1), dtype=np.int64)
    h2 = np.array(goldens.H2)
    for k in range(0, 11):
        assert sylvester(k).entries == tuple(map(tuple, power.tolist()))
        power = np.kron(h2, power)


@pytest.mark.parametrize("k", range(1, 6))
def test_sylvester_rows_orthogonal(k):
    matrix = sylvester(k)
    assert all(d == 0 for d in row_dots(matrix.entries))


def test_sylvester_guards():
    with pytest.raises(ValueError):
        sylvester(-1)
    with pytest.raises(ResourceLimitError):
        sylvester(15)
    with pytest.raises(ResourceLimitError):
        sylvester(10**11)


# --- Truth table -----------------------------------------------------------


def test_truth_table_goldens():
    assert truth_table(1).entries == goldens.T1
    assert truth_table(2).entries == goldens.T2
    assert truth_table(3).entries == goldens.T3
    assert truth_table(4).entries == goldens.T4
    assert truth_table(2).entries == goldens.H2


@pytest.mark.parametrize("m", range(1, 11))
def test_truth_table_matches_recursion(m):
    assert truth_table(m).entries == truth_by_recursion(m)


@pytest.mark.parametrize("m", range(2, 9))
def test_truth_rows_orthogonal(m):
    assert all(d == 0 for d in row_dots(truth_table(m).entries))


def test_truth_rows_sit_in_hadamard_rows():
    for m in range(2, 11):
        hadamard = sylvester_by_doubling(m - 1)
        truth = truth_table(m).entries
        for k in range(1, m + 1):
            assert truth[k - 1] == hadamard[row_mask(k)]


def _column(m, j):
    return tuple(_sign_block(m, [j])[:, 0].tolist())


def test_column_signs_roundtrip():
    for m in (1, 2, 5):
        truth = truth_by_recursion(m)
        for j in range(1, (1 << (m - 1)) + 1):
            signs = _column(m, j)
            assert column_index_of_signs(signs) == j
            assert signs == tuple(row[j - 1] for row in truth)


@pytest.mark.parametrize("m", (17, 40, 64))
def test_column_signs_of_wide_orders(m):
    half = 1 << (m - 2)
    assert _column(m, 1) == (1,) * m
    # The doubling recursion's last row is +1 on the first half, -1 on the second.
    assert _column(m, half) == (1,) + (-1,) * (m - 2) + (1,)
    assert _column(m, half + 1) == (1,) * (m - 1) + (-1,)
    assert _column(m, 2 * half) == (1,) + (-1,) * (m - 1)
    for j in (1, half, half + 1, 2 * half):
        assert column_index_of_signs(_column(m, j)) == j


def test_truth_table_guards():
    with pytest.raises(IndexError):
        _sign_block(3, [0])
    with pytest.raises(IndexError):
        _sign_block(3, [5])
    with pytest.raises(IndexError):
        _sign_block(64, [(1 << 63) + 1])
    with pytest.raises(ValueError):
        truth_table(0)
    with pytest.raises(ResourceLimitError):
        truth_table(19)
    with pytest.raises(ResourceLimitError):
        truth_table(31)


# --- One output budget ---------------------------------------------------------


def test_entry_budget_boundary():
    budget = OUTPUT_ENTRY_BUDGET
    _check_entries("output", budget, 0)
    _check_entries("output", 1, budget.bit_length() - 1)
    with pytest.raises(ResourceLimitError, match=f"{budget + 1} entries, over the budget {budget}"):
        _check_entries("output", budget + 1, 0)
    with pytest.raises(ResourceLimitError):
        _check_entries("output", 1, budget.bit_length())
    with pytest.raises(ResourceLimitError, match=f"2\\^100000000000 entries, over the budget {budget}"):
        _check_entries("output", 1, 10**11)
    _check_entries("table", 16, 0, budget=16)
    with pytest.raises(ResourceLimitError, match="17 entries, over the budget 16"):
        _check_entries("table", 17, 0, budget=16)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: truth_table(19), id="truth_table-19"),
        pytest.param(lambda: pair_product_table(17), id="pair_product_table-17"),
        pytest.param(lambda: sylvester(12), id="sylvester-12"),
        pytest.param(lambda: construct_crv(24, [0] * pair_count(24)), id="construct_crv-24"),
        pytest.param(lambda: free_masks(24), id="free_masks-24"),
        pytest.param(
            lambda: column_representation(HadamardesqueMatrix(24, (WeightedColumn(1, 1),))),
            id="column_representation-24",
        ),
        pytest.param(
            lambda: HadamardesqueMatrix(8, (WeightedColumn(1, 1, 600_000),)).dense(),
            id="dense-8x600000",
        ),
    ],
)
def test_first_refused_size_of_each_output(build):
    with pytest.raises(ResourceLimitError, match=f"over the budget {OUTPUT_ENTRY_BUDGET}"):
        build()


def test_largest_truth_table_within_budget():
    table = truth_table(18)
    assert table.shape == (18, 1 << 17)
    assert column_index_of_signs(tuple(row[-1] for row in table.entries)) == 1 << 17


def _raises_resource_limit(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    names = (name for name in ast.walk(node.exc) if isinstance(name, ast.Name))
    return any(name.id == "ResourceLimitError" for name in names)


def test_size_refusals_have_one_source():
    helpers, stray = [], []
    for path in sorted(Path(hadamardesque.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name == "_check_entries":
                helpers.append(path.name)
                inside |= {id(node) for node in ast.walk(func) if _raises_resource_limit(node)}
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _raises_resource_limit(node) and id(node) not in inside
        ]
    assert helpers == ["walsh.py"]
    assert stray == []


# --- Pair indexing and masks ------------------------------------------------


def test_pair_index_bijection():
    seen = {}
    m = 10
    for j in range(2, m + 1):
        for i in range(1, j):
            linear = pair_index(i, j)
            assert pair_rows(linear) == (i, j)
            seen[linear] = (i, j)
    assert sorted(seen) == list(range(1, pair_count(m) + 1))


def test_pair_index_order_matches_product_order():
    # (1,2), (1,3), (2,3), (1,4), ...
    assert [pair_rows(L) for L in range(1, 7)] == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
    ]


def test_pair_index_validation():
    with pytest.raises(ValueError):
        pair_index(2, 2)
    with pytest.raises(ValueError):
        pair_rows(0)


def test_pair_to_mask_goldens():
    assert pair_to_mask(2, pair_index(1, 2)) == 1
    assert pair_masks(2) == frozenset({1})
    assert free_masks(2) == frozenset({0})
    assert pair_masks(3) == frozenset({1, 2, 3})
    assert free_masks(3) == frozenset({0})


def test_pair_masks_cardinality():
    for m in range(2, 13):
        masks = pair_masks(m)
        assert len(masks) == pair_count(m)
        assert len(free_masks(m)) == (1 << (m - 1)) - pair_count(m)
        # masks are exactly the one- and two-bit patterns on m-1 bits
        assert all(mask.bit_count() in (1, 2) for mask in masks)


# --- Pairwise products and the product table ---------------------------------


def _column_dots(column):
    """Pairwise dots of a one-column matrix: the pairwise products of its entries."""
    return pairwise_dots(to_hadamardesque(DenseMatrix(tuple((x,) for x in column)))).values


def test_pairwise_products_goldens():
    assert _column_dots((1, -1, 1)) == (-1, 1, -1)
    assert _column_dots((1,) * 5) == (1,) * 10
    assert _column_dots((2, 2, -2)) == (4, -4, -4)


def test_pairwise_products_guard():
    with pytest.raises(ValueError):
        _column_dots((1,))


def test_product_table_goldens():
    assert pair_product_table(2).entries == goldens.CT2
    assert pair_product_table(3).entries == goldens.CT3
    assert pair_product_table(4).entries == goldens.CT4


@pytest.mark.parametrize("m", range(2, 9))
def test_product_table_matches_row_products(m):
    assert pair_product_table(m).entries == pair_products_by_rows(m)


@pytest.mark.parametrize("m", range(3, 9))
def test_product_table_recursion_structure(m):
    # First block: previous table with doubled rows; then (row, -row) of the
    # previous truth table.
    table = pair_product_table(m).entries
    prev = pair_product_table(m - 1).entries
    truth_prev = truth_table(m - 1).entries
    split = pair_count(m - 1)
    assert table[:split] == tuple(r + r for r in prev)
    assert table[split:] == tuple(
        r + tuple(-x for x in r) for r in truth_prev
    )


def test_product_columns_are_column_products():
    for m in (2, 3, 4, 5):
        table = pair_product_table(m)
        truth = truth_table(m)
        for product, col in zip(zip(*table.entries), zip(*truth.entries), strict=True):
            assert product == tuple(col[i] * col[k] for k in range(1, m) for i in range(k))


@pytest.mark.parametrize("m", range(2, 9))
def test_product_rows_orthogonal_and_balanced(m):
    table = pair_product_table(m).entries
    assert all(d == 0 for d in row_dots(table))
    assert all(sum(row) == 0 for row in table)  # orthogonal to the all-ones row


def test_product_rows_are_hadamard_rows():
    for m in range(2, 11):
        hadamard = sylvester_by_doubling(m - 1)
        table = pair_product_table(m).entries
        for linear in range(1, pair_count(m) + 1):
            assert table[linear - 1] == hadamard[pair_to_mask(m, linear)]


# --- Fast transform ----------------------------------------------------------


def test_fwht_trivial_spectra():
    assert fwht([1, 1, 1, 1]) == [4, 0, 0, 0]
    assert fwht([1, 0, 0, 0]) == [1, 1, 1, 1]


def test_fwht_matches_naive_oracle():
    rng = random.Random(7)
    for exponent in range(1, 9):
        n = 1 << exponent
        values = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)]
        assert fwht(values) == naive_wht(values)


def test_fwht_example_vector():
    values = [7, 9, 0, 0, 5, 1, 0, 1]
    assert fwht(values) == naive_wht(values)


def test_fwht_involution():
    rng = random.Random(11)
    values = [Fraction(rng.randint(-9, 9)) for _ in range(16)]
    assert fwht(fwht(values)) == [16 * v for v in values]


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht([1, 2, 3])
    with pytest.raises(ValueError):
        fwht([])


# --- Exactness across the int64 route boundary ----------------------------------

INT64_BOUND = 1 << 63


def _assert_ints(values):
    assert all(type(v) is int for v in values)


def test_fwht_l1_norm_just_below_int64_bound():
    values = [1 << 62, -((1 << 62) - 7), 1, -1, 1, -1, 1, -1]
    assert sum(map(abs, values)) == INT64_BOUND - 1
    out = fwht(values)
    assert out == naive_wht(values)
    _assert_ints(out)
    assert max(map(abs, out)) == INT64_BOUND - 1


def test_fwht_l1_norm_at_int64_bound():
    values = [1 << 62, 1 << 62, 0, 0]
    assert sum(map(abs, values)) == INT64_BOUND
    out = fwht(values)
    assert out == naive_wht(values)
    assert out[0] == INT64_BOUND
    _assert_ints(out)


def test_fwht_far_beyond_int64_bound():
    rng = random.Random(70)
    values = [rng.randint(-(1 << 70), 1 << 70) for _ in range(64)]
    assert sum(map(abs, values)) > INT64_BOUND
    out = fwht(values)
    assert out == naive_wht(values)
    _assert_ints(out)


def test_fwht_large_coprime_denominators():
    primes = [1_000_003, 1_000_033, 1_000_037, 1_000_039,
              1_000_081, 1_000_099, 1_000_117, 1_000_121]
    rng = random.Random(13)
    values = [Fraction(rng.randint(-(10**9), 10**9), p) for p in primes]
    out = fwht(values)
    assert out == naive_wht(values)
    assert all(type(v) is Fraction for v in out)
    assert fwht(out) == [8 * v for v in values]


def test_fwht_mixed_int_and_fraction():
    values = [3, Fraction(1, 2), -7, Fraction(-5, 3), 0, 1 << 40, Fraction(9, 4), 2]
    out = fwht(values)
    assert out == naive_wht(values)
    assert all(type(v) is Fraction for v in out)


def test_fwht_return_types():
    _assert_ints(fwht([1, -2, 3, 4]))
    out = fwht([Fraction(1), Fraction(-2), Fraction(3), Fraction(4)])
    assert all(type(v) is Fraction for v in out)
    assert out == [6, 2, -8, 4]


def test_fwht_rejects_inexact_entries():
    with pytest.raises(TypeError):
        fwht([1.0, 2.0])
    with pytest.raises(TypeError):
        fwht([Fraction(1), 0.5])


def test_pair_block_peaks_at_about_its_result():
    indices = range(1, 2**15 + 1)
    tracemalloc.start()
    try:
        block = _pair_block(16, indices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * block.nbytes
    later, earlier = np.tril_indices(16, -1)
    signs = _sign_block(16, indices)
    assert np.array_equal(block, signs[earlier] * signs[later])
