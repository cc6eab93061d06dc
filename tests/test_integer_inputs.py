"""Every integer the API takes passes one check, with one message.

Orders, rows, pair and column indices, multiplicities, the Sylvester
exponent and the search budgets are refused with a ValueError that names
the parameter unless they are integers (numpy integers included, bool
excluded) at or above their least value.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hadamardesque import (
    HadamardesqueMatrix,
    PairwiseDots,
    RepresentationVector,
    SearchOptions,
    WeightedColumn,
    column_set_matrix,
    construct_crv,
    find_hadamard_column_sets,
    free_masks,
    pair_count,
    pair_index,
    pair_masks,
    pair_product_table,
    pair_rows,
    pair_to_mask,
    pairwise_dots,
    row_mask,
    sylvester,
    truth_table,
    verify_column_set,
)


def _dots_of_order(m):
    # The unchecked constructor, so that pairwise_dots meets the order itself.
    return pairwise_dots(HadamardesqueMatrix._of_weights(m, (1,), (1,), (1,), 1))


# (parameter named in the message, its least value, the call, a valid value)
INTEGER_INPUTS = {
    "truth_table": ("order m", 1, truth_table, 3),
    "pair_count": ("order m", 1, pair_count, 3),
    "pair_masks": ("order m", 2, pair_masks, 3),
    "free_masks": ("order m", 2, free_masks, 3),
    "pair_product_table": ("order m", 2, pair_product_table, 3),
    "pair_to_mask": ("order m", 1, lambda m: pair_to_mask(m, 2), 3),
    "pair_to_mask L": ("pair index L", 1, lambda L: pair_to_mask(3, L), 2),
    "find_hadamard_column_sets": ("order m", 1, lambda m: find_hadamard_column_sets(m).solutions, 4),
    "construct_crv": ("order m", 2, lambda m: construct_crv(m, [1, 1, 1]), 3),
    "RepresentationVector": ("order m", 1, lambda m: RepresentationVector(m, (1, 1)), 2),
    "PairwiseDots": ("order m", 2, lambda m: PairwiseDots(m, (1,)), 2),
    "pairwise_dots": ("order m", 2, _dots_of_order, 2),
    "HadamardesqueMatrix": ("order m", 1, lambda m: HadamardesqueMatrix(m, [WeightedColumn(1, 2)]), 2),
    "verify_column_set": ("order m", 1, lambda m: verify_column_set(m, [1, 2]), 2),
    "column_set_matrix": ("order m", 1, lambda m: column_set_matrix(m, [1, 2]), 2),
    "column index": ("column index", 1, lambda j: verify_column_set(2, [1, j]), 2),
    "row_mask": ("row k", 1, row_mask, 3),
    "pair_index i": ("row i", 1, lambda i: pair_index(i, 3), 2),
    "pair_index j": ("row j", 2, lambda j: pair_index(1, j), 3),
    "pair_rows": ("pair index L", 1, pair_rows, 2),
    "sylvester": ("exponent k", 0, sylvester, 2),
    "WeightedColumn index": ("column index", 1, lambda j: WeightedColumn(1, j), 2),
    "WeightedColumn multiplicity": ("multiplicity", 1, lambda k: WeightedColumn(1, 1, k), 2),
    "node_limit": ("node_limit", 0, lambda n: SearchOptions(node_limit=n), 2),
    "limit": ("limit", 1, lambda n: find_hadamard_column_sets(4, limit=n).solutions, 1),
}


@pytest.mark.parametrize("entry", INTEGER_INPUTS)
@pytest.mark.parametrize("probe", ["float", "str", "bool", "below"])
def test_every_integer_input_is_refused_by_one_check(entry, probe):
    name, least, call, _ = INTEGER_INPUTS[entry]
    value = {"float": 2.0, "str": "2", "bool": True, "below": least - 1}[probe]
    with pytest.raises(ValueError, match=f"^{name} must be integral >= {least}, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("entry", INTEGER_INPUTS)
def test_numpy_integers_are_integers(entry):
    _, _, call, good = INTEGER_INPUTS[entry]
    assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize("value", ["1", True, -1, math.nan])
def test_the_time_limit_is_any_real_from_zero(value):
    with pytest.raises(ValueError, match=f"^time_limit must be real >= 0, got {value!r}$"):
        SearchOptions(time_limit=value)
    assert SearchOptions(time_limit=Fraction(1, 2)).time_limit == Fraction(1, 2)


@pytest.mark.parametrize(
    ("name", "call"),
    [
        # An odd float order ran an "exhaustive" search, a string one died in a TypeError.
        ("order m", lambda: find_hadamard_column_sets(5.0)),
        ("order m", lambda: find_hadamard_column_sets("4")),
        ("order m", lambda: construct_crv(3.0, [1, 1, 1])),
        ("order m", lambda: RepresentationVector(2.0, (1, 1))),
        # Accepted, then an AttributeError in the matrix or a truncated multiplicity.
        ("column index", lambda: HadamardesqueMatrix(2, [WeightedColumn(1, 2.0)]).dense()),
        ("multiplicity", lambda: pairwise_dots(HadamardesqueMatrix(3, [WeightedColumn(1, 2, 2.5)]))),
        # pair_index(1.0, 2) returned 1.0.
        ("row i", lambda: pair_index(1.0, 2)),
        ("row k", lambda: row_mask(2.0)),
        ("pair index L", lambda: pair_rows(1.5)),
    ],
)
def test_non_integer_probes_are_refused(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be integral >= "):
        call()


def test_checked_integers_are_stored_as_ints():
    column = WeightedColumn(1, np.int64(2), np.int64(3))
    assert type(column.index) is type(column.multiplicity) is int
    assert type(RepresentationVector(np.int64(2), (1, 1)).m) is int
    assert type(find_hadamard_column_sets(np.int64(4)).m) is int
    assert pair_index(np.int64(2), np.int64(3)) == 3


def test_pair_indices_past_the_order_stay_index_errors():
    with pytest.raises(IndexError, match=r"pair index 4 out of range \[1, 3\]"):
        pair_to_mask(3, 4)
    with pytest.raises(IndexError):
        verify_column_set(3, [1, 5])
