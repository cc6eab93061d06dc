"""Every rational the API takes passes one check, with one message.

Column weights, representation-vector weights, construction targets, an
explicit shift, transform entries, free-span weights, pairwise dots, the
arguments of SqrtRational and matrix entries are refused with a TypeError
that names the parameter unless they are ints or Fractions (numpy integers
included, as ints; bool excluded).  No float is read as its binary
expansion and no string is parsed; a float matrix entry makes a float
matrix instead, and must be finite.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hadamardesque import (
    ConstructionOptions,
    DenseMatrix,
    PairwiseDots,
    RepresentationVector,
    SqrtRational,
    WeightedColumn,
    construct_crv,
    factor_columns,
    format_matrix,
    fwht,
    in_free_span,
    parse_matrix,
    realize_uniform_rational,
    truth_table,
)

# (parameter named in the message, the call)
RATIONAL_INPUTS = {
    "WeightedColumn": ("column weight q", lambda q: WeightedColumn(q, 2)),
    "RepresentationVector": ("weight", lambda w: RepresentationVector(2, (w, 1))),
    "construct_crv": ("target coordinate", lambda a: construct_crv(3, [a, 1, 0])),
    "realize_uniform_rational": ("target coordinate", lambda a: realize_uniform_rational(2, [a])),
    "shift": ("shift", lambda s: construct_crv(2, [1], ConstructionOptions(shift=s))),
    "SqrtRational": ("value", SqrtRational),
    "SqrtRational.sqrt": ("radicand", SqrtRational.sqrt),
    "fwht": ("transform entry", lambda x: fwht([x, 1])),
    "in_free_span": ("weight", lambda x: in_free_span([x, 1])),
    "PairwiseDots": ("dot product", lambda a: PairwiseDots(2, (a,))),
    "DenseMatrix": ("matrix entry", lambda e: DenseMatrix(((e, 1), (e, -1)))),
}

PROBES = {"float": 0.1, "str": "1/2", "bool": True, "Decimal": Decimal("0.5"), "None": None}


@pytest.mark.parametrize("entry", RATIONAL_INPUTS)
@pytest.mark.parametrize("probe", PROBES)
def test_every_rational_input_is_refused_by_one_check(entry, probe):
    name, call = RATIONAL_INPUTS[entry]
    value = PROBES[probe]
    if entry == "shift" and probe == "str":  # a string shift names a policy
        with pytest.raises(ValueError, match=f"^unknown shift policy {value!r}$"):
            call(value)
        return
    if entry == "DenseMatrix" and probe == "float":  # a float entry makes a float matrix
        assert not call(value).is_exact
        return
    message = re.escape(f"{name} must be an int or a Fraction, got {value!r}")
    with pytest.raises(TypeError, match=f"^{message}$"):
        call(value)


@pytest.mark.parametrize("entry", RATIONAL_INPUTS)
def test_ints_numpy_integers_and_fractions_agree(entry):
    _, call = RATIONAL_INPUTS[entry]
    assert call(2) == call(np.int64(2)) == call(Fraction(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: WeightedColumn(SqrtRational(2), 1),
        lambda: RepresentationVector(2, (SqrtRational.sqrt(2), 1)),
        lambda: fwht([SqrtRational(1), 1]),
        lambda: SqrtRational.sqrt(SqrtRational(4)),
        lambda: ConstructionOptions(shift=SqrtRational(1)),
    ],
)
def test_a_sqrt_rational_is_not_a_rational_input(call):
    with pytest.raises(TypeError, match="must be an int or a Fraction, got SqrtRational"):
        call()


def test_targets_and_dots_still_take_rational_valued_roots():
    a = (SqrtRational.sqrt(4), Fraction(1, 2), 0)
    assert construct_crv(3, a) == construct_crv(3, [2, Fraction(1, 2), 0])
    assert PairwiseDots(2, (SqrtRational.sqrt(2),)).values == (SqrtRational.sqrt(2),)
    assert SqrtRational(SqrtRational.sqrt(2)) == SqrtRational.sqrt(2)


def test_a_string_target_is_not_parsed():
    # Fraction's own grammar read "101" as the target (1, 0, 1).
    with pytest.raises(TypeError, match="^target coordinate must be an int or a Fraction, got '1'$"):
        construct_crv(3, "101")


def test_numpy_integers_come_back_as_ints():
    out = fwht([np.int64(1), 1])
    assert out == [2, 0] and all(type(v) is int for v in out)
    assert all(type(v) is int for v in PairwiseDots(2, (np.int64(2),)).values)
    assert type(ConstructionOptions(shift=np.int64(2)).shift) is int
    assert all(type(v) is Fraction for v in RepresentationVector(2, (np.int64(2), 1)).values)
    assert type(WeightedColumn(np.int64(2), 1).q) is Fraction


def test_bools_are_not_weights():
    with pytest.raises(TypeError, match="^weight must be an int or a Fraction, got True$"):
        in_free_span([True, True])
    with pytest.raises(TypeError, match="^transform entry must be an int or a Fraction, got True$"):
        fwht([True, True])


def test_dense_rows_are_checked_integers():
    table = truth_table(3)
    assert table.row(np.int64(2)) == table.row(2) == (1, -1, 1, -1)
    for value in (True, 1.5, 0):
        with pytest.raises(ValueError, match=f"^row i must be integral >= 1, got {value!r}$"):
            table.row(value)
    with pytest.raises(IndexError, match="^row 4 out of range$"):
        table.row(4)


def test_a_number_string_is_not_a_matrix_entry():
    with pytest.raises(TypeError, match="^matrix entry must be an int or a Fraction, got '1'$"):
        DenseMatrix((("1", 1),))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_matrix_entry_is_refused(value):
    with pytest.raises(ValueError, match=f"^matrix entry must be finite, got {value!r}$"):
        DenseMatrix(((1.0, value),))


def test_numpy_matrix_entries_are_stored_as_python_scalars():
    matrix = DenseMatrix(((np.int64(2), 1), (np.int64(2), -1)))
    assert matrix.is_exact and all(type(e) is int for e in matrix._distinct)
    assert format_matrix(matrix) == "2 2\n2 1\n2 -1\n"
    assert [(c.q, c.index) for c in factor_columns(matrix).matrix.columns] == [(4, 1), (1, 2)]
    matrix = DenseMatrix(((np.float64(0.5), 1), (np.float64(0.5), -1)))
    assert not matrix.is_exact and type(matrix._distinct[0]) is float
    assert format_matrix(matrix) == "2 2\n0.5 1\n0.5 -1\n"
    assert parse_matrix(format_matrix(matrix)) == matrix


def test_a_float_matrix_factors_as_its_file_does():
    # A float entry makes a float matrix, factored at the float tolerance as its file is.
    matrix = DenseMatrix(((0.1, 1.0), (0.1000000001, -1.0)))
    assert factor_columns(matrix) == factor_columns(parse_matrix(format_matrix(matrix)))


def test_a_bool_tolerance_is_refused():
    matrix = parse_matrix("2 1\n1.0\n1.5\n")
    with pytest.raises(ValueError, match="^modulus tolerance must be finite and >= 0, got True$"):
        factor_columns(matrix, tol=True)
