"""Invariants checked over generated inputs."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import factor_by_squares, pair_products_by_rows, truth_by_recursion
from hadamardesque import walsh
from hadamardesque import (
    ConstructionOptions,
    DenseMatrix,
    HadamardesqueMatrix,
    RepresentationVector,
    ShapeError,
    SqrtRational,
    WeightedColumn,
    column_representation,
    construct_crv,
    construct_matrix,
    factor_columns,
    format_matrix,
    fwht,
    in_free_span,
    pair_count,
    pairwise_dots,
    parse_matrix,
    realize_canonical,
    same_pairwise_dots,
    to_hadamardesque,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
positive_rationals = st.fractions(min_value=Fraction(1, 12), max_value=10, max_denominator=12)


def weighted_columns(m):
    return st.lists(
        st.builds(
            WeightedColumn,
            q=positive_rationals,
            index=st.integers(min_value=1, max_value=1 << (m - 1)),
            multiplicity=st.integers(min_value=1, max_value=3),
        ),
        min_size=1,
        max_size=8,
    )


@st.composite
def hadamardesque_matrices(draw):
    m = draw(st.integers(min_value=2, max_value=6))
    return HadamardesqueMatrix(m, tuple(draw(weighted_columns(m))))


dyadic_scales = st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 4, 8)))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=5), st.booleans(), st.data())
def test_printed_matrices_factor_like_the_square_oracle(m, floats, data):
    # Float matrices use dyadic scales, exact in binary, some entries printed
    # as rational tokens; exact ones mix sqrt and rational scales.
    truth = truth_by_recursion(m)
    drawn, columns = [], []
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        index = data.draw(st.integers(min_value=1, max_value=1 << (m - 1)))
        q = data.draw(positive_rationals) if not floats else data.draw(dyadic_scales) ** 2
        scale = SqrtRational.sqrt(q)
        sign = data.draw(st.sampled_from((1, -1)))
        drawn.append((q, index))
        columns.append([sign * row[index - 1] * scale for row in truth])
    rows = list(zip(*columns))
    if floats:
        dense = DenseMatrix(
            tuple(tuple(float(e) if data.draw(st.booleans()) else e for e in row) for row in rows),
            is_exact=False,
        )
    else:
        dense = DenseMatrix.from_rows(rows)
    parsed = parse_matrix(format_matrix(dense))
    factored = factor_columns(parsed, 0.0)
    pairs = tuple((c.q, c.index) for c in factored.matrix.columns)
    assert (pairs, factored.flipped_columns) == factor_by_squares(parsed.entries)
    assert list(pairs) == drawn


# Spellings of one value each: (positive spellings, negative spellings).
SPELLINGS = (
    (["1/2", "2/4", "sqrt(1/4)", "+3/6"], ["-1/2", "-2/4", "-sqrt(1/4)"]),
    (["2", "4/2", "sqrt(4)", "+sqrt(16/4)"], ["-2", "-sqrt(4)", "-6/3"]),
    (["sqrt(2)", "sqrt(4/2)", "+sqrt(6/3)"], ["-sqrt(2)", "-sqrt(8/4)"]),
    (["sqrt(3/4)", "sqrt(6/8)"], ["-sqrt(3/4)", "-sqrt(9/12)"]),
    (["1", "3/3", "sqrt(1)"], ["-1", "-sqrt(1/1)"]),
)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_equal_value_spellings_factor_like_the_square_oracle(m, data):
    # Equal values spelled differently parse to distinct objects, and repeated
    # spellings share one; factoring must see values either way.  A column may
    # get one entry of another modulus, which both sides must refuse.
    truth = truth_by_recursion(m)
    columns = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        plus, minus = data.draw(st.sampled_from(SPELLINGS))
        index = data.draw(st.integers(min_value=1, max_value=1 << (m - 1)))
        sign = data.draw(st.sampled_from((1, -1)))
        column = [data.draw(st.sampled_from(plus if sign * row[index - 1] > 0 else minus))
                  for row in truth]
        if data.draw(st.integers(0, 9)) == 0:
            other, _ = data.draw(st.sampled_from([s for s in SPELLINGS if s[0] is not plus]))
            column[data.draw(st.integers(0, m - 1))] = data.draw(st.sampled_from(other))
        columns.append(column)
    text = f"{m} {len(columns)}\n" + "".join(" ".join(row) + "\n" for row in zip(*columns))
    parsed = parse_matrix(text)
    try:
        expected = factor_by_squares(parsed.entries)
    except ValueError as exc:
        with pytest.raises(ShapeError, match=str(exc).split(" has")[0]):
            factor_columns(parsed, 0.0)
        return
    factored = factor_columns(parsed, 0.0)
    pairs = tuple((c.q, c.index) for c in factored.matrix.columns)
    assert (pairs, factored.flipped_columns) == expected


@given(hadamardesque_matrices(), st.data())
def test_pairwise_products_sign_invariant(matrix, data):
    # Negating a column negates both factors of each of its pairwise products.
    dense = matrix.dense()
    flips = data.draw(st.lists(st.sampled_from((1, -1)), min_size=dense.cols, max_size=dense.cols))
    flipped = DenseMatrix.from_rows([[f * x for f, x in zip(flips, row)] for row in dense.entries])
    assert pairwise_dots(to_hadamardesque(flipped)) == pairwise_dots(matrix)


@given(st.integers(min_value=1, max_value=4), st.data())
def test_fwht_involution(exponent, data):
    n = 1 << exponent
    values = data.draw(st.lists(rationals, min_size=n, max_size=n))
    assert fwht(fwht(values)) == [n * v for v in values]


@given(st.integers(min_value=1, max_value=4), st.data())
def test_fwht_is_linear(exponent, data):
    n = 1 << exponent
    xs = data.draw(st.lists(rationals, min_size=n, max_size=n))
    ys = data.draw(st.lists(rationals, min_size=n, max_size=n))
    combined = fwht([x + 2 * y for x, y in zip(xs, ys)])
    assert combined == [a + 2 * b for a, b in zip(fwht(xs), fwht(ys))]


@given(hadamardesque_matrices(), st.randoms(use_true_random=False))
def test_representation_is_column_order_invariant(matrix, rng):
    shuffled = list(matrix.columns)
    rng.shuffle(shuffled)
    permuted = HadamardesqueMatrix(matrix.m, tuple(shuffled))
    assert column_representation(permuted) == column_representation(matrix)


@given(hadamardesque_matrices(), st.data())
def test_representation_invariant_under_dense_column_negation(matrix, data):
    dense = matrix.dense()
    which = data.draw(st.integers(min_value=1, max_value=dense.cols))
    negated = tuple(
        tuple(-e if j == which - 1 else e for j, e in enumerate(row))
        for row in dense.entries
    )
    refactored = to_hadamardesque(type(dense)(negated))
    assert column_representation(refactored) == column_representation(matrix)


@given(hadamardesque_matrices(), rationals.filter(lambda f: f >= 0))
def test_all_ones_shift_preserves_dots(matrix, shift):
    rep = column_representation(matrix)
    shifted = RepresentationVector(rep.m, tuple(v + shift for v in rep.values))
    assert same_pairwise_dots(rep, shifted).in_span


@given(hadamardesque_matrices())
def test_orthogonality_iff_in_free_span(matrix):
    dots_zero = all(v == 0 for v in pairwise_dots(matrix).values)
    assert bool(in_free_span(column_representation(matrix))) == dots_zero


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_construct_roundtrip(m, data):
    target = data.draw(
        st.lists(rationals, min_size=pair_count(m), max_size=pair_count(m))
    )
    matrix = realize_canonical(construct_crv(m, target))
    assert pairwise_dots(matrix).values == tuple(target)


fine_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.sampled_from(("canonical", "rational", "irrational")),
    st.sampled_from(("minimal", "minimal-integer")),
    st.data(),
)
def test_construct_matrix_roundtrip_all_flavors(m, flavor, shift, data):
    target = data.draw(
        st.lists(fine_rationals, min_size=pair_count(m), max_size=pair_count(m))
    )
    matrix = construct_matrix(m, target, ConstructionOptions(shift=shift, flavor=flavor))
    assert pairwise_dots(matrix).values == tuple(target)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_in_free_span_residuals_are_pair_row_sums(m, data):
    n = 1 << (m - 1)
    values = data.draw(st.lists(rationals | st.integers(-5, 5), min_size=n, max_size=n))
    expected = []
    for L, row in enumerate(pair_products_by_rows(m), start=1):
        residual = sum(s * v for s, v in zip(row, values))
        if residual != 0:
            expected.append((L, residual))
    check = in_free_span(values)
    assert check.violations == tuple(expected)
    assert check.in_span == (not expected)


@settings(deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.booleans(),
    st.sampled_from((None, (1 << 63) - 1, 1 << 63, (1 << 70) + 12345)),
    st.data(),
)
def test_pair_sums_are_pair_row_sums(m, column_route, l1_norm, data):
    # Lists shorter than 2^m / m columns take the column route (a Gram
    # product of the sign block); longer lists take the dense FWHT.
    n_max = 1 << (m - 1)
    crossover = -(-(1 << m) // m)
    sizes = st.integers(1, crossover - 1) if column_route else st.integers(crossover, crossover + n_max)
    n = data.draw(sizes)
    indices = data.draw(st.lists(st.integers(1, n_max), min_size=n, max_size=n))
    weights = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    if l1_norm is not None:
        rest = sum(abs(w) for w in weights[:-1])
        weights[-1] = data.draw(st.sampled_from((1, -1))) * (l1_norm - rest)
        assert sum(abs(w) for w in weights) == l1_norm
    expected = [
        sum(w * row[j - 1] for j, w in zip(indices, weights))
        for row in pair_products_by_rows(m)
    ]
    with mock.patch.object(walsh, "_int_fwht", wraps=walsh._int_fwht) as dense_route:
        assert walsh._pair_sums(m, indices, weights) == expected
    assert dense_route.called == (not column_route)
