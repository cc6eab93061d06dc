"""Invariants checked over generated inputs."""

import math
from fractions import Fraction
from itertools import chain
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    construct_by_columns,
    factor_by_lead,
    factor_by_squares,
    format_by_id,
    pair_products_by_rows,
    parse_by_token,
    truth_by_recursion,
)
from hadamardesque import dense, walsh
from hadamardesque import (
    ConstructionOptions,
    DenseMatrix,
    FormatError,
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
    parse_scalar,
    realize_canonical,
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
            tuple(tuple(float(e) if data.draw(st.booleans()) else e for e in row) for row in rows)
        )
    else:
        dense = DenseMatrix(tuple(rows))
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


# (q, fresh spellings): each call returns a new object of the value sqrt(q).
FRESH = (
    (Fraction(1, 4), (lambda: Fraction(1, 2), lambda: Fraction(2, 4),
                      lambda: SqrtRational(Fraction(1, 2)),
                      lambda: SqrtRational.sqrt(Fraction(1, 4)))),
    (Fraction(10**6), (lambda: int("1000"), lambda: Fraction(1000),
                       lambda: SqrtRational(1000), lambda: Fraction(3000, 3))),
    (Fraction(2), (lambda: SqrtRational.sqrt(2), lambda: SqrtRational.sqrt(Fraction(4, 2)),
                   lambda: SqrtRational.sqrt(Fraction(6, 3)))),
    (Fraction(1), (lambda: 1, lambda: Fraction(1), lambda: SqrtRational(1), lambda: int("1"))),
    (Fraction(3, 4), (lambda: SqrtRational.sqrt(Fraction(3, 4)),
                      lambda: SqrtRational.sqrt(Fraction(6, 8)))),
)
ZEROS = (lambda: 0, lambda: Fraction(0), lambda: SqrtRational(0))


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.integers(min_value=1, max_value=9), st.integers(min_value=60, max_value=70)),
       st.data())
def test_exact_factoring_matches_the_lead_oracle(m, data):
    # Types mix within a column, equal values sit in separate objects (or, as
    # in a parsed file, one object per sign), and m > 63 puts indices past
    # 2^62.  Some columns are zeroed or get one entry of another modulus.
    columns, drawn = [], []
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        q, spellings = data.draw(st.sampled_from(FRESH))
        bits = data.draw(st.lists(st.booleans(), min_size=m - 1, max_size=m - 1))
        index = 1 + sum(1 << k for k, bit in enumerate(bits) if bit)
        flip = data.draw(st.sampled_from((1, -1)))
        shared = data.draw(st.sampled_from(spellings))() if data.draw(st.booleans()) else None
        column = []
        for k in range(m):
            value = shared if shared is not None else data.draw(st.sampled_from(spellings))()
            negative = (flip < 0) != (k > 0 and (index - 1) >> (k - 1) & 1 == 1)
            column.append(-value if negative else value)
        fault = data.draw(st.integers(min_value=0, max_value=11))
        if fault == 0:
            column = [data.draw(st.sampled_from(ZEROS))() for _ in range(m)]
        elif fault == 1:
            _, others = data.draw(st.sampled_from([f for f in FRESH if f[0] != q]))
            column[data.draw(st.integers(0, m - 1))] = data.draw(st.sampled_from(others))()
        elif fault == 2:
            column[data.draw(st.integers(0, m - 1))] = data.draw(st.sampled_from(ZEROS))()
        columns.append(column)
        drawn.append((q, index))
    matrix = DenseMatrix(tuple(zip(*columns)))
    try:
        expected = factor_by_lead(matrix.entries)
    except ValueError as exc:
        with pytest.raises(ShapeError) as raised:
            factor_columns(matrix)
        assert str(raised.value) == str(exc)
        return
    factored = factor_columns(matrix)
    pairs = tuple((c.q, c.index) for c in factored.matrix.columns)
    assert (pairs, factored.flipped_columns) == expected
    assert all(p == d for p, d in zip(pairs, drawn) if p[0] == d[0])
    assert HadamardesqueMatrix(m, factored.matrix.columns) == factored.matrix


@given(hadamardesque_matrices(), st.data())
def test_pairwise_products_sign_invariant(matrix, data):
    # Negating a column negates both factors of each of its pairwise products.
    dense = matrix.dense()
    flips = data.draw(st.lists(st.sampled_from((1, -1)), min_size=dense.cols, max_size=dense.cols))
    flipped = DenseMatrix(tuple(tuple(map(mul, flips, row)) for row in dense.entries))
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
    assert in_free_span([a - b for a, b in zip(rep.values, shifted.values)]).in_span


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.sampled_from(("canonical", "rational", "irrational")),
    st.sampled_from(("minimal", "minimal-integer", "explicit")),
    st.data(),
)
def test_construct_matrix_matches_the_column_oracle(m, flavor, shift, data):
    target = data.draw(st.lists(rationals, min_size=pair_count(m), max_size=pair_count(m)))
    if shift == "explicit":
        # |raw weight| <= sum|a| / 2^(m-1), so this shift always suffices.
        floor = sum(abs(a) for a in target) / (1 << (m - 1))
        shift = floor + data.draw(st.fractions(min_value=0, max_value=3, max_denominator=6))
    options = ConstructionOptions(shift=shift, flavor=flavor)
    try:
        expected = construct_by_columns(m, target, options)
    except ValueError as exc:  # a zero target under a zero explicit shift has no columns
        with pytest.raises(ValueError) as raised:
            construct_matrix(m, target, options)
        assert str(raised.value) == str(exc)
        return
    matrix = construct_matrix(m, target, options)
    assert matrix == expected
    assert hash(matrix) == hash(expected)
    assert (matrix.columns, matrix.n) == (expected.columns, expected.n)
    if m <= 6 and m * matrix.n <= 1 << 16:  # larger uniform matrices take seconds to format
        assert format_matrix(matrix.dense()) == format_matrix(expected.dense())


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


# Unsigned token bodies: grammar tokens, decimals and a value no float holds;
# then values no float holds, tokens past the int-string digit limit, and
# tokens outside the grammar.
GOOD_BODIES = (
    "0", "3", "12", "3/4", "6/8", "sqrt(2)", "sqrt(1/2)", "sqrt(4)", "sqrt(0)",
    "0.5", "0.0", "2.5e-3", "1e3", "1" + "0" * 400,
)
BAD_BODIES = ("inf", "1e400", "7" * 4400, "1/0", "1_0", "\u0661", "abc", "sqrt(2", "")
SIGNS = ("", "", "", "-", "-", "-", "-", "+", "-+", "--")


def _outcome(function, *args, **kwargs):
    try:
        return function(*args, **kwargs)
    except (FormatError, ShapeError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def token_grids(draw):
    """Matrix text over a few bodies, each under a few signs (x, -x, +x, -+x, --x)."""
    palette = []
    for _ in range(draw(st.integers(1, 3))):
        bad = draw(st.integers(0, 5)) == 0
        body = draw(st.sampled_from(BAD_BODIES if bad else GOOD_BODIES))
        signs = draw(st.lists(st.sampled_from(SIGNS), min_size=1, max_size=3))
        palette += [sign + body or "-" for sign in signs]  # "" stands for "-"
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid = [[draw(st.sampled_from(palette)) for _ in range(cols)] for _ in range(rows)]
    return f"{rows} {cols}\n" + "".join(" ".join(row) + "\n" for row in grid)


@settings(deadline=None, max_examples=300)
@given(token_grids(), st.booleans())
def test_parse_matches_the_token_by_token_oracle(text, exact):
    parsed = _outcome(parse_matrix, text, exact=exact)
    expected = _outcome(parse_by_token, text, exact=exact)
    if isinstance(expected, str):
        assert parsed == expected
        return
    assert parsed.is_exact == expected.is_exact
    for got, want in zip(chain(*parsed.entries), chain(*expected.entries)):
        assert type(got) is type(want) and got == want
        if isinstance(want, float):
            assert math.copysign(1, got) == math.copysign(1, want)
    assert parsed == expected and hash(parsed) == hash(expected)
    assert _outcome(format_matrix, parsed) == _outcome(format_by_id, expected)


exact_entries = {
    "rational": st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12)),
    "sqrt": st.builds(lambda sign, q: sign * SqrtRational.sqrt(q), st.sampled_from((1, -1)),
                      st.fractions(0, 9, max_denominator=12)),
}
exact_entries["mixed"] = st.one_of(*exact_entries.values())
# A float matrix prints its exact entries as rational tokens and reads every
# token back as a float, so its ints here are ones a float holds exactly.
float_entries = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "float and int": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                               st.integers(-(1 << 53), 1 << 53)),
}


@settings(deadline=None)
@given(st.sampled_from(sorted({**exact_entries, **float_entries})), st.data())
def test_python_built_matrices_read_back_equal(kind, data):
    # One float entry makes a float matrix, for a file and a Python-built matrix alike.
    entries = {**exact_entries, **float_entries}[kind]
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    matrix = DenseMatrix(tuple(tuple(data.draw(entries) for _ in range(cols)) for _ in range(rows)))
    again = parse_matrix(format_matrix(matrix))
    assert again == matrix and hash(again) == hash(matrix)
    assert again.is_exact == matrix.is_exact == all(type(e) is not float for e in chain(*matrix.entries))


# Unsigned grammar bodies: zeros, unreduced fractions and radicands, perfect squares.
EXACT_BODIES = ("0", "1", "3", "2/4", "3/6", "5/3", "sqrt(0)", "sqrt(2)", "sqrt(8/2)",
                "sqrt(4/9)", "sqrt(3/4)", "sqrt(6/8)", "12/9")


@st.composite
def grammar_grids(draw):
    """Matrix text of grammar tokens: a few bodies under "", "+" and "-" signs."""
    bodies = draw(st.lists(st.sampled_from(EXACT_BODIES), min_size=1, max_size=4))
    palette = [sign + body for body in bodies for sign in ("", "+", "-")]
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = [[draw(st.sampled_from(palette)) for _ in range(cols)] for _ in range(rows)]
    return grid, f"{rows} {cols}\n" + "".join(" ".join(row) + "\n" for row in grid)


def _fresh(entry):
    """An equal scalar in a new object."""
    if isinstance(entry, SqrtRational):
        return SqrtRational(entry)
    return Fraction(entry.numerator, entry.denominator)


@settings(deadline=None, max_examples=300)
@given(grammar_grids())
def test_parsed_grammar_matrices_factor_from_their_token_integers(drawn):
    grid, text = drawn
    # Factoring a parsed grammar matrix builds no scalar value.
    with mock.patch.object(dense, "_build_scalar", side_effect=AssertionError("built")), \
            mock.patch.object(dense, "parse_scalar", side_effect=AssertionError("parsed")):
        parsed = parse_matrix(text, exact=True)
        factored = _outcome(factor_columns, parsed)
    assert "_distinct" not in parsed.__dict__
    # Reading builds each unsigned token once: "-x" negates the object built for x.
    with mock.patch.object(dense, "_build_scalar", wraps=dense._build_scalar) as build:
        entries = parsed.entries
    assert build.call_count == len({t.removeprefix("-") for row in grid for t in row})
    rebuilt = DenseMatrix(tuple(tuple(map(_fresh, row)) for row in entries))
    assert factored == _outcome(factor_columns, rebuilt)
    # The entries are the token-by-token values, one object per distinct token.
    by_token = {}
    for tokens, row in zip(grid, entries):
        for token, entry in zip(tokens, row):
            want = parse_scalar(token)
            assert type(entry) is type(want) and entry == want
            assert by_token.setdefault(token, entry) is entry
    assert len({id(e) for e in by_token.values()}) == len(by_token)
    for token, entry in by_token.items():
        if "-" + token in by_token:
            assert by_token["-" + token] == -entry
