import json
import random
from fractions import Fraction

import pytest

import goldens
from limits import GIB, run_limited
from oracles import column_product_sums, factor_by_lead, factor_by_squares, row_dots
from hadamardesque import (
    OUTPUT_ENTRY_BUDGET,
    DenseMatrix,
    HadamardesqueMatrix,
    PairwiseDots,
    RepresentationVector,
    ResourceLimitError,
    ShapeError,
    SqrtRational,
    WeightedColumn,
    classify_square,
    column_representation,
    factor_columns,
    in_free_span,
    is_hadamard,
    pair_count,
    pairwise_dots,
    parse_matrix,
    sylvester,
    to_hadamardesque,
    truth_table,
)


def example_matrix() -> DenseMatrix:
    return parse_matrix(goldens.EXAMPLE_MATRIX_TEXT)


def test_constructors_read_their_sequences_once():
    # Each constructor reads its iterable once, so a generator works like a tuple.
    column = WeightedColumn(1, 1)
    assert HadamardesqueMatrix(2, (c for c in [column])) == HadamardesqueMatrix(2, [column])
    assert HadamardesqueMatrix(2, (c for c in [column])).dense().shape == (2, 1)
    with pytest.raises(ValueError, match="^a matrix needs at least one column$"):
        HadamardesqueMatrix(2, (c for c in []))
    assert RepresentationVector(2, (x for x in [1, 1])) == RepresentationVector(2, (1, 1))
    assert PairwiseDots(2, (x for x in [1])) == PairwiseDots(2, (1,))


def random_hadamardesque(rng, m, n) -> HadamardesqueMatrix:
    columns = []
    for _ in range(n):
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        index = rng.randint(1, 1 << (m - 1))
        multiplicity = 2 if rng.random() < 0.2 else 1
        columns.append(WeightedColumn(q=q, index=index, multiplicity=multiplicity))
    return HadamardesqueMatrix(m, tuple(columns))


# --- Factoring ---------------------------------------------------------------


def test_factor_worked_example():
    factored = factor_columns(example_matrix())
    assert tuple((c.q, c.index) for c in factored.matrix.columns) == tuple(
        (Fraction(q), j) for q, j in goldens.EXAMPLE_WEIGHTED_COLUMNS
    )
    assert factored.flipped_columns == ()


def test_factor_truth_table_unit_weights():
    matrix = to_hadamardesque(truth_table(4))
    assert [c.index for c in matrix.columns] == list(range(1, 9))
    assert all(c.q == 1 for c in matrix.columns)


def test_factor_normalizes_negative_leading_column():
    flipped_h4 = tuple(
        tuple(-e if j == 1 else e for j, e in enumerate(row)) for row in goldens.H4
    )
    factored = factor_columns(DenseMatrix(flipped_h4))
    assert factored.flipped_columns == (2,)
    reference = factor_columns(DenseMatrix(goldens.H4))
    assert factored.matrix == reference.matrix


def test_factor_rejects_unequal_moduli():
    with pytest.raises(ShapeError, match="column 1"):
        to_hadamardesque(DenseMatrix(((1,), (2,), (1,), (1,))))


def test_factor_rejects_zero_column():
    with pytest.raises(ShapeError, match="column 2 is zero"):
        to_hadamardesque(DenseMatrix(((1, 0), (1, 0))))


TWIN_TEXT = "3 3\n1/2 -sqrt(2) 1/2\n-1/2 sqrt(2) 1/2\n1/2 sqrt(2) -1/2\n"


def test_factor_of_distinct_equal_objects_matches_the_parsed_twin():
    # Every entry is a fresh object, so no comparison can be answered by identity.
    half, root = (lambda: Fraction(1, 2)), (lambda: SqrtRational.sqrt(2))
    built = DenseMatrix((
        (half(), -root(), half()),
        (-half(), root(), half()),
        (half(), root(), -half()),
    ))
    assert len({id(e) for row in built.entries for e in row}) == 9
    parsed = parse_matrix(TWIN_TEXT)
    assert built == parsed
    assert factor_columns(built) == factor_columns(parsed)
    assert factor_columns(built).flipped_columns == (2,)


@pytest.mark.parametrize("text", [
    "2 2\n1/2 1/2\n-1/2 1/3\n",          # a later column reuses the lead object
    "2 2\n1/2 1/2\n-1/2 -sqrt(1/2)\n",   # an irrational of another modulus
    "2 2\n1/2 1/3\n-1/2 1/2\n",          # an entry already signed against another lead
])
def test_factor_with_a_warm_lead_still_refuses_another_modulus(text):
    with pytest.raises(ShapeError, match="column 2: entries do not share a common modulus"):
        factor_columns(parse_matrix(text))


@pytest.mark.parametrize(
    "rows,message",
    [
        (((0, 1), (0, 1)), "column 1 is zero"),
        (((1, 1), (1, 2)), "column 2: entries do not share a common modulus"),
        (((0,), (SqrtRational.sqrt(2),), (0,)), "column 1: entries do not share a common modulus"),
    ],
    ids=["zero", "mixed-modulus", "zero-lead"],
)
def test_factor_refusals_match_the_square_oracle(rows, message):
    with pytest.raises(ShapeError, match=message):
        factor_columns(DenseMatrix(rows))
    with pytest.raises(ValueError, match=message.split(":")[0]):
        factor_by_squares(rows)


def test_float_column_with_a_zero_lead_is_flipped():
    # Only a tolerance >= 1 lets a 0.0 modulus pass; its sign counts as negative.
    factored = factor_columns(DenseMatrix(((0.0,), (1.0,))), tol=1)
    assert factored.flipped_columns == (1,)
    assert [(c.q, c.index) for c in factored.matrix.columns] == [(Fraction(1, 4), 2)]


def test_factor_rejects_tol_on_exact_input():
    with pytest.raises(ValueError):
        factor_columns(DenseMatrix(goldens.H4), tol=1e-9)


def test_factor_float_matrix():
    scale = 1.5
    rows = tuple(tuple(scale * e for e in row) for row in goldens.H4)
    factored = factor_columns(DenseMatrix(rows))
    assert all(c.q == Fraction(1.5) ** 2 for c in factored.matrix.columns)
    assert [c.index for c in factored.matrix.columns] == [
        c.index for c in factor_columns(DenseMatrix(goldens.H4)).matrix.columns
    ]


def test_factor_float_tolerance():
    noisy = ((1.0, 1.0 + 1e-12), (1.0, -1.0))
    factored = factor_columns(DenseMatrix(noisy))
    assert len(factored.matrix.columns) == 2
    with pytest.raises(ShapeError, match="column 2"):
        factor_columns(DenseMatrix(((1.0, 1.0), (1.0, -1.001))))


def test_factor_float_columns_near_the_float_maximum():
    # Each column's float modulus sum overflows, so each mean is taken exactly.
    rows = ((1e308, 1.5e308), (-1e308, 1.5e308))
    factored = factor_columns(DenseMatrix(rows))
    assert [c.q for c in factored.matrix.columns] == [Fraction(1e308) ** 2, Fraction(1.5e308) ** 2]


@pytest.mark.parametrize("columns,message", [
    ([(1, 1), (0, 0), (1, 2)], "column 2 is zero"),
    ([(1, 1), (1, 2), (0, 0)], "column 2: entries do not share a common modulus"),
    ([(0, 1), (0, 0)], "column 1: entries do not share a common modulus"),
], ids=["zero-first", "spread-first", "zero-lead"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_factor_names_the_first_bad_column(columns, message, exact):
    rows = tuple(zip(*columns))
    with pytest.raises(ValueError) as expected:
        factor_by_lead(rows)
    assert str(expected.value) == message
    if not exact:
        rows = tuple(tuple(map(float, row)) for row in rows)
    with pytest.raises(ShapeError) as raised:
        factor_columns(DenseMatrix(rows))
    assert str(raised.value) == message


def _squared_sequential_mean(column) -> Fraction:
    """The float mean modulus as a left-to-right float sum gives it, squared exactly."""
    total = 0.0
    for x in column:
        total += abs(x)
    mean = total / len(column)
    if mean == float("inf"):  # the float sum overflowed: average exactly
        mean = sum(Fraction(abs(x)) for x in column) / len(column)
    return Fraction(mean) ** 2


def test_float_weights_are_squares_of_the_sequential_mean():
    # numpy's own column sums round differently from a left-to-right sum in
    # some shapes (an 8 x 1 matrix among them); q must not change with them.
    rng = random.Random(30)
    shapes = [(8, 1), (16, 1), (9, 3)]
    shapes += [(rng.randint(1, 24), rng.randint(1, 12)) for _ in range(30)]
    for m, n in shapes:
        columns = []
        for _ in range(n):
            x = rng.uniform(0.1, 10)
            columns.append([rng.choice((1, -1)) * x * (1 + rng.uniform(-1e-11, 1e-11))
                            for _ in range(m)])
        factored = factor_columns(DenseMatrix(tuple(zip(*columns))))
        expected = list(map(_squared_sequential_mean, columns))
        assert [c.q for c in factored.matrix.columns] == expected


def test_float_overflow_columns_among_finite_ones():
    # Overflowing columns (two with one exact weight) interleaved with finite ones.
    columns = [(1.7e308, -1.7e308, 1.7e308), (3.0, 3.0, -3.0), (1.7e308, 1.7e308, -1.7e308),
               (0.1, 0.1, 0.1), (1e308, 1.5e308, 1.2e308)]
    factored = factor_columns(DenseMatrix(tuple(zip(*columns))), tol=0.5)
    assert [c.q for c in factored.matrix.columns] == list(map(_squared_sequential_mean, columns))
    assert factored.flipped_columns == ()


def test_factored_matrix_equals_the_one_built_from_its_columns():
    factored = factor_columns(example_matrix()).matrix
    rebuilt = HadamardesqueMatrix(factored.m, factored.columns)
    assert rebuilt == factored and hash(rebuilt) == hash(factored)
    assert rebuilt.columns == factored.columns and rebuilt.n == factored.n
    assert repr(factored) == f"HadamardesqueMatrix(m={factored.m}, columns={factored.columns!r})"
    assert rebuilt.dense() == factored.dense()


def test_weighted_column_validation():
    with pytest.raises(ValueError):
        WeightedColumn(q=0, index=1)
    with pytest.raises(ValueError):
        WeightedColumn(q=1, index=0)
    with pytest.raises(ValueError):
        WeightedColumn(q=1, index=1, multiplicity=0)
    with pytest.raises(ValueError):
        HadamardesqueMatrix(3, (WeightedColumn(q=1, index=5),))


def test_huge_row_count_is_checked_by_bit_length():
    HadamardesqueMatrix(41, (WeightedColumn(q=1, index=1 << 40),))
    with pytest.raises(ValueError):
        HadamardesqueMatrix(41, (WeightedColumn(q=1, index=(1 << 40) + 1),))
    code = (
        "from hadamardesque import HadamardesqueMatrix, ResourceLimitError, WeightedColumn\n"
        "columns = (WeightedColumn(1, 1), WeightedColumn(1, 1 << 40))\n"
        "matrix = HadamardesqueMatrix(10**11, columns)\n"
        "print(matrix.n)\n"
        "try:\n"
        "    matrix.dense()\n"
        "except ResourceLimitError:\n"
        "    print('refused')\n"
    )
    result = run_limited(code, limit=2 * GIB)
    assert (result.returncode, result.stdout, result.stderr) == (0, "2\nrefused\n", "")


def test_pairwise_dots_output_is_within_the_entry_budget():
    assert pair_count(2896) <= OUTPUT_ENTRY_BUDGET < pair_count(2897)
    with pytest.raises(ResourceLimitError, match="4194856"):
        pairwise_dots(HadamardesqueMatrix(2897, (WeightedColumn(q=1, index=1),)))


def test_pairwise_dots_of_a_huge_row_count_is_refused_before_allocating():
    code = (
        "from hadamardesque import HadamardesqueMatrix, ResourceLimitError, WeightedColumn\n"
        "from hadamardesque import pairwise_dots\n"
        "try:\n"
        "    pairwise_dots(HadamardesqueMatrix(10**11, (WeightedColumn(1, 1),)))\n"
        "except ResourceLimitError:\n"
        "    print('refused')\n"
    )
    result = run_limited(code, limit=GIB)
    assert (result.returncode, result.stdout, result.stderr) == (0, "refused\n", "")


def test_dense_expansion_entries():
    matrix = HadamardesqueMatrix(2, (WeightedColumn(q=2, index=1),))
    dense = matrix.dense()
    assert dense.entries == ((SqrtRational.sqrt(2),), (SqrtRational.sqrt(2),))
    multi = HadamardesqueMatrix(2, (WeightedColumn(q=1, index=2, multiplicity=3),))
    assert multi.dense().shape == (2, 3)
    assert multi.n == 3


# --- Representation vectors ---------------------------------------------------


def test_crv_worked_example():
    rep = column_representation(to_hadamardesque(example_matrix()))
    assert rep.values == goldens.EXAMPLE_CRV


def test_crv_remark_matrix():
    matrix = parse_matrix(goldens.REMARK_MATRIX_TEXT)
    rep = column_representation(to_hadamardesque(matrix))
    assert rep.values == goldens.REMARK_CRV
    assert in_free_span(rep).in_span
    assert all(d == 0 for d in row_dots(matrix.entries))


def test_crv_truth_table_all_ones():
    for m in (2, 3, 5):
        rep = column_representation(to_hadamardesque(truth_table(m)))
        assert rep.values == (Fraction(1),) * (1 << (m - 1))


def test_crv_aggregates_multiplicity_and_order():
    rng = random.Random(3)
    matrix = random_hadamardesque(rng, 4, 6)
    rep = column_representation(matrix)
    shuffled = list(matrix.columns)
    rng.shuffle(shuffled)
    assert column_representation(HadamardesqueMatrix(4, tuple(shuffled))) == rep


def test_representation_vector_validation():
    with pytest.raises(ValueError):
        RepresentationVector(3, (Fraction(1),) * 3)
    with pytest.raises(ValueError):
        RepresentationVector(2, (Fraction(-1), Fraction(0)))


# --- Pairwise dots -------------------------------------------------------------


def test_pairwise_dots_hadamard_and_truth():
    assert pairwise_dots(to_hadamardesque(DenseMatrix(goldens.H4))).values == (0,) * 6
    assert pairwise_dots(to_hadamardesque(truth_table(3))).values == (0,) * 3


def test_pairwise_dots_worked_example_three_routes():
    matrix = example_matrix()
    dots = pairwise_dots(to_hadamardesque(matrix)).values
    assert dots == goldens.EXAMPLE_DOTS
    assert row_dots(matrix.entries) == goldens.EXAMPLE_DOTS
    assert column_product_sums(matrix.entries) == goldens.EXAMPLE_DOTS


def test_pairwise_dots_triple_agreement_random():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(2, 7)
        matrix = random_hadamardesque(rng, m, rng.randint(1, 12))
        dense = matrix.dense()
        spectral = pairwise_dots(matrix).values
        assert spectral == row_dots(dense.entries)
        assert spectral == column_product_sums(dense.entries)


# --- Span membership ------------------------------------------------------------


def test_in_free_span_all_ones():
    assert in_free_span([1, 1, 1, 1, 1, 1, 1, 1]).in_span


def test_in_free_span_unit_vector_violations():
    check = in_free_span([1, 0, 0, 0, 0, 0, 0, 0])
    assert not check.in_span
    assert check.violations == tuple((L, 1) for L in range(1, 7))


def test_in_free_span_accepts_representation_vector():
    rep = RepresentationVector(4, goldens.REMARK_CRV)
    assert in_free_span(rep).in_span


def test_in_free_span_length_checks():
    with pytest.raises(ValueError):
        in_free_span([1, 2, 3])


def _same_dots(v, w):
    return in_free_span([a - b for a, b in zip(v.values, w.values)])


def test_same_pairwise_dots():
    ones = RepresentationVector(4, (Fraction(1),) * 8)
    assert _same_dots(ones, ones).in_span
    shifted = RepresentationVector(4, tuple(v + 3 for v in ones.values))
    assert _same_dots(ones, shifted).in_span
    h4 = RepresentationVector(4, goldens.REMARK_CRV)
    assert _same_dots(ones, h4).in_span  # both realize zero dots
    e1 = RepresentationVector(4, (Fraction(1),) + (Fraction(0),) * 7)
    zero = RepresentationVector(4, (Fraction(0),) * 8)
    check = _same_dots(e1, zero)
    assert not check.in_span
    assert check.violations == tuple((L, 1) for L in range(1, 7))


def test_same_dots_matches_realized_dots():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randint(2, 6)
        a = random_hadamardesque(rng, m, rng.randint(1, 8))
        b = random_hadamardesque(rng, m, rng.randint(1, 8))
        expected = pairwise_dots(a).values == pairwise_dots(b).values
        assert bool(_same_dots(column_representation(a), column_representation(b))) == expected


# --- Hadamard tests ---------------------------------------------------------------


def test_is_hadamard():
    assert is_hadamard(DenseMatrix(goldens.H4))
    assert is_hadamard(sylvester(3))
    assert not is_hadamard(truth_table(3))  # not square
    assert not is_hadamard(DenseMatrix(((1, 1), (1, 1))))
    assert not is_hadamard(DenseMatrix(((2, 2), (2, -2))))  # right dots, wrong entries


def test_is_partial_hadamard_order_32():
    h32 = sylvester(5)
    flipped = [list(row) for row in h32.entries]
    flipped[7][11] = -flipped[7][11]
    flipped = tuple(map(tuple, flipped))
    for entries, orthogonal in ((h32.entries, True), (h32.entries[:31], True), (flipped, False)):
        dots = pairwise_dots(factor_columns(DenseMatrix(entries)).matrix).values
        assert dots == row_dots(entries)
        assert (not any(dots)) == orthogonal


# The nonzero coordinates of REMARK_CRV, as (truth column index, weight).
REMARK_SUPPORT = tuple((j, w) for j, w in enumerate(goldens.REMARK_CRV, start=1) if w)


def test_classify_h4():
    report = classify_square(DenseMatrix(goldens.H4))
    assert report.hadamard
    assert report.sign_matrix_in_span
    assert report.lattice_point_in_span
    assert report.verdicts_agree
    assert report.representation == REMARK_SUPPORT


def test_classify_h8():
    report = classify_square(sylvester(3))
    assert report.hadamard and report.sign_matrix_in_span and report.lattice_point_in_span


@pytest.mark.parametrize("k", (5, 6, 7))
def test_classify_large_sylvester(k):
    report = classify_square(sylvester(k))
    assert report.hadamard and report.sign_matrix_in_span and report.lattice_point_in_span
    assert report.violations == ()


def test_classify_order_32_with_one_flipped_sign():
    entries = [list(row) for row in sylvester(5).entries]
    entries[7][11] = -entries[7][11]
    report = classify_square(DenseMatrix(tuple(map(tuple, entries))))
    assert not report.hadamard
    assert not report.sign_matrix_in_span
    assert not report.lattice_point_in_span
    dots = row_dots(entries)
    assert report.violations == tuple((L, d) for L, d in enumerate(dots, start=1) if d)
    assert len(report.violations) == 31


def test_classify_constant_matrix():
    report = classify_square(DenseMatrix(((1, 1), (1, 1))))
    assert not report.hadamard
    assert not report.sign_matrix_in_span
    assert not report.lattice_point_in_span
    assert report.verdicts_agree
    assert report.violations  # witnesses for the failed span test


def test_classify_column_negated_hadamard():
    flipped = tuple(
        tuple(-e if j == 2 else e for j, e in enumerate(row)) for row in goldens.H4
    )
    report = classify_square(DenseMatrix(flipped))
    assert report.verdicts_agree and report.hadamard
    assert report.flipped_columns == (3,)


def test_classify_scaled_hadamard_disagreement_paths():
    # A scaled Hadamard matrix factors fine but has non-unit entries and
    # non-0/1 weights: all three verdicts must still agree (all false).
    scaled = tuple(tuple(2 * e for e in row) for row in goldens.H4)
    report = classify_square(DenseMatrix(scaled))
    assert not report.hadamard
    assert not report.sign_matrix_in_span
    assert not report.lattice_point_in_span
    assert report.verdicts_agree


def test_classify_rejects_non_square():
    with pytest.raises(ValueError):
        classify_square(truth_table(3))


def test_classify_random_sign_matrices_agree():
    rng = random.Random(41)
    for _ in range(80):
        m = rng.choice((2, 4))
        rows = tuple(
            tuple(rng.choice((1, -1)) for _ in range(m)) for _ in range(m)
        )
        report = classify_square(DenseMatrix(rows))
        assert report.verdicts_agree


def test_classification_record_is_json_serializable():
    record = classify_square(DenseMatrix(goldens.H4)).to_record()
    parsed = json.loads(json.dumps(record))
    assert parsed["hadamard"] is True
    assert parsed["representation"] == [[j, str(w)] for j, w in REMARK_SUPPORT]
