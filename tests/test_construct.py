import math
import random
from fractions import Fraction

import pytest

import goldens
from oracles import random_fraction, row_dots
from hadamardesque import (
    ConstructionOptions,
    DenseMatrix,
    InfeasibleError,
    PairwiseDots,
    SqrtRational,
    column_representation,
    construct_crv,
    construct_matrix,
    in_free_span,
    pair_count,
    pair_product_table,
    pairwise_dots,
    realize_canonical,
    realize_uniform_irrational,
    realize_uniform_rational,
    truth_table,
)


def crv_dots_oracle(v, m):
    """Dots of a weight vector with every pair-product row, the slow way."""
    table = pair_product_table(m)
    return tuple(
        sum(w * e for w, e in zip(v.values, table.row(L)))
        for L in range(1, pair_count(m) + 1)
    )


def random_target(rng, m, den_range=9):
    return [random_fraction(rng, den_range=den_range) for _ in range(pair_count(m))]


# --- construct_crv -------------------------------------------------------------


def test_hand_worked_order_two():
    v = construct_crv(2, [2])
    assert v.values == (Fraction(2), Fraction(0))


def test_zero_target_gives_truth_table():
    for m in (2, 3, 4, 5):
        v = construct_crv(m, [0] * pair_count(m))
        assert v.values == (Fraction(1),) * (1 << (m - 1))
        assert realize_canonical(v).dense() == truth_table(m)


def test_constructed_weights_hit_target_exactly():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randint(2, 6)
        target = random_target(rng, m)
        v = construct_crv(m, target)
        assert all(value >= 0 for value in v.values)
        assert crv_dots_oracle(v, m) == tuple(target)


def test_accepts_pairwise_dots_instance():
    dots = PairwiseDots(2, (Fraction(2),))
    assert construct_crv(2, dots).values == (Fraction(2), Fraction(0))
    with pytest.raises(ValueError):
        construct_crv(3, dots)


def test_target_length_validation():
    with pytest.raises(ValueError):
        construct_crv(3, [1, 2])
    with pytest.raises(ValueError):
        construct_crv(1, [])


def test_shift_policies():
    minimal = construct_crv(2, [Fraction(1, 3)])
    assert min(minimal.values) == 0
    integer = construct_crv(2, [Fraction(1, 3)], ConstructionOptions(shift="minimal-integer"))
    raw = _raw(2, [Fraction(1, 3)])
    shifts = {value - r for value, r in zip(integer.values, raw)}
    assert shifts == {1}  # ceil(1/6): the shift itself is a whole number
    explicit = construct_crv(2, [2], ConstructionOptions(shift=5))
    assert explicit.values == (Fraction(6), Fraction(4))
    with pytest.raises(ValueError):
        construct_crv(2, [2], ConstructionOptions(shift=Fraction(1, 2)))


def test_shift_invariance_of_dots():
    rng = random.Random(9)
    m = 4
    target = random_target(rng, m)
    base = construct_crv(m, target)
    for extra in (1, Fraction(5, 3)):
        shifted = construct_crv(
            m, target, ConstructionOptions(shift=-min(f for f in _raw(m, target)) + extra)
        )
        assert pairwise_dots(realize_canonical(shifted)).values == tuple(target)
        assert shifted.values != base.values


def _raw(m, target):
    """Unshifted weights, for picking explicit shifts in tests."""
    from hadamardesque import fwht, pair_to_mask

    n = 1 << (m - 1)
    spectrum = [Fraction(0)] * n
    for L, value in enumerate(target, start=1):
        spectrum[pair_to_mask(m, L)] = Fraction(value)
    return [value / n for value in fwht(spectrum)]


def test_bad_options():
    with pytest.raises(ValueError):
        ConstructionOptions(flavor="nope")
    with pytest.raises(ValueError):
        ConstructionOptions(shift="tiny")


# --- canonical realization -------------------------------------------------------


def test_canonical_roundtrip_random():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(2, 8)
        target = random_target(rng, m)
        matrix = realize_canonical(construct_crv(m, target))
        assert pairwise_dots(matrix).values == tuple(target)


def test_canonical_lattice_point_is_hadamard():
    from hadamardesque import is_hadamard

    v = construct_crv(4, [0] * 6)
    dense = realize_canonical(
        type(v)(4, goldens.REMARK_CRV)
    ).dense()
    assert sorted(zip(*dense.entries)) == sorted(zip(*goldens.H4))
    assert is_hadamard(dense)


def test_canonical_rejects_all_zero():
    from hadamardesque import RepresentationVector

    with pytest.raises(ValueError):
        realize_canonical(RepresentationVector(2, (Fraction(0), Fraction(0))))


def test_single_column_order_two():
    from hadamardesque import RepresentationVector

    matrix = realize_canonical(RepresentationVector(2, (Fraction(2), Fraction(0))))
    dense = matrix.dense()
    assert dense.entries == ((SqrtRational.sqrt(2),), (SqrtRational.sqrt(2),))
    assert row_dots(dense.entries) == (2,)


# --- uniform realizations ----------------------------------------------------------


def test_uniform_rational_hand_worked():
    matrix = realize_uniform_rational(2, [Fraction(1, 2)])
    assert tuple((c.q, c.index, c.multiplicity) for c in matrix.columns) == (
        (Fraction(1, 4), 1, 2),
    )
    dense = matrix.dense()
    assert dense.entries == ((Fraction(1, 2), Fraction(1, 2)),) * 2
    assert row_dots(dense.entries) == (Fraction(1, 2),)


def test_uniform_rational_zero_target_is_truth_table():
    assert realize_uniform_rational(2, [0]).dense() == truth_table(2)


def test_uniform_irrational_hand_worked():
    matrix = realize_uniform_irrational(2, [0])
    assert matrix.n == 4
    assert all(c.q == Fraction(1, 2) for c in matrix.columns)
    assert pairwise_dots(matrix).values == (0,)


def test_uniform_irrational_zero_target_pairs_columns_at_half_weight():
    # The order-4 zero target doubles every truth column at modulus 1/sqrt(2),
    # the same column shape the two left columns of the remark matrix carry.
    matrix = realize_uniform_irrational(4, [0] * 6)
    assert [(c.index, c.q, c.multiplicity) for c in matrix.columns] == [
        (i, Fraction(1, 2), 2) for i in range(1, 9)
    ]
    assert pairwise_dots(matrix).values == (0,) * 6

    matrix = realize_uniform_irrational(2, [Fraction(1, 2)])
    assert tuple((c.q, c.index, c.multiplicity) for c in matrix.columns) == (
        (Fraction(1, 8), 1, 4),
    )
    assert pairwise_dots(matrix).values == (Fraction(1, 2),)


def test_uniform_realizations_random():
    rng = random.Random(21)
    for _ in range(20):
        m = rng.randint(2, 6)
        target = random_target(rng, m, den_range=6)
        rational = realize_uniform_rational(m, target)
        qs = {c.q for c in rational.columns}
        assert len(qs) == 1
        (q,) = qs
        assert q.numerator == 1 and math.isqrt(q.denominator) ** 2 == q.denominator
        assert pairwise_dots(rational).values == tuple(target)

        irrational = realize_uniform_irrational(m, target)
        assert {c.q for c in irrational.columns} == {q / 2}
        assert not isinstance(SqrtRational.sqrt(q / 2), Fraction)
        assert pairwise_dots(irrational).values == tuple(target)

        if rational.n <= 2000:
            modulus = SqrtRational.sqrt(q)
            dense = rational.dense()
            assert all(abs(e) == modulus for row in dense.entries for e in row)


def test_uniform_rejects_irrational_targets():
    mixed = [Fraction(1), SqrtRational.sqrt(2), Fraction(0)]
    with pytest.raises(InfeasibleError, match="coordinate 2"):
        realize_uniform_rational(3, mixed)
    with pytest.raises(InfeasibleError):
        realize_uniform_irrational(3, mixed)
    with pytest.raises(InfeasibleError):
        construct_crv(3, mixed)


def test_irrational_token_that_is_rational_is_fine():
    # sqrt(9/4) is the rational 3/2 and must be accepted.
    assert realize_uniform_rational(2, [SqrtRational.sqrt(Fraction(9, 4))]) is not None


def test_nonuniqueness_same_dots_different_matrices():
    target = [Fraction(1, 2)]
    canonical = realize_canonical(construct_crv(2, target))
    uniform = realize_uniform_rational(2, target)
    assert canonical.columns != uniform.columns
    assert pairwise_dots(canonical).values == pairwise_dots(uniform).values
    v, w = column_representation(canonical), column_representation(uniform)
    assert in_free_span([a - b for a, b in zip(v.values, w.values)]).in_span


def test_construct_matrix_dispatch():
    assert construct_matrix(2, [0]).dense() == truth_table(2)
    rational = construct_matrix(2, [Fraction(1, 2)], ConstructionOptions(flavor="rational"))
    assert all(c.q == Fraction(1, 4) for c in rational.columns)
    dense = construct_matrix(2, [0], ConstructionOptions(flavor="irrational")).dense()
    assert isinstance(dense, DenseMatrix)
    assert dense.shape == (2, 4)
