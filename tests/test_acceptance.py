"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its elapsed time against the stated budget.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

import goldens
from oracles import (
    brute_force_column_sets,
    column_product_sums,
    naive_wht,
    random_fraction,
    row_dots,
    sylvester_by_doubling,
)
from hadamardesque import (
    DenseMatrix,
    HadamardesqueMatrix,
    InfeasibleError,
    SearchOptions,
    SqrtRational,
    WeightedColumn,
    column_representation,
    column_set_matrix,
    construct_crv,
    find_hadamard_column_sets,
    fwht,
    in_free_span,
    is_hadamard,
    pair_count,
    pair_product_table,
    pair_to_mask,
    pairwise_dots,
    parse_matrix,
    parse_scalar,
    realize_canonical,
    realize_uniform_irrational,
    realize_uniform_rational,
    row_mask,
    to_hadamardesque,
    truth_table,
    verify_column_set,
)
from hadamardesque.cli import main as cli_main


def report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} PASS {name} elapsed={elapsed:.2f}s budget={budget}s")


def test_criterion_1_structural_theorems():
    started = time.monotonic()
    for m in range(2, 13):
        hadamard = sylvester_by_doubling(m - 1)
        # Truth rows occupy Hadamard rows {1, 2^0+1, ..., 2^(m-2)+1}.
        indices = [row_mask(k) + 1 for k in range(1, m + 1)]
        assert indices == [1] + [2 ** (k - 2) + 1 for k in range(2, m + 1)]
        truth = truth_table(m).entries
        for k in range(1, m + 1):
            assert truth[k - 1] == hadamard[row_mask(k)]
        products = pair_product_table(m).entries
        for linear in range(1, pair_count(m) + 1):
            assert products[linear - 1] == hadamard[pair_to_mask(m, linear)]
    report(1, "structural-theorems m=2..12", started, 5.0)


def test_criterion_2_golden_values():
    started = time.monotonic()
    example = parse_matrix(goldens.EXAMPLE_MATRIX_TEXT)
    assert column_representation(to_hadamardesque(example)).values == goldens.EXAMPLE_CRV

    remark = parse_matrix(goldens.REMARK_MATRIX_TEXT)
    rep = column_representation(to_hadamardesque(remark))
    assert rep.values == goldens.REMARK_CRV
    assert in_free_span(rep).in_span
    assert all(d == 0 for d in row_dots(remark.entries))
    report(2, "golden-values", started, 5.0)


def test_criterion_3_construction_roundtrip():
    started = time.monotonic()
    rng = random.Random(2024)
    for _ in range(100):
        m = rng.randint(2, 8)
        target = [random_fraction(rng) for _ in range(pair_count(m))]
        matrix = realize_canonical(construct_crv(m, target))
        assert pairwise_dots(matrix).values == tuple(target)
    report(3, "construction-roundtrip 100 targets", started, 10.0)


def test_criterion_4_uniform_realizations():
    started = time.monotonic()
    rng = random.Random(4096)
    for _ in range(25):
        m = rng.randint(2, 6)
        target = [random_fraction(rng, den_range=6) for _ in range(pair_count(m))]

        rational = realize_uniform_rational(m, target)
        qs = {c.q for c in rational.columns}
        assert len(qs) == 1
        (q,) = qs
        d = math.isqrt(q.denominator)
        assert q == Fraction(1, d * d)  # shared modulus is exactly 1/d
        assert pairwise_dots(rational).values == tuple(target)

        irrational = realize_uniform_irrational(m, target)
        assert {c.q for c in irrational.columns} == {Fraction(1, 2 * d * d)}
        assert not isinstance(SqrtRational.sqrt(Fraction(1, 2 * d * d)), Fraction)
        assert pairwise_dots(irrational).values == tuple(target)

    mixed = [Fraction(1), SqrtRational.sqrt(2), Fraction(0)]
    with pytest.raises(InfeasibleError):
        realize_uniform_rational(3, mixed)
    with pytest.raises(InfeasibleError):
        realize_uniform_irrational(3, mixed)
    report(4, "uniform-realizations 25 targets", started, 30.0)


def test_criterion_5_triple_dot_agreement():
    started = time.monotonic()
    rng = random.Random(555)
    for _ in range(200):
        m = rng.randint(2, 8)
        n = rng.randint(1, 20)
        columns = tuple(
            WeightedColumn(
                q=Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                index=rng.randint(1, 1 << (m - 1)),
            )
            for _ in range(n)
        )
        matrix = HadamardesqueMatrix(m, columns)
        dense = matrix.dense()
        spectral = pairwise_dots(matrix).values
        assert spectral == row_dots(dense.entries)
        assert spectral == column_product_sums(dense.entries)
    report(5, "triple-dot-agreement 200 matrices", started, 10.0)


def test_criterion_6_search_correctness():
    started = time.monotonic()

    assert find_hadamard_column_sets(2).solutions == ((1, 2),)

    for m in (3, 5, 7):
        odd_start = time.monotonic()
        odd = find_hadamard_column_sets(m)
        assert odd.solutions == () and odd.exhaustive
        assert time.monotonic() - odd_start < 0.1

    engine4 = find_hadamard_column_sets(4)
    oracle4, checked4 = brute_force_column_sets(4)
    assert checked4 == 70
    assert engine4.exhaustive
    assert sorted(engine4.solutions) == sorted(oracle4)

    six_start = time.monotonic()
    engine6 = find_hadamard_column_sets(6)
    oracle6, checked6 = brute_force_column_sets(6)
    assert checked6 == 906_192
    assert engine6.exhaustive
    assert engine6.solutions == () and oracle6 == []
    assert time.monotonic() - six_start < 60.0

    eight_start = time.monotonic()
    first8 = find_hadamard_column_sets(8, limit=1)
    assert len(first8.solutions) == 1
    (solution,) = first8.solutions
    assert verify_column_set(8, solution)
    assert is_hadamard(column_set_matrix(8, solution))
    assert in_free_span(
        [Fraction(1) if j + 1 in solution else Fraction(0) for j in range(128)]
    ).in_span
    assert time.monotonic() - eight_start < 60.0

    assert engine4.nodes == 4 and engine6.nodes == 40
    for m, nodes in ((4, 4), (6, 40)):
        normalized = find_hadamard_column_sets(m, options=SearchOptions(force_first_column=True))
        assert normalized.exhaustive and normalized.nodes == nodes
    report(6, "search m=2..8 vs oracles, pinned node counts", started, 125.0)


def test_criterion_7_transform_oracle():
    started = time.monotonic()
    rng = random.Random(77)
    for exponent in range(1, 9):
        n = 1 << exponent
        values = [Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(n)]
        assert fwht(values) == naive_wht(values)
        assert fwht(fwht(values)) == [n * v for v in values]
    report(7, "transform-oracle N<=256", started, 10.0)


def test_criterion_8_cli_golden_files(capsys, tmp_path):
    started = time.monotonic()

    expectations = {
        ("truth-table", "3"): "3 4\n1 1 1 1\n1 -1 1 -1\n1 1 -1 -1\n",
        ("truth-table", "4"): (
            "4 8\n1 1 1 1 1 1 1 1\n1 -1 1 -1 1 -1 1 -1\n"
            "1 1 -1 -1 1 1 -1 -1\n1 1 1 1 -1 -1 -1 -1\n"
        ),
        ("ct-table", "3"): "3 4\n1 -1 1 -1\n1 1 -1 -1\n1 -1 -1 1\n",
        ("ct-table", "4"): (
            "6 8\n1 -1 1 -1 1 -1 1 -1\n1 1 -1 -1 1 1 -1 -1\n1 -1 -1 1 1 -1 -1 1\n"
            "1 1 1 1 -1 -1 -1 -1\n1 -1 1 -1 -1 1 -1 1\n1 1 -1 -1 -1 -1 1 1\n"
        ),
    }
    for argv, expected in expectations.items():
        assert cli_main(list(argv)) == 0
        assert capsys.readouterr().out == expected

    example = tmp_path / "example.txt"
    example.write_text(goldens.EXAMPLE_MATRIX_TEXT)

    assert cli_main(["crv", str(example)]) == 0
    crv_line = capsys.readouterr().out
    assert tuple(Fraction(tok) for tok in crv_line.split()) == goldens.EXAMPLE_CRV

    assert cli_main(["dots", str(example)]) == 0
    dots_line = capsys.readouterr().out
    assert tuple(parse_scalar(tok) for tok in dots_line.split()) == goldens.EXAMPLE_DOTS

    assert cli_main(["construct", "3", "1,1/2,-2"]) == 0
    construct_text = capsys.readouterr().out
    rebuilt = to_hadamardesque(parse_matrix(construct_text))
    assert pairwise_dots(rebuilt).values == (Fraction(1), Fraction(1, 2), Fraction(-2))

    assert cli_main(["construct", "2", "1/2", "--flavor", "irrational", "--multiset"]) == 0
    record = json.loads(capsys.readouterr().out)
    multiset = HadamardesqueMatrix(
        record["m"],
        tuple(
            WeightedColumn(q=Fraction(q), index=j, multiplicity=mult)
            for q, j, mult in record["columns"]
        ),
    )
    assert pairwise_dots(multiset).values == (Fraction(1, 2),)
    report(8, "cli-golden-files", started, 10.0)
