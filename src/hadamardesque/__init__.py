"""Matrices whose columns have equal-modulus coordinates.

Exact tooling for the family of m x n matrices in which every column is a
positive multiple of a sign column (1, +-1, ..., +-1): factor them, compute
their pairwise row dot products without rounding, build a matrix realizing
any prescribed rational dot-product vector, and search for Hadamard
matrices as 0/1 weight vectors with m ones.
"""

from .classify import (
    Factorization,
    HadamardesqueMatrix,
    PairwiseDots,
    RepresentationVector,
    SpanCheck,
    SquareClassification,
    WeightedColumn,
    classify_square,
    column_representation,
    factor_columns,
    in_free_span,
    is_hadamard,
    pairwise_dots,
    to_hadamardesque,
)
from .construct import (
    ConstructionOptions,
    construct_crv,
    construct_matrix,
    realize_canonical,
    realize_uniform_irrational,
    realize_uniform_rational,
)
from .dense import DenseMatrix, format_matrix, parse_matrix
from .errors import FormatError, InfeasibleError, ResourceLimitError, ShapeError
from .scalars import SqrtRational, format_scalar, parse_scalar
from .search import (
    SearchOptions,
    SearchReport,
    column_set_matrix,
    find_hadamard_column_sets,
    verify_column_set,
)
from .walsh import (
    OUTPUT_ENTRY_BUDGET,
    free_masks,
    fwht,
    pair_count,
    pair_index,
    pair_masks,
    pair_product_table,
    pair_rows,
    pair_to_mask,
    row_mask,
    sylvester,
    truth_table,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionOptions",
    "DenseMatrix",
    "Factorization",
    "FormatError",
    "HadamardesqueMatrix",
    "InfeasibleError",
    "OUTPUT_ENTRY_BUDGET",
    "PairwiseDots",
    "RepresentationVector",
    "ResourceLimitError",
    "SearchOptions",
    "SearchReport",
    "ShapeError",
    "SpanCheck",
    "SqrtRational",
    "SquareClassification",
    "WeightedColumn",
    "classify_square",
    "column_representation",
    "column_set_matrix",
    "construct_crv",
    "construct_matrix",
    "factor_columns",
    "find_hadamard_column_sets",
    "format_matrix",
    "format_scalar",
    "free_masks",
    "fwht",
    "in_free_span",
    "is_hadamard",
    "pair_count",
    "pair_index",
    "pair_masks",
    "pair_product_table",
    "pair_rows",
    "pair_to_mask",
    "pairwise_dots",
    "parse_matrix",
    "parse_scalar",
    "realize_canonical",
    "realize_uniform_irrational",
    "realize_uniform_rational",
    "row_mask",
    "sylvester",
    "to_hadamardesque",
    "truth_table",
    "verify_column_set",
]
