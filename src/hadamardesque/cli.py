"""Command-line front end.

Subcommands: gen-hadamard, truth-table, ct-table, crv, dots, classify,
in-span, construct, search, verify-set.  Matrices travel in the shared text
format; weight vectors and reports have JSON record forms.  Exit codes:
0 success, 2 argument or input errors, 3 infeasible targets, 4 resource
limits (including a search cut short by a node or time budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .classify import (
    RepresentationVector,
    classify_square,
    column_representation,
    factor_columns,
    in_free_span,
    pairwise_dots,
)
from .construct import ConstructionOptions, construct_matrix
from .dense import _first_occurrence_codes, format_matrix, parse_matrix
from .errors import FormatError, InfeasibleError, ResourceLimitError, ShapeError
from .scalars import _shown, format_scalar, parse_scalar
from .search import SearchOptions, find_hadamard_column_sets, verify_column_set
from .walsh import pair_rows, pair_product_table, sylvester, truth_table

_PAIR_ORDER_HELP = (
    "Pair-dot coordinates follow the linear pair order L=(j-1)(j-2)/2+i for "
    "the row pair (i,j), i<j: (1,2) (1,3) (2,3) (1,4) (2,4) (3,4) ..."
)


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_targets(text: str) -> list:
    data = text.replace(",", " ").encode("utf-8", "surrogatepass")
    tokens = [raw.decode("utf-8", "surrogatepass") for raw in data.split()]  # ASCII whitespace only
    if not tokens:
        raise FormatError("empty target list")
    return [parse_scalar(tok) for tok in tokens]


def _rational(value, what: str) -> Fraction:
    """An exact rational from a grammar token or an int; FormatError for anything else."""
    if type(value) is int:  # not bool
        return Fraction(value)
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a rational token or an integer, got {_shown(value)}")
    try:
        parsed = parse_scalar(value)
    except FormatError as exc:
        raise FormatError(f"{what}: {exc}") from None
    if not isinstance(parsed, Fraction):
        raise FormatError(f"{what} {_shown(value)} is irrational")
    return parsed


def _matrix_from_file(args):
    return parse_matrix(_read_text(args.matrix_file), exact=args.exact)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen_hadamard(args) -> int:
    sys.stdout.write(format_matrix(sylvester(args.k)))
    return 0


def _cmd_truth_table(args) -> int:
    sys.stdout.write(format_matrix(truth_table(args.m)))
    return 0


def _cmd_ct_table(args) -> int:
    sys.stdout.write(format_matrix(pair_product_table(args.m)))
    return 0


def _cmd_crv(args) -> int:
    rep = column_representation(factor_columns(_matrix_from_file(args), args.tol).matrix)
    if args.json:
        print(json.dumps(rep.to_record()))
    else:
        print(" ".join(format_scalar(v) for v in rep.values))
    return 0


def _cmd_dots(args) -> int:
    dots = pairwise_dots(factor_columns(_matrix_from_file(args), args.tol).matrix)
    if args.json:
        print(json.dumps(dots.to_record()))
    else:
        print(" ".join(format_scalar(v) for v in dots.values))
    return 0


def _cmd_classify(args) -> int:
    report = classify_square(_matrix_from_file(args))
    print(json.dumps(report.to_record(), indent=2))
    return 0


def _load_weight_vector(path: str) -> RepresentationVector:
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            record = json.loads(text)
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None
        m, entries = record.get("m"), record.get("v")
        if type(m) is not int or not isinstance(entries, list):
            raise FormatError(f'{path}: a weight record needs an integer "m" and a list "v"')
        values = [_rational(v, f'{path}: "v" entry') for v in entries]
        return RepresentationVector(m, tuple(values))
    tokens = text.encode("utf-8", "surrogatepass").split()  # at ASCII whitespace only
    if not tokens:
        raise FormatError(f"{path}: empty weight vector")
    code, codes = _first_occurrence_codes(tokens)
    distinct = [_rational(raw.decode("utf-8", "surrogatepass"), f"{path}: weight") for raw in code]
    values = list(map(distinct.__getitem__, codes.tolist()))
    n = len(values)
    if n & (n - 1):
        raise FormatError(f"{path}: length {n} is not a power of two")
    return RepresentationVector(n.bit_length(), tuple(values))


def _cmd_in_span(args) -> int:
    check = in_free_span(_load_weight_vector(args.crv_file))
    print("true" if check.in_span else "false")
    for linear, residual in check.violations:
        i, j = pair_rows(linear)
        print(f"pair L={linear} rows=({i},{j}) residual={format_scalar(residual)}")
    return 0


def _cmd_construct(args) -> int:
    targets = _parse_targets(args.targets)
    shift: object = args.shift
    if shift not in ("minimal", "minimal-integer"):
        shift = _rational(shift, "--shift")
    opts = ConstructionOptions(shift=shift, flavor=args.flavor)
    matrix = construct_matrix(args.m, targets, opts)
    if args.multiset:
        record = {
            "m": matrix.m,
            "columns": [[format_scalar(c.q), c.index, c.multiplicity] for c in matrix.columns],
        }
        print(json.dumps(record))
    else:
        sys.stdout.write(format_matrix(matrix.dense()))
    return 0


def _cmd_search(args) -> int:
    opts = SearchOptions(
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        force_first_column=args.normalize,
    )
    if args.json:
        report = find_hadamard_column_sets(args.m, limit=args.limit, options=opts)
        print(json.dumps(report.to_record()))
    else:
        def stream(columns):
            print(f"{args.m}: " + " ".join(str(j) for j in columns))

        report = find_hadamard_column_sets(
            args.m, limit=args.limit, options=opts, on_solution=stream
        )
        if not report.solutions and report.exhaustive:
            print("no solutions (exhaustive)")
        fired = f" limit={report.limit_fired}" if report.limit_fired else ""
        print(
            f"summary: solutions={len(report.solutions)} nodes={report.nodes} "
            f"elapsed={report.elapsed:.3f}s exhaustive={str(report.exhaustive).lower()}{fired}"
        )
    if report.limit_fired in ("nodes", "time"):
        return 4
    return 0


def _cmd_verify_set(args) -> int:
    print("true" if verify_column_set(args.m, args.columns) else "false")
    return 0


# ---------------------------------------------------------------------------
# Parser


@cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadamardesque",
        description="Equal-modulus-column matrices: generate, classify, construct, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-hadamard", help="print the Sylvester Hadamard matrix of order 2^k")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_gen_hadamard)

    p = sub.add_parser("truth-table", help="print the m x 2^(m-1) truth table")
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_truth_table)

    p = sub.add_parser("ct-table", help="print the pairwise-product table of the truth columns")
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_ct_table)

    for name, handler, help_text in (
        ("crv", _cmd_crv, "column weights (squared scales) of a matrix file"),
        ("dots", _cmd_dots, "pairwise row dot products of a matrix file"),
    ):
        p = sub.add_parser(name, help=help_text, epilog=_PAIR_ORDER_HELP)
        p.add_argument("matrix_file")
        p.add_argument("--exact", action="store_true", help="reject float entries")
        p.add_argument("--tol", type=float, default=None,
                       help="relative modulus tolerance for float input (default 1e-9)")
        p.add_argument("--json", action="store_true", help="emit the JSON record form")
        p.set_defaults(handler=handler)

    p = sub.add_parser("classify", help="three-way Hadamard classification of a square matrix")
    p.add_argument("matrix_file")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("in-span", help="test a weight vector against every pair-product row")
    p.add_argument("crv_file")
    p.set_defaults(handler=_cmd_in_span)

    p = sub.add_parser(
        "construct",
        help="build a matrix realizing the given pairwise row dots",
        epilog=_PAIR_ORDER_HELP,
    )
    p.add_argument("m", type=int)
    p.add_argument("targets", help="comma- or space-separated rational targets in pair order")
    p.add_argument("--flavor", choices=("canonical", "rational", "irrational"),
                   default="canonical")
    p.add_argument("--shift", default="minimal",
                   help="'minimal', 'minimal-integer', or an explicit rational")
    p.add_argument("--multiset", action="store_true",
                   help="print the column multiset record instead of a dense matrix")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("search", help="search Hadamard column sets of order m")
    p.add_argument("m", type=int)
    p.add_argument("--limit", type=int, default=None, help="stop after this many solutions")
    p.add_argument("--time-limit", type=float, default=None, help="seconds")
    p.add_argument("--node-limit", type=int, default=None,
                   help="stop after this many nodes of the walk over sets holding the "
                        "all-ones column, which every run takes")
    p.add_argument("--normalize", action="store_true",
                   help="force the all-ones column into every solution")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("verify-set", help="check whether truth columns form a Hadamard matrix")
    p.add_argument("m", type=int)
    p.add_argument("columns", type=int, nargs="+")
    p.set_defaults(handler=_cmd_verify_set)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, ShapeError, IndexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
