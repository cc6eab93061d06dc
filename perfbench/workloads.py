"""Seeded inputs, timed operations and independent checks for each workload.

A workload is a sequence of blocks; a block is a list of operations.  The
benchmark runs whole blocks only, so every run executes the same mix of
operation kinds and sizes in the same proportions; the seed changes the
contents.  Construct and ingest blocks have 25 operations, so the median
and the 90th percentile of per-operation latency fall inside a rank of the
block rather than between two ranks (see README.md).  Search has one block,
its question list.

Checks never call the library: they use the reference routes of
`tests/oracles.py` (recursion-built truth tables and Sylvester matrices,
literal row dots, subset enumeration) plus exact integer arithmetic.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import hadamardesque as hd
import oracles
from hadamardesque import cli

OK = "ok"            # correct output, or an expected rejection
REFUSED = "refused"  # a valid input was rejected
ERROR = "error"      # unexpected exception or wrong exit code
WRONG = "wrong"      # an output that disagrees with the reference route


@dataclass
class Raised:
    """Outcome of an operation that raised."""

    exc: Exception


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    notes: dict = field(default_factory=dict)


class _Oracles:
    """Reference tables, built once per order from the recursion oracles."""

    def __init__(self):
        self._truth: dict[int, np.ndarray] = {}
        self._pairs: dict[int, np.ndarray] = {}

    def truth(self, m: int) -> np.ndarray:
        if m not in self._truth:
            self._truth[m] = np.array(oracles.truth_by_recursion(m), dtype=np.int64)
        return self._truth[m]

    def pair_rows(self, m: int) -> np.ndarray:
        """Literal products of truth-row pairs, in pair order (1,2) (1,3) (2,3) ..."""
        if m not in self._pairs:
            t = self.truth(m)
            self._pairs[m] = np.array(
                [t[i] * t[j] for j in range(1, m) for i in range(j)], dtype=np.int64
            )
        return self._pairs[m]

    def column_dots(self, m: int, weights: dict[int, Fraction]) -> list[Fraction]:
        """Row dots of weighted truth columns: literal column sums over a common denominator."""
        den = math.lcm(*(w.denominator for w in weights.values()))
        ints = {j: w.numerator * (den // w.denominator) for j, w in weights.items()}
        table = self.pair_rows(m)[:, [j - 1 for j in ints]]
        column = list(ints.values())
        if max(abs(v) for v in column) * len(column) < 2**62:
            sums = table @ np.array(column, dtype=np.int64)
        else:
            sums = table.astype(object) @ np.array(column, dtype=object)
        return [Fraction(int(s), den) for s in sums]

    def is_hadamard(self, m: int, columns) -> bool:
        matrix = self.truth(m)[:, [j - 1 for j in columns]]
        return matrix.shape == (m, m) and np.array_equal(matrix @ matrix.T, m * np.eye(m, dtype=np.int64))


# ---------------------------------------------------------------------------
# search: a fixed question list, each question asked once per process

S3_NODE_BUDGET = 100_000

SEARCH_QUESTIONS = (
    # (kind, orders, solution limit, SearchOptions fields)
    ("S1", (8,), 1, {}),
    ("S2", (4, 6), None, {}),
    ("S3", (12,), None, {"force_first_column": True, "node_limit": S3_NODE_BUDGET}),
    ("S4", (10,), None, {"time_limit": 0.05}),
)

SMOKE_SEARCH_QUESTIONS = (
    ("S1", (4,), 1, {}),
    ("S2", (4, 6), None, {}),
    ("S3", (8,), None, {"force_first_column": True, "node_limit": 100}),
    ("S4", (8,), None, {"time_limit": 1e-4}),
)


class SearchWorkload:
    name = "search"
    repeats = False

    def __init__(self, seed: int, smoke: bool):
        self.ref = _Oracles()
        self.questions = SMOKE_SEARCH_QUESTIONS if smoke else SEARCH_QUESTIONS
        self.order4 = set(oracles.brute_force_column_sets(4)[0])

    def block(self, index: int) -> list[Op]:
        return [self._op(*question) for question in self.questions]

    def _op(self, kind, orders, limit, fields) -> Op:
        options = hd.SearchOptions(**fields)

        def run():
            return [hd.find_hadamard_column_sets(m, limit=limit, options=options) for m in orders]

        def check(outcome):
            if isinstance(outcome, Raised):
                return ERROR
            op.notes["nodes"] = [report.nodes for report in outcome]
            for m, report in zip(orders, outcome):
                if not all(self.ref.is_hadamard(m, cols) for cols in report.solutions):
                    return WRONG
            if kind == "S1":
                good = len(outcome[0].solutions) == 1
            elif kind == "S2":
                order4, order6 = outcome
                good = (order4.exhaustive and set(order4.solutions) == self.order4
                        and order6.exhaustive and not order6.solutions)
            elif kind == "S3":
                good = outcome[0].limit_fired == "nodes"
            else:
                good = outcome[0].limit_fired == "time"
            return OK if good else WRONG

        op = Op(kind, run, check)
        return op

    def close(self):
        pass


# ---------------------------------------------------------------------------
# construct: seeded rational targets, construct_matrix + pairwise_dots


def _random_target(rng: random.Random, m: int) -> list[Fraction]:
    out = []
    for _ in range(m * (m - 1) // 2):
        if rng.random() < 0.2:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12)))
    return out


def _irrational(rng: random.Random):
    """A nonzero irrational coordinate: sqrt(p/q) with p squarefree > 1 and q square."""
    root = hd.SqrtRational.sqrt(Fraction(rng.choice((2, 3, 5, 6, 7)), rng.choice((1, 4, 9, 25))))
    return root if rng.random() < 0.5 else -root


class ConstructWorkload:
    name = "construct"
    repeats = True
    FLAVORS = ("canonical", "rational", "irrational")
    SHIFTS = ("minimal", "minimal-integer", "explicit")

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.ref = _Oracles()
        # Per block: three targets per order (one per flavor), two all-zero
        # targets and two targets with an irrational coordinate: 25 ops.
        if smoke:
            self.orders, self.zero_orders, self.irrational_orders = range(3, 6), (4, 5), (3, 5)
        else:
            self.orders, self.zero_orders, self.irrational_orders = range(8, 15), (12, 13), (11, 14)

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"construct:{self.seed}:{index}")
        ops = []
        for m in self.orders:
            for f, flavor in enumerate(self.FLAVORS):
                shift = self.SHIFTS[(f + m + index) % 3]
                ops.append(self._op("rational", m, _random_target(rng, m), flavor, shift))
        for m in self.zero_orders:
            target = [Fraction(0)] * (m * (m - 1) // 2)
            ops.append(self._op("zero", m, target, rng.choice(self.FLAVORS), rng.choice(self.SHIFTS)))
        for m in self.irrational_orders:
            target = _random_target(rng, m)
            target[rng.randrange(len(target))] = _irrational(rng)
            ops.append(self._op("irrational", m, target, rng.choice(self.FLAVORS), "minimal"))
        rng.shuffle(ops)
        return ops

    def _op(self, kind, m, target, flavor, shift) -> Op:
        if shift == "explicit":
            # |raw weight| <= sum|a| / 2^(m-1), so this shift always suffices.
            shift = sum(abs(a) for a in target) / (1 << (m - 1)) + Fraction(1, 2)
        options = hd.ConstructionOptions(shift=shift, flavor=flavor)

        def run():
            matrix = hd.construct_matrix(m, target, options)
            return matrix, hd.pairwise_dots(matrix)

        def check(outcome):
            if kind == "irrational":
                if isinstance(outcome, Raised):
                    return OK if isinstance(outcome.exc, hd.InfeasibleError) else ERROR
                return WRONG
            if isinstance(outcome, Raised):
                return ERROR
            matrix, dots = outcome
            weights: dict[int, Fraction] = {}
            for col in matrix.columns:
                weights[col.index] = weights.get(col.index, Fraction(0)) + col.q * col.multiplicity
            if list(dots.values) != target or self.ref.column_dots(m, weights) != target:
                return WRONG
            return OK

        return Op(f"{kind}-m{m}", run, check)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# ingest: seeded files, one in-process `cli.main([command, path])` per op


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _matrix_text(rows) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(r) + "\n" for r in rows)


def _negated(token: str) -> str:
    return token[1:] if token.startswith("-") else "-" + token


class IngestWorkload:
    name = "ingest"
    repeats = True
    VARIANTS = 3

    # One block, sorted roughly by latency.  Ranks 10-14 (around the median,
    # rank 12.5 of 25) and ranks 21-24 (around the 90th percentile, rank
    # 22.5) hold files of about equal latency, so that which of them lands
    # on the quantile hardly matters.
    # (slot kind, command, m, n)
    BLOCK = (
        ("malformed", None, 0, 0),
        ("malformed", None, 0, 0),
        ("no-modulus", "crv", 5, 200),
        ("in-span", "in-span", 6, 0),
        ("in-span", "in-span", 8, 0),
        ("in-span", "in-span", 10, 0),
        ("square", "classify", 4, 0),
        ("square", "classify", 8, 0),
        ("square", "classify", 8, 0),
        ("sqrt", "crv", 4, 580),
        ("float", "dots", 6, 1500),
        ("float", "crv", 8, 1500),
        ("sqrt", "dots", 5, 530),
        ("sqrt", "crv", 6, 480),
        ("sqrt", "dots", 7, 650),
        ("float", "dots", 10, 2000),
        ("square-32", "classify", 32, 0),
        ("sqrt", "crv", 8, 800),
        ("dyadic", "crv", 6, 1200),
        ("sqrt", "dots", 9, 1000),
        ("dyadic", "dots", 8, 2500),
        ("sqrt", "crv", 10, 1900),
        ("dyadic", "crv", 10, 2000),
        ("sqrt", "dots", 10, 2000),
        ("square", "classify", 16, 0),
    )
    SMOKE_SIZES = {"float": 30, "sqrt": 20, "dyadic": 30, "no-modulus": 10}

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.ref = _Oracles()
        self.dir = workdir
        os.makedirs(self.dir, exist_ok=True)
        rng = random.Random(f"ingest:{seed}:files")
        self.files: dict[tuple, list[tuple[str, object]]] = {}
        for kind, _, m, n in self.BLOCK:
            m, n = self._size(kind, m, n)
            if (kind, m, n) not in self.files:
                self.files[kind, m, n] = [self._make(rng, kind, m, n, v) for v in range(self.VARIANTS)]

    def _size(self, kind, m, n):
        """A slot's (m, n); smoke runs shrink every file but the order-32 square."""
        if not self.smoke or kind == "square-32":
            return m, n
        if kind == "square":
            return min(m, 8), n
        return min(m, 4), self.SMOKE_SIZES.get(kind, 0)

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    # -- file makers: each returns (path, expectation) ---------------------

    def _make(self, rng, kind, m, n, variant):
        tag = f"{kind}-{m}x{n}-{variant}"
        if kind == "malformed":
            return self._malformed(rng, tag)
        if kind == "no-modulus":
            rows, _ = self._rect(rng, m, n, scale=lambda: ("1", Fraction(1)))
            rows[rng.randrange(m)][rng.randrange(n)] = "2"
            return self._write(tag, _matrix_text(rows)), None
        if kind == "in-span":
            return self._weight_vector(rng, m, tag)
        if kind in ("square", "square-32"):
            return self._square(rng, m, tag, hadamard=kind == "square-32" or variant != 1)
        if kind == "sqrt":
            rows, weights = self._rect(rng, m, n, scale=lambda: self._sqrt_scale(rng))
            return self._write(tag, _matrix_text(rows)), self._expect_rect(m, weights)
        # Dyadic scales k/8 are exact binary floats, so the float rendering
        # factors exactly and has the same expected output.
        def scale():
            k = rng.randint(1, 15)
            return str(Fraction(k, 8)), Fraction(k * k, 64)

        rows, weights = self._rect(rng, m, n, scale=scale)
        if kind == "float":
            rows = [[repr(float(Fraction(tok))) for tok in row] for row in rows]
        return self._write(tag, _matrix_text(rows)), self._expect_rect(m, weights)

    def _sqrt_scale(self, rng):
        p, q = rng.randint(1, 12), rng.randint(1, 12)
        if rng.random() < 0.25:
            return f"{p}/{q}", Fraction(p, q) ** 2
        return f"sqrt({p}/{q})", Fraction(p, q)

    def _rect(self, rng, m, n, scale):
        """m x n matrix of scaled, randomly negated truth columns; weights by column."""
        truth = self.ref.truth(m)
        rows = [[] for _ in range(m)]
        weights = []
        for _ in range(n):
            j = rng.randrange(truth.shape[1])
            flip = rng.choice((1, -1))
            token, weight = scale()
            for i in range(m):
                rows[i].append(token if truth[i, j] * flip > 0 else _negated(token))
            weights.append((j + 1, weight))
        return rows, weights

    def _expect_rect(self, m, weights):
        """crv line from summed squared scales; dots from literal row sums per scale."""
        crv = [Fraction(0)] * (1 << (m - 1))
        by_weight: dict[Fraction, list[int]] = {}
        for j, w in weights:
            crv[j - 1] += w
            by_weight.setdefault(w, []).append(j)
        truth = oracles.truth_by_recursion(m)
        dots = [Fraction(0)] * (m * (m - 1) // 2)
        for w, cols in by_weight.items():
            signs = [[row[j - 1] for j in cols] for row in truth]
            for pos, value in enumerate(oracles.row_dots(signs)):
                dots[pos] += w * value
        return {"crv": " ".join(str(v) for v in crv) + "\n", "dots": dots}

    def _weight_vector(self, rng, m, tag):
        """Nonnegative weights, in the free span or pushed off it by pair rows."""
        n = 1 << (m - 1)
        hadamard = oracles.sylvester_by_doubling(m - 1)
        pair_rows = [tuple(int(x) for x in row) for row in self.ref.pair_rows(m)]
        used = set(pair_rows)
        free = [row for row in hadamard[1:] if row not in used]
        terms = [(rng.choice(free), Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(3)]
        if rng.random() < 0.5:
            terms.append((rng.choice(pair_rows), Fraction(rng.randint(1, 9), rng.randint(1, 6))))
        base = sum(abs(c) for _, c in terms) + Fraction(rng.randint(0, 4), 3)
        v = [base + sum(c * row[k] for row, c in terms) for k in range(n)]
        lines = []
        pairs = [(i, j) for j in range(2, m + 1) for i in range(1, j)]
        for L, (row, (i, j)) in enumerate(zip(pair_rows, pairs), start=1):
            residual = sum(x * s for x, s in zip(v, row))
            if residual:
                lines.append(f"pair L={L} rows=({i},{j}) residual={residual}\n")
        expected = ("false\n" if lines else "true\n") + "".join(lines)
        if rng.random() < 0.5:
            text = json.dumps({"m": m, "v": [str(x) for x in v]})
        else:
            text = " ".join(str(x) for x in v) + "\n"
        return self._write(tag, text), expected

    def _square(self, rng, order, tag, hadamard):
        """Sylvester matrix under seeded row/column permutations and negations."""
        base = oracles.sylvester_by_doubling(order.bit_length() - 1)
        row_order = rng.sample(range(order), order)
        col_order = rng.sample(range(order), order)
        row_sign = [rng.choice((1, -1)) for _ in range(order)]
        col_sign = [rng.choice((1, -1)) for _ in range(order)]
        rows = [
            [base[r][c] * rs * cs for c, cs in zip(col_order, col_sign)]
            for r, rs in zip(row_order, row_sign)
        ]
        if not hadamard:
            i, j = rng.randrange(order), rng.randrange(order)
            if rng.random() < 0.5:
                rows[i][j] = -rows[i][j]  # one flipped sign breaks orthogonality
            else:
                for r in rows:
                    r[j] *= 2  # a column of modulus 2 is not a sign matrix
        unit = all(x in (1, -1) for r in rows for x in r)
        truth = unit and not any(oracles.row_dots(rows))
        text = _matrix_text([[str(x) for x in r] for r in rows])
        return self._write(tag, text), truth

    MALFORMED = (
        ("crv", "3\n1 1 1\n"),                     # header without a width
        ("dots", "2 3\n1 1 1\n1 -1\n"),            # short row
        ("classify", "2 2\n1 abc\n1 -1\n"),        # bad token
        ("crv", "2 2\n1 1/0\n1 -1\n"),             # zero denominator
        ("in-span", "1 2 3\n"),                    # length not a power of two
        ("dots", ""),                              # empty file
    )

    def _malformed(self, rng, tag):
        command, text = rng.choice(self.MALFORMED)
        return self._write(tag, text), command

    # -- operations ----------------------------------------------------------

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"ingest:{self.seed}:{index}")
        ops = []
        for kind, command, m, n in self.BLOCK:
            m, n = self._size(kind, m, n)
            path, expect = rng.choice(self.files[kind, m, n])
            ops.append(self._op(kind, command, m, n, path, expect))
        rng.shuffle(ops)
        return ops

    def _op(self, kind, command, m, n, path, expect) -> Op:
        if kind == "malformed":
            command = expect
        argv = [command, path]

        def run():
            return _call_cli(argv)

        def check(outcome):
            if isinstance(outcome, Raised):
                return ERROR
            code, out, _ = outcome
            if kind in ("malformed", "no-modulus"):
                return OK if code == 2 else WRONG if code == 0 else ERROR
            if code != 0:
                return REFUSED
            if kind == "in-span":
                return OK if out == expect else WRONG
            if command == "classify":
                record = json.loads(out)
                verdicts = (record["hadamard"], record["sign_matrix_in_span"],
                            record["lattice_point_in_span"])
                return OK if record["order"] == m and verdicts == (expect,) * 3 else WRONG
            if command == "crv":
                return OK if out == expect["crv"] else WRONG
            return OK if [Fraction(t) for t in out.split()] == expect["dots"] else WRONG

        if kind in ("square", "square-32"):
            label = f"classify-{m}"
        elif n:
            label = f"{kind}-{command}-{m}x{n}"
        else:
            label = kind
        return Op(label, run, check)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def make(name: str, seed: int, smoke: bool, workdir: str):
    if name == "search":
        return SearchWorkload(seed, smoke)
    if name == "construct":
        return ConstructWorkload(seed, smoke)
    return IngestWorkload(seed, smoke, workdir)
