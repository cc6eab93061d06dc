"""Spans around the public functions of every hadamardesque module.

The tracer replaces each public module-level function with a wrapper in
every namespace that looks the name up: `from .walsh import fwht` binds
`fwht` separately in `classify` and `construct`, so both bindings are
patched.  Each call records one span (name, start, end, parent span, op
id) in flat arrays that stay in memory until the run ends.  A layer is a
module; a span's self time is its duration minus that of its child spans.

Private functions (`_dfs`, `_prefix_tasks`, ...) are not wrapped, so their
time shows as self time of the public function that called them.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from collections import defaultdict
from math import log2
from time import perf_counter

LAYERS = ("scalars", "dense", "walsh", "classify", "construct", "search", "cli")

# Names under which a function's spans are reported, where they differ from
# the function's own name.  The pair-sign table is a Walsh table even though
# `search` defines it, so its spans count toward the walsh layer.
ALIASES = {
    "search.pair_sign_table": "walsh.pair_sign_table",
    "search.find_hadamard_column_sets": "search.find",
    "construct.realize_canonical": "construct.realize",
    "construct.realize_uniform_rational": "construct.realize",
    "construct.realize_uniform_irrational": "construct.realize",
}


def _fwht_work(args, kwargs, result):
    n = len(result)
    return {"walsh.fwht.butterflies": n * log2(n)}


def _table_bytes(args, kwargs, result):
    return {"walsh.pair_sign_table.bytes": result.nbytes}


def _search_work(args, kwargs, result):
    return {"search.nodes": result.nodes, "search.solutions": len(result.solutions)}


def _parsed_tokens(args, kwargs, result):
    return {"dense.tokens": result.rows * result.cols}


def _factored_entries(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    return {"classify.factor_columns.entries": matrix.rows * matrix.cols}


def _exit_code(args, kwargs, result):
    return {"cli.exit_nonzero": 1 if result else 0}


# Work counted from a call's arguments and result, after its span has ended.
COUNTERS = {
    "walsh.fwht": _fwht_work,
    "walsh.pair_sign_table": _table_bytes,
    "search.find": _search_work,
    "dense.parse_matrix": _parsed_tokens,
    "classify.factor_columns": _factored_entries,
    "cli.main": _exit_code,
}


class Tracer:
    """Flat in-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._raised: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, layer: str, func):
        full = f"{layer}.{func.__name__}"
        name = ALIASES.get(full, full)
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.failed.append(0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.end[index] = perf_counter()
                stack.pop()
                self.failed[index] = 1
                # Count each exception once, in the innermost layer it left.
                if not any(seen is exc for seen in self._raised):
                    self._raised.append(exc)
                    self.errors[layer] += 1
                    self.errors[f"{layer}:{type(exc).__name__}"] += 1
                raise
            self.end[index] = perf_counter()
            stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def install(self, package) -> None:
        """Patch every public function of every layer wherever it is bound."""
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = modules + [package]
        for layer, module in zip(LAYERS, modules):
            for attr, func in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(layer, func)
                for space in namespaces:
                    if vars(space).get(attr) is func:
                        self._patches.append((space, attr, func))
                        setattr(space, attr, wrapper)

    def uninstall(self) -> None:
        for space, attr, func in reversed(self._patches):
            setattr(space, attr, func)
        self._patches.clear()

    def rollup(self, speeds: list[float]) -> dict:
        """Calls and scaled self seconds per function and per layer.

        A span's self time is its duration minus the durations of its direct
        children, divided by `speeds[op]` as the clock scales that
        operation's time.
        """
        durations = [
            (end - start) / speeds[op] for start, end, op in zip(self.start, self.end, self.op)
        ]
        own = list(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[index]
        functions: dict[str, dict] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        inclusive: dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(self.name):
            name = self.names[name_id]
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[index]
            layers[name.split(".", 1)[0]] += own[index]
            inclusive[name] += durations[index]
        return {"functions": functions, "layers": layers, "inclusive_s": dict(inclusive)}

    def write_spans(self, path) -> None:
        """One tab-separated line per span; times in microseconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
            out.write("span\tparent\top\tname\tstart_us\tend_us\tfailed\n")
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{self.parent[index]}\t{self.op[index]}\t"
                    f"{self.names[self.name[index]]}\t"
                    f"{(self.start[index] - origin) * 1e6:.3f}\t"
                    f"{(self.end[index] - origin) * 1e6:.3f}\t{self.failed[index]}\n"
                )


UNITS = {
    "walsh.fwht.calls": "count",
    "walsh.fwht.self_s": "s",
    "walsh.fwht.butterflies": "count",
    "walsh.fwht.butterflies_per_s": "1/s",
    "walsh.pair_sign_table.self_s": "s",
    "walsh.pair_sign_table.bytes": "B",
    "search.find.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.solutions": "count",
    "search.solutions_per_mnode": "1/Mnode",
    "search.verify_column_set.calls": "count",
    "search.verify_column_set.self_s": "s",
    "scalars.parse_scalar.calls": "count",
    "scalars.parse_scalar.self_s": "s",
    "dense.parse_matrix.self_s": "s",
    "dense.tokens": "count",
    "dense.tokens_per_s": "1/s",
    "dense.format_matrix.self_s": "s",
    "classify.factor_columns.self_s": "s",
    "classify.factor_columns.entries": "count",
    "classify.column_representation.self_s": "s",
    "classify.pairwise_dots.self_s": "s",
    "classify.in_free_span.calls": "count",
    "classify.in_free_span.self_s": "s",
    "classify.classify_square.self_s": "s",
    "classify.is_hadamard.self_s": "s",
    "classify.errors": "count",
    "construct.construct_crv.self_s": "s",
    "construct.realize.self_s": "s",
    "construct.infeasible": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.exit_nonzero": "count",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, rollup: dict) -> dict[str, float]:
    """The per-layer metrics declared in BENCHMARK.json, from one traced pass."""
    functions = rollup["functions"]
    counts = tracer.counts

    def calls(name):
        return functions.get(name, {}).get("calls", 0)

    def self_s(name):
        return functions.get(name, {}).get("self_s", 0.0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    nodes = counts["search.nodes"]
    solutions = counts["search.solutions"]
    metrics = {
        "walsh.fwht.calls": calls("walsh.fwht"),
        "walsh.fwht.self_s": self_s("walsh.fwht"),
        "walsh.fwht.butterflies": counts["walsh.fwht.butterflies"],
        "walsh.fwht.butterflies_per_s": rate(
            counts["walsh.fwht.butterflies"], self_s("walsh.fwht")
        ),
        "walsh.pair_sign_table.self_s": self_s("walsh.pair_sign_table"),
        "walsh.pair_sign_table.bytes": counts["walsh.pair_sign_table.bytes"],
        "search.find.self_s": self_s("search.find"),
        "search.nodes": nodes,
        "search.nodes_per_s": rate(nodes, self_s("search.find")),
        "search.solutions": solutions,
        "search.solutions_per_mnode": rate(solutions, nodes / 1e6),
        "search.verify_column_set.calls": calls("search.verify_column_set"),
        "search.verify_column_set.self_s": self_s("search.verify_column_set"),
        "scalars.parse_scalar.calls": calls("scalars.parse_scalar"),
        "scalars.parse_scalar.self_s": self_s("scalars.parse_scalar"),
        "dense.parse_matrix.self_s": self_s("dense.parse_matrix"),
        "dense.tokens": counts["dense.tokens"],
        # Parser throughput over whole parse_matrix calls, token parsing included.
        "dense.tokens_per_s": rate(
            counts["dense.tokens"], rollup["inclusive_s"].get("dense.parse_matrix", 0.0)
        ),
        "dense.format_matrix.self_s": self_s("dense.format_matrix"),
        "classify.factor_columns.self_s": self_s("classify.factor_columns"),
        "classify.factor_columns.entries": counts["classify.factor_columns.entries"],
        "classify.column_representation.self_s": self_s("classify.column_representation"),
        "classify.pairwise_dots.self_s": self_s("classify.pairwise_dots"),
        "classify.in_free_span.calls": calls("classify.in_free_span"),
        "classify.in_free_span.self_s": self_s("classify.in_free_span"),
        "classify.classify_square.self_s": self_s("classify.classify_square"),
        "classify.is_hadamard.self_s": self_s("classify.is_hadamard"),
        "classify.errors": tracer.errors["classify"],
        "construct.construct_crv.self_s": self_s("construct.construct_crv"),
        "construct.realize.self_s": self_s("construct.realize"),
        "construct.infeasible": tracer.errors["construct:InfeasibleError"],
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
    }
    return metrics
