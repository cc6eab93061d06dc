#!/usr/bin/env python3
"""Benchmark of the hadamardesque library and CLI.

    python3 perfbench/run.py --workload {search,construct,ingest} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from
`src/` and the reference oracles from `tests/oracles.py`.  One closed-loop
client in one process calls the public API with default options.

`--trace 0` measures the end-to-end metrics.  `construct` and `ingest` run
whole blocks of seeded operations until `--seconds` of operation time have
passed; `search` asks its fixed question list once, whatever `--seconds`
says.  `--trace 1` runs one block with spans around every public function
of the package and reports the per-layer metrics, plus the tracing overhead
against an untraced run of the same block in a child process.

Every output is checked outside the timed intervals.  The last line of
stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; a wrong output makes the exit code 1.  Run records, span files
and per-layer roll-ups go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("search", "construct", "ingest")
SETUP_RUNS = 7
SMOKE_SETUP_RUNS = 2
TRACE_BLOCKS = 1

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--blocks", type=int, default=None,
                        help="run this many blocks untraced and print only their operation time")
    return parser.parse_args(argv)


def measure_setup(runs: int) -> float:
    """Median time from starting a fresh interpreter to `import hadamardesque` done.

    One child at a time; the first start also compiles bytecode and is not
    counted.  Each time is scaled like an operation's (see clock.py), by the
    kernel timed in the child, on its core, right after the import.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    code = ("import hadamardesque, sys; sys.stdout.write('ready\\n'); sys.stdout.flush(); "
            "import clock; print([clock.kernel() for _ in range(5)])")
    times = []
    for _ in range(runs + 1):
        started = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - started
            kernels = json.loads(child.stdout.readline())
            child.wait(timeout=60)
        if line != "ready\n" or child.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import hadamardesque")
        times.append(elapsed * clock.REFERENCE_S / statistics.fmean(kernels))
    return statistics.median(times[1:])


def run_blocks(workload, timer, *, seconds=None, blocks=None, tracer=None):
    """Closed loop over whole blocks.

    Returns (op, raw seconds, scaled seconds, verdict) per operation; see
    clock.py for the scaling.  The loop stops at the end of the block in
    which `seconds` of raw operation time have passed, or after `blocks`
    blocks.
    """
    from workloads import OK, WRONG, Raised

    def attempt(op):
        try:
            return op.run()
        except Exception as exc:  # judged by the op's check
            return Raised(exc)

    results = []
    timed = 0.0
    index = 0
    while True:
        if blocks is not None:
            if index >= blocks:
                break
        elif index > 0 and (timed >= seconds or not workload.repeats):
            break
        for op in workload.block(index):
            if tracer is not None:
                tracer.op_id = len(results)
            outcome, raw, scaled = timer.run(lambda: attempt(op))
            if tracer is not None:
                tracer.op_id = -1
            try:
                verdict = op.check(outcome)
            except Exception:
                traceback.print_exc()
                verdict = WRONG
            if verdict != OK:
                detail = f": {outcome.exc!r}" if isinstance(outcome, Raised) else ""
                print(f"op {len(results)} {op.kind}: {verdict}{detail}", file=sys.stderr)
            results.append((op, raw, scaled, verdict))
            timed += raw
        index += 1
    return results


def summarize(results):
    """Scaled latencies, failure counts and a per-kind breakdown of one pass."""
    from workloads import OK, WRONG

    latencies = [scaled for _, _, scaled, _ in results]
    failed = sum(1 for *_, verdict in results if verdict != OK)
    wrong = sum(1 for *_, verdict in results if verdict == WRONG)
    by_kind: dict[str, dict] = {}
    for op, raw, scaled, verdict in results:
        entry = by_kind.setdefault(
            op.kind, {"attempted": 0, "failed": 0, "raw_s": 0.0, "scaled_s": 0.0}
        )
        entry["attempted"] += 1
        entry["failed"] += verdict != OK
        entry["raw_s"] += raw
        entry["scaled_s"] += scaled
        if op.notes:
            entry["notes"] = op.notes
    return latencies, failed, wrong, by_kind


def quantile(latencies, q: float) -> float:
    """Linear interpolation between closest ranks (0 <= q <= 1)."""
    if len(latencies) == 1:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[round(q * 100) - 1]


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(args, results, by_kind):
    import numpy

    raw = sum(r for _, r, _, _ in results)
    scaled = sum(s for _, _, s, _ in results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "raw_s": raw,
        "scaled_s": scaled,
        "speed": raw / scaled,
        "ops": by_kind,
    }
    if args.workload == "search":
        record["search.nodes"] = {k: v["notes"]["nodes"] for k, v in by_kind.items()}
    return record


def workload_report(name, results, metrics, failed):
    """The figures named per workload, as (value, unit)."""
    report = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_share": (failed / len(results), "ratio"),
    }
    if name == "search":
        seconds = {op.kind: scaled for op, _, scaled, _ in results}
        report["search_s"] = (sum(seconds.values()), "s")
        report["search_first_s"] = (seconds["S1"], "s")
        report["search_budget_s"] = (seconds["S3"], "s")
    else:
        report[f"{name}_p50_ms"] = metrics["p50_ms"]
        report[f"{name}_p90_ms"] = metrics["p90_ms"]
        report[f"{name}_per_s"] = metrics["ops_per_s"]
    return report


def print_result(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def end_to_end(args, workload) -> int:
    setup_s = measure_setup(SMOKE_SETUP_RUNS if args.smoke else SETUP_RUNS)
    results = run_blocks(workload, clock.Clock(), seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies, failed, wrong, by_kind = summarize(results)
    p90 = quantile(latencies, 0.9)
    # Workload-neutral end-to-end metrics: every workload reports each of them.
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "p50_ms": (quantile(latencies, 0.5) * 1000, "ms"),
        "p90_ms": (p90 * 1000, "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
    }
    report = workload_report(args.workload, results, metrics, failed)
    beyond = sum(1 for x in latencies if x > p90)
    record = run_record(args, results, by_kind)
    record.update(
        samples=len(latencies),
        beyond_p90=beyond,
        report={k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    )
    (OUT / f"run-{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {len(latencies)} ops, {beyond} beyond p90, "
          f"{record['raw_s']:.3f} s timed, speed x{record['speed']:.3f} of reference")
    for name, (value, unit) in report.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.workload == "search":
        print("  search.nodes = " + json.dumps(record["search.nodes"]))
    print_result(wrong == 0, len(latencies), failed, metrics)
    return 0 if wrong == 0 else 1


def reference_seconds(args) -> float:
    """Scaled operation time of the traced blocks, run untraced in a fresh process."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--blocks", str(TRACE_BLOCKS)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError("the untraced reference run failed")
    return json.loads(done.stdout.splitlines()[-1])["scaled_s"]


def traced(args, workload, package) -> int:
    from tracing import UNITS, Tracer, layer_metrics

    untraced_s = reference_seconds(args)
    tracer = Tracer()
    tracer.install(package)
    try:
        # Kernel samples inside an operation would land in its spans, so the
        # speed comes from samples between operations only.
        results = run_blocks(workload, clock.Clock(sample_inside=False),
                             blocks=TRACE_BLOCKS, tracer=tracer)
    finally:
        tracer.uninstall()
    latencies, failed, wrong, by_kind = summarize(results)
    rollup = tracer.rollup(speeds=[raw / scaled for _, raw, scaled, _ in results])
    values = layer_metrics(tracer, rollup)
    values["trace.overhead_ratio"] = sum(latencies) / untraced_s
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    tracer.write_spans(OUT / f"spans-{args.workload}.tsv.gz")
    record = run_record(args, results, by_kind)
    record.update(
        blocks=TRACE_BLOCKS,
        spans=len(tracer.start),
        untraced_scaled_s=untraced_s,
        self_s_by_layer=rollup["layers"],
        functions=rollup["functions"],
        metrics=values,
    )
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"workload {args.workload} seed {args.seed}: traced {len(latencies)} ops, "
          f"{len(tracer.start)} spans, overhead x{values['trace.overhead_ratio']:.3f}")
    for layer, seconds in rollup["layers"].items():
        print(f"  {layer}.self_s = {seconds:.6g} s")
    print_result(wrong == 0, len(latencies), failed, metrics)
    return 0 if wrong == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hadamardesque" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no hadamardesque source tree (src/, tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import hadamardesque
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.smoke,
                              str(OUT / f"ingest-{os.getpid()}"))
    try:
        if args.blocks is not None:
            results = run_blocks(workload, clock.Clock(sample_inside=False), blocks=args.blocks)
            print(json.dumps({"scaled_s": sum(s for _, _, s, _ in results)}))
            return 0
        if args.trace:
            return traced(args, workload, hadamardesque)
        return end_to_end(args, workload)
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
