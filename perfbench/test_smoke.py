"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# Figures each workload prints by name before its result line.
NAMED = {
    "search": ("search_s", "search_first_s", "search_budget_s"),
    "construct": ("construct_p50_ms", "construct_p90_ms", "construct_per_s"),
    "ingest": ("ingest_p50_ms", "ingest_p90_ms", "ingest_per_s"),
}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, section):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    if trace == 0:
        printed = "\n".join(lines[:-1])
        for name in ("setup_s", "peak_rss_mb", "failed_share", *NAMED[workload]):
            assert f"  {name} = " in printed


def test_ingest_fails_exactly_the_order_32_refusals():
    done = run("ingest", 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / "run-ingest.json").read_text())
    assert result["failed"] == record["ops"]["classify-32"]["attempted"] > 0
    assert sum(kind["failed"] for kind in record["ops"].values()) == result["failed"]


def test_search_node_counts_repeat():
    counts = []
    for _ in range(2):
        assert run("search", 0).returncode == 0
        counts.append(json.loads((HERE / "out" / "run-search.json").read_text())["search.nodes"])
    assert counts[0] == counts[1]


def test_refuses_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("construct", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
