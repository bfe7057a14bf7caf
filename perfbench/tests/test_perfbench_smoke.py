"""Smoke check of the benchmark on a tiny model: one operation per workload,
untraced and traced. Every metric BENCHMARK.json declares must come out with
its declared unit, and no operation may fail."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_one_operation_emits_every_metric(workload, trace, tmp_path):
    result, detail = harness.run(
        workload, seed=5, seconds=0, trace=trace, shapes=harness.TINY, root=str(tmp_path)
    )
    assert set(result) == RESULT_KEYS
    assert result["failed"] == 0 and result["correct"], detail["errors"]
    assert detail["failed_share"] == 0
    assert detail["operations"] == 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    assert os.listdir(tmp_path) == []


def test_removed_name_leaves_its_metrics_absent(tmp_path, monkeypatch):
    # As if a refactor had renamed softmax_rows: its span cannot be installed,
    # its metrics are absent, and the run still succeeds.
    patches = tuple(
        (module, "renamed_" + path if span == "kernels.softmax_rows" else path, span, count)
        for module, path, span, count in tracer.PATCHES
    )
    monkeypatch.setattr(tracer, "PATCHES", patches)
    result, detail = harness.run(
        "long_prompt", seed=5, seconds=0, trace=True, shapes=harness.TINY, root=str(tmp_path)
    )
    assert result["correct"], detail["errors"]
    assert detail["absent_spans"] == ["kernels.softmax_rows"]
    softmax = {name for name in declared("per_layer") if name.startswith("kernels.softmax_rows.")}
    assert len(softmax) == 4
    assert set(result["metrics"]) == set(declared("per_layer")) - softmax


def test_refuses_a_tree_without_the_engine(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "harness.py", "tracer.py"):
        (bench / name).write_text(open(os.path.join(BENCH_DIR, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_prompt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
