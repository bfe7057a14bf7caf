"""The pair runner's aggregation (tools/bench_pairs.py) on canned run output;
no benchmark runs here."""

import json
from pathlib import Path

import numpy as np

from helpers import load_tool

bench_pairs = load_tool("bench_pairs")
SPECS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[
    "end_to_end"
]


def canned_stdout(values, correct=True, failed=0):
    """What perfbench/run.py prints: progress, a detail line, a result line.
    `values` maps metric names to values; every other metric reads 1.0."""
    metrics = {spec["name"]: {"value": values.get(spec["name"], 1.0), "unit": spec["unit"]}
               for spec in SPECS}
    detail = {"environment": {"numpy": "2.4.6"}, "workload": "long_prompt"}
    result = {"correct": correct, "attempted": 48, "failed": failed, "metrics": metrics}
    return "set-up done\n" + json.dumps(detail) + "\n" + json.dumps(result) + "\n"


def aggregated(parent_values, change_values, **change_kwargs):
    results = {
        "parent": [bench_pairs.records(canned_stdout(v))[0] for v in parent_values],
        "change": [bench_pairs.records(canned_stdout(v, **change_kwargs))[0]
                   for v in change_values],
    }
    pairs = len(parent_values)
    return bench_pairs.aggregate(
        results, bench_pairs.seeds_for(1, pairs), bench_pairs.first_sides(pairs), SPECS)


class TestAggregate:
    PARENT = [{"identify_ms.p50": 10.0, "tokens_per_cpu_s": 100.0},
              {"identify_ms.p50": 12.0, "tokens_per_cpu_s": 100.0},
              {"identify_ms.p50": 11.0, "tokens_per_cpu_s": 100.0}]
    CHANGE = [{"identify_ms.p50": 8.0, "tokens_per_cpu_s": 110.0},
              {"identify_ms.p50": 12.0, "tokens_per_cpu_s": 90.0},
              {"identify_ms.p50": 13.0, "tokens_per_cpu_s": 100.0}]

    def test_records_are_the_last_two_lines(self):
        result, detail = bench_pairs.records(canned_stdout({"setup_s": 0.5}))
        assert result["metrics"]["setup_s"]["value"] == 0.5
        assert detail["environment"] == {"numpy": "2.4.6"}

    def test_every_end_to_end_metric_with_its_spec(self):
        entry = aggregated(self.PARENT, self.CHANGE)
        assert list(entry["metrics"]) == [spec["name"] for spec in SPECS]
        for spec in SPECS:
            metric = entry["metrics"][spec["name"]]
            assert {k: metric[k] for k in ("unit", "better", "bound")} == {
                k: spec[k] for k in ("unit", "better", "bound")}

    def test_sides_quartiles_and_median_change(self):
        metric = aggregated(self.PARENT, self.CHANGE)["metrics"]["identify_ms.p50"]
        q1, median, q3 = np.percentile([10.0, 12.0, 11.0], [25, 50, 75])
        assert metric["parent"] == {"median": median, "q1": q1, "q3": q3,
                                    "runs": [10.0, 12.0, 11.0]}
        assert metric["change"] == {"median": 12.0, "q1": 10.0, "q3": 12.5,
                                    "runs": [8.0, 12.0, 13.0]}
        assert metric["median_change"] == round(12.0 / 11.0 - 1, 4)

    def test_wins_follow_better_and_ties_count_for_neither(self):
        metrics = aggregated(self.PARENT, self.CHANGE)["metrics"]
        assert metrics["identify_ms.p50"]["change_wins"] == "1/3"  # lower is better
        assert metrics["tokens_per_cpu_s"]["change_wins"] == "1/3"  # higher is better
        assert metrics["setup_s"]["change_wins"] == "0/3"  # every pair ties

    def test_pairs_seeds_sides_counts_and_correctness(self):
        entry = aggregated(self.PARENT, self.CHANGE, correct=False, failed=2)
        assert entry["seeds"] == [201, 202, 203] and entry["pairs"] == 3
        assert entry["first_side"] == ["parent", "change", "parent"]
        assert entry["attempted"] == {"parent": [48] * 3, "change": [48] * 3}
        assert entry["failed"] == {"parent": [0] * 3, "change": [2] * 3}
        assert entry["correct"] is False
        assert aggregated(self.PARENT, self.CHANGE)["correct"] is True

    def test_summary_line(self):
        metric = aggregated(self.PARENT, self.CHANGE)["metrics"]["identify_ms.p50"]
        assert bench_pairs.summary_line("long_prompt", "identify_ms.p50", metric) == (
            "long_prompt identify_ms.p50: 11 [10.5, 11.5] -> 12 [10, 12.5] ms (+9.1%), "
            "change better in 1/3 pairs"
        )
