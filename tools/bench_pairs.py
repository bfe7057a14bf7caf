"""Alternating parent/change pairs of the benchmark, aggregated into one file.

Usage:
    python tools/bench_pairs.py --parent REV --pairs N --workloads W [W ...] \\
        --seconds S --out BENCH_<n>.json

The parent side is REV's tree, built with `git archive` into a temporary
directory; the change side is the working tree this script sits in. Each
pair runs `perfbench/run.py --workload W --seed SEED --seconds S --trace 0`
once in each tree, one after the other. The side that runs first alternates
by pair (the parent on pairs 1, 3, ...), and every pair has its own seed:
101 + i for pair i of the first workload listed, 201 + i for the second,
and so on.

The output has the shape of the earlier BENCH files: per workload the seeds,
first sides, attempted and failed counts and correctness, and per end-to-end
metric of BENCHMARK.json its unit, better, bound, each side's runs, median
and quartiles (`numpy.percentile`, linear), `median_change` (the change's
median over the parent's, minus 1) and `change_wins` (the pairs whose change
value is better than its parent value; ties count for neither). For every
workload and metric it prints one summary line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"


def seeds_for(position: int, pairs: int) -> list[int]:
    """The seeds of a workload's pairs, from its position in the list."""
    return [100 * (position + 1) + 1 + i for i in range(pairs)]


def first_sides(pairs: int) -> list[str]:
    return ["parent" if i % 2 == 0 else "change" for i in range(pairs)]


def records(stdout: str) -> tuple[dict, dict]:
    """A run's result record (its last line of standard output) and its
    detail record (the line before)."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in `tree`: its result and detail records."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return records(proc.stdout)


def _side(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(value, 4) for value in runs]}


def aggregate(results: dict[str, list[dict]], seeds, sides, specs) -> dict:
    """A workload's entry from each side's result records, in pair order, and
    the end-to-end metric specs of BENCHMARK.json."""
    parent, change = results["parent"], results["change"]
    entry = {
        "seeds": list(seeds), "pairs": len(seeds), "first_side": list(sides),
        "attempted": {side: [r["attempted"] for r in results[side]] for side in results},
        "failed": {side: [r["failed"] for r in results[side]] for side in results},
        "correct": all(r["correct"] for side in results.values() for r in side),
        "metrics": {},
    }
    for spec in specs:
        name = spec["name"]
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
        stats = {"parent": _side(before), "change": _side(after)}
        base = stats["parent"]["median"]
        entry["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], **stats,
            "median_change": round(stats["change"]["median"] / base - 1, 4) if base else None,
            "change_wins": f"{wins}/{len(before)}",
        }
    return entry


def summary_line(workload: str, name: str, metric: dict) -> str:
    """`workload metric: parent median [q1, q3] -> change median [q1, q3] unit
    (change), wins/pairs pairs`."""
    parent, change = metric["parent"], metric["change"]
    moved = metric["median_change"]
    moved = "n/a" if moved is None else f"{100 * moved:+.1f}%"
    return (f"{workload} {name}: {parent['median']:g} [{parent['q1']:g}, {parent['q3']:g}] -> "
            f"{change['median']:g} [{change['q1']:g}, {change['q3']:g}] {metric['unit']} "
            f"({moved}), change better in {metric['change_wins']} pairs")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_rev = _git("rev-parse", "--short", args.parent)
    change = f"working tree at {_git('rev-parse', '--short', 'HEAD')}"
    if _git("status", "--porcelain", "--untracked-files=no"):
        change += " with uncommitted changes"
    out = {
        "what": (f"Alternating parent/change pairs of perfbench/run.py --seconds {args.seconds:g}"
                 " --trace 0, one seed per pair; the side that ran first alternates by pair"
                 " (parent first on odd pairs). Quartiles are numpy.percentile 25/75 (linear)"
                 " over the runs of one side. change_wins counts pairs where the change's value"
                 " is better than its pair's parent value (ties count for neither)."),
        "parent": parent_rev, "change": change,
        "command": COMMAND.format(seconds=args.seconds),
        "workloads": {}, "detail": None,
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for position, workload in enumerate(args.workloads):
            seeds, sides = seeds_for(position, args.pairs), first_sides(args.pairs)
            results: dict[str, list[dict]] = {"parent": [], "change": []}
            for seed, first in zip(seeds, sides):
                for side in (first, "change" if first == "parent" else "parent"):
                    result, detail = run_once(trees[side], workload, seed, args.seconds)
                    results[side].append(result)
                    out["detail"] = out["detail"] or detail["environment"]
            out["workloads"][workload] = aggregate(results, seeds, sides, specs)
    failed = sum(sum(counts) for entry in out["workloads"].values()
                 for counts in entry["failed"].values())
    correct = all(entry["correct"] for entry in out["workloads"].values())
    out["notes"] = [f"{failed} operations failed; every run correct: {correct}."]
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for workload, entry in out["workloads"].items():
        for name, metric in entry["metrics"].items():
            print(summary_line(workload, name, metric))
    return 0


if __name__ == "__main__":
    sys.exit(main())
