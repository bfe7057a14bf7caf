"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload long_prompt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from its `src`
directory, with BLAS capped at one thread. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The line before it is a JSON detail record: environment, tail percentiles and
sample counts, failed_share, absent spans and notes.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # BLAS reads its thread cap once, when numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chai", "engine.py")):
        print(f"perfbench: no chai sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    result, detail = harness.run(
        args.workload, args.seed, args.seconds, args.trace == 1,
        import_s=time.perf_counter() - START, root=ROOT,
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
