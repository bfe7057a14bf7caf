"""Command-line surface: init, calibrate, generate, bench, analyze, compare.

Exit codes: 0 success, 2 usage/validation problems, 1 runtime failures.
All randomness flows from --seed. CHAI_THREADS caps BLAS parallelism
(default 1) and must be applied before numpy loads, so the heavy modules are
imported lazily inside main().
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from pathlib import Path


def _cap_threads() -> None:
    value = os.environ.get("CHAI_THREADS", "1")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(var, value)


def _seed(text: str) -> int:
    """argparse type of every --seed: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chai",
        description="Desk-scale decoder-only transformer inference with clustered head attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a random weight file")
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--heads", type=int, default=16)
    p.add_argument("--head-dim", type=int, default=16)
    p.add_argument("--ffn-dim", type=int, default=384)
    p.add_argument("--vocab-size", type=int, default=256)
    p.add_argument("--max-seq-len", type=int, default=2048)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("calibrate", help="offline cluster-count calibration")
    p.add_argument("--weights", required=True)
    p.add_argument("--corpus", required=True, help="JSON file: list of token-id lists")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="profile JSON; elbow CSV lands beside it")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("generate", help="greedy decoding in any mode")
    p.add_argument("--weights", required=True)
    p.add_argument("--mode", default="MHA")
    p.add_argument("--profile", default=None)
    p.add_argument("--prompt", default=None, help="raw little-endian int32 token-id file")
    p.add_argument("--text", default=None, help="byte-level prompt fallback")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--identify-at", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trace", default=None, help="also export the attention trace CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="latency/FLOP/memory sweep over sequence lengths")
    p.add_argument("--weights", required=True)
    p.add_argument("--profile", default=None)
    p.add_argument("--seq-lens", default="256,512,1024,2048")
    p.add_argument("--modes", default="MHA,CHAI")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--identify-at", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="clustering analyses over an exported trace")
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--what", required=True, choices=["correlation", "elbow", "stability", "histogram"]
    )
    p.add_argument("--profile", default=None, help="needed for stability and histogram")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--from-step", type=int, default=None)
    p.add_argument("--to-step", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="divergence report: MHA vs a clustered variant")
    p.add_argument("--weights", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--prompt", default=None)
    p.add_argument("--text", default=None)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", default="CHAI")
    p.add_argument("--identify-at", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    _cap_threads()
    from .errors import ChaiError, ConfigError, ValidationError, WeightFileError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (ValidationError, ConfigError, WeightFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChaiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _require_file(path, description: str) -> Path:
    from .errors import ValidationError

    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{description} not found: {path}")
    return path


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_elbow_csv(path, curves) -> None:
    """One (layer, k, error) row per point of each layer's error curve."""
    _write_csv(
        path,
        ["layer", "k", "error"],
        (
            [layer, k, repr(float(error))]
            for layer, curve in enumerate(curves)
            for k, error in enumerate(curve, start=1)
        ),
    )


def _load_prompt(args, config):
    from .errors import ValidationError
    from .model import byte_prompt

    if (args.prompt is None) == (args.text is None):
        raise ValidationError("exactly one of --prompt or --text is required")
    if args.text is not None:
        if config.vocab_size < 256:
            raise ValidationError(
                f"--text needs vocab_size >= 256, model has {config.vocab_size}"
            )
        return byte_prompt(args.text)
    import numpy as np

    path = _require_file(args.prompt, "prompt file")
    size = path.stat().st_size
    if size % 4:
        raise ValidationError(
            f"prompt file {path} is {size} bytes, not a whole number of 4-byte token ids"
        )
    return np.fromfile(path, dtype="<i4").tolist()


def cmd_init(args) -> int:
    from .model import ModelConfig, init_random, save_weights

    config = ModelConfig(
        num_layers=args.layers,
        num_heads=args.heads,
        model_dim=args.heads * args.head_dim,
        head_dim=args.head_dim,
        ffn_dim=args.ffn_dim,
        vocab_size=args.vocab_size,
        max_seq_len=args.max_seq_len,
    )
    save_weights(init_random(config, args.seed), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    from .engine import calibrate
    from .errors import ValidationError
    from .model import load_weights

    weights = load_weights(_require_file(args.weights, "weights file"))
    corpus_path = _require_file(args.corpus, "corpus file")
    try:
        corpus = json.loads(corpus_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"corpus file {corpus_path} is not valid JSON: {exc}")
    if not isinstance(corpus, list) or not all(isinstance(s, list) for s in corpus):
        raise ValidationError(f"corpus file {corpus_path} must hold a list of token-id lists")

    profile = calibrate(
        weights,
        corpus,
        sample_count=args.samples,
        window=args.window,
        threshold=args.threshold,
        seed=args.seed,
    )
    profile.save(args.out)
    elbow_path = str(Path(args.out).with_suffix("")) + "_elbow.csv"
    _write_elbow_csv(elbow_path, profile.elbow_curves)
    print(f"wrote {args.out} and {elbow_path}")
    return 0


def _load_profile(path):
    from .engine import CalibrationProfile
    from .errors import ContractError, ValidationError

    path = _require_file(path, "profile file")
    try:
        return CalibrationProfile.load(path)
    except (json.JSONDecodeError, KeyError, TypeError, ContractError, ValidationError) as exc:
        raise ValidationError(f"profile file {path} is malformed: {exc}")


def cmd_generate(args) -> int:
    from .attention import export_trace_csv
    from .engine import generate, parse_mode
    from .errors import ValidationError
    from .model import load_weights

    mode = parse_mode(args.mode)
    if mode == "CHAI_STATIC" and args.trace is not None:
        raise ValidationError("mode CHAI_STATIC records no trace to export; drop --trace")
    weights = load_weights(_require_file(args.weights, "weights file"))
    profile = None
    if mode != "MHA":
        if args.profile is None:
            raise ValidationError(f"mode {mode} requires --profile")
        profile = _load_profile(args.profile)
    prompt = _load_prompt(args, weights.config)

    result = generate(
        weights,
        prompt,
        args.steps,
        mode,
        profile=profile,
        identify_at=args.identify_at,
        seed=args.seed,
        collect_trace=args.trace is not None,
    )
    _write_json(args.out, result.to_dict())
    if args.trace is not None:
        export_trace_csv(result.trace, args.trace)
    print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    from .engine import generate, parse_mode
    from .errors import ValidationError
    from .model import load_weights

    import numpy as np

    weights = load_weights(_require_file(args.weights, "weights file"))
    config = weights.config
    modes = [parse_mode(m) for m in args.modes.split(",") if m]
    try:
        seq_lens = [int(s) for s in args.seq_lens.split(",") if s]
    except ValueError:
        raise ValidationError(f"--seq-lens must be comma-separated integers: {args.seq_lens!r}")
    if not seq_lens or not modes:
        raise ValidationError("--seq-lens and --modes must be non-empty")
    if min(seq_lens) < 1:
        raise ValidationError(f"--seq-lens entries must be >= 1: {args.seq_lens!r}")
    if args.repeats < 1:
        raise ValidationError("--repeats must be >= 1")

    profile = None
    if any(m != "MHA" for m in modes):
        if args.profile is None:
            raise ValidationError("clustered modes require --profile")
        profile = _load_profile(args.profile)

    steps = args.identify_at + args.repeats
    needed = max(seq_lens) + steps
    if needed > config.max_seq_len:
        raise ValidationError(
            f"bench needs max_seq_len >= {needed} (longest sweep + steps), "
            f"model has {config.max_seq_len}"
        )

    def median_ms(result) -> float:
        return statistics.median(result.step_ms[-args.repeats :])

    rows = []
    for seq_len in seq_lens:
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, seq_len)))
        prompt = rng.integers(0, config.vocab_size, size=seq_len).tolist()
        results = [
            (mode, generate(weights, prompt, steps, mode, profile=profile,
                            identify_at=args.identify_at, seed=args.seed))
            for mode in modes
        ]
        base = dict(results).get("MHA")  # speedups are over this length's MHA run
        rows += [
            [
                mode, seq_len, repr(result.ttft_ms), repr(median_ms(result)),
                result.per_step_attention_flops[-1], result.per_step_kv_bytes[-1],
                repr(result.memory_report.savings_fraction), repr(result.identification_ms),
                repr(median_ms(base) / median_ms(result)) if base else "",
                repr(base.ttft_ms / result.ttft_ms) if base else "",
            ]
            for mode, result in results
        ]

    _write_csv(
        args.out,
        [
            "mode", "seq_len", "ttft_ms", "median_ms", "flops", "kv_bytes",
            "savings_fraction", "identification_ms", "speedup", "ttft_speedup",
        ],
        rows,
    )
    print(f"wrote {args.out}")
    return 0


def cmd_analyze(args) -> int:
    from .attention import load_trace_csv
    from .clustering import (
        cluster_size_histogram,
        correlation_matrix,
        extract_features,
        membership_stability,
        sse_curve,
    )
    from .errors import ValidationError

    if args.what in ("stability", "histogram"):  # checked before a long trace is read
        if args.profile is None:
            raise ValidationError(f"--what {args.what} requires --profile")
        profile = _load_profile(args.profile)
    trace = load_trace_csv(_require_file(args.trace, "trace file"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.what == "correlation":
        path = out_dir / "correlation.csv"
        matrices = [
            correlation_matrix(extract_features(trace, layer, (1, args.window)))
            for layer in range(trace.num_layers)
        ]
        heads = range(trace.num_heads)
        _write_csv(
            path,
            ["layer", "head_i", "head_j", "correlation"],
            (
                [layer, i, j, repr(float(corr[i, j]))]
                for layer, corr in enumerate(matrices)
                for i in heads
                for j in heads
            ),
        )
        print(f"wrote {path}")
        return 0

    if args.what == "elbow":
        path = out_dir / "elbow.csv"
        layers = range(trace.num_layers)
        curves = sse_curve(
            [extract_features(trace, layer, (1, args.window)) for layer in layers],
            [args.seed for _ in layers],
        )
        _write_elbow_csv(path, curves)
        print(f"wrote {path}")
        return 0

    profile.require_shape(trace.num_layers, trace.num_heads, "trace")

    if args.what == "stability":
        from_step = args.from_step if args.from_step is not None else profile.window
        to_step = args.to_step if args.to_step is not None else trace.max_step()
        steps, counts = membership_stability(trace, profile, from_step, to_step)
        path = out_dir / "stability.csv"
        _write_csv(
            path,
            ["layer", "step", "changes"],
            (
                [layer, step, int(counts[layer, i])]
                for layer in range(trace.num_layers)
                for i, step in enumerate(steps)
            ),
        )
        print(f"wrote {path}")
        return 0

    # histogram
    plan = profile.static_assignment
    payload = {
        str(layer): cluster_size_histogram(plan, layer) for layer in range(plan.num_layers)
    }
    path = out_dir / "histogram.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    from .engine import compare_outputs
    from .model import load_weights

    weights = load_weights(_require_file(args.weights, "weights file"))
    profile = _load_profile(args.profile)
    prompt = _load_prompt(args, weights.config)
    report = compare_outputs(
        weights,
        prompt,
        args.steps,
        profile,
        mode=args.mode,
        identify_at=args.identify_at,
        seed=args.seed,
    )
    _write_json(args.out, report)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
