"""Decode step against its matmul floor, on the benchmark model.

Usage: python tools/decode_floor.py [--src SRC_DIR]

For each mode's frozen plan epoch (MHA: the singleton plan; CHAI: the
planted plan; CHAI_QKV: the planted plan with value reuse; CHAI_STATIC's
frozen epoch is CHAI's) at 256 and 512 cached positions, it times one
`engine._forward_pass` decode step against the same step's matmuls alone:
the Q/K/V projections, the batched scores and value blends over the cache,
wo, the MLP and the LM head, at the step's shapes and on its weight columns,
called with `@` and `np.matmul` directly. Each step decodes at the same
position (every layer's cache length is reset after it). Steps and floors
alternate in BLOCKS blocks of BLOCK_STEPS calls each, in one process at
one BLAS thread, and each figure is the median over the blocks of the
per-call process CPU time.

Prints one JSON line: per "MODE@positions", the step and floor in ms and
their ratio. The package is imported from SRC_DIR (default: this checkout's
`src`), so a parent tree can be measured with this script; the model is
`perfbench/harness.py`'s (config FULL, planted 16/8/8/4 plan, wv shared
within clusters).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # read once, when numpy loads

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LENGTHS = (256, 512)
MODES = ("MHA", "CHAI", "CHAI_QKV")
BLOCKS = 25
BLOCK_STEPS = 40


def _model(harness, model):
    config, counts = harness.FULL.config, harness.FULL.planted_counts
    plan = harness.planted_plan(config, counts)
    weights = model.make_redundant(model.init_random(config, harness.MODEL_SEED), plan)
    harness.share_value_heads(weights, plan)
    return weights, plan


def _stepper(chai, weights, layout, positions: int):
    """One frozen-epoch `_forward_pass` step at position `positions`, after
    a prefill of that many positions under the singleton plan and, for a
    clustered `layout`, the prune; and the step's plan tensors."""
    attention, engine = chai["attention"], chai["engine"]
    config = weights.config
    singleton = chai["plan"].HeadLayout.singleton(config)
    frozen = layout.plan != singleton.plan or layout.reuse_values
    cache = attention.KVCache(config, singleton if frozen else layout, positions + 1)
    tensors = attention.PlanTensors(cache.layout, weights.layers, config.head_dim)
    prompt = np.random.default_rng(1).integers(0, config.vocab_size, positions).tolist()
    engine.prefill(weights, prompt, cache, tensors)
    if frozen:
        attention.prune_cache(cache, layout)
        tensors = attention.PlanTensors(layout, weights.layers, config.head_dim)
    token = [prompt[-1]]

    def step():
        engine._forward_pass(weights, token, cache, engine.clustered_forward, tensors)
        for lc in cache.layers:
            lc.length = positions

    return step, tensors


def _floor(weights, tensors, positions: int):
    """The matmuls of one decode step under `tensors`' layout over
    `positions` cached positions, on operands of the step's shapes."""
    config = weights.config
    layout = tensors.layout
    rng = np.random.default_rng(0)

    def rows(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    x, gated = rows(1, config.model_dim), rows(1, config.ffn_dim)
    layers = []
    for layer, lw in enumerate(weights.layers):
        slots, planes = len(layout.key_heads[layer]), len(layout.value_heads[layer])
        blend_rows = slots if layout.reuse_values else config.num_heads
        layers.append((
            (tensors.wq[layer], tensors.wk[layer], tensors.wv[layer], lw.wo, lw.w_gate, lw.w_up),
            rows(slots, 1, config.head_dim),
            rows(slots, positions, config.head_dim).transpose(0, 2, 1),
            rows(blend_rows, 1, positions),
            rows(planes, positions, config.head_dim),
            lw.w_down,
        ))

    def step():
        for projections, queries, keys, probs, values, w_down in layers:
            for w in projections:
                x @ w
            np.matmul(queries, keys)
            np.matmul(probs, values)
            gated @ w_down
        x @ weights.output_projection

    return step


def _block_ms(fn, calls: int) -> float:
    start = time.process_time()
    for _ in range(calls):
        fn()
    return (time.process_time() - start) * 1000.0 / calls


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness
    from chai import attention, engine, model, plan

    chai = {"attention": attention, "engine": engine, "plan": plan}
    weights, planted = _model(harness, model)
    config = weights.config
    layouts = {
        "MHA": plan.HeadLayout.singleton(config),
        "CHAI": plan.HeadLayout(config, planted),
        "CHAI_QKV": plan.HeadLayout(config, planted, reuse_values=True),
    }
    report = {}
    for positions in LENGTHS:
        for mode in MODES:
            step, tensors = _stepper(chai, weights, layouts[mode], positions)
            floor = _floor(weights, tensors, positions)
            step(), floor()  # warm
            steps, floors = [], []
            for _ in range(BLOCKS):
                steps.append(_block_ms(step, BLOCK_STEPS))
                floors.append(_block_ms(floor, BLOCK_STEPS))
            step_ms, floor_ms = float(np.median(steps)), float(np.median(floors))
            report[f"{mode}@{positions}"] = {
                "step_ms": round(step_ms, 4),
                "floor_ms": round(floor_ms, 4),
                "ratio": round(step_ms / floor_ms, 3),
            }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
