"""Multi-head and clustered-head attention over a prunable KV cache.

There is one attention kernel, `clustered_forward`. Under a frozen plan it
reads as grouped-query attention (GQA) over a per-request layout: each cache
slot holds one cluster representative's key plane, the slot's query is the
representative's, and every head blends values with its slot's probability
rows. Plain multi-head attention is the singleton plan (one head per slot),
which prunes nothing and selects no weight columns; only under it does the
kernel attend several causal rows at once, as prefill does, or record a
trace, as the decode steps before a plan freezes do. `mha_forward`,
prefill's entry point, is the kernel under a second name.
The head layout (`plan.HeadLayout`) says which key and value heads a cache
stores: a `KVCache` is built in one layout, with room for the positions
its caller asks for (a request's prompt plus its decode steps, never
the model's `max_seq_len`). `prune_cache` narrows that one cache in
place to a frozen plan's layout, layer by layer at the same capacity: it
drops the key planes of non-representative heads and, under the value-reuse
variant only, their value planes too, and `PlanTensors` gathers only the
weight columns the layout reads. The kernel runs only when the cache and
the plan tensors share one layout object. An `AttentionTrace` is one
zero-filled array sized to its traced steps, filled once per head group.

Cache ownership: a KVCache belongs to exactly one in-flight request. Layer
weights are read-only and shareable.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .errors import (
    ContractError, InsufficientTraceError, ModeMismatchError, ShapeError, ValidationError
)
from .kernels import apply_rope_heads, matmul, softmax_rows
from .model import LayerWeights, ModelConfig, head_columns
from .plan import HeadLayout

# Budget for one slot group's float32 (G, T, S) score buffer during prefill;
# at 1 MiB a 512-token prompt keeps one head per group.
SCORE_BUFFER_BYTES = 1 << 20


class LayerCache:
    """Preallocated per-layer key/value storage.

    `keys` holds one plane per stored key head and `values` one per stored
    value head, in the order the owning cache's layout lists them. Only the
    first `length` positions of each plane are live.
    """

    def __init__(self, key_planes: int, value_planes: int, capacity: int, head_dim: int):
        self.keys = np.zeros((key_planes, capacity, head_dim), dtype=np.float32)
        self.values = np.zeros((value_planes, capacity, head_dim), dtype=np.float32)
        self.length = 0

    def append(self, new_keys: np.ndarray, new_values: np.ndarray) -> None:
        """Append `tokens` new positions; arrays are (stored_heads, tokens, head_dim)."""
        tokens = new_keys.shape[1]
        if self.length + tokens > self.keys.shape[1]:
            raise ContractError(
                f"cache capacity {self.keys.shape[1]} exceeded at length {self.length}"
            )
        self.keys[:, self.length : self.length + tokens, :] = new_keys
        self.values[:, self.length : self.length + tokens, :] = new_values
        self.length += tokens

    def live_keys(self) -> np.ndarray:
        return self.keys[:, : self.length, :]

    def live_values(self) -> np.ndarray:
        return self.values[:, : self.length, :]


class KVCache:
    """One LayerCache per layer with room for `capacity` positions of every
    key and value head `layout` names. `pruned` marks a cache `prune_cache`
    has narrowed, whose layout may still equal the singleton one."""

    def __init__(self, config: ModelConfig, layout: HeadLayout, capacity: int):
        self.config = config
        self.layout = layout
        self.capacity = capacity
        self.pruned = False
        self.layers = [
            LayerCache(len(key_heads), len(value_heads), capacity, config.head_dim)
            for key_heads, value_heads in zip(layout.key_heads, layout.value_heads)
        ]

    @property
    def length(self) -> int:
        return self.layers[0].length

    def summary(self) -> dict:
        return {
            "length": self.length,
            "pruned": self.pruned,
            "layers": [
                {"stored_key_heads": list(key_heads), "stored_value_heads": list(value_heads)}
                for key_heads, value_heads in zip(self.layout.key_heads, self.layout.value_heads)
            ],
        }


def prune_cache(cache: KVCache, layout: HeadLayout) -> None:
    """Narrow the unpruned `cache` in place, layer by layer, to the heads
    `layout` names, at the same capacity and length; a layout for another
    layer count raises ValueError before any layer changes."""
    if cache.pruned:
        raise ContractError("cache is already pruned")
    per_layer = list(zip(cache.layers, layout.key_heads, layout.value_heads, strict=True))
    for lc, key_heads, value_heads in per_layer:
        # unpruned, so head h's planes sit in row h; a replaced array is
        # released before the next layer's copy, and one whose heads the
        # layout all keeps stays, uncopied
        if len(key_heads) < len(lc.keys):
            lc.keys = lc.keys[key_heads]
        if len(value_heads) < len(lc.values):
            lc.values = lc.values[value_heads]
    cache.layout, cache.pruned = layout, True


def _probability_row_problem(row: np.ndarray) -> str | None:
    """What keeps `row` from being a probability row, or None: every entry
    must be finite and in [0, 1], and the row sum within 1e-5 of 1."""
    low, high = float(row.min()), float(row.max())
    if not 0.0 <= low <= high <= 1.0:  # NaN fails every comparison
        return f"has probability {high if 0.0 <= low else low} outside [0, 1]"
    total = float(row.sum())
    if abs(total - 1.0) > 1e-5:
        return f"sums to {total}, not 1"
    return None


class AttentionTrace:
    """Every head's attention probability rows over `steps` traced steps, in
    one zero-filled float32 array `rows` shaped (layers, heads, steps,
    base_position + steps), with `recorded[layer]` steps recorded per layer.

    Steps are 1-based and offset by `base_position`: the row recorded at
    absolute cache position p is step p + 1 - base_position and fills
    rows[layer, head, step - 1, : p + 1], so a generation run traces its
    decoded positions as steps 1, 2, ... while a run over a fresh cache
    (calibration) yields rows of length 1, 2, ... The rest of each array row
    stays zero, which is also the value softmax gives every masked entry.
    """

    def __init__(self, num_layers: int, num_heads: int, steps: int, base_position: int = 0):
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.base_position = base_position
        self.rows = np.zeros((num_layers, num_heads, steps, base_position + steps), np.float32)
        self.recorded = [0] * num_layers

    def record(self, layer: int, position: int, heads, block: np.ndarray) -> None:
        """Store the (G, T, S) probability rows of the G heads `heads` (a
        slice or index array) at cache positions position .. position + T - 1;
        the row of position p is causal, so its entries past p are zero.

        Only rows that one vectorized screen flags get
        `_probability_row_problem`'s verdict on their causal prefix. Its
        float64 sums flag a row 5e-6 from 1, half the verdict's bound: far
        more than the verdict's float32 rounding."""
        first = position - self.base_position  # the 0-based step of row 0
        suspect = ~((block.min(axis=-1) >= 0.0) & (block.max(axis=-1) <= 1.0))
        suspect |= np.abs(block.sum(axis=-1, dtype=np.float64) - 1.0) > 5e-6
        for g, t in np.argwhere(suspect).tolist():
            problem = _probability_row_problem(block[g, t, : position + t + 1])
            if problem:
                head = np.arange(self.num_heads)[heads][g]
                raise ContractError(
                    f"attention row of layer {layer}, head {head}, step {first + t + 1} {problem}"
                )
        self.rows[layer, heads, first : first + block.shape[1], : block.shape[2]] = block
        self.recorded[layer] = max(self.recorded[layer], first + block.shape[1])

    def row(self, layer: int, head: int, step: int) -> np.ndarray:
        if not 1 <= step <= self.recorded[layer]:
            raise InsufficientTraceError(f"trace has no row for layer {layer}, step {step}")
        return self.rows[layer, head, step - 1, : self.base_position + step]

    def steps(self, layer: int) -> list[int]:
        return list(range(1, self.recorded[layer] + 1))

    def max_step(self) -> int:
        return max(self.recorded, default=0)


TRACE_COLUMNS = ("layer", "head", "step", "position", "probability")
TRACE_DTYPE = [(c, np.int64) for c in TRACE_COLUMNS[:4]] + [("probability", np.float64)]


def export_trace_csv(trace: AttentionTrace, path) -> None:
    """Write rows as (layer, head, step, position, probability), RFC-4180."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for layer in range(trace.num_layers):
            for head in range(trace.num_heads):
                for step in trace.steps(layer):
                    row = enumerate(trace.row(layer, head, step).tolist())
                    fh.writelines(f"{layer},{head},{step},{p},{prob!r}\r\n" for p, prob in row)


def load_trace_csv(path) -> AttentionTrace:
    """Read a trace CSV whose header names `TRACE_COLUMNS`, in any order and
    among others, with one `np.loadtxt`, and check its structure with array
    operations on the rows sorted by (layer, step, head, position). A missing
    column or row, a field `int` or `float` rejects, a negative layer or head
    and each structural fault README's "Trace CSV" lists raise
    ValidationError; so do ids past ASCII-decimal int64 and probabilities
    with `_` or non-ASCII digits, which only Python's parsers take."""

    def malformed(problem: str) -> ValidationError:
        return ValidationError(f"trace {path}: {problem}")

    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body is reported as having no rows
            header = {name: i for i, name in enumerate(next(csv.reader(fh), ()))}  # last one wins
            missing = [c for c in TRACE_COLUMNS if c not in header]
            if missing:
                raise ValidationError(f"trace {path} has no {', '.join(missing)} column")
            columns = [header[c] for c in TRACE_COLUMNS]
            try:
                table = np.loadtxt(fh, TRACE_DTYPE, comments=None, delimiter=",", quotechar='"',
                                   usecols=columns, ndmin=1)
                if (table["layer"] < 0).any() or (table["head"] < 0).any():
                    raise ValueError("negative layer or head")
            except ValueError as exc:  # name the line, as a per-field parse does
                line = _first_bad_line(path, columns)
                raise (ValidationError(f"trace {path} {line}") if line else malformed(exc)) from None
    except UnicodeDecodeError as exc:  # raised by any read, the re-read of a bad line too
        raise malformed(f"is not UTF-8 text: {exc}") from None
    if not table.size:
        raise ValidationError(f"trace {path} has no rows")

    def starts(*columns):  # where each run of equal values in `columns` starts
        return np.flatnonzero(np.r_[True, np.any([c[1:] != c[:-1] for c in columns], axis=0)])

    def ranks(run_starts, n: int):  # each of n items' index in its run
        return np.arange(n) - np.repeat(run_starts, np.diff(run_starts, append=n))

    # a run is one head's row, a key the runs of one (layer, step), led by heads 0..present-1
    order = np.lexsort([table[c] for c in ("position", "head", "step", "layer")])
    layer, head, step, position = (table[c][order] for c in TRACE_COLUMNS[:4])
    runs = starts(layer, step, head)
    keys = starts(layer[runs], step[runs])
    lengths = np.diff(runs, append=len(order))
    unsorted = np.logical_or.reduceat(position != ranks(runs, len(order)), runs)
    present = np.add.reduceat(head[runs] == ranks(keys, len(runs)), keys)
    num_heads = int(head.max()) + 1
    broken = (present < num_heads) | np.logical_or.reduceat(unsorted, keys)
    broken |= np.minimum.reduceat(lengths, keys) != np.maximum.reduceat(lengths, keys)
    # each layer's steps are 1, 2, ..., its rows one position longer each
    # step and step 1's as long as the first layer's
    key_layer, key_step, length = layer[runs[keys]], step[runs[keys]], lengths[keys]
    firsts = starts(key_layer)
    nth = ranks(firsts, len(keys))
    faults = np.flatnonzero(broken | (key_step != nth + 1) | (length != length[0] + nth))
    if faults.size:  # the first key at fault: its heads in order, then lengths, then step
        k = faults[0]
        at = f"layer {key_layer[k]}, step {key_step[k]}"
        bad = np.flatnonzero(unsorted[keys[k] : keys[k] + present[k]])  # a rank is a head
        if bad.size:
            raise malformed(f"positions of layer {key_layer[k]}, head {bad[0]}, step "
                            f"{key_step[k]} are not 0..{lengths[keys[k] + bad[0]] - 1}")
        if broken[k]:
            raise malformed(f"{at} has no head {present[k]}" if present[k] < num_heads
                            else f"rows of {at} differ in length")
        want = int(length[0]) + nth[k] if k else int(length[k]) - int(key_step[k]) + 1
        raise malformed(f"layer {key_layer[k]} has step {key_step[k]} of {length[k]} positions "
                        f"where step {nth[k] + 1} of {want} positions should come next")
    counts = dict(zip(key_layer[firsts].tolist(), np.diff(firsts, append=len(keys)).tolist()))
    # every layer 0..max has as many steps as layer 0
    for other in sorted({*counts, *range(1, len(counts) + 1)}):  # and the first without rows
        if 0 < other <= key_layer[-1] and counts.get(other) != counts.get(0):
            span, span_0 = (f"steps 1..{counts[i]}" if i in counts else "no steps"
                            for i in (other, 0))
            raise malformed(f"layer {other} has {span} where layer 0 has {span_0}")
    trace = AttentionTrace(len(counts), num_heads, counts[0], int(length[0]) - 1)
    with np.errstate(over="ignore"):  # past float32 is inf, which record rejects
        trace.rows[layer, head, step - 1, position] = table["probability"][order]
    try:  # record checks each (layer, step)'s rows in order, storing them where they are
        for i, s in zip(key_layer.tolist(), key_step.tolist()):
            trace.record(i, trace.base_position + s - 1, slice(None), trace.rows[i, :, s - 1 : s])
    except ContractError as exc:
        raise malformed(str(exc)) from None
    return trace


def _first_bad_line(path, columns) -> str | None:
    """'line N: <error>' for the first row whose `columns` `int` and `float`
    reject (a missing field is None) or whose layer or head is negative;
    None when every row parses."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        for fields in filter(None, reader):  # blank lines hold no row
            values = [fields[i] if i < len(fields) else None for i in columns]
            try:
                layer, head, _, _ = (int(value) for value in values[:4])
                float(values[4])
                if min(layer, head) < 0:
                    raise ValueError(f"negative layer {layer} or head {head}")
            except (TypeError, ValueError) as exc:
                return f"line {reader.line_num}: {exc}"
    return None


def _head_scale(head_dim: int) -> np.float32:
    # Scores scale by the per-head dimension, not the model dimension.
    return np.float32(1.0 / math.sqrt(head_dim))


def _project_heads(x: np.ndarray, columns: np.ndarray, head_dim: int) -> np.ndarray:
    """One batched projection onto selected head columns: (T, n_heads, head_dim)."""
    return matmul(x, columns).reshape(x.shape[0], -1, head_dim)


class PlanTensors:
    """The weight columns a forward pass reads under `layout`, gathered once
    per plan: per layer, the representatives' wq/wk columns in cluster order
    and the wv columns of the layout's value heads. Under the singleton
    layout every column selection is the weight matrix itself.

    The wq/wk columns stay in cluster order and the kernel reorders each
    call's rows to slot order: gathering the columns in slot order instead
    changes the projection's bits at some widths (ROADMAP's exactness facts
    give the measurement).
    """

    def __init__(self, layout: HeadLayout, weights_layers, head_dim: int):
        self.layout = layout
        self.wq, self.wk, self.wv = [], [], []
        per_layer = zip(weights_layers, layout.plan.layers, layout.value_heads, strict=True)
        for layer_weights, layer_plan, value_heads in per_layer:
            reps = layer_plan.representatives
            self.wq.append(head_columns(layer_weights.wq, reps, head_dim))
            self.wk.append(head_columns(layer_weights.wk, reps, head_dim))
            self.wv.append(head_columns(layer_weights.wv, value_heads, head_dim))


def clustered_forward(
    x: np.ndarray,
    layer_weights: LayerWeights,
    cache: KVCache,
    layer: int,
    plan_tensors: PlanTensors,
    trace: AttentionTrace | None = None,
) -> np.ndarray:
    """Causal attention of T >= 1 rows that computes Q/K and score rows only
    for cluster representatives; every head's output uses its
    representative's probability rows. With one value head per slot (value
    reuse) the slot's value output is replicated across the cluster instead
    of blending each head's own values.

    Several rows (prefill) and a `trace`, which records each head's rows,
    are accepted only under the singleton plan; anything else raises
    ContractError before a row is projected or cached. Slots are processed
    in groups whose float32 (G, T, start + T) score buffer fits
    SCORE_BUFFER_BYTES, with at least one slot per group; one row is always
    one group. Scores are normalized in place, and value blends are written
    straight into the merged output.
    """
    config = cache.config
    num_heads, head_dim = config.num_heads, config.head_dim
    lc = cache.layers[layer]
    pt = plan_tensors
    layout = pt.layout
    if cache.layout is not layout:
        raise ModeMismatchError(
            f"cache stores key heads {cache.layout.key_heads} and value heads "
            f"{cache.layout.value_heads}; the plan expects {layout.key_heads} "
            f"and {layout.value_heads}"
        )
    if x.ndim != 2 or x.shape[1] != config.model_dim:
        raise ShapeError(f"expected (T, {config.model_dim}) input, got {x.shape}")
    tokens = x.shape[0]
    slots = len(layout.key_heads[layer])
    if slots != num_heads and (tokens > 1 or trace is not None):
        what = f"{tokens} rows" if tokens > 1 else "a traced row"
        raise ContractError(
            f"{what} under a plan of {slots} slots for {num_heads} heads: "
            "only the singleton plan attends several rows or records a trace"
        )

    start = lc.length
    scale = _head_scale(head_dim)
    cluster_of_slot = layout.cluster_of_slot[layer]
    slot_of_head = layout.slot_of_head[layer]

    # projections land in cluster-id order (one column block per cluster)
    queries = apply_rope_heads(_project_heads(x, pt.wq[layer], head_dim), start)
    new_keys = apply_rope_heads(_project_heads(x, pt.wk[layer], head_dim), start)
    new_values = _project_heads(x, pt.wv[layer], head_dim)

    # cache slots hold representatives in ascending-head order; reorder the
    # new rows, not the cached key planes, nor the columns, whose slot order
    # would change the projection's bits (see PlanTensors)
    lc.append(new_keys[:, cluster_of_slot, :].transpose(1, 0, 2), new_values.transpose(1, 0, 2))
    slot_queries = queries[:, cluster_of_slot, :].transpose(1, 0, 2)
    live_keys = lc.live_keys().transpose(0, 2, 1)
    live_values = lc.live_values()

    merged = np.empty((tokens, num_heads * head_dim), dtype=np.float32)
    head_outputs = merged.reshape(tokens, num_heads, head_dim).transpose(1, 0, 2)
    group = slots
    if tokens > 1:
        group = max(1, SCORE_BUFFER_BYTES // (4 * tokens * lc.length))  # float32
    for lo in range(0, slots, group):
        hi = min(lo + group, slots)
        probs = np.matmul(slot_queries[lo:hi], live_keys[lo:hi])
        probs *= scale
        softmax_rows(probs, causal_from=start, out=probs)
        if slots == num_heads:  # slot s holds head s
            np.matmul(probs, live_values[lo:hi], out=head_outputs[lo:hi])
        elif layout.reuse_values:
            head_outputs[:] = np.matmul(probs, live_values)[slot_of_head]
        else:
            np.matmul(probs[slot_of_head], live_values, out=head_outputs)
        if trace is not None:  # singleton plan: slots lo..hi are heads lo..hi
            trace.record(layer, start, slice(lo, hi), probs)
    return matmul(merged, layer_weights.wo)


# Prefill's name for the kernel, which the benchmark's tracer replaces in
# `chai.engine` to time prefill apart from decode.
mha_forward = clustered_forward
