"""Span tracing from outside the program.

The traced run replaces public names of `chai` in the namespaces they are
called through (for example `chai.engine.mha_forward`, which is what
`engine._forward_pass` looks up, not `chai.attention.mha_forward`). Each
replacement times the call, charges its duration to the enclosing span as
child time, and updates counts computed from the argument shapes. Spans are
aggregated in memory per name: calls, inclusive time and self time (inclusive
minus the time covered by traced children).

A name a later refactor removes is skipped: its span is reported as absent
and the run goes on. The untraced run installs nothing.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self._child_s: list[float] = []

    def call(self, name: str, fn, *args, **kwargs):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._child_s.pop()
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - child
            if self._child_s:
                self._child_s[-1] += elapsed


# Counts come from argument shapes. An argument of an unexpected shape is
# left uncounted, so the call itself raises whatever the program raises.


def _count_softmax(counters, m, causal_from=None, *_, **__):
    shape = np.shape(m)
    if len(shape) != 2:
        return
    rows, cols = shape
    counters["softmax.elements"] += rows * cols
    if causal_from is not None:
        visible = np.minimum(cols, causal_from + 1 + np.arange(rows))
        counters["softmax.masked"] += int(cols * rows - visible.sum())


def _count_matmul(prefix):
    def count(counters, a, b, *_, **__):
        sa, sb = np.shape(a), np.shape(b)
        if len(sa) == 2 and len(sb) == 2:
            counters[prefix + ".flop"] += 2 * sa[0] * sa[1] * sb[1]
    return count


def _count_kmeans(counters, points, *_, **__):
    shape = np.shape(points)
    if len(shape) == 2:
        counters["kmeans.feature_width"] += shape[1]


def _mha_span(x, *_, **__):
    return "attention.mha_forward." + ("decode" if len(x) == 1 else "prefill")


# (module, attribute path, span name or function of the call's arguments,
#  counter update or None). Each entry is a name the caller looks up at call
# time; the module that defines a function is not where it is replaced.
PATCHES = (
    ("chai.engine", "prefill", "engine.prefill", None),
    ("chai.engine", "mha_forward", _mha_span, None),
    ("chai.engine", "clustered_forward", "attention.clustered_forward", None),
    ("chai.engine", "prune_cache", "attention.prune_cache", None),
    ("chai.engine", "PlanTensors", "attention.PlanTensors", None),
    ("chai.attention", "AttentionTrace.record", "attention.AttentionTrace.record", None),
    ("chai.attention", "softmax_rows", "kernels.softmax_rows", _count_softmax),
    ("chai.attention", "matmul", "kernels.matmul.attention", _count_matmul("matmul.attention")),
    ("chai.engine", "matmul", "kernels.matmul.engine", _count_matmul("matmul.engine")),
    ("chai.attention", "apply_rope_heads", "kernels.apply_rope_heads", None),
    ("chai.engine", "rms_norm", "kernels.rms_norm", None),
    ("chai.engine", "kmeans", "clustering.kmeans", _count_kmeans),
    ("chai.clustering", "kmeans", "clustering.kmeans", _count_kmeans),
    ("chai.engine", "sse_curve", "clustering.sse_curve", None),
    ("chai.engine", "extract_features", "clustering.extract_features", None),
    ("chai.engine", "choose_representatives", "clustering.choose_representatives", None),
    ("chai.accounting", "attention_flops", "accounting.attention_flops", None),
    ("chai.accounting", "kv_cache_bytes", "accounting.kv_cache_bytes", None),
)


def _wrapper(tracer: Tracer, original, span, count):
    def traced(*args, **kwargs):
        name = span(*args, **kwargs) if callable(span) else span
        if count is not None:
            count(tracer.counters, *args, **kwargs)
        return tracer.call(name, original, *args, **kwargs)

    return traced


def install(tracer: Tracer) -> list:
    """Replace every name in PATCHES that still exists; returns what
    `restore` needs. Missing modules or attributes are skipped."""
    undo = []
    for module_name, path, span, count in PATCHES:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            continue
        setattr(owner, attr, _wrapper(tracer, original, span, count))
        undo.append((owner, attr, original))
        tracer.installed.update(span_names(span))
    return undo


def span_names(span) -> tuple[str, ...]:
    """The names a PATCHES entry records under; `_mha_span` is the only
    entry whose name depends on the call."""
    if isinstance(span, str):
        return (span,)
    return ("attention.mha_forward.prefill", "attention.mha_forward.decode")


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
