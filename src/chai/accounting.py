"""Closed-form FLOP and byte accounting for attention under a head layout
(`plan.HeadLayout`; plain attention is the singleton layout).

Conventions (documented so the numbers are auditable): a multiply-add counts
as 2 FLOPs; softmax costs 5 FLOPs per element (max-subtract, exp, sum,
divide, amortized bookkeeping). Cache bytes count 2-byte elements (fp16
storage model) even though compute runs in float32.

`seq_len` always means the number of cached positions a step attends over,
including the token being decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .model import ModelConfig
from .plan import HeadLayout

MULTIPLY_ADD_FLOPS = 2
SOFTMAX_FLOPS_PER_ELEMENT = 5
CACHE_WIDTH_BYTES = 2


@dataclass(frozen=True)
class LayerMemory:
    key_bytes: int
    value_bytes: int

    @property
    def kv_total_bytes(self) -> int:
        return self.key_bytes + self.value_bytes


@dataclass(frozen=True)
class MemoryReport:
    per_layer: tuple[LayerMemory, ...]
    seq_len: int
    baseline_bytes: int

    @property
    def key_bytes(self) -> int:
        return sum(layer.key_bytes for layer in self.per_layer)

    @property
    def value_bytes(self) -> int:
        return sum(layer.value_bytes for layer in self.per_layer)

    @property
    def kv_total_bytes(self) -> int:
        return self.key_bytes + self.value_bytes

    @property
    def savings_fraction(self) -> float:
        return 1.0 - self.kv_total_bytes / self.baseline_bytes

    def to_dict(self) -> dict:
        return {
            "seq_len": self.seq_len,
            "element_width_bytes": CACHE_WIDTH_BYTES,
            "key_bytes": self.key_bytes,
            "value_bytes": self.value_bytes,
            "kv_total_bytes": self.kv_total_bytes,
            "baseline_bytes": self.baseline_bytes,
            "savings_fraction": self.savings_fraction,
            "per_layer": [
                {
                    "key_bytes": layer.key_bytes,
                    "value_bytes": layer.value_bytes,
                    "kv_total_bytes": layer.kv_total_bytes,
                }
                for layer in self.per_layer
            ],
        }


@dataclass(frozen=True)
class LayerFlops:
    projection_flops: int  # Q, K, V, O projections
    score_flops: int  # Q Kᵀ
    softmax_flops: int
    av_flops: int  # probability rows times values

    @property
    def total(self) -> int:
        return self.projection_flops + self.score_flops + self.softmax_flops + self.av_flops


@dataclass(frozen=True)
class FlopReport:
    per_layer: tuple[LayerFlops, ...]
    seq_len: int
    baseline_flops: int

    @property
    def projection_flops(self) -> int:
        return sum(layer.projection_flops for layer in self.per_layer)

    @property
    def score_flops(self) -> int:
        return sum(layer.score_flops for layer in self.per_layer)

    @property
    def softmax_flops(self) -> int:
        return sum(layer.softmax_flops for layer in self.per_layer)

    @property
    def av_flops(self) -> int:
        return sum(layer.av_flops for layer in self.per_layer)

    @property
    def total_flops(self) -> int:
        return sum(layer.total for layer in self.per_layer)

    @property
    def reduction_fraction(self) -> float:
        return 1.0 - self.total_flops / self.baseline_flops

    def to_dict(self) -> dict:
        return {
            "seq_len": self.seq_len,
            "step_kind": "decode",  # every report covers one decode step
            "projection_flops": self.projection_flops,
            "score_flops": self.score_flops,
            "softmax_flops": self.softmax_flops,
            "av_flops": self.av_flops,
            "total_flops": self.total_flops,
            "baseline_flops": self.baseline_flops,
            "reduction_fraction": self.reduction_fraction,
            "per_layer": [
                {
                    "projection_flops": layer.projection_flops,
                    "score_flops": layer.score_flops,
                    "softmax_flops": layer.softmax_flops,
                    "av_flops": layer.av_flops,
                    "total_flops": layer.total,
                }
                for layer in self.per_layer
            ],
        }


def kv_cache_bytes(config: ModelConfig, layout: HeadLayout, seq_len: int) -> MemoryReport:
    """Cache capacity at `seq_len` positions: each layer's keys of the
    layout's key heads and values of its value heads."""
    if seq_len < 1:
        raise ValidationError(f"seq_len must be >= 1, got {seq_len}")
    if seq_len > config.max_seq_len:
        raise ValidationError(f"seq_len {seq_len} exceeds max_seq_len {config.max_seq_len}")
    per_position = config.head_dim * CACHE_WIDTH_BYTES
    layers = tuple(
        LayerMemory(
            key_bytes=len(key_heads) * seq_len * per_position,
            value_bytes=len(value_heads) * seq_len * per_position,
        )
        for key_heads, value_heads in zip(layout.key_heads, layout.value_heads)
    )
    baseline = config.num_layers * 2 * config.num_heads * seq_len * per_position
    return MemoryReport(per_layer=layers, seq_len=seq_len, baseline_bytes=baseline)


def _decode_layer_flops(config, key_count, value_count, seq_len) -> LayerFlops:
    d, dh = config.model_dim, config.head_dim
    ma = MULTIPLY_ADD_FLOPS
    # Q and K projections cover only the computed (key) heads; V and O stay
    # full. Probability rows blend every stored value head.
    return LayerFlops(
        projection_flops=ma * d * dh * key_count * 2 + ma * d * d * 2,
        score_flops=ma * key_count * seq_len * dh,
        softmax_flops=SOFTMAX_FLOPS_PER_ELEMENT * key_count * seq_len,
        av_flops=ma * value_count * seq_len * dh,
    )


def attention_flops(config: ModelConfig, layout: HeadLayout, seq_len: int) -> FlopReport:
    """Attention FLOPs for one decode step at `seq_len` cached positions."""
    if seq_len < 1:
        raise ValidationError(f"seq_len must be >= 1, got {seq_len}")
    per_layer = tuple(
        _decode_layer_flops(config, len(key_heads), len(value_heads), seq_len)
        for key_heads, value_heads in zip(layout.key_heads, layout.value_heads)
    )
    heads = config.num_heads
    baseline = config.num_layers * _decode_layer_flops(config, heads, heads, seq_len).total
    return FlopReport(per_layer=per_layer, seq_len=seq_len, baseline_flops=baseline)
