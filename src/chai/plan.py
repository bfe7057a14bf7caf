"""Per-layer head-to-cluster assignments with one representative head per
cluster, and the weightless head layout a plan gives the KV cache."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def is_integer(value) -> bool:
    """An int that is not a bool (JSON's true and false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class LayerPlan:
    """Cluster structure of one layer's attention heads.

    assignment[h] is the cluster id of head h; representatives[c] is the head
    whose queries and keys are actually computed for cluster c.
    """

    assignment: tuple[int, ...]
    representatives: tuple[int, ...]

    def __post_init__(self):
        num_heads = len(self.assignment)
        k = len(self.representatives)
        if not all(map(is_integer, self.assignment + self.representatives)):
            raise ContractError(f"non-integer cluster id or representative in {self}")
        if not 1 <= k <= num_heads:
            raise ContractError(f"cluster count {k} outside [1, {num_heads}]")
        if sorted(set(self.assignment)) != list(range(k)):
            raise ContractError("assignment is not surjective onto cluster ids")
        for cluster, rep in enumerate(self.representatives):
            if not 0 <= rep < num_heads:
                raise ContractError(f"representative {rep} is not a head index")
            if self.assignment[rep] != cluster:
                raise ContractError(
                    f"representative {rep} of cluster {cluster} is assigned "
                    f"to cluster {self.assignment[rep]}"
                )

    @property
    def cluster_count(self) -> int:
        return len(self.representatives)

    @property
    def num_heads(self) -> int:
        return len(self.assignment)


@dataclass(frozen=True)
class ClusterPlan:
    """One LayerPlan per transformer layer."""

    layers: tuple[LayerPlan, ...]

    @classmethod
    def singleton(cls, num_layers: int, num_heads: int) -> "ClusterPlan":
        """Every head its own cluster: prunes nothing, reproduces plain attention."""
        layer = LayerPlan(
            assignment=tuple(range(num_heads)),
            representatives=tuple(range(num_heads)),
        )
        return cls(layers=(layer,) * num_layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def cluster_counts(self) -> list[int]:
        return [layer.cluster_count for layer in self.layers]

    def to_dict(self) -> dict:
        return {
            "layers": [
                {
                    "assignment": list(layer.assignment),
                    "representatives": list(layer.representatives),
                }
                for layer in self.layers
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterPlan":
        return cls(
            layers=tuple(
                LayerPlan(
                    assignment=tuple(entry["assignment"]),
                    representatives=tuple(entry["representatives"]),
                )
                for entry in data["layers"]
            )
        )


class HeadLayout:
    """The heads a plan epoch's KV cache stores and how its slots map to
    heads; the one place they are derived. It holds no weights.

    Per layer: `key_heads`, the representatives in ascending order (slot s
    stores key head key_heads[s]); `value_heads`, every head, or the key
    heads under value reuse (`reuse_values`, the CHAI-QKV variant);
    `cluster_of_slot`, the cluster whose key each slot holds, or None when
    slot s holds cluster s's (no reorder: every singleton layout); and
    `slot_of_head`, the slot whose probability row each head uses. A plan
    whose layer or head count differs from the model config's raises
    ContractError.
    """

    def __init__(self, config, plan: ClusterPlan, reuse_values: bool = False):
        if plan.num_layers != config.num_layers:
            raise ContractError(
                f"plan covers {plan.num_layers} layers, the model has {config.num_layers}"
            )
        self.plan = plan
        self.reuse_values = reuse_values
        self.key_heads, self.value_heads = [], []
        self.cluster_of_slot, self.slot_of_head = [], []
        for layer in plan.layers:
            if layer.num_heads != config.num_heads:
                raise ContractError(
                    f"plan has {layer.num_heads} heads, the model has {config.num_heads}"
                )
            key_heads = sorted(layer.representatives)
            cluster_of_slot = np.array([layer.assignment[h] for h in key_heads], dtype=np.intp)
            slot_of_cluster = np.empty(len(key_heads), dtype=np.intp)
            slot_of_cluster[cluster_of_slot] = np.arange(len(key_heads))
            self.key_heads.append(key_heads)
            self.value_heads.append(key_heads if reuse_values else list(range(config.num_heads)))
            identity = np.array_equal(cluster_of_slot, np.arange(len(key_heads)))
            self.cluster_of_slot.append(None if identity else cluster_of_slot)
            self.slot_of_head.append(slot_of_cluster[np.asarray(layer.assignment)])

    @classmethod
    def singleton(cls, config) -> "HeadLayout":
        """Every head its own slot: plain multi-head attention, nothing pruned."""
        return cls(config, ClusterPlan.singleton(config.num_layers, config.num_heads))
