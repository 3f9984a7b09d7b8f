"""Turn ranked channel scores into a structurally smaller network.

Planning is greedy: coupling groups are taken in ascending mean-score
order; a group whose removal would drop any layer below ``min_keep`` is
skipped, and the scan stops at the first group that would push the
removed-channel fraction past tau. Stopping (rather than hunting for
smaller groups further down the list) keeps plans nested: the plan for a
smaller tau is always a prefix of the plan for a larger one.

Surgery builds the smaller network from slices of the old tensors: every
tensor of a conv block loses its removed output channels, every conv
weight also loses the input channels its producer no longer emits, and
the first linear layer is re-indexed through the flatten map. Removing a
channel discards its shift term too, so surgery agrees with zeroing all
four of (W, b, gamma, beta); the shift's downstream constant is the
piece finetuning later absorbs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, write_json
from .netgraph import (
    BN_KINDS,
    CONV_KINDS,
    ChannelRef,
    Network,
    NetworkSpec,
    count_flops,
    from_arrays,
    group_lookup,
)
from .saliency import PruneConfig, SaliencyRecord, group_scores


@dataclass(frozen=True)
class PrunePlan:
    """The channels of each conv block that survive, and the settings
    that chose them. The pruned spec, the removed channels and both
    ratios are derived from ``kept_per_layer`` on first use."""

    base_spec: NetworkSpec
    kept_per_layer: dict[int, tuple[int, ...]]  # every conv-kind block
    shortfall: bool
    tau: float
    min_keep: int
    criterion: str
    lam: float

    @cached_property
    def spec(self) -> NetworkSpec:
        """The base spec with each conv block narrowed to its kept channels."""
        base = self.base_spec
        blocks = tuple(replace(b, channels=len(self.kept_per_layer[i]))
                       if b.kind in CONV_KINDS else b for i, b in enumerate(base.blocks))
        return replace(base, name=base.name + "-pruned", blocks=blocks)

    @cached_property
    def removed(self) -> tuple[ChannelRef, ...]:
        """Every conv channel not kept, in (layer, channel) order."""
        return tuple(ChannelRef(layer, c)
                     for layer, n in _conv_layers(self.base_spec).items()
                     for c in sorted(set(range(n)) - set(self.kept_per_layer[layer])))

    @cached_property
    def achieved_ratio(self) -> float:
        """Removed channels as a fraction of all prunable channels."""
        total = sum(len(g.members) for g in self.base_spec.groups)
        return len(self.removed) / total if total else 0.0

    @cached_property
    def flops_ratio(self) -> float:
        return count_flops(self.spec).ratio_vs(count_flops(self.base_spec))


def _conv_layers(spec: NetworkSpec) -> dict[int, int]:
    """block index -> channel count for all channel-bearing conv blocks."""
    return {i: b.channels for i, b in enumerate(spec.blocks) if b.kind in CONV_KINDS}


def plan_prune(net: Network, records: list[SaliencyRecord],
               cfg: PruneConfig) -> PrunePlan:
    """Greedy group selection under the channel budget tau."""
    groups = net.spec.groups
    if not groups:
        raise ConfigError("network has no prunable channels")
    mean_score = dict(zip(groups, group_scores(records, groups)))
    total = sum(len(g.members) for g in groups)
    scored = sorted(groups, key=lambda g: (mean_score[g], g.group_id))

    layer_channels = _conv_layers(net.spec)
    kept_count = dict(layer_channels)
    removed: set[ChannelRef] = set()
    stopped_at_budget = False
    for g in scored:
        per_layer = Counter(m.layer for m in g.members)
        if any(kept_count[layer] - n < cfg.min_keep for layer, n in per_layer.items()):
            continue  # this group is pinned; smaller ones may still fit
        if (len(removed) + len(g.members)) / total > cfg.tau:
            stopped_at_budget = True
            break
        removed.update(g.members)
        for layer, n in per_layer.items():
            kept_count[layer] -= n

    kept_per_layer = {
        layer: tuple(c for c in range(n) if ChannelRef(layer, c) not in removed)
        for layer, n in layer_channels.items()}
    return PrunePlan(
        base_spec=net.spec, kept_per_layer=kept_per_layer,
        shortfall=not stopped_at_budget and len(removed) / total < cfg.tau,
        tau=cfg.tau, min_keep=cfg.min_keep, criterion=cfg.criterion, lam=cfg.lam)


def apply_prune(net: Network, plan: PrunePlan) -> Network:
    """Build the smaller network from the surviving slices of every tensor."""
    if plan.base_spec != net.spec:
        raise ConfigError("plan was made for a different network spec")
    kept = {-1: tuple(range(net.spec.in_channels)), **plan.kept_per_layer}
    arrays: dict[str, np.ndarray] = {}
    for node in net.spec.nodes:
        i, b = node.index, node.block
        if b.kind == "residual_add" and kept[node.skip_src] != kept[node.src]:
            raise ConfigError(
                f"plan splits the residual stream joined at block {i}: "
                f"{list(kept[node.skip_src])} vs {list(kept[node.src])}")
        prev = net.spec.nodes[i - 1]
        for name, t in (net.params[i].tensors() if net.params[i] else {}).items():
            data = t.data
            if b.kind in CONV_KINDS:  # every tensor's axis 0 is the output channel
                data = data[list(kept[i])]
                if name == "weight":
                    data = data[:, list(kept[node.src])]
            elif name == "weight" and prev.block.kind == "flatten":
                h, w = prev.in_shape[1:]
                data = data[[ch * h * w + s for ch in kept[prev.src] for s in range(h * w)]]
            arrays[f"b{i}.{name}"] = np.array(data, order="C")
    return from_arrays(plan.spec, arrays)


def apply_mask(net: Network, plan: PrunePlan) -> Network:
    """The masking twin of apply_prune: a copy of the same shape whose
    removed channels get W = b = gamma = beta = 0, ``net`` left as it is.
    Useful as a surgery oracle."""
    if plan.base_spec != net.spec:
        raise ConfigError("plan was made for a different network spec")
    return net.zeroed(plan.removed, ("weight", "bias", "gamma", "beta"))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_plan(net: Network, plan: PrunePlan) -> ValidationReport:
    """Check every plan invariant; failures are reported, not raised."""
    if plan.base_spec != net.spec:
        return ValidationReport(False, ("plan base spec does not match the network",))
    layer_channels = _conv_layers(net.spec)
    if set(plan.kept_per_layer) != set(layer_channels):
        return ValidationReport(False, (
            f"kept lists for blocks {sorted(plan.kept_per_layer)}, "
            f"but the conv blocks are {sorted(layer_channels)}",))
    v: list[str] = []
    for layer, n in layer_channels.items():
        kept = plan.kept_per_layer[layer]
        if list(kept) != sorted(set(kept) & set(range(n))):
            v.append(f"layer {layer}: kept {list(kept)} is not an ordered "
                     f"subset of its {n} channels")
        if net.spec.blocks[layer].kind in BN_KINDS and len(kept) < min(plan.min_keep, n):
            v.append(f"layer {layer}: collapsed to {len(kept)} < min_keep {plan.min_keep}")
    removed_set = set(plan.removed)
    for g in net.spec.groups:
        hit = sum(1 for m in g.members if m in removed_set)
        if 0 < hit < len(g.members):
            v.append(f"group {g.group_id} split: {hit}/{len(g.members)} members removed")
    loose = removed_set - {m for g in net.spec.groups for m in g.members}
    if loose:
        v.append(f"removes channels outside every prunable group: {sorted(loose)}")
    if plan.achieved_ratio > plan.tau + 1e-12:
        v.append(f"achieved_ratio {plan.achieved_ratio} exceeds tau {plan.tau}")
    return ValidationReport(not v, tuple(v))


# ---------------------------------------------------------------------------
# plan JSON


def write_plan(plan: PrunePlan, path) -> None:
    group_of = group_lookup(plan.base_spec.groups)
    write_json(path, {
        "spec_name": plan.base_spec.name,
        "tau": plan.tau,
        "min_keep": plan.min_keep,
        "criterion": plan.criterion,
        "lambda": plan.lam,
        "removed": [{"layer": r.layer, "channel": r.channel,
                     "group": group_of.get(r, -1)} for r in plan.removed],
        "kept_per_layer": [list(plan.kept_per_layer[layer])
                           for layer in sorted(plan.kept_per_layer)],
        "achieved_ratio": plan.achieved_ratio,
        "flops_ratio": plan.flops_ratio,
        "shortfall": plan.shortfall,
    })

