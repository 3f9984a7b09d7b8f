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

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .netgraph import (
    BN_KINDS,
    CONV_KINDS,
    BlockSpec,
    ChannelRef,
    Network,
    NetworkSpec,
    count_flops,
    from_arrays,
    group_lookup,
)
from .saliency import PruneConfig, SaliencyRecord


@dataclass(frozen=True)
class PrunePlan:
    base_spec: NetworkSpec
    spec: NetworkSpec  # pruned
    removed: tuple[ChannelRef, ...]
    removed_groups: tuple[int, ...]
    kept_per_layer: dict[int, tuple[int, ...]]  # every conv-kind block
    achieved_ratio: float
    flops_ratio: float
    shortfall: bool
    tau: float
    min_keep: int
    criterion: str
    lam: float


def _conv_layers(spec: NetworkSpec) -> dict[int, int]:
    """block index -> channel count for all channel-bearing conv blocks."""
    return {i: b.channels for i, b in enumerate(spec.blocks) if b.kind in CONV_KINDS}


def plan_prune(net: Network, records: list[SaliencyRecord],
               cfg: PruneConfig) -> PrunePlan:
    """Greedy group selection under the channel budget tau."""
    groups = net.spec.groups
    if not groups:
        raise ConfigError("network has no prunable channels")
    by_ref = {r.ref: r for r in records}
    for g in groups:
        for ref in g.members:
            if ref not in by_ref:
                raise ConfigError(f"saliency records missing channel {ref}")

    total = sum(len(g.members) for g in groups)
    scored = sorted(
        groups,
        key=lambda g: (float(np.mean([by_ref[m].score for m in g.members])), g.group_id))

    layer_channels = _conv_layers(net.spec)
    kept_count = dict(layer_channels)
    removed: list[ChannelRef] = []
    removed_groups: list[int] = []
    stopped_at_budget = False
    for g in scored:
        per_layer: dict[int, int] = {}
        for m in g.members:
            per_layer[m.layer] = per_layer.get(m.layer, 0) + 1
        if any(kept_count[layer] - n < cfg.min_keep for layer, n in per_layer.items()):
            continue  # this group is pinned; smaller ones may still fit
        if (len(removed) + len(g.members)) / total > cfg.tau:
            stopped_at_budget = True
            break
        removed.extend(g.members)
        removed_groups.append(g.group_id)
        for layer, n in per_layer.items():
            kept_count[layer] -= n

    removed_set = set(removed)
    kept_per_layer = {
        layer: tuple(c for c in range(n) if ChannelRef(layer, c) not in removed_set)
        for layer, n in layer_channels.items()}
    achieved = len(removed) / total
    pruned_spec = _pruned_spec(net.spec, kept_per_layer)
    flops_ratio = count_flops(pruned_spec).ratio_vs(count_flops(net.spec))
    return PrunePlan(
        base_spec=net.spec, spec=pruned_spec,
        removed=tuple(sorted(removed)), removed_groups=tuple(sorted(removed_groups)),
        kept_per_layer=kept_per_layer,
        achieved_ratio=achieved, flops_ratio=flops_ratio,
        shortfall=not stopped_at_budget and achieved < cfg.tau,
        tau=cfg.tau, min_keep=cfg.min_keep, criterion=cfg.criterion, lam=cfg.lam)


def _pruned_spec(base: NetworkSpec, kept_per_layer: dict[int, tuple[int, ...]]) -> NetworkSpec:
    blocks = []
    for i, b in enumerate(base.blocks):
        if b.kind in CONV_KINDS:
            blocks.append(BlockSpec(b.kind, len(kept_per_layer[i]),
                                    b.kernel, b.stride, b.padding))
        else:
            blocks.append(b)
    return NetworkSpec(base.name + "-pruned", base.in_channels,
                       base.in_height, base.in_width, tuple(blocks))


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
    """The masking twin of apply_prune: same network shape, removed
    channels get W = b = gamma = beta = 0. Useful as a surgery oracle."""
    if plan.base_spec != net.spec:
        raise ConfigError("plan was made for a different network spec")
    masked = net.clone()
    for ref in plan.removed:
        p = masked.params[ref.layer]
        p.weight.data[ref.channel] = 0.0
        p.bias.data[ref.channel] = 0.0
        p.gamma.data[ref.channel] = 0.0
        p.beta.data[ref.channel] = 0.0
    return masked


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_plan(net: Network, plan: PrunePlan) -> ValidationReport:
    """Check every plan invariant; failures are reported, not raised."""
    v: list[str] = []
    if plan.base_spec != net.spec:
        v.append("plan base spec does not match the network")
        return ValidationReport(False, tuple(v))

    layer_channels = _conv_layers(net.spec)
    removed_by_layer: dict[int, set[int]] = {}
    for ref in plan.removed:
        removed_by_layer.setdefault(ref.layer, set()).add(ref.channel)

    bn_layers = {i for i, b in enumerate(net.spec.blocks) if b.kind in BN_KINDS}
    for layer, n in layer_channels.items():
        kept = set(plan.kept_per_layer.get(layer, ()))
        removed = removed_by_layer.get(layer, set())
        if kept & removed:
            v.append(f"layer {layer}: channels both kept and removed")
        if kept | removed != set(range(n)):
            v.append(f"layer {layer}: kept+removed do not partition {n} channels")
        if layer in bn_layers and len(kept) < plan.min_keep:
            v.append(f"layer {layer}: collapsed to {len(kept)} < min_keep {plan.min_keep}")

    removed_set = set(plan.removed)
    for g in net.spec.groups:
        hit = sum(1 for m in g.members if m in removed_set)
        if 0 < hit < len(g.members):
            v.append(f"group {g.group_id} split: {hit}/{len(g.members)} members removed")

    for i, b in enumerate(plan.spec.blocks):
        if b.kind in CONV_KINDS and b.channels != len(plan.kept_per_layer[i]):
            v.append(f"pruned spec block {i} width {b.channels} "
                     f"!= kept count {len(plan.kept_per_layer[i])}")

    total = sum(len(g.members) for g in net.spec.groups)
    if total and plan.achieved_ratio != len(plan.removed) / total:
        v.append("achieved_ratio does not equal removed/total")
    if plan.achieved_ratio > plan.tau + 1e-12:
        v.append(f"achieved_ratio {plan.achieved_ratio} exceeds tau {plan.tau}")
    want_flops = count_flops(plan.spec).ratio_vs(count_flops(net.spec))
    if abs(plan.flops_ratio - want_flops) > 1e-12:
        v.append("flops_ratio does not match a recount")
    return ValidationReport(not v, tuple(v))


# ---------------------------------------------------------------------------
# plan JSON


def write_plan(plan: PrunePlan, path) -> None:
    group_of = group_lookup(plan.base_spec.groups)
    doc = {
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
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_plan(path, base_spec: NetworkSpec) -> PrunePlan:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("spec_name") != base_spec.name:
        raise ConfigError(
            f"plan is for spec {doc.get('spec_name')!r}, not {base_spec.name!r}")
    layers = sorted(_conv_layers(base_spec))
    kept_lists = doc["kept_per_layer"]
    if len(kept_lists) != len(layers):
        raise ConfigError("plan kept_per_layer does not match the spec's conv layers")
    kept_per_layer = {layer: tuple(kept) for layer, kept in zip(layers, kept_lists)}
    removed = tuple(sorted(ChannelRef(r["layer"], r["channel"])
                           for r in doc["removed"]))
    groups = sorted({r["group"] for r in doc["removed"] if r["group"] >= 0})
    pruned_spec = _pruned_spec(base_spec, kept_per_layer)
    return PrunePlan(
        base_spec=base_spec, spec=pruned_spec, removed=removed,
        removed_groups=tuple(groups), kept_per_layer=kept_per_layer,
        achieved_ratio=doc["achieved_ratio"], flops_ratio=doc["flops_ratio"],
        shortfall=doc.get("shortfall", False), tau=doc["tau"],
        min_keep=doc["min_keep"], criterion=doc["criterion"], lam=doc["lambda"])
