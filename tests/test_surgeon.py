"""Tests for prune planning, weight surgery, masking, and plan files."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfbs.autograd import Tensor
from gfbs.errors import ConfigError
from gfbs.netgraph import (
    BN_KINDS,
    CONV_KINDS,
    ChannelRef,
    build_coupling_groups,
    build_network,
    forward_full,
    group_lookup,
    parse_spec,
)
from gfbs.saliency import PruneConfig, SaliencyRecord
from gfbs.surgeon import (
    PrunePlan,
    apply_mask,
    apply_prune,
    plan_prune,
    validate_plan,
    write_plan,
)

CHAIN = """\
name chain
input 1 8 8
conv_bn_relu 8 3 1 1
pool 0 2 2 0
conv_bn_relu 8 3 1 1
flatten
linear 3
"""

RESNETTY = """\
name resnetty
input 2 8 8
conv_bn_relu 8 3 1 1
residual_begin
conv_bn_relu 6 3 1 1
conv_bn 8 3 1 1
residual_add
flatten
linear 3
"""

NESTED = """\
name nested
input 2 8 8
conv_bn_relu 8 3 1 1
residual_begin
conv_bn_relu 6 3 1 1
conv_bn_relu 6 3 1 1
residual_begin
conv_bn_relu 4 3 1 1
conv_bn 6 3 1 1
residual_add
conv_bn 8 3 1 1
residual_add
flatten
linear 3
"""

NESTED_SHARED = """\
name nested_shared
input 2 8 8
conv_bn_relu 4 3 1 1
residual_begin
residual_begin
conv_bn_relu 4 3 1 1
conv_bn 4 3 1 1
residual_add
conv_bn 4 3 1 1
residual_add
flatten
linear 3
"""


def fabricate_records(spec, scores):
    """Records carrying given {(layer, channel): score} values."""
    lookup = group_lookup(build_coupling_groups(spec))
    recs = []
    for (layer, ch), s in sorted(scores.items()):
        r = SaliencyRecord(layer, ch, 1.0, 0.1, 0.0, 1.0, True,
                           lookup.get(ChannelRef(layer, ch), -1))
        r.score = s
        recs.append(r)
    for rank, r in enumerate(sorted(recs, key=lambda r: (r.score, r.layer, r.channel))):
        r.rank = rank
    return recs


def chain_records(spec, seed=0):
    rng = np.random.default_rng(seed)
    scores = {}
    for i, b in enumerate(spec.blocks):
        if b.kind in ("conv_bn_relu", "conv_bn"):
            for c in range(b.channels):
                scores[(i, c)] = float(rng.uniform(0, 1))
    return fabricate_records(spec, scores)


def randomized_net(spec_text, seed=0, dtype=np.float32):
    net = build_network(parse_spec(spec_text), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 33)
    for i in net.bn_blocks():
        p = net.params[i]
        p.gamma.data[:] = rng.uniform(0.5, 1.5, p.out_channels).astype(p.gamma.dtype)
        p.beta.data[:] = rng.normal(0, 0.2, p.out_channels).astype(p.beta.dtype)
        p.running_mean.data[:] = rng.normal(0, 0.1, p.out_channels).astype(p.beta.dtype)
        p.running_var.data[:] = rng.uniform(0.5, 2.0, p.out_channels).astype(p.beta.dtype)
    return net


class TestPlanning:
    def test_half_tau_takes_eight_lowest(self):
        spec = parse_spec(CHAIN)
        net = build_network(spec, seed=0)
        scores = {(0, c): c / 100 for c in range(8)}
        scores.update({(2, c): 0.5 + c / 100 for c in range(8)})
        recs = fabricate_records(spec, scores)
        plan = plan_prune(net, recs, PruneConfig(tau=0.5, min_keep=2))
        assert plan.achieved_ratio == 0.5
        assert set(plan.removed) == {ChannelRef(0, c) for c in range(6)} \
            | {ChannelRef(2, 0), ChannelRef(2, 1)}

    def test_min_keep_pins_a_layer(self):
        spec = parse_spec(CHAIN)
        net = build_network(spec, seed=0)
        scores = {(0, c): c / 100 for c in range(8)}          # all tiny
        scores.update({(2, c): 1 + c / 100 for c in range(8)})
        recs = fabricate_records(spec, scores)
        plan = plan_prune(net, recs, PruneConfig(tau=0.6, min_keep=8))
        assert plan.removed == ()
        assert plan.shortfall

    def test_min_keep_skip_continues_scan(self):
        spec = parse_spec(CHAIN)
        net = build_network(spec, seed=0)
        # layer 0 pinned after 4 removals; cheaper layer-2 channels follow
        scores = {(0, c): c / 100 for c in range(8)}
        scores.update({(2, c): 0.2 + c / 100 for c in range(8)})
        recs = fabricate_records(spec, scores)
        plan = plan_prune(net, recs, PruneConfig(tau=0.5, min_keep=4))
        removed_l0 = sum(1 for r in plan.removed if r.layer == 0)
        removed_l2 = sum(1 for r in plan.removed if r.layer == 2)
        assert removed_l0 == 4 and removed_l2 == 4
        assert plan.achieved_ratio == 0.5

    def test_monotone_nesting_over_tau(self):
        spec = parse_spec(CHAIN)
        net = build_network(spec, seed=0)
        for seed in range(5):
            recs = chain_records(spec, seed)
            prev: set = set()
            for tau in (0.2, 0.35, 0.5, 0.65, 0.8):
                plan = plan_prune(net, recs, PruneConfig(tau=tau, min_keep=2))
                cur = set(plan.removed)
                assert prev <= cur
                prev = cur

    def test_achieved_never_exceeds_tau(self):
        spec = parse_spec(RESNETTY)
        net = build_network(spec, seed=1)
        for seed in range(4):
            recs = chain_records(spec, seed)
            for tau in (0.25, 0.5, 0.7):
                plan = plan_prune(net, recs, PruneConfig(tau=tau, min_keep=2))
                assert plan.achieved_ratio <= tau

    def test_groups_removed_atomically(self):
        spec = parse_spec(RESNETTY)
        net = build_network(spec, seed=1)
        recs = chain_records(spec, 7)
        plan = plan_prune(net, recs, PruneConfig(tau=0.5, min_keep=2))
        removed = set(plan.removed)
        for g in build_coupling_groups(spec):
            hit = sum(1 for m in g.members if m in removed)
            assert hit in (0, len(g.members))

    def test_missing_record_rejected(self):
        spec = parse_spec(CHAIN)
        net = build_network(spec, seed=0)
        recs = chain_records(spec)[:-1]
        with pytest.raises(ConfigError, match=r"channel ChannelRef\(layer=2, channel=7\)"):
            plan_prune(net, recs, PruneConfig())


@st.composite
def conv_specs(draw):
    """Spec text of a small conv net: a run of conv blocks of any kind,
    half the time with residual blocks among them."""
    kinds = ["conv_bn_relu", "conv_bn", "conv"]
    c = draw(st.integers(1, 6))
    lines = ["input 2 4 4", f"{draw(st.sampled_from(kinds))} {c} 3 1 1"]
    segments = kinds + ["residual"] * 3 if draw(st.booleans()) else kinds
    for seg in draw(st.lists(st.sampled_from(segments), max_size=4)):
        if seg == "residual":  # the stream keeps its width across the add
            lines += ["residual_begin", f"conv_bn_relu {draw(st.integers(1, 6))} 3 1 1",
                      f"{draw(st.sampled_from(['conv_bn', 'conv_bn_relu']))} {c} 3 1 1",
                      "residual_add"]
        else:
            c = draw(st.integers(1, 6))
            lines.append(f"{seg} {c} 3 1 1")
    return "\n".join(lines + ["flatten", "linear 3"]) + "\n"


class TestPlanInvariants:
    """``plan_prune`` meets every plan invariant by construction; each is
    checked here on its own, not through ``validate_plan``."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_plan_meets_the_invariants(self, data):
        spec = parse_spec(data.draw(conv_specs()))
        assume(spec.groups)
        bn = [(i, c) for i, b in enumerate(spec.blocks) if b.kind in BN_KINDS
              for c in range(b.channels)]
        scores = data.draw(st.lists(st.floats(0, 1), min_size=len(bn), max_size=len(bn)))
        cfg = PruneConfig(tau=data.draw(st.floats(0.01, 0.99)),
                          min_keep=data.draw(st.integers(1, 6)))
        plan = plan_prune(build_network(spec), fabricate_records(spec, dict(zip(bn, scores))),
                          cfg)

        conv = {i: b.channels for i, b in enumerate(spec.blocks) if b.kind in CONV_KINDS}
        assert set(plan.kept_per_layer) == set(conv)
        removed = set()
        for layer, n in conv.items():
            kept = plan.kept_per_layer[layer]
            assert list(kept) == sorted(set(kept)) and set(kept) <= set(range(n))
            if len(kept) < n:  # a layer that lost channels is a norm layer above the floor
                assert spec.blocks[layer].kind in BN_KINDS and len(kept) >= cfg.min_keep
            removed |= {(layer, c) for c in range(n) if c not in kept}
        groups = [{(m.layer, m.channel) for m in g.members} for g in spec.groups]
        for g in groups:
            assert g <= removed or not g & removed
        assert removed <= set().union(*groups)
        assert len(removed) / sum(map(len, groups)) <= cfg.tau
        assert plan.achieved_ratio <= cfg.tau


class TestSurgery:
    def test_empty_plan_forward_identical(self):
        net = randomized_net(CHAIN, seed=3)
        recs = chain_records(net.spec, 1)
        plan = plan_prune(net, recs, PruneConfig(tau=0.5, min_keep=8))
        assert plan.removed == ()
        pruned = apply_prune(net, plan)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 1, 8, 8)).astype(np.float32))
        a = forward_full(net, x, "eval").data
        b = forward_full(pruned, x, "eval").data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_surgery_equals_masking_plain_chain(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            net = randomized_net(CHAIN, seed=seed)
            recs = chain_records(net.spec, seed + 10)
            tau = float(rng.uniform(0.2, 0.8))
            plan = plan_prune(net, recs, PruneConfig(tau=tau, min_keep=2))
            pruned = apply_prune(net, plan)
            masked = apply_mask(net, plan)
            x = Tensor(rng.standard_normal((4, 1, 8, 8)).astype(np.float32))
            a = forward_full(pruned, x, "eval").data
            b = forward_full(masked, x, "eval").data
            np.testing.assert_allclose(a, b, atol=1e-5)

    def test_surgery_equals_masking_residual(self):
        net = randomized_net(RESNETTY, seed=2)
        recs = chain_records(net.spec, 4)
        plan = plan_prune(net, recs, PruneConfig(tau=0.5, min_keep=2))
        pruned = apply_prune(net, plan)
        masked = apply_mask(net, plan)
        x = Tensor(np.random.default_rng(1).standard_normal((4, 2, 8, 8)).astype(np.float32))
        a = forward_full(pruned, x, "eval").data
        b = forward_full(masked, x, "eval").data
        np.testing.assert_allclose(a, b, atol=1e-5)

    @pytest.mark.parametrize("text", [NESTED, NESTED_SHARED])
    def test_surgery_equals_masking_nested_residual(self, text):
        rng = np.random.default_rng(8)
        for seed in range(4):
            net = randomized_net(text, seed=seed)
            recs = chain_records(net.spec, seed + 20)
            plan = plan_prune(net, recs, PruneConfig(tau=float(rng.uniform(0.2, 0.8)),
                                                     min_keep=1))
            assert plan.removed
            assert validate_plan(net, plan).ok
            x = Tensor(rng.standard_normal((4, 2, 8, 8)).astype(np.float32))
            a = forward_full(apply_prune(net, plan), x, "eval").data
            b = forward_full(apply_mask(net, plan), x, "eval").data
            np.testing.assert_allclose(a, b, atol=1e-5)

    def test_linear_rows_follow_flatten_map(self):
        spec = parse_spec("input 1 4 4\nconv_bn_relu 3 3 1 1\npool 0 2 2 0\nflatten\nlinear 2\n")
        net = build_network(spec, seed=0)
        head = net.params[3]
        head.weight.data[:] = np.arange(head.weight.size,
                                        dtype=np.float32).reshape(head.weight.shape)
        recs = fabricate_records(spec, {(0, 0): 0.0, (0, 1): 1.0, (0, 2): 2.0})
        plan = plan_prune(net, recs, PruneConfig(tau=0.4, min_keep=1))
        assert plan.removed == (ChannelRef(0, 0),)
        pruned = apply_prune(net, plan)
        # channel 0 of 3 dropped before a 2x2 spatial map: rows 4..11 survive
        np.testing.assert_array_equal(pruned.params[3].weight.data,
                                      head.weight.data[4:12])

    def test_parameter_count_matches_analytic(self):
        net = randomized_net(CHAIN, seed=1)
        recs = chain_records(net.spec, 2)
        plan = plan_prune(net, recs, PruneConfig(tau=0.5, min_keep=2))
        pruned = apply_prune(net, plan)
        k0 = len(plan.kept_per_layer[0])
        k2 = len(plan.kept_per_layer[2])
        want = (k0 * 1 * 9 + k0 * 5) + (k2 * k0 * 9 + k2 * 5) + (k2 * 16 * 3 + 3)
        # ParamSet persists 6 per-channel vectors but only 4 are learnable
        learnable = (k0 * 1 * 9 + k0 * 3) + (k2 * k0 * 9 + k2 * 3) + (k2 * 16 * 3 + 3)
        assert sum(t.size for t in pruned.parameters()) == learnable

    def test_plan_for_other_spec_rejected(self):
        net = randomized_net(CHAIN, seed=1)
        other = randomized_net(RESNETTY, seed=1)
        recs = chain_records(net.spec, 2)
        plan = plan_prune(net, recs, PruneConfig(tau=0.3, min_keep=2))
        with pytest.raises(ConfigError):
            apply_prune(other, plan)

    def test_pruned_checkpoint_round_trip(self, tmp_path):
        from gfbs.netgraph import load_checkpoint, save_checkpoint
        net = randomized_net(CHAIN, seed=6)
        plan = plan_prune(net, chain_records(net.spec, 3), PruneConfig(tau=0.5, min_keep=2))
        pruned = apply_prune(net, plan)
        p = tmp_path / "pruned.ckpt"
        save_checkpoint(pruned, p)
        loaded = load_checkpoint(p)
        assert loaded.spec == pruned.spec
        x = Tensor(np.random.default_rng(2).standard_normal((2, 1, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(forward_full(pruned, x, "eval").data,
                                      forward_full(loaded, x, "eval").data)


class TestValidation:
    def make_plan(self):
        net = randomized_net(CHAIN, seed=0)
        return net, plan_prune(net, chain_records(net.spec, 1),
                               PruneConfig(tau=0.5, min_keep=2))

    def test_valid_plan_passes(self):
        net, plan = self.make_plan()
        report = validate_plan(net, plan)
        assert report.ok and report.violations == ()

    def test_layer_collapse_detected(self):
        net, plan = self.make_plan()
        bad = dataclasses.replace(plan, kept_per_layer={**plan.kept_per_layer, 0: ()})
        report = validate_plan(net, bad)
        assert not report.ok
        assert any("collapsed" in msg for msg in report.violations)

    def test_layer_below_min_keep_counts_only_when_it_lost_channels(self):
        net = randomized_net(CHAIN.replace("conv_bn_relu 8 3 1 1\npool",
                                           "conv_bn_relu 2 3 1 1\npool"))
        plan = plan_prune(net, chain_records(net.spec, 1), PruneConfig(tau=0.5, min_keep=4))
        assert plan.kept_per_layer[0] == (0, 1) and plan.removed
        assert validate_plan(net, plan).ok
        bad = dataclasses.replace(plan, kept_per_layer={**plan.kept_per_layer, 0: (1,)})
        assert validate_plan(net, bad).violations == ("layer 0: collapsed to 1 < min_keep 4",)

    def test_split_group_detected(self):
        spec = parse_spec(RESNETTY)
        net = randomized_net(RESNETTY, seed=0)
        groups = build_coupling_groups(spec)
        paired = next(g for g in groups if len(g.members) == 2)
        lone = paired.members[0]
        # drop one member of a coupled pair and keep its partner: every
        # kept list is well formed, but the group is split
        kept = {i: tuple(c for c in range(b.channels) if ChannelRef(i, c) != lone)
                for i, b in enumerate(spec.blocks)
                if b.kind in ("conv_bn_relu", "conv_bn", "conv")}
        bad = PrunePlan(base_spec=spec, kept_per_layer=kept, shortfall=False,
                        tau=0.5, min_keep=2, criterion="gfbs", lam=0.05)
        report = validate_plan(net, bad)
        assert any("split" in msg for msg in report.violations)

    def test_unprunable_channel_removal_detected(self):
        # a plain conv has no norm scale and sits in no group
        spec = parse_spec("name t\ninput 1 8 8\nconv 4 3 1 1\n"
                          "conv_bn_relu 6 3 1 1\nflatten\nlinear 3\n")
        bad = PrunePlan(base_spec=spec, kept_per_layer={0: (0, 1, 2), 1: tuple(range(6))},
                        shortfall=False, tau=0.5, min_keep=2, criterion="gfbs", lam=0.05)
        report = validate_plan(build_network(spec, seed=0), bad)
        assert any("outside every prunable group" in msg for msg in report.violations)

    @pytest.mark.parametrize("kept, match", [
        ((0, 1, 8), "not an ordered subset"),   # channel 8 of 8 is out of range
        ((0, 1, 1, 2), "not an ordered subset"),  # a repeated channel
        ((2, 1, 3), "not an ordered subset"),   # out of order
        (None, "kept lists for blocks"),        # the layer has no kept list
    ])
    def test_malformed_kept_list_reported(self, kept, match):
        net, plan = self.make_plan()
        kept_per_layer = {**plan.kept_per_layer, 0: kept}
        if kept is None:
            del kept_per_layer[0]
        report = validate_plan(net, dataclasses.replace(plan, kept_per_layer=kept_per_layer))
        assert not report.ok
        assert any(match in msg for msg in report.violations)


class TestPlanFile:
    def test_key_order_stable(self, tmp_path):
        net = randomized_net(CHAIN, seed=4)
        plan = plan_prune(net, chain_records(net.spec, 5), PruneConfig(tau=0.5, min_keep=2))
        p = tmp_path / "plan.json"
        write_plan(plan, p)
        text = p.read_text()
        order = [text.index(f'"{k}"') for k in
                 ("spec_name", "tau", "min_keep", "criterion", "lambda",
                  "removed", "kept_per_layer", "achieved_ratio", "flops_ratio")]
        assert order == sorted(order)

    def test_golden_bytes(self, tmp_path):
        # one of two channels kept: 418 of 834 FLOPs, a ratio written with all
        # sixteen digits of its repr; lambda 1.0 keeps its ".0"
        spec = parse_spec("name tiny\ninput 1 4 4\nconv_bn_relu 2 3 1 1\nflatten\nlinear 2\n")
        plan = PrunePlan(base_spec=spec, kept_per_layer={0: (1,)}, shortfall=False, tau=0.5,
                         min_keep=1, criterion="gfbs", lam=1.0)
        p = tmp_path / "plan.json"
        write_plan(plan, p)
        assert p.read_bytes() == b"""{
  "spec_name": "tiny",
  "tau": 0.5,
  "min_keep": 1,
  "criterion": "gfbs",
  "lambda": 1.0,
  "removed": [
    {
      "layer": 0,
      "channel": 0,
      "group": 0
    }
  ],
  "kept_per_layer": [
    [
      1
    ]
  ],
  "achieved_ratio": 0.5,
  "flops_ratio": 0.5011990407673861,
  "shortfall": false
}
"""
