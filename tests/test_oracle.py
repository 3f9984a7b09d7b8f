"""Tests for oracle loss probes and rank stats."""

import csv

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from gfbs import netgraph, oracle
from gfbs.autograd import Tensor, loss as loss_op
from gfbs.errors import ConfigError, NumericError
from gfbs.netgraph import ChannelRef, build_coupling_groups, build_network, forward_full, parse_spec
from gfbs.oracle import (
    OracleRecord,
    bottom_fraction_overlap,
    oracle_delta_loss,
    spearman,
    spot_check_zero_equivalence,
    write_oracle_csv,
)

from helpers import WALKER_SPECS, walker_net, walker_probe

TWO_BLOCK = """\
input 1 8 8
conv_bn_relu 4 3 1 1
pool 0 2 2 0
conv_bn_relu 6 3 1 1
flatten
linear 3
"""


def make_net(seed=0, dtype=np.float64):
    net = build_network(parse_spec(TWO_BLOCK), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 50)
    for i in net.bn_blocks():
        p = net.params[i]
        p.gamma.data[:] = rng.uniform(0.3, 1.5, p.out_channels)
        p.beta.data[:] = rng.normal(0.0, 0.3, p.out_channels)
    return net


def probe_batch(net, n=8, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n,) + net.spec.input_shape)
    y = rng.integers(0, 3, n)
    return x, y


class TestOracle:
    def test_record_per_group(self):
        net = make_net()
        x, y = probe_batch(net)
        recs = oracle_delta_loss(net, x, y, "cross_entropy")
        groups = build_coupling_groups(net.spec)
        assert len(recs) == len(groups) == 10
        assert sorted(r.rank for r in recs) == list(range(10))
        assert all(r.delta_loss >= 0 for r in recs)

    def test_network_restored_bitwise(self):
        net = make_net()
        before = {k: v.data.copy() for k, v in net.named_tensors().items()}
        x, y = probe_batch(net)
        oracle_delta_loss(net, x, y, "cross_entropy")
        for k, v in net.named_tensors().items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_deterministic(self):
        net = make_net()
        x, y = probe_batch(net)
        a = oracle_delta_loss(net, x, y, "cross_entropy")
        b = oracle_delta_loss(net, x, y, "cross_entropy")
        assert [(r.group, r.delta_loss, r.rank) for r in a] \
            == [(r.group, r.delta_loss, r.rank) for r in b]

    def test_dead_channel_zero_delta(self):
        net = make_net()
        # kill channel 1 of the first block: zero filter, negative shift
        net.params[0].weight.data[1] = 0.0
        net.params[0].bias.data[1] = 0.0
        net.params[0].beta.data[1] = -0.3
        x, y = probe_batch(net)
        recs = oracle_delta_loss(net, x, y, "cross_entropy")
        dead = [r for r in recs if r.members[0] == ChannelRef(0, 1)][0]
        assert dead.delta_loss == 0.0

    def test_gamma_zero_equals_filter_zero(self):
        net = make_net()
        x, y = probe_batch(net)
        refs = [ChannelRef(0, 0), ChannelRef(0, 3), ChannelRef(2, 2),
                ChannelRef(2, 5), ChannelRef(2, 0)]
        worst = spot_check_zero_equivalence(net, x, y, "cross_entropy", refs)
        assert worst <= 1e-6

    @pytest.mark.parametrize("fail_at", [1, 2], ids=["gamma_edit", "filter_edit"])
    def test_error_mid_spot_check_restores_net(self, monkeypatch, fail_at):
        net = make_net()
        before = {k: v.data.copy() for k, v in net.named_tensors().items()}
        x, y = probe_batch(net)
        probe, calls = oracle._batch_loss, []

        def failing_probe(*args):
            calls.append(args)
            if len(calls) == fail_at:
                raise NumericError("probe failed")
            return probe(*args)

        monkeypatch.setattr(oracle, "_batch_loss", failing_probe)
        with pytest.raises(NumericError, match="probe failed"):
            spot_check_zero_equivalence(net, x, y, "cross_entropy", [ChannelRef(2, 2)])
        for k, v in net.named_tensors().items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_residual_group_zeroed_atomically(self):
        spec = parse_spec(
            "input 2 8 8\nconv_bn_relu 4 3 1 1\nresidual_begin\n"
            "conv_bn_relu 4 3 1 1\nconv_bn 4 3 1 1\nresidual_add\n"
            "flatten\nlinear 3\n")
        net = build_network(spec, seed=2, dtype=np.float64)
        rng = np.random.default_rng(9)
        for i in net.bn_blocks():
            p = net.params[i]
            p.gamma.data[:] = rng.uniform(0.5, 1.5, p.out_channels)
        x = rng.standard_normal((4, 2, 8, 8))
        y = rng.integers(0, 3, 4)
        recs = oracle_delta_loss(net, x, y, "cross_entropy")
        sizes = sorted(len(r.members) for r in recs)
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2]


TINYDNCNN = ("input 1 12 12\nresidual_begin\n" + "conv_bn_relu 32 3 1 1\n" * 7
             + "conv 1 3 1 1\nresidual_add\n")


def naive_oracle(net, x, y, kind):
    """(group, delta, rank) of each group: zero its gammas, run the whole
    net from the input, take the loss, restore."""
    def probe_loss():
        out = forward_full(net, Tensor(x, dtype=net.dtype), "train", update_stats=False)
        return loss_op(out, y, kind).item()

    base = probe_loss()
    deltas = []
    for g in net.spec.groups:
        gammas = [net.params[m.layer].gamma.data for m in g.members]
        saved = [gm[m.channel] for gm, m in zip(gammas, g.members)]
        for gm, m in zip(gammas, g.members):
            gm[m.channel] = 0.0
        deltas.append(abs(probe_loss() - base))
        for gm, m, v in zip(gammas, g.members, saved):
            gm[m.channel] = v
    order = sorted(range(len(deltas)), key=lambda i: (deltas[i], i))
    ranks = {i: r for r, i in enumerate(order)}
    return [(g.group_id, deltas[i], ranks[i]) for i, g in enumerate(net.spec.groups)]


CONV2D = netgraph.conv2d


def counting_conv2d(monkeypatch, fail_at=None):
    """Count the walker's conv2d calls; raise at call ``fail_at``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise NumericError("conv failed")
        return CONV2D(*args, **kwargs)

    monkeypatch.setattr(netgraph, "conv2d", counted)
    return calls


class TestResumedProbes:
    """Each probe resumes at its group's first block; the results are those
    of a full forward pass per group, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("name", sorted(WALKER_SPECS))
    def test_equals_a_full_pass_per_group(self, name, dtype):
        net = walker_net(name, dtype)
        x, y, kind = walker_probe(net, name)
        got = [(r.group, r.delta_loss, r.rank) for r in oracle_delta_loss(net, x, y, kind)]
        assert got == naive_oracle(net, x, y, kind)
        assert len(set(d for _, d, _ in got)) > len(got) // 2  # the deltas tell groups apart

    def test_multi_member_groups_start_at_the_stem(self):
        net = walker_net("res")
        stem = [g for g in net.spec.groups if len(g.members) == 3]
        assert len(stem) == 4 and all(g.members[0].layer == 0 for g in stem)

    def test_conv_calls_on_tinydncnn(self, monkeypatch):
        # one full pass of 8 convs, then each of the 7 x 32 groups runs only
        # the convs after its own block: 8 + 32 * (7 + 6 + ... + 1) = 904,
        # where a full pass per group made 8 * 225 = 1800
        net = build_network(parse_spec(TINYDNCNN), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 1, 12, 12))
        calls = counting_conv2d(monkeypatch)
        recs = oracle_delta_loss(net, x, x, "mse")
        assert len(recs) == 224
        assert len(calls) == 904

    @pytest.mark.parametrize("fail_at", [1, 4, 5, 23, 40],
                             ids=["first_pass", "last_of_first_pass", "first_probe",
                                  "mid_sweep", "last_probe"])
    def test_failure_mid_sweep_restores_net(self, monkeypatch, fail_at):
        net = walker_net("dncnn")
        before = {k: v.data.copy() for k, v in net.named_tensors().items()}
        x, y, kind = walker_probe(net, "dncnn")
        calls = counting_conv2d(monkeypatch)
        oracle_delta_loss(net, x, y, kind)
        assert len(calls) == 40  # 4 + 6 * (3 + 2 + 1)
        counting_conv2d(monkeypatch, fail_at)
        with pytest.raises(NumericError, match="conv failed"):
            oracle_delta_loss(net, x, y, kind)
        for k, v in net.named_tensors().items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_wrong_batch_shape_is_config_error(self):
        net = walker_net("chain")
        with pytest.raises(ConfigError, match="does not match input"):
            oracle_delta_loss(net, np.zeros((4, 1, 8, 8)), np.zeros(4, int), "cross_entropy")


class TestSpearman:
    def test_identical_is_one(self):
        assert spearman([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_pinned_example(self):
        # hand value: 1 - 6*(0+0+1+1)/(4*15) = 1 - 12/60 = 0.8
        assert spearman([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8)

    def test_ties_use_average_ranks(self):
        a = [1.0, 1.0, 2.0, 3.0]
        b = [0.5, 0.7, 0.9, 1.1]
        want = scipy.stats.spearmanr(a, b).statistic
        assert spearman(a, b) == pytest.approx(want, abs=1e-12)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_scipy(self, a, seed):
        b = np.random.default_rng(seed).permutation(len(a)) * 1.0
        if len(set(a)) < 2:
            with pytest.raises(ConfigError):
                spearman(a, b)
            return
        want = scipy.stats.spearmanr(a, b).statistic
        got = spearman(a, b)
        assert got == pytest.approx(want, abs=1e-9)
        assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ConfigError):
            spearman([1.0], [2.0])

    def test_constant_rejected(self):
        with pytest.raises(ConfigError):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])


class TestOverlap:
    def test_identical_scores_full_overlap(self):
        s = list(range(10))
        overlap, k, expect = bottom_fraction_overlap(s, s, 0.2)
        assert (overlap, k) == (2, 2)
        assert expect == pytest.approx(0.4)

    def test_disjoint_bottoms(self):
        a = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        b = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
        overlap, k, _ = bottom_fraction_overlap(a, b, 0.2)
        assert overlap == 0 and k == 2

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            bottom_fraction_overlap([1, 2], [1, 2], 1.5)


class TestOracleCsv:
    def test_group_rows_expand_per_member(self, tmp_path):
        recs = [OracleRecord(group=0, members=(ChannelRef(0, 1), ChannelRef(2, 1)),
                             delta_loss=0.25, rank=0),
                OracleRecord(group=1, members=(ChannelRef(0, 0),), delta_loss=-0.5, rank=1)]
        p = tmp_path / "g.csv"
        write_oracle_csv(recs, p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["layer", "channel", "group", "delta_loss", "rank"],
                        ["0", "0", "1", "-0.5", "1"],
                        ["0", "1", "0", "0.25", "0"],
                        ["2", "1", "0", "0.25", "0"]]

    def test_golden_bytes(self, tmp_path):
        recs = [OracleRecord(group=1, members=(ChannelRef(2, 0), ChannelRef(0, 1)),
                             delta_loss=1 / 7, rank=1),
                OracleRecord(group=0, members=(ChannelRef(0, 0),), delta_loss=3.0, rank=0)]
        p = tmp_path / "g.csv"
        write_oracle_csv(recs, p)
        assert p.read_bytes() == (b"layer,channel,group,delta_loss,rank\n"
                                  b"0,0,0,3,0\n"
                                  b"0,1,1,0.142857143,1\n"
                                  b"2,0,1,0.142857143,1\n")
