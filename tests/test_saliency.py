"""Tests for probe capture, layer normalization, and channel scoring."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfbs.autograd import Tensor, loss as loss_op
from gfbs.errors import ConfigError, FormatError
from gfbs.netgraph import build_network, forward_full, parse_spec
from gfbs.oracle import spearman
from gfbs.saliency import (
    CRITERIA,
    CSV_HEADER,
    PruneConfig,
    SaliencyRecord,
    capture,
    group_scores,
    normalize_layerwise,
    read_saliency_csv,
    saliency_records,
    score,
    write_saliency_csv,
)

TWO_BLOCK = """\
input 1 8 8
conv_bn_relu 4 3 1 1
pool 0 2 2 0
conv_bn_relu 6 3 1 1
flatten
linear 3
"""


SKIP_BLOCK = """\
input 1 8 8
conv_bn_relu 4 3 1 1
residual_begin
conv_bn_relu 4 3 1 1
conv_bn 4 3 1 1
residual_add
pool 0 2 2 0
flatten
linear 3
"""


def trained_ish_net(seed=0, dtype=np.float64, text=TWO_BLOCK):
    """A net with non-default norm parameters so captures are informative."""
    net = build_network(parse_spec(text), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
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


class TestPruneConfig:
    def test_defaults(self):
        cfg = PruneConfig()
        assert cfg.lam == 0.05 and cfg.tau == 0.5 and cfg.criterion == "gfbs"
        assert cfg.batch_size == 64 and cfg.min_keep == 4

    @pytest.mark.parametrize("kw", [
        {"lam": -0.1}, {"tau": 0.0}, {"tau": 1.0},
        {"criterion": "magnitude"}, {"min_keep": 0},
        {"lam": math.nan}, {"lam": math.inf},
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ConfigError):
            PruneConfig(**kw)

    def test_frozen(self):
        cfg = PruneConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.criterion = "magnitude"


class TestCapture:
    def test_grad_gamma_matches_finite_differences(self):
        net = trained_ish_net()
        x, y = probe_batch(net)
        recs = capture(net, x, y, "cross_entropy")

        def loss_at(layer, j, value):
            g = net.params[layer].gamma
            saved = g.data[j].copy()
            g.data[j] = value
            out = forward_full(net, Tensor(x, dtype=np.float64), "train",
                               update_stats=False)
            val = loss_op(out, y, "cross_entropy").item()
            g.data[j] = saved
            return val

        h = 1e-5
        for r in [recs[0], recs[3], recs[5], recs[-1]]:
            fd = (loss_at(r.layer, r.channel, r.gamma + h)
                  - loss_at(r.layer, r.channel, r.gamma - h)) / (2 * h)
            denom = abs(fd) + abs(r.grad_gamma) + 1e-12
            assert abs(fd - r.grad_gamma) / denom < 1e-5

    def test_network_untouched(self):
        net = trained_ish_net()
        before = {k: v.data.copy() for k, v in net.named_tensors().items()}
        x, y = probe_batch(net)
        capture(net, x, y, "cross_entropy")
        for k, v in net.named_tensors().items():
            np.testing.assert_array_equal(v.data, before[k])
        assert all(t.grad is None for t in net.parameters())

    def test_repeat_capture_identical(self):
        net = trained_ish_net()
        x, y = probe_batch(net)
        a = capture(net, x, y, "cross_entropy")
        b = capture(net, x, y, "cross_entropy")
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_constant_loss_gives_zero_grads(self):
        net = trained_ish_net()
        head = net.params[4]
        head.weight.data[:] = 0.0
        head.bias.data[:] = 0.0
        x, y = probe_batch(net)
        recs = capture(net, x, y, "cross_entropy")
        assert all(r.grad_gamma == 0.0 for r in recs)

    def test_zeroed_consumer_forces_zero_grad_gamma(self):
        # silence the gradient into channel 2 of the first block by zeroing
        # every weight of the second conv that reads it
        net = trained_ish_net()
        net.params[2].weight.data[:, 2, :, :] = 0.0
        x, y = probe_batch(net)
        recs = capture(net, x, y, "cross_entropy")
        target = [r for r in recs if r.layer == 0 and r.channel == 2][0]
        assert target.grad_gamma == 0.0

    def test_untrained_warning(self):
        net = build_network(parse_spec(TWO_BLOCK), seed=0)
        x, y = probe_batch(net)
        with pytest.warns(UserWarning, match="factory-default"):
            capture(net, x.astype(np.float32), y, "cross_entropy")

    def test_record_metadata(self):
        net = trained_ish_net()
        x, y = probe_batch(net)
        recs = capture(net, x, y, "cross_entropy")
        assert len(recs) == 10
        assert {r.layer for r in recs} == {0, 2}
        assert all(r.has_relu for r in recs)
        assert sorted(r.group for r in recs) == list(range(10))


class TestNormalize:
    def make(self, gammas, layer=0):
        return [SaliencyRecord(layer, j, g, 0.1 * g, -0.2 * g, abs(g), True, j)
                for j, g in enumerate(gammas)]

    def test_three_four_five(self):
        recs = normalize_layerwise(self.make([3.0, 4.0]))
        assert [r.gamma_n for r in recs] == pytest.approx([0.6, 0.8])

    def test_all_zero_guarded(self):
        recs = [SaliencyRecord(0, j, 1.0, 0.5, 0.0, 1.0, True, j) for j in range(3)]
        recs = normalize_layerwise(recs)
        assert all(r.beta_n == 0.0 for r in recs)
        assert not any(np.isnan(r.beta_n) for r in recs)

    def test_layers_normalized_independently(self):
        recs = self.make([3.0, 4.0], layer=0) + self.make([30.0, 40.0], layer=1)
        recs = normalize_layerwise(recs)
        assert [r.gamma_n for r in recs] == pytest.approx([0.6, 0.8, 0.6, 0.8])

    @given(st.lists(st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
                    min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_or_zero(self, gammas):
        recs = normalize_layerwise(self.make(gammas))
        vec = np.array([r.gamma_n for r in recs])
        norm = np.linalg.norm(vec)
        if any(g != 0 for g in gammas):
            assert norm == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(vec)) <= 1.0 + 1e-12
        else:
            assert norm == 0.0
        # the same draws, from subnormal to 1e300, through scoring and ranking
        for criterion in CRITERIA:
            scores = [r.score for r in score(recs, PruneConfig(lam=0.5, criterion=criterion))]
            assert all(math.isfinite(s) for s in scores)
            if len(set(gammas)) > 1 and len(set(scores)) > 1:
                assert -1.0 <= spearman(gammas, scores) <= 1.0

    def test_tiny_layers_reach_unit_norm(self):
        # the squared norm of either vector underflows in float64
        rec = SaliencyRecord(0, 0, 2.88e-159, 1e-200, 0.0, 1.0, True, 0)
        normalize_layerwise([rec])
        assert rec.gamma_n == 1.0
        assert rec.grad_gamma_n == 1.0

    def test_scale_invariance_of_gamma_n(self):
        base = normalize_layerwise(self.make([0.3, -1.2, 0.8]))
        scaled = normalize_layerwise(self.make([3.0, -12.0, 8.0]))
        for a, b in zip(base, scaled):
            assert a.gamma_n == pytest.approx(b.gamma_n, abs=1e-12)


class TestScore:
    def rec(self, gn, ggn, bn, has_relu=True, layer=0, channel=0):
        r = SaliencyRecord(layer, channel, 0, 0, 0, 0, has_relu, 0)
        r.gamma_n, r.grad_gamma_n, r.beta_n = gn, ggn, bn
        return r

    def test_pinned_arithmetic_example(self):
        r = self.rec(-0.4, 0.5, -0.2)
        score([r], PruneConfig(lam=0.05))
        assert r.score == pytest.approx(0.19, abs=1e-12)

    def test_beta_term_dropped_without_relu(self):
        with_relu = self.rec(-0.4, 0.5, -0.2, has_relu=True)
        without = self.rec(-0.4, 0.5, -0.2, has_relu=False)
        score([with_relu, without], PruneConfig(lam=0.05))
        assert with_relu.score == pytest.approx(0.19)
        assert without.score == pytest.approx(0.20)

    def test_lambda_zero_equals_gamma_only(self):
        rng = np.random.default_rng(3)
        recs = [self.rec(*rng.uniform(-1, 1, 3), layer=0, channel=j) for j in range(20)]
        score(recs, PruneConfig(lam=0.0, criterion="gfbs"))
        ranks_gfbs = [r.rank for r in recs]
        score(recs, PruneConfig(criterion="gamma_only"))
        assert ranks_gfbs == [r.rank for r in recs]

    def test_beta_only_and_l1(self):
        r = self.rec(-0.4, 0.5, -0.2)
        r.weight_l1_n = 0.7
        score([r], PruneConfig(criterion="beta_only"))
        assert r.score == pytest.approx(-0.2)
        score([r], PruneConfig(criterion="l1_filter"))
        assert r.score == pytest.approx(0.7)

    def test_ranks_are_permutation_with_index_tiebreak(self):
        recs = [self.rec(0.5, 0.5, 0.0, layer=0, channel=j) for j in range(5)]
        score(recs, PruneConfig())
        assert sorted(r.rank for r in recs) == list(range(5))
        assert [r.rank for r in recs] == list(range(5))  # ties follow channel order

    @given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_relu_score_bounds(self, triples):
        lam = 0.05
        recs = [self.rec(g, gg, b, channel=j) for j, (g, gg, b) in enumerate(triples)]
        score(recs, PruneConfig(lam=lam))
        for r in recs:
            assert -lam - 1e-12 <= r.score <= 1 + lam + 1e-12


class TestCsv:
    def full_records(self):
        net = trained_ish_net()
        x, y = probe_batch(net)
        return saliency_records(net, x, y, "cross_entropy", PruneConfig())

    def test_round_trip_and_stability(self, tmp_path):
        recs = self.full_records()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_saliency_csv(recs, p1)
        loaded = read_saliency_csv(p1, parse_spec(TWO_BLOCK))
        write_saliency_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        assert b"\r" not in p1.read_bytes()

    def test_golden_bytes(self, tmp_path):
        # sorted by (layer, channel); floats in .9g, so 2/3 needs all nine
        # digits, 2.0 is written "2" and 1234567890.0 goes to an exponent
        recs = [SaliencyRecord(layer=2, channel=0, gamma=2.0, grad_gamma=-1.5e-10, beta=1 / 3,
                               weight_l1=9.0, has_relu=False, group=-1, gamma_n=1.0,
                               grad_gamma_n=-1.0, beta_n=1.0, weight_l1_n=1.0,
                               score=1234567890.0, rank=1),
                SaliencyRecord(layer=0, channel=1, gamma=0.123456789, grad_gamma=0.5,
                               beta=-0.25, weight_l1=3.0, has_relu=True, group=3, gamma_n=0.6,
                               grad_gamma_n=0.8, beta_n=-1.0, weight_l1_n=1 / 7, score=2 / 3,
                               rank=0)]
        p = tmp_path / "a.csv"
        write_saliency_csv(recs, p)
        assert p.read_bytes() == (
            b"layer,channel,gamma,grad_gamma,beta,weight_l1,gamma_n,grad_gamma_n,beta_n,"
            b"weight_l1_n,score,group,rank\n"
            b"0,1,0.123456789,0.5,-0.25,3,0.6,0.8,-1,0.142857143,0.666666667,3,0\n"
            b"2,0,2,-1.5e-10,0.333333333,9,1,-1,1,1,1.23456789e+09,-1,1\n")

    def test_header_without_filter_norms_rejected(self, tmp_path):
        # the 11-column header written before the CSV carried weight_l1
        old = [c for c in CSV_HEADER if not c.startswith("weight_l1")]
        p = tmp_path / "old.csv"
        p.write_text(",".join(old) + "\n0,0,1,1,1,1,1,1,0.5,0,0\n")
        with pytest.raises(FormatError, match="old.csv: unexpected CSV header"):
            read_saliency_csv(p, parse_spec(TWO_BLOCK))

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("layer,channel,score\n0,0,1.0\n")
        with pytest.raises(FormatError):
            read_saliency_csv(p, parse_spec(TWO_BLOCK))

    def test_bad_field_count(self, tmp_path):
        recs = self.full_records()
        p = tmp_path / "a.csv"
        write_saliency_csv(recs, p)
        p.write_text(p.read_text() + "1,2,3\n")
        with pytest.raises(FormatError):
            read_saliency_csv(p, parse_spec(TWO_BLOCK))

    def test_has_relu_follows_the_block_kind(self, tmp_path):
        # a conv_bn channel has no ReLU after it, so rescoring the CSV must not
        # add the shift term to it: the scores written are the scores re-derived
        net = trained_ish_net(text=SKIP_BLOCK)
        x, y = probe_batch(net)
        recs = saliency_records(net, x, y, "cross_entropy", PruneConfig(lam=0.5))
        p = tmp_path / "a.csv"
        write_saliency_csv(recs, p)
        loaded = read_saliency_csv(p, net.spec)
        assert [r.has_relu for r in loaded] == [r.has_relu for r in recs]
        assert {r.layer for r in loaded if not r.has_relu} == {3}
        written = [r.score for r in loaded]
        score(loaded, PruneConfig(lam=0.5))
        np.testing.assert_allclose([r.score for r in loaded], written, rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("col, value", [(3, "nan"), (2, "inf"), (8, "-inf"), (6, "NaN"),
                                            (10, "-inf"), (7, "NaN"), (5, "nan"), (9, "nan")])
    def test_non_finite_field_rejected(self, tmp_path, col, value):
        p = tmp_path / "a.csv"
        write_saliency_csv(self.full_records(), p)
        lines = p.read_text().splitlines()
        row = lines[2].split(",")
        row[col] = value
        lines[2] = ",".join(row)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"a\.csv:3: non-finite {CSV_HEADER[col]}$"):
            read_saliency_csv(p, parse_spec(TWO_BLOCK))

    def test_repeated_row_rejected(self, tmp_path):
        # a second row for one channel would skew its layer's norms and ranks
        p = tmp_path / "a.csv"
        write_saliency_csv(self.full_records(), p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(FormatError, match=rf"a\.csv:{len(lines) + 1}: repeated row for "
                                              r"channel 0 of block 0$"):
            read_saliency_csv(p, parse_spec(TWO_BLOCK))

    @pytest.mark.parametrize("row", ["1,0", "0,4", "5,0"])
    def test_rows_outside_the_spec_rejected(self, tmp_path, row):
        # block 1 is a pool, block 0 has 4 channels, block 5 does not exist
        recs = self.full_records()
        p = tmp_path / "a.csv"
        write_saliency_csv(recs, p)
        p.write_text(p.read_text() + row + ",1,1,1,1,1,1,1,1,1,0,0\n")
        with pytest.raises(FormatError, match="no norm channel"):
            read_saliency_csv(p, parse_spec(TWO_BLOCK))

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(FormatError, match="no saliency rows"):
            read_saliency_csv(p, parse_spec(TWO_BLOCK))


class TestGroupScores:
    def test_mean_of_members_in_group_order(self):
        spec = parse_spec(SKIP_BLOCK)
        recs = [SaliencyRecord(layer=l, channel=c, gamma=0, grad_gamma=0, beta=0, weight_l1=0,
                               has_relu=True, group=-1, score=l + c / 8)
                for l in (0, 2, 3) for c in range(4)]
        # channel c of blocks 0 and 3 share a group; block 2's channels stand alone
        assert group_scores(recs, spec.groups) == [
            (0 + c / 8 + 3 + c / 8) / 2 for c in range(4)] + [2 + c / 8 for c in range(4)]
