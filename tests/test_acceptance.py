"""Acceptance gate for the pruning toolkit.

Fourteen checks covering gradient correctness, the exact-zeroing
identities the scoring rests on, oracle agreement, end-to-end pruning
pipelines at desk scale, artifact determinism, and operation counting.
Each check prints one ``[Cnn] PASS/FAIL`` line on the real stdout so the
gate stays visible under pytest's capture. Thresholds and run budgets
are frozen here on purpose; do not tune them to make a red gate green.
"""

import csv
import json
import time

import conftest
import numpy as np
import pytest

from gfbs.autograd import (
    ConvParams,
    ParamSet,
    Tape,
    Tensor,
    add,
    batchnorm,
    conv2d,
    flatten,
    linear,
    loss,
    maxpool2d,
    relu,
)
from gfbs.cli import main as cli_main
from gfbs.data import open_dataset
from gfbs.netgraph import (
    ChannelRef,
    build_coupling_groups,
    build_network,
    count_flops,
    forward_full,
    group_lookup,
    parse_spec,
    save_checkpoint,
)
from gfbs.oracle import bottom_fraction_overlap, oracle_delta_loss, spearman
from gfbs.saliency import PruneConfig, SaliencyRecord, capture, saliency_records
from gfbs.surgeon import apply_mask, apply_prune, plan_prune
from gfbs.trainer import (
    TrainConfig,
    denoise_finetune_config,
    evaluate,
    train,
)
from helpers import gradcheck

BUDGET_GRAD_S = 30.0
BUDGET_AGREEMENT_S = 120.0
BUDGET_PIPELINE_S = 600.0

VGG_SPEC = """\
name tinyvgg
input 1 16 16
conv_bn_relu 16 3 1 1
pool 0 2 2 0
conv_bn_relu 32 3 1 1
pool 0 2 2 0
flatten
linear 10
"""

DNCNN_SPEC = """\
name tinydncnn
input 1 12 12
residual_begin
conv_bn_relu 32 3 1 1
conv_bn_relu 32 3 1 1
conv_bn_relu 32 3 1 1
conv_bn_relu 32 3 1 1
conv_bn_relu 32 3 1 1
conv_bn_relu 32 3 1 1
conv_bn_relu 32 3 1 1
conv 1 3 1 1
residual_add
"""

MIXED_SPEC = """\
name mixed
input 2 8 8
conv_bn_relu 8 3 1 1
residual_begin
conv_bn_relu 6 3 1 1
conv_bn 8 3 1 1
residual_add
pool 0 2 2 0
conv_bn_relu 8 3 1 1
flatten
linear 3
"""

CLI_SPEC = """\
name clipipe
input 1 12 12
conv_bn_relu 8 3 1 1
pool 0 2 2 0
conv_bn_relu 8 3 1 1
flatten
linear 10
"""
CLI_DATA = "shapes:n_train=192,n_test=48,size=12,seed=3"


def _gate(cid: str, ok: bool, detail: str) -> None:
    line = f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}"
    conftest.GATE_LINES.append(line)
    print(line)
    assert ok, line


def _fabricate(spec, scores):
    """Planner input carrying the given {(layer, channel): score} map."""
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


def _random_scores(spec, seed):
    rng = np.random.default_rng(seed)
    return {(i, c): float(rng.uniform(0, 1))
            for i, b in enumerate(spec.blocks)
            if b.kind in ("conv_bn_relu", "conv_bn")
            for c in range(b.channels)}


def _plan_for_flops(net, records, target, min_keep=4):
    """Densest plan on a coarse tau grid whose FLOPs ratio is <= target."""
    best = None
    for tau in np.linspace(0.05, 0.95, 19):
        plan = plan_prune(net, records, PruneConfig(tau=float(tau), min_keep=min_keep))
        if plan.flops_ratio <= target and \
                (best is None or plan.flops_ratio > best.flops_ratio):
            best = plan
    assert best is not None, f"no plan reaches flops ratio <= {target}"
    return best


def _train_accuracy(net, data):
    hits = total = 0
    for i in range(0, len(data.x_train), 256):
        xb = data.x_train[i:i + 256].astype(net.dtype)
        out = forward_full(net, Tensor(xb), "eval").data
        hits += int((out.argmax(axis=1) == data.y_train[i:i + 256]).sum())
        total += len(xb)
    return hits / total


@pytest.fixture(scope="session")
def vgg():
    """Classifier trained to the saturation point on synthetic shapes."""
    t0 = time.monotonic()
    data = open_dataset("shapes:n_train=512,n_test=128,size=16,seed=7")
    net = build_network(parse_spec(VGG_SPEC), seed=1)
    cfg = TrainConfig(epochs=24, batch_size=32, lr=0.05, lr_milestones=(16, 20),
                      lr_decay=0.2, momentum=0.9, weight_decay=1e-4, seed=1,
                      eval_every=6)
    train(net, data, cfg)
    x, y = data.capture_batch(256)
    return {"net": net, "data": data, "probe": (x, y),
            "train_acc": _train_accuracy(net, data),
            "base_acc": evaluate(net, data).metric,
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def dncnn():
    """Residual denoiser trained on sigma=50 synthetic patches."""
    t0 = time.monotonic()
    data = open_dataset("denoise:n_train=384,n_test=96,size=12,sigma=50,seed=11")
    net = build_network(parse_spec(DNCNN_SPEC), seed=0)
    cfg = TrainConfig(epochs=14, batch_size=32, lr=1e-3, lr_milestones=(10,),
                      lr_decay=0.1, momentum=0.9, seed=0, optimizer="adam",
                      eval_every=7)
    train(net, data, cfg)
    x, y = data.capture_batch(64)
    return {"net": net, "data": data, "probe": (x, y),
            "base_psnr": evaluate(net, data).metric,
            "seconds": time.monotonic() - t0}


def test_c01_gradients_match_finite_differences():
    """Every op agrees with central differences over 20 random instances."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        x0 = rng.standard_normal((1, 2, 4, 4))
        w0 = rng.standard_normal((2, 2, 3, 3)) * 0.5
        b0 = rng.standard_normal(2)
        tgt = rng.standard_normal((1, 2 * 4 * 4))
        stride, pad = (1, 1) if trial % 2 == 0 else (2, 1)
        d = 2 * 2 * 2 if stride == 2 else 2 * 4 * 4

        def conv_graph(ts, tape):
            y = conv2d(ts[0], ConvParams(ts[1], ts[2]), stride=stride,
                       padding=pad, tape=tape)
            return loss(flatten(y, tape), tgt[:, :d], "mse", tape=tape)

        worst = max(worst, gradcheck(conv_graph, [x0, w0, b0]))

        xb = rng.standard_normal((3, 2, 3, 3))
        g0 = rng.uniform(0.5, 1.5, 2)
        be0 = rng.standard_normal(2)
        tb = rng.standard_normal((3, 2 * 3 * 3))
        mode = "train" if trial % 2 == 0 else "eval"
        rm = rng.standard_normal(2) * 0.2
        rv = rng.uniform(0.5, 2.0, 2)

        def bn_graph(ts, tape):
            p = ParamSet(weight=Tensor(np.zeros((2, 1, 1, 1))),
                         bias=Tensor(np.zeros(2)),
                         gamma=ts[1], beta=ts[2],
                         running_mean=Tensor(rm, dtype=np.float64),
                         running_var=Tensor(rv, dtype=np.float64))
            y = batchnorm(ts[0], p, mode, tape=tape, update_stats=False)
            return loss(flatten(y, tape), tb, "mse", tape=tape)

        worst = max(worst, gradcheck(bn_graph, [xb, g0, be0]))

        xr = rng.standard_normal((2, 2, 3, 3))
        xr[np.abs(xr) < 5e-3] = 0.4  # stay away from the hinge point
        tr = rng.standard_normal((2, 2 * 3 * 3))

        def relu_graph(ts, tape):
            return loss(flatten(relu(ts[0], tape=tape), tape), tr, "mse", tape=tape)

        worst = max(worst, gradcheck(relu_graph, [xr]))

        xp = rng.standard_normal((1, 2, 4, 4))
        tp = rng.standard_normal((1, 2 * 2 * 2))

        def pool_graph(ts, tape):
            y = maxpool2d(ts[0], 2, 2, tape=tape)
            return loss(flatten(y, tape), tp, "mse", tape=tape)

        worst = max(worst, gradcheck(pool_graph, [xp]))

        xl = rng.standard_normal((3, 5))
        wl = rng.standard_normal((5, 4)) * 0.5
        bl = rng.standard_normal(4)
        labels = rng.integers(0, 4, size=3)

        def linear_ce_graph(ts, tape):
            y = linear(ts[0], ts[1], ts[2], tape=tape)
            return loss(y, labels, "cross_entropy", tape=tape)

        worst = max(worst, gradcheck(linear_ce_graph, [xl, wl, bl]))

        xa = rng.standard_normal((2, 2, 3, 3))
        xc = rng.standard_normal((2, 2, 3, 3))
        ta = rng.standard_normal((2, 2 * 3 * 3))

        def add_graph(ts, tape):
            y = add(relu(ts[0], tape=tape), ts[1], tape=tape)
            return loss(flatten(y, tape), ta, "mse", tape=tape)

        xc[np.abs(xc) < 5e-3] = 0.4
        worst = max(worst, gradcheck(add_graph, [xc, xa]))

    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed <= BUDGET_GRAD_S
    _gate("C01", ok, f"worst rel err {worst:.2e} over 120 graphs, {elapsed:.1f}s")


def test_c02_zeroed_filter_equals_structural_removal():
    """W_j = b_j = 0 silences the pre-norm map exactly; with the channel's
    shift and running mean also zero, dropping it from the graph changes
    nothing downstream."""
    spec = parse_spec("input 1 8 8\nconv_bn_relu 6 3 1 1\nconv_bn_relu 6 3 1 1\n"
                      "flatten\nlinear 4\n")
    net = build_network(spec, seed=3, dtype=np.float64)
    rng = np.random.default_rng(5)
    for i in (0, 1):
        p = net.params[i]
        p.gamma.data[:] = rng.uniform(0.5, 1.5, 6)
        p.beta.data[:] = rng.standard_normal(6) * 0.3
        p.running_mean.data[:] = rng.standard_normal(6) * 0.1
        p.running_var.data[:] = rng.uniform(0.5, 2.0, 6)
    j = 2
    p0 = net.params[0]
    p0.weight.data[j] = 0.0
    p0.bias.data[j] = 0.0
    p0.beta.data[j] = 0.0
    p0.running_mean.data[j] = 0.0

    x = rng.standard_normal((4, 1, 8, 8))
    resume: dict = {}
    forward_full(net, Tensor(x, dtype=np.float64), "train", update_stats=False,
                 resume=resume)
    pre_bn_max = float(np.abs(resume[0][0].data[:, j]).max())

    scores = {(layer, c): 1.0 + layer + c for layer in (0, 1) for c in range(6)}
    scores[(0, j)] = 0.0
    plan = plan_prune(net, _fabricate(spec, scores),
                      PruneConfig(tau=0.09, min_keep=1))
    assert [(r.layer, r.channel) for r in plan.removed] == [(0, j)]
    pruned = apply_prune(net, plan)
    out_full = forward_full(net, Tensor(x, dtype=np.float64), "eval").data
    out_removed = forward_full(pruned, Tensor(x, dtype=np.float64), "eval").data
    dev = float(np.abs(out_full - out_removed).max())
    ok = pre_bn_max == 0.0 and dev <= 1e-6
    _gate("C02", ok, f"pre-norm max {pre_bn_max:.1e}, removal deviation {dev:.2e}")


def test_c03_zero_scale_pins_output_to_shift():
    """gamma_j = 0 makes the normalized channel identically beta_j."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(10):
        c = int(rng.integers(2, 6))
        j = int(rng.integers(0, c))
        p = ParamSet(weight=Tensor(np.zeros((c, 1, 1, 1)), dtype=np.float64),
                     bias=Tensor(np.zeros(c), dtype=np.float64),
                     gamma=Tensor(rng.uniform(0.5, 1.5, c), dtype=np.float64),
                     beta=Tensor(rng.standard_normal(c), dtype=np.float64),
                     running_mean=Tensor(rng.standard_normal(c) * 0.2,
                                         dtype=np.float64),
                     running_var=Tensor(rng.uniform(0.5, 2.0, c), dtype=np.float64))
        p.gamma.data[j] = 0.0
        x = Tensor(rng.standard_normal((3, c, 4, 4)) * 2.0, dtype=np.float64)
        for mode in ("train", "eval"):
            out = batchnorm(x, p, mode, update_stats=False)
            worst = max(worst, float(np.abs(out.data[:, j] - p.beta.data[j]).max()))
    _gate("C03", worst == 0.0, f"max |out - beta| = {worst:.1e} over 20 cases")


def test_c04_scaled_normalized_maps_stay_zero_mean(vgg):
    """Train-mode per-channel mean of the scaled normalized map is ~0,
    both for random instances and for the trained classifier's layers."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(2, 8))
        p = ParamSet(weight=Tensor(np.zeros((c, 1, 1, 1))),
                     bias=Tensor(np.zeros(c)),
                     gamma=Tensor(rng.uniform(0.5, 1.5, c).astype(np.float32)),
                     beta=Tensor(rng.standard_normal(c).astype(np.float32)),
                     running_mean=Tensor(np.zeros(c)),
                     running_var=Tensor(np.ones(c)))
        x = Tensor(rng.standard_normal((8, c, 6, 6)).astype(np.float32) * 3.0)
        out = batchnorm(x, p, "train", update_stats=False)
        centered = out.data - p.beta.data[None, :, None, None]
        worst = max(worst, float(np.abs(centered.mean(axis=(0, 2, 3))).max()))

    x, _ = vgg["probe"]
    resume: dict = {}
    forward_full(vgg["net"], Tensor(x), "train", update_stats=False, resume=resume)
    for i in vgg["net"].bn_blocks():
        p = vgg["net"].params[i]
        out = batchnorm(Tensor(resume[i][0].data), p, "train",
                        update_stats=False)
        centered = out.data - p.beta.data[None, :, None, None]
        worst = max(worst, float(np.abs(centered.mean(axis=(0, 2, 3))).max()))
    _gate("C04", worst <= 1e-5, f"max per-channel mean {worst:.2e}")


def test_c05_blocked_downstream_path_zeroes_scale_gradient(vgg):
    """If nothing consumes a channel, its captured scale gradient is an
    exact float zero, not merely a small number."""
    clone = vgg["net"].clone()
    j = 5
    clone.params[2].weight.data[:, j] = 0.0  # the only consumer of block-0 ch j
    x, y = vgg["probe"]
    recs = capture(clone, x, y, "cross_entropy")
    rec = next(r for r in recs if r.layer == 0 and r.channel == j)
    other = next(r for r in recs if r.layer == 0 and r.channel == (j + 1) % 16)
    ok = rec.grad_gamma == 0.0 and other.grad_gamma != 0.0
    _gate("C05", ok, f"grad_gamma[blocked]={rec.grad_gamma!r}, "
                     f"neighbor={other.grad_gamma:.2e}")


def test_c06_scores_agree_with_removal_oracle(vgg):
    """Saliency ranking correlates with brute-force loss deltas on a
    classifier trained past 90% train accuracy."""
    t0 = time.monotonic()
    net, (x, y) = vgg["net"], vgg["probe"]
    records = saliency_records(net, x, y, "cross_entropy", PruneConfig())
    oracle = oracle_delta_loss(net, x, y, "cross_entropy")
    by_ref = {(r.layer, r.channel): r.score for r in records}
    group_scores = [float(np.mean([by_ref[(m.layer, m.channel)] for m in r.members]))
                    for r in oracle]
    deltas = [r.delta_loss for r in oracle]
    rho = spearman(group_scores, deltas)
    overlap, k, expect = bottom_fraction_overlap(group_scores, deltas, 0.2)
    elapsed = vgg["seconds"] + (time.monotonic() - t0)
    ok = (vgg["train_acc"] >= 0.90 and rho >= 0.5
          and overlap >= 2 * expect and elapsed <= BUDGET_AGREEMENT_S)
    _gate("C06", ok, f"train acc {vgg['train_acc']:.3f}, rho {rho:.3f}, "
                     f"overlap {overlap}/{k} (2x random {2 * expect:.2f}), "
                     f"{elapsed:.0f}s")


def test_c07_shift_term_does_not_hurt_at_twenty_percent(vgg):
    """Removing the bottom fifth of channels: the full score must match
    or beat the gamma-only variant after an equal finetune budget."""
    t0 = time.monotonic()
    net, data, (x, y) = vgg["net"], vgg["data"], vgg["probe"]
    ft = TrainConfig(epochs=8, batch_size=32, lr=0.005, lr_milestones=(6,),
                     lr_decay=0.2, momentum=0.9, weight_decay=1e-4, seed=1,
                     eval_every=8)
    accs = {}
    removed = {}
    for crit in ("gfbs", "gamma_only", "beta_only"):
        cfg = PruneConfig(criterion=crit, tau=0.2)
        recs = saliency_records(net, x, y, "cross_entropy", cfg)
        plan = plan_prune(net, recs, cfg)
        removed[crit] = len(plan.removed)
        pruned = apply_prune(net, plan)
        train(pruned, data, ft)
        accs[crit] = evaluate(pruned, data).metric
    elapsed = vgg["seconds"] + (time.monotonic() - t0)
    same_budget = len(set(removed.values())) == 1
    ok = (accs["gfbs"] >= accs["gamma_only"] and same_budget
          and elapsed <= BUDGET_PIPELINE_S)
    order = " vs ".join(f"{c}={accs[c]:.4f}" for c in ("gfbs", "gamma_only",
                                                       "beta_only"))
    _gate("C07", ok, f"{order} ({removed['gfbs']} channels each), {elapsed:.0f}s")


def test_c08_half_flops_keeps_accuracy(vgg):
    """Prune to <= 50% FLOPs, finetune, and lose at most 2 points."""
    t0 = time.monotonic()
    net, data, (x, y) = vgg["net"], vgg["data"], vgg["probe"]
    records = saliency_records(net, x, y, "cross_entropy", PruneConfig())
    plan = _plan_for_flops(net, records, target=0.5)
    pruned = apply_prune(net, plan)
    ft = TrainConfig(epochs=12, batch_size=32, lr=0.005, lr_milestones=(8, 10),
                     lr_decay=0.2, momentum=0.9, weight_decay=1e-4, seed=1,
                     eval_every=6)
    train(pruned, data, ft)
    acc = evaluate(pruned, data).metric
    drop_pts = 100.0 * (vgg["base_acc"] - acc)
    elapsed = vgg["seconds"] + (time.monotonic() - t0)
    ok = (plan.flops_ratio <= 0.5 and drop_pts <= 2.0
          and elapsed <= BUDGET_PIPELINE_S)
    _gate("C08", ok, f"flops ratio {plan.flops_ratio:.3f}, "
                     f"acc {vgg['base_acc']:.4f} -> {acc:.4f} "
                     f"(drop {drop_pts:.2f} pts), {elapsed:.0f}s")


def test_c09_denoiser_survives_thirty_percent_flops_cut(dncnn):
    """Cut ~30% of denoiser FLOPs, finetune 50 epochs with Adam, and stay
    within 0.3 dB of the baseline PSNR."""
    t0 = time.monotonic()
    net, data, (x, y) = dncnn["net"], dncnn["data"], dncnn["probe"]
    records = saliency_records(net, x, y, "mse", PruneConfig())
    plan = _plan_for_flops(net, records, target=0.70)
    pruned = apply_prune(net, plan)
    train(pruned, data, denoise_finetune_config(seed=0))
    psnr = evaluate(pruned, data).metric
    drop_db = dncnn["base_psnr"] - psnr
    elapsed = dncnn["seconds"] + (time.monotonic() - t0)
    ok = (plan.flops_ratio <= 0.70 and drop_db <= 0.3
          and elapsed <= BUDGET_PIPELINE_S)
    _gate("C09", ok, f"flops ratio {plan.flops_ratio:.3f}, "
                     f"PSNR {dncnn['base_psnr']:.2f} -> {psnr:.2f} dB "
                     f"(drop {drop_db:.2f}), {elapsed:.0f}s")


def test_c10_surgery_equals_masking_on_random_plans():
    """Slicing weights out of the graph and zeroing them in place give
    the same eval-mode outputs across 50 random plans."""
    spec = parse_spec(MIXED_SPEC)
    rng = np.random.default_rng(17)
    worst = 0.0
    nonempty = 0
    for i in range(50):
        net = build_network(spec, seed=i % 5)
        for b in net.bn_blocks():
            p = net.params[b]
            c = p.gamma.data.shape[0]
            p.gamma.data[:] = rng.uniform(0.5, 1.5, c).astype(np.float32)
            p.beta.data[:] = (rng.standard_normal(c) * 0.3).astype(np.float32)
            p.running_mean.data[:] = (rng.standard_normal(c) * 0.1).astype(np.float32)
            p.running_var.data[:] = rng.uniform(0.5, 2.0, c).astype(np.float32)
        plan = plan_prune(net, _fabricate(spec, _random_scores(spec, 100 + i)),
                          PruneConfig(tau=float(rng.uniform(0.1, 0.8)), min_keep=2))
        nonempty += bool(plan.removed)
        x = Tensor(rng.standard_normal((4, 2, 8, 8)).astype(np.float32))
        out_cut = forward_full(apply_prune(net, plan), x, "eval").data
        out_masked = forward_full(apply_mask(net, plan), x, "eval").data
        worst = max(worst, float(np.abs(out_cut - out_masked).max()))
    ok = worst <= 1e-5 and nonempty >= 40
    _gate("C10", ok, f"max deviation {worst:.2e} over 50 plans "
                     f"({nonempty} non-empty)")


def test_c11_no_layer_collapse_and_atomic_groups(vgg):
    """Every plan keeps at least min_keep channels per layer, and
    residual-coupled channels leave only as a complete group."""
    x, y = vgg["probe"]
    real = saliency_records(vgg["net"], x, y, "cross_entropy", PruneConfig())
    floors_ok = True
    atomic_ok = True
    mixed = parse_spec(MIXED_SPEC)
    groups = build_coupling_groups(mixed)
    for tau in (0.3, 0.5, 0.8):
        plan = plan_prune(vgg["net"], real, PruneConfig(tau=tau, min_keep=4))
        floors_ok &= all(len(kept) >= 4 for kept in plan.kept_per_layer.values())
        for seed in range(5):
            mnet = build_network(mixed, seed=seed)
            mplan = plan_prune(mnet, _fabricate(mixed, _random_scores(mixed, seed)),
                               PruneConfig(tau=tau, min_keep=2))
            floors_ok &= all(len(kept) >= 2
                             for kept in mplan.kept_per_layer.values())
            gone = set(mplan.removed)
            for g in groups:
                hit = sum(m in gone for m in g.members)
                atomic_ok &= hit in (0, len(g.members))
    _gate("C11", floors_ok and atomic_ok,
          f"floors {'held' if floors_ok else 'broken'}, "
          f"groups {'atomic' if atomic_ok else 'split'} at tau 0.3/0.5/0.8")


def test_c12_cli_pipeline_is_deterministic(tmp_path):
    """Two seeded end-to-end CLI runs emit byte-identical scores and the
    same final metric."""
    spec_path = tmp_path / "net.spec"
    spec_path.write_text(CLI_SPEC)

    def pipeline(root):
        root.mkdir()
        assert cli_main(["train", "--spec", str(spec_path), "--data", CLI_DATA,
                         "--epochs", "4", "--batch-size", "32", "--lr", "0.05",
                         "--seed", "9", "--out", str(root / "train")]) == 0
        assert cli_main(["saliency", "--ckpt", str(root / "train" / "baseline.ckpt"),
                         "--data", CLI_DATA, "--seed", "9",
                         "--out", str(root / "sal")]) == 0
        assert cli_main(["prune", "--ckpt", str(root / "train" / "baseline.ckpt"),
                         "--saliency", str(root / "sal" / "saliency.csv"),
                         "--tau", "0.4", "--seed", "9",
                         "--out", str(root / "prune")]) == 0
        assert cli_main(["finetune", "--ckpt", str(root / "prune" / "pruned.ckpt"),
                         "--data", CLI_DATA, "--epochs", "3", "--seed", "9",
                         "--out", str(root / "ft")]) == 0
        assert cli_main(["eval", "--ckpt", str(root / "ft" / "finetuned.ckpt"),
                         "--data", CLI_DATA, "--out", str(root / "eval")]) == 0
        return (root / "sal" / "saliency.csv").read_bytes(), \
            json.loads((root / "eval" / "eval.json").read_text())["metric"]

    csv_a, metric_a = pipeline(tmp_path / "run_a")
    csv_b, metric_b = pipeline(tmp_path / "run_b")
    ok = csv_a == csv_b and metric_a == metric_b
    _gate("C12", ok, f"saliency bytes equal: {csv_a == csv_b}, "
                     f"metric {metric_a:.4f} == {metric_b:.4f}")


def test_c13_flops_match_hand_count():
    """Counter agrees with arithmetic done by hand for a two-conv net,
    and the planner's ratio is the exact quotient of recounted totals."""
    spec = parse_spec("input 3 8 8\nconv_bn_relu 4 3 1 1\npool 0 2 2 0\n"
                      "conv_bn_relu 8 3 1 1\nflatten\nlinear 10\n")
    # conv1 8x8x4 out, 3x3x3 taps: 2*64*4*27 + 64*4      = 14080
    # bn1 2 per element on 4*64                            =   512
    # relu1 one per element                                =   256
    # pool 2x2 window per output element, 4*16 outputs     =   256
    # conv2 4x4x8 out, 3x3x4 taps: 2*16*8*36 + 16*8        =  9344
    # bn2 2*8*16 = 256, relu2 = 128, flatten = 0
    # linear 128 -> 10: 2*128*10 + 10                      =  2570
    hand_total = 14080 + 512 + 256 + 256 + 9344 + 256 + 128 + 0 + 2570
    report = count_flops(spec)
    net = build_network(spec, seed=0)
    plan = plan_prune(net, _fabricate(spec, _random_scores(spec, 23)),
                      PruneConfig(tau=0.5, min_keep=1))
    recounted = count_flops(plan.spec).total / report.total
    ok = report.total == hand_total and plan.flops_ratio == recounted
    _gate("C13", ok, f"total {report.total} vs hand {hand_total}, "
                     f"ratio {plan.flops_ratio:.6f} exact: "
                     f"{plan.flops_ratio == recounted}")


def test_c14_shift_weight_sweep_runs_end_to_end(vgg, tmp_path):
    """The report command sweeps the shift weight over four values; all
    runs complete and their scores differ from the zero-weight run by
    exactly that weight times the normalized shift."""
    ckpt = tmp_path / "baseline.ckpt"
    save_checkpoint(vgg["net"], ckpt)
    out = tmp_path / "sweep"
    rc = cli_main(["report", "--sweep-lambda", "--ckpt", str(ckpt),
                   "--data", "shapes:n_train=512,n_test=128,size=16,seed=7",
                   "--tau", "0.2", "--probe-batch", "64", "--epochs", "2",
                   "--seed", "1", "--out", str(out)])
    assert rc == 0
    lambdas = (0.0, 0.005, 0.05, 0.5)
    tables = {}
    for lam in lambdas:
        path = out / f"lambda_{lam:g}" / "saliency.csv"
        with open(path, newline="") as fh:
            tables[lam] = {(row["layer"], row["channel"]): row
                           for row in csv.DictReader(fh)}
    base = tables[0.0]
    shared_cols = ("gamma", "grad_gamma", "beta", "gamma_n", "grad_gamma_n",
                   "beta_n")
    shared_ok = True
    score_ok = True
    for lam in lambdas[1:]:
        for key, row in tables[lam].items():
            shared_ok &= all(row[c] == base[key][c] for c in shared_cols)
            expected = float(base[key]["score"]) + lam * float(row["beta_n"])
            score_ok &= abs(float(row["score"]) - expected) <= 1e-7
    report_text = (out / "report.md").read_text()
    rows = [ln for ln in report_text.splitlines() if ln.startswith("| 0")]
    ok = shared_ok and score_ok and len(rows) == 4
    _gate("C14", ok, f"4 runs complete, shared columns identical: {shared_ok}, "
                     f"score deltas = weight * shift: {score_ok}")
