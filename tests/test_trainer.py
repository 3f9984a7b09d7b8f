"""Tests for the train/finetune/evaluate loops and the Adam update."""

import math

import numpy as np
import pytest

from gfbs.autograd import Tensor
from gfbs.data import gen_shapes_dataset, make_noisy_pairs
from gfbs.errors import ConfigError, FormatError, NumericError
from gfbs.netgraph import build_network, parse_spec
from gfbs.trainer import (
    Adam,
    Metrics,
    TrainConfig,
    classify_train_config,
    denoise_finetune_config,
    evaluate,
    finetune,
    read_metrics,
    train,
    write_metrics,
    _psnr_db,
)

SMALL_NET = """\
input 1 12 12
conv_bn_relu 8 3 1 1
pool 0 2 2 0
conv_bn_relu 8 3 1 1
pool 0 2 2 0
flatten
linear 10
"""


def small_setup(seed=0, n_train=64, n_test=32):
    net = build_network(parse_spec(SMALL_NET), seed=seed)
    data = gen_shapes_dataset(n_train, n_test, image_size=12, seed=seed)
    return net, data


class TestTrainConfig:
    def test_milestones_must_increase(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, lr_milestones=(5, 5))
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, lr_milestones=(8, 3))

    def test_milestones_below_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, lr_milestones=(10,))

    def test_bad_loss_kind(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="hinge")


class TestAdam:
    def test_two_hand_iterates_on_quadratic(self):
        # f(p) = p^2 / 2, gradient p, from p = 1.0
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = Tensor(np.array([1.0]))
        opt = Adam([p], lr=lr)
        m = v = 0.0
        x = 1.0
        expected = []
        for t in (1, 2):
            g = x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            x = x - lr * mhat / (math.sqrt(vhat) + eps)
            expected.append(x)

        p.grad = p.data.copy()
        opt.step()
        assert p.data[0] == pytest.approx(expected[0], abs=1e-12)
        p.grad = p.data.copy()
        opt.step()
        assert p.data[0] == pytest.approx(expected[1], abs=1e-12)

    def test_first_step_size_is_lr(self):
        # with bias correction the first step is lr * g / (|g| + eps)
        p = Tensor(np.array([5.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0], dtype=np.float32)
        opt.step()
        assert p.data[0] == pytest.approx(5.0 - 0.01, rel=1e-6)

    def test_missing_grad(self):
        p = Tensor(np.array([1.0]))
        with pytest.raises(ConfigError):
            Adam([p], lr=0.1).step()


class TestTrainLoop:
    def test_zero_lr_leaves_params_and_loss_flat(self):
        net, data = small_setup()
        before = {k: v.data.copy() for k, v in net.named_tensors().items()
                  if not k.endswith("running_mean") and not k.endswith("running_var")}
        cfg = TrainConfig(epochs=3, batch_size=64, lr=0.0, eval_every=10)
        history = train(net, data, cfg)
        for k, v in before.items():
            np.testing.assert_array_equal(net.named_tensors()[k].data, v)
        train_losses = [m.loss for m in history if m.split == "train"]
        # one batch per epoch, same batch every time, nothing moves
        assert train_losses[0] == train_losses[1] == train_losses[2]

    def test_short_run_learns_something(self):
        net, data = small_setup(n_train=128, n_test=32)
        cfg = TrainConfig(epochs=8, batch_size=32, lr=0.05, seed=0, eval_every=8)
        history = train(net, data, cfg)
        final_train = [m for m in history if m.split == "train"][-1]
        assert final_train.metric > 0.4, f"train acc stuck at {final_train.metric}"

    def test_same_seed_identical_history(self):
        cfg = TrainConfig(epochs=3, batch_size=32, lr=0.05, eval_every=1)
        net1, data1 = small_setup(seed=5)
        net2, data2 = small_setup(seed=5)
        h1 = train(net1, data1, cfg)
        h2 = train(net2, data2, cfg)
        assert [(m.epoch, m.split, m.loss, m.metric) for m in h1] \
            == [(m.epoch, m.split, m.loss, m.metric) for m in h2]

    def test_divergence_raises_numeric_error(self):
        net, data = small_setup()
        cfg = TrainConfig(epochs=3, batch_size=64, lr=1e9, momentum=0.0)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            train(net, data, cfg)

    def test_forward_overflow_names_epoch_and_batch(self):
        # the first training forward overflows float32 in conv2d
        net, data = small_setup()
        net.params[0].weight.data[:] = 3e38
        cfg = TrainConfig(epochs=1, batch_size=32, lr=0.01)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=r"^divergence at epoch 0 batch 0: non-finite "
                                                  r"values produced by conv2d$"):
            train(net, data, cfg)

    def test_best_checkpoint_written(self, tmp_path):
        net, data = small_setup()
        ckpt = tmp_path / "best.ckpt"
        cfg = TrainConfig(epochs=2, batch_size=32, lr=0.05)
        train(net, data, cfg, ckpt_path=ckpt)
        assert ckpt.exists()
        from gfbs.netgraph import load_checkpoint
        assert load_checkpoint(ckpt).spec == net.spec

    def test_lr_schedule_decays(self):
        from gfbs.trainer import _lr_at
        cfg = TrainConfig(epochs=10, lr=1.0, lr_milestones=(4, 8), lr_decay=0.1)
        assert _lr_at(cfg, 0) == 1.0
        assert _lr_at(cfg, 4) == pytest.approx(0.1)
        assert _lr_at(cfg, 9) == pytest.approx(0.01)

    def test_finetune_runs_same_loop(self):
        net, data = small_setup()
        cfg = TrainConfig(epochs=1, batch_size=32, lr=0.01)
        history = finetune(net, data, cfg)
        assert any(m.split == "test" for m in history)


class TestEvaluate:
    def test_random_net_near_chance(self):
        net, data = small_setup(seed=1, n_train=32, n_test=200)
        m = evaluate(net, data)
        assert 0.0 <= m.metric <= 0.35  # 10 balanced classes, wide slack

    def test_batch_size_invariant(self):
        net, data = small_setup(seed=2, n_test=50)
        a = evaluate(net, data, batch_size=7)
        b = evaluate(net, data, batch_size=50)
        assert a.metric == pytest.approx(b.metric, abs=1e-12)
        assert a.loss == pytest.approx(b.loss, rel=1e-6)


class TestPsnr:
    def test_identical_images_capped(self):
        x = np.random.default_rng(0).uniform(0, 1, (1, 8, 8))
        assert _psnr_db(x, x) == 100.0

    def test_known_mse(self):
        a = np.zeros((1, 4, 4))
        b = np.full((1, 4, 4), 0.5)
        assert _psnr_db(a, b) == pytest.approx(10 * math.log10(1 / 0.25))

    def test_awgn_sigma50_close_to_closed_form(self):
        clean = gen_shapes_dataset(80, 10, image_size=16, seed=3)
        noisy = make_noisy_pairs(clean, sigma=50.0, seed=1)
        vals = [_psnr_db(noisy.x_train[i], noisy.y_train[i]) for i in range(80)]
        want = 20 * math.log10(255 / 50)
        assert np.mean(vals) == pytest.approx(want, abs=0.25)

    def test_denoise_eval_uses_psnr(self):
        clean = gen_shapes_dataset(16, 8, image_size=12, seed=3)
        data = make_noisy_pairs(clean, sigma=50.0, seed=1)
        spec = parse_spec("input 1 12 12\nconv_bn_relu 4 3 1 1\nconv 1 3 1 1\n")
        # an untrained net scores well below any plausible denoiser
        net = build_network(spec, seed=0)
        m = evaluate(net, data)
        assert m.metric < 30.0


class TestDenoiseTraining:
    def test_denoise_config_applied(self):
        cfg = denoise_finetune_config()
        assert cfg.optimizer == "adam" and cfg.epochs == 50
        assert cfg.lr == pytest.approx(1e-4)
        assert cfg.lr_milestones == (40,) and cfg.lr_decay == pytest.approx(0.1)

    def test_cross_entropy_rejected_for_denoise(self):
        clean = gen_shapes_dataset(8, 4, image_size=12, seed=0)
        data = make_noisy_pairs(clean, sigma=25.0, seed=0)
        spec = parse_spec("input 1 12 12\nconv_bn_relu 4 3 1 1\nconv 1 3 1 1\nflatten\nlinear 4\n")
        net = build_network(spec, seed=0)
        with pytest.raises(ConfigError):
            train(net, data, TrainConfig(epochs=1, loss="cross_entropy"))


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        hist = [Metrics(0, "train", 2.30259, 0.1), Metrics(0, "test", 2.19722, 0.15)]
        p = tmp_path / "m.csv"
        write_metrics(hist, p)
        assert p.read_text().splitlines()[0] == "epoch,split,loss,metric"
        loaded = read_metrics(p)
        assert [(m.epoch, m.split) for m in loaded] == [(0, "train"), (0, "test")]
        assert loaded[0].loss == pytest.approx(2.30259)

    def test_golden_bytes(self, tmp_path):
        # seconds is not written; 2/3 takes nine digits, 1.0 is written "1"
        hist = [Metrics(0, "train", 2 / 3, 1.0), Metrics(0, "test", 123.456789012, 0.0, 4.5)]
        p = tmp_path / "m.csv"
        write_metrics(hist, p)
        assert p.read_bytes() == (b"epoch,split,loss,metric\n"
                                  b"0,train,0.666666667,1\n"
                                  b"0,test,123.456789,0\n")

    def test_unclosed_quote_past_the_field_limit(self, tmp_path):
        # the csv module's own error must come back as a format error
        p = tmp_path / "m.csv"
        p.write_text('epoch,split,loss,metric\n0,"' + "a" * 200_000 + "\n")
        with pytest.raises(FormatError, match=r"m\.csv:\d+: field larger than field limit"):
            read_metrics(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n")
        with pytest.raises(FormatError):
            read_metrics(p)
