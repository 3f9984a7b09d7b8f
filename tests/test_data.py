"""Tests for dataset generation, IDX parsing, and noisy-pair synthesis."""

import re
import struct

import numpy as np
import pytest
from helpers import write_idx

from gfbs.data import (
    DatasetHandle,
    gen_shapes_dataset,
    load_idx,
    make_noisy_pairs,
    open_dataset,
)
from gfbs.errors import ConfigError, FormatError


class TestShapes:
    def test_same_seed_identical(self):
        a = gen_shapes_dataset(20, 10, seed=5)
        b = gen_shapes_dataset(20, 10, seed=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_different_seed_differs(self):
        a = gen_shapes_dataset(10, 5, seed=1)
        b = gen_shapes_dataset(10, 5, seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_label_histogram_balanced(self):
        ds = gen_shapes_dataset(103, 27, seed=0)
        counts = np.bincount(ds.y_train, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_values_in_unit_range(self):
        ds = gen_shapes_dataset(30, 10, seed=3)
        assert ds.x_train.min() >= 0.0 and ds.x_train.max() <= 1.0
        assert ds.x_train.dtype == np.float32
        assert ds.sample_shape == (1, 16, 16)

    def test_train_test_splits_differ(self):
        ds = gen_shapes_dataset(10, 10, seed=4)
        # same labels by construction, but the renders must not repeat
        assert not np.array_equal(ds.x_train, ds.x_test)

    def test_knn_baseline_beats_chance(self):
        ds = gen_shapes_dataset(300, 60, seed=7)
        tr = ds.x_train.reshape(len(ds.x_train), -1)
        te = ds.x_test.reshape(len(ds.x_test), -1)
        d2 = ((te[:, None, :] - tr[None, :, :]) ** 2).sum(-1)
        nn3 = np.argsort(d2, axis=1)[:, :3]
        votes = ds.y_train[nn3]
        pred = np.array([np.bincount(v, minlength=10).argmax() for v in votes])
        acc = (pred == ds.y_test).mean()
        assert acc > 0.10, f"3-NN accuracy {acc:.2f} is at chance; dataset unlearnable"


class TestBatches:
    def test_epoch_permutation_deterministic(self):
        ds = gen_shapes_dataset(50, 10, seed=9)
        a = [y.copy() for _, y in ds.train_batches(16, epoch=3)]
        b = [y.copy() for _, y in ds.train_batches(16, epoch=3)]
        for ya, yb in zip(a, b):
            np.testing.assert_array_equal(ya, yb)

    def test_epochs_shuffle_differently(self):
        ds = gen_shapes_dataset(50, 10, seed=9)
        y0 = np.concatenate([y for _, y in ds.train_batches(50, epoch=0)])
        y1 = np.concatenate([y for _, y in ds.train_batches(50, epoch=1)])
        assert not np.array_equal(y0, y1)

    def test_capture_batch_fixed(self):
        ds = gen_shapes_dataset(100, 10, seed=2)
        x1, y1 = ds.capture_batch(32)
        x2, y2 = ds.capture_batch(32)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_capture_too_large(self):
        ds = gen_shapes_dataset(10, 5, seed=0)
        with pytest.raises(ConfigError):
            ds.capture_batch(11)

    @pytest.mark.parametrize("m", [0, -1])
    def test_capture_below_one(self, m):
        ds = gen_shapes_dataset(8, 4, seed=0)
        with pytest.raises(ConfigError, match=rf"must lie in \[1, 8\] \(the train size\), "
                                              rf"got {m}$"):
            ds.capture_batch(m)


class TestIdx:
    def test_hand_built_file_exact_pixels(self, tmp_path):
        imgs = np.zeros((2, 4, 4), np.uint8)
        imgs[0, 1, 2] = 255
        imgs[1, 3, 3] = 51
        ip, lp = write_idx(tmp_path, imgs, [7, 1])
        ds = load_idx(ip, lp, test_fraction=0.5, seed=0)
        everything = np.concatenate([ds.x_train, ds.x_test])
        vals = sorted(everything.max(axis=(1, 2, 3)))
        assert abs(vals[0] - 51 / 255) < 1e-7 and vals[1] == 1.0

    def test_count_mismatch(self, tmp_path):
        ip, lp = write_idx(tmp_path, np.zeros((3, 4, 4), np.uint8), [0, 1])
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_bad_magic(self, tmp_path):
        ip, lp = write_idx(tmp_path, np.zeros((2, 4, 4), np.uint8), [0, 1])
        raw = bytearray(ip.read_bytes())
        raw[3] = 0x99
        ip.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_empty_file(self, tmp_path):
        ip = tmp_path / "e.idx"
        ip.write_bytes(b"")
        with pytest.raises(FormatError):
            load_idx(ip, ip)

    def test_truncated_pixels(self, tmp_path):
        ip, lp = write_idx(tmp_path, np.zeros((2, 4, 4), np.uint8), [0, 1])
        ip.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_idx(ip, lp)

    def test_header_declaring_more_than_the_file_holds(self, tmp_path):
        # (2**32 - 1)**3 pixels: the size check must fire before any read
        ip, lp = write_idx(tmp_path, np.zeros((2, 4, 4), np.uint8), [0, 1])
        ip.write_bytes(struct.pack(">IIII", 0x803, *[2**32 - 1] * 3) + bytes(32))
        with pytest.raises(FormatError, match=rf"^{re.escape(str(ip))}: IDX header declares "
                                              rf"{(2**32 - 1) ** 3} bytes, but only 32 remain$"):
            load_idx(ip, lp)


class TestNoisyPairs:
    def test_sigma_zero_identity(self):
        clean = gen_shapes_dataset(10, 5, seed=1)
        ds = make_noisy_pairs(clean, sigma=0.0, seed=0)
        np.testing.assert_array_equal(ds.x_train, clean.x_train)
        np.testing.assert_array_equal(ds.y_train, clean.x_train)

    def test_noise_std_matches_sigma(self):
        clean = gen_shapes_dataset(40, 5, seed=1, image_size=16)
        ds = make_noisy_pairs(clean, sigma=50.0, seed=3)
        noise = ds.x_train - ds.y_train
        measured = noise.std()
        assert abs(measured - 50 / 255) / (50 / 255) < 0.02

    def test_same_seed_index_identical(self):
        clean = gen_shapes_dataset(10, 5, seed=1)
        a = make_noisy_pairs(clean, sigma=25.0, seed=7)
        b = make_noisy_pairs(clean, sigma=25.0, seed=7)
        np.testing.assert_array_equal(a.x_train, b.x_train)

    def test_negative_sigma_rejected(self):
        clean = gen_shapes_dataset(5, 5, seed=1)
        with pytest.raises(ConfigError):
            make_noisy_pairs(clean, sigma=-1.0)

    def test_task_flag(self):
        clean = gen_shapes_dataset(5, 5, seed=1)
        assert clean.task == "classify"
        assert make_noisy_pairs(clean, 10.0).task == "denoise"


class TestDescriptors:
    def test_shapes_descriptor(self):
        ds = open_dataset("shapes:n_train=30,n_test=10,size=12,seed=4")
        assert ds.kind == "synthetic_shapes"
        assert ds.sample_shape == (1, 12, 12)
        assert len(ds.x_train) == 30

    def test_denoise_descriptor(self):
        ds = open_dataset("denoise:n_train=20,n_test=5,size=12,sigma=50,seed=1")
        assert ds.kind == "denoise_patches"
        assert ds.sigma == 50
        assert ds.sample_shape == (1, 12, 12)

    def test_denoise_size_key(self):
        ds = open_dataset("denoise:n_train=8,n_test=4,size=16")
        assert ds.sample_shape == (1, 16, 16)

    @pytest.mark.parametrize("descriptor", [
        "shapes:n_trian=8", "denoise:patch=12", "idx:images=a,labels=b,sigma=5"])
    def test_unknown_key_rejected(self, descriptor):
        with pytest.raises(ConfigError, match="unknown keys"):
            open_dataset(descriptor)

    def test_loss_kind_follows_task(self):
        assert open_dataset("shapes:n_train=4,n_test=2").loss_kind == "cross_entropy"
        assert open_dataset("denoise:n_train=4,n_test=2").loss_kind == "mse"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            open_dataset("cifar:whatever=1")

    def test_malformed_pair(self):
        with pytest.raises(ConfigError):
            open_dataset("shapes:n_train")
