"""Deterministic desk-scale datasets.

Three sources: a procedural 10-class shape generator (classification), an
IDX-format reader for externally supplied image/label files, and an AWGN
pairing step that turns any image set into (noisy, clean) pairs for
denoising. Every sample is a pure function of (seed, split, index), so
regeneration is exact and splits never overlap.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError

# integer tags namespacing the seed stream
_TRAIN, _TEST, _SHUFFLE, _CAPTURE, _NOISE = 0, 1, 2, 3, 4

N_CLASSES = 10

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


@dataclass
class DatasetHandle:
    """Materialized train/test arrays plus deterministic batch iteration.

    ``kind`` is one of synthetic_shapes, idx_pair, denoise_patches. For
    classification kinds y_* hold int64 labels; for denoise_patches they
    hold the clean images and x_* the noisy ones.
    """

    kind: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    seed: int
    sigma: float = 0.0

    def __post_init__(self):
        if len(self.x_train) != len(self.y_train):
            raise ConfigError("train images/targets length mismatch")
        if len(self.x_test) != len(self.y_test):
            raise ConfigError("test images/targets length mismatch")

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return self.x_train.shape[1:]

    @property
    def task(self) -> str:
        return "denoise" if self.kind == "denoise_patches" else "classify"

    @property
    def loss_kind(self) -> str:
        """The training and probe loss for this task."""
        return "mse" if self.task == "denoise" else "cross_entropy"

    def train_batches(self, batch_size: int, epoch: int):
        """Minibatches in a fresh seeded permutation per epoch."""
        n = len(self.x_train)
        order = _rng(self.seed, _SHUFFLE, epoch).permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            yield self.x_train[idx], self.y_train[idx]

    def test_batches(self, batch_size: int):
        n = len(self.x_test)
        for start in range(0, n, batch_size):
            yield self.x_test[start:start + batch_size], self.y_test[start:start + batch_size]

    def capture_batch(self, m: int):
        """The fixed probe minibatch shared by saliency and oracle runs."""
        n = len(self.x_train)
        if not 1 <= m <= n:
            raise ConfigError(f"capture batch must lie in [1, {n}] (the train size), got {m}")
        idx = _rng(self.seed, _CAPTURE).permutation(n)[:m]
        idx.sort()
        return self.x_train[idx], self.y_train[idx]


# ---------------------------------------------------------------------------
# procedural shapes


def _render_shape(label: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """One grayscale image of the given class with jittered geometry."""
    bg = rng.uniform(0.0, 0.15)
    fg = rng.uniform(0.6, 1.0)
    cy = size / 2 + rng.uniform(-2.0, 2.0)
    cx = size / 2 + rng.uniform(-2.0, 2.0)
    r = size * rng.uniform(0.26, 0.38)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dy, dx = yy - cy, xx - cx
    dist = np.hypot(dy, dx)
    thick = max(1.2, size * 0.09)

    if label == 0:  # filled disc
        mask = dist <= r
    elif label == 1:  # ring
        mask = (dist <= r) & (dist >= r - thick)
    elif label == 2:  # filled square
        mask = (np.abs(dy) <= r * 0.85) & (np.abs(dx) <= r * 0.85)
    elif label == 3:  # hollow frame
        outer = (np.abs(dy) <= r * 0.9) & (np.abs(dx) <= r * 0.9)
        inner = (np.abs(dy) <= r * 0.9 - thick) & (np.abs(dx) <= r * 0.9 - thick)
        mask = outer & ~inner
    elif label == 4:  # plus sign
        ext = (np.abs(dy) <= r) & (np.abs(dx) <= r)
        mask = ext & ((np.abs(dy) <= thick) | (np.abs(dx) <= thick))
    elif label == 5:  # diagonal cross
        ext = (np.abs(dy) <= r) & (np.abs(dx) <= r)
        mask = ext & ((np.abs(dy - dx) <= thick * 1.4) | (np.abs(dy + dx) <= thick * 1.4))
    elif label == 6:  # horizontal stripes
        period = rng.integers(3, 6)
        phase = rng.integers(0, period)
        mask = ((yy.astype(int) + phase) // period) % 2 == 0
    elif label == 7:  # vertical stripes
        period = rng.integers(3, 6)
        phase = rng.integers(0, period)
        mask = ((xx.astype(int) + phase) // period) % 2 == 0
    elif label == 8:  # filled triangle, apex up
        mask = (dy >= -r) & (dy <= r) & (np.abs(dx) <= (dy + r) * 0.55)
    elif label == 9:  # checkerboard
        period = rng.integers(3, 5)
        py, px = rng.integers(0, period, 2)
        mask = (((yy.astype(int) + py) // period)
                + ((xx.astype(int) + px) // period)) % 2 == 0
    else:
        raise ConfigError(f"no such shape class {label}")

    img = np.where(mask, fg, bg)
    img = img + rng.normal(0.0, 0.02, img.shape)
    return np.clip(img, 0.0, 1.0)


def _gen_split(n: int, size: int, seed: int, split_tag: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.empty((n, 1, size, size), dtype=np.float32)
    ys = np.empty(n, dtype=np.int64)
    for i in range(n):
        label = i % N_CLASSES
        rng = _rng(seed, split_tag, i)
        xs[i, 0] = _render_shape(label, size, rng).astype(np.float32)
        ys[i] = label
    return xs, ys


def gen_shapes_dataset(n_train: int, n_test: int, image_size: int = 16,
                       seed: int = 0) -> DatasetHandle:
    """10 shape/texture classes rendered with geometric and intensity
    jitter; labels cycle so class counts are balanced within one."""
    if n_train < 1 or n_test < 1 or image_size < 8:
        raise ConfigError("need n_train, n_test >= 1 and image_size >= 8")
    x_tr, y_tr = _gen_split(n_train, image_size, seed, _TRAIN)
    x_te, y_te = _gen_split(n_test, image_size, seed, _TEST)
    return DatasetHandle("synthetic_shapes", x_tr, y_tr, x_te, y_te,
                         seed=seed)


# ---------------------------------------------------------------------------
# IDX files


def _read_idx(path, magic: int, ndim: int) -> np.ndarray:
    """The uint8 array of an IDX file whose header holds ``magic`` and
    ``ndim`` big-endian u32 dims; a payload the header declares but the
    file lacks is a FormatError, raised before the payload is read."""
    with open(path, "rb") as fh:
        head = fh.read(4 + 4 * ndim)
        if len(head) != 4 + 4 * ndim:
            raise FormatError(f"{path}: truncated IDX header")
        found, *dims = struct.unpack(f">{1 + ndim}I", head)
        if found != magic:
            raise FormatError(f"{path}: bad IDX magic {found:#010x}, expected {magic:#010x}")
        size = math.prod(dims)  # exact: Python ints do not overflow
        left = os.fstat(fh.fileno()).st_size - len(head)
        if size > left:
            raise FormatError(f"{path}: IDX header declares {size} bytes, "
                              f"but only {left} remain")
        return np.frombuffer(fh.read(size), dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path, test_fraction: float = 0.1,
             seed: int = 0) -> DatasetHandle:
    """Big-endian IDX image/label pair, normalized to [0,1]; the tail
    ``test_fraction`` of a seeded permutation becomes the test split."""
    images = _read_idx(images_path, IDX_MAGIC_IMAGES, 3)[:, None].astype(np.float32) / 255.0
    labels = _read_idx(labels_path, IDX_MAGIC_LABELS, 1).astype(np.int64)
    if len(images) != len(labels):
        raise FormatError(
            f"IDX count mismatch: {len(images)} images vs {len(labels)} labels")
    if len(images) == 0:
        raise FormatError("IDX files contain no samples")
    n_test = max(1, int(round(len(images) * test_fraction))) if len(images) > 1 else 0
    order = _rng(seed, _SHUFFLE).permutation(len(images))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if len(train_idx) == 0:
        raise ConfigError("IDX split left no training samples")
    return DatasetHandle("idx_pair", images[train_idx], labels[train_idx],
                         images[test_idx], labels[test_idx],
                         seed=seed)


# ---------------------------------------------------------------------------
# denoising pairs


def make_noisy_pairs(clean: DatasetHandle, sigma: float, seed: int = 0) -> DatasetHandle:
    """(clean + N(0, sigma/255), clean) pairs with per-index fixed noise.

    Noise is added on the unit scale and NOT clipped; clipping would skew
    the noise statistics the denoiser is judged against.
    """
    if sigma < 0:
        raise ConfigError("noise level sigma must be >= 0")
    scale = sigma / 255.0

    def noisy(images: np.ndarray, split_tag: int) -> np.ndarray:
        out = np.empty_like(images)
        for i in range(len(images)):
            n = _rng(seed, _NOISE, split_tag, i).normal(0.0, scale, images[i].shape)
            out[i] = images[i] + n.astype(images.dtype)
        return out

    return DatasetHandle(
        "denoise_patches",
        noisy(clean.x_train, _TRAIN), clean.x_train.copy(),
        noisy(clean.x_test, _TEST), clean.x_test.copy(),
        seed=seed, sigma=sigma)


# ---------------------------------------------------------------------------
# descriptor strings (CLI entry point)


def _parse_kv(body: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ConfigError(f"dataset descriptor needs key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


_DESCRIPTOR_KEYS = {
    "shapes": ("n_train", "n_test", "size", "seed"),
    "denoise": ("n_train", "n_test", "size", "sigma", "seed"),
    "idx": ("images", "labels", "test_fraction", "seed"),
}


def open_dataset(descriptor: str) -> DatasetHandle:
    """Build a handle from a one-line descriptor.

    Forms: ``shapes:n_train=512,n_test=128,size=16,seed=0``,
    ``denoise:n_train=256,n_test=64,size=12,sigma=50,seed=0`` (shape
    images re-used as clean patches), and ``idx:images=PATH,labels=PATH``
    (optionally ``test_fraction`` and ``seed``). Any other key is a
    ConfigError.
    """
    head, _, body = descriptor.partition(":")
    if head not in _DESCRIPTOR_KEYS:
        raise ConfigError(f"unknown dataset kind {head!r}")
    kv = _parse_kv(body)
    unknown = sorted(set(kv) - set(_DESCRIPTOR_KEYS[head]))
    if unknown:
        raise ConfigError(f"{head} descriptor has unknown keys {unknown}; "
                          f"it takes {', '.join(_DESCRIPTOR_KEYS[head])}")
    try:
        if head == "shapes":
            return gen_shapes_dataset(
                n_train=int(kv.get("n_train", 512)),
                n_test=int(kv.get("n_test", 128)),
                image_size=int(kv.get("size", 16)),
                seed=int(kv.get("seed", 0)))
        if head == "denoise":
            clean = gen_shapes_dataset(
                n_train=int(kv.get("n_train", 256)),
                n_test=int(kv.get("n_test", 64)),
                image_size=int(kv.get("size", 12)),
                seed=int(kv.get("seed", 0)))
            return make_noisy_pairs(clean, sigma=float(kv.get("sigma", 50)),
                                    seed=int(kv.get("seed", 0)))
        if "images" not in kv or "labels" not in kv:
            raise ConfigError("idx descriptor needs images= and labels= paths")
        return load_idx(kv["images"], kv["labels"],
                        test_fraction=float(kv.get("test_fraction", 0.1)),
                        seed=int(kv.get("seed", 0)))
    except ValueError as exc:
        raise ConfigError(f"bad value in dataset descriptor: {exc}") from exc
