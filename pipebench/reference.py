"""Float64 NumPy reference computations, written from the documented
definitions and sharing no code with the gfbs package.

Networks here are a list of ``Block`` tuples plus a dict of arrays named
like the checkpoint records (``b{i}.weight``, ``b{i}.gamma`` ...). Channel
counts are read from the arrays, so one block list serves a network and
every pruned copy of it.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5
PSNR_CAP_DB = 100.0
CONV_KINDS = ("conv_bn_relu", "conv_bn", "conv")
BN_KINDS = ("conv_bn_relu", "conv_bn")


class Block(NamedTuple):
    kind: str
    channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0


class Spec(NamedTuple):
    input_shape: tuple[int, int, int]
    blocks: tuple[Block, ...]


def parse_spec(text: str) -> Spec:
    """The spec grammar of docs/formats.md, without its validation."""
    shape = None
    blocks = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts or parts[0] == "name":
            continue
        kind, args = parts[0], [int(a) for a in parts[1:]]
        if kind == "input":
            shape = tuple(args)
        else:
            blocks.append(Block(kind, *args))
    if shape is None:
        raise ValueError("spec has no input line")
    return Spec(shape, tuple(blocks))


def read_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    """Spec text and tensors of a .ckpt file, per docs/formats.md."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"GFBS":
        raise ValueError(f"{path}: bad magic")
    version, spec_len = struct.unpack_from("<II", raw, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    pos = 12
    spec_text = raw[pos:pos + spec_len].decode("utf-8")
    pos += spec_len
    tensors = {}
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        name = raw[pos:pos + name_len].decode("utf-8")
        pos += name_len
        tag, ndim = struct.unpack_from("<BB", raw, pos)
        pos += 2
        dims = struct.unpack_from(f"<{ndim}I", raw, pos)
        pos += 4 * ndim
        dtype = np.dtype("<f4") if tag == 0 else np.dtype("<f8")
        count = int(np.prod(dims, dtype=np.int64))
        tensors[name] = np.frombuffer(raw, dtype=dtype, count=count,
                                      offset=pos).reshape(dims).copy()
        pos += count * dtype.itemsize
    return spec_text, tensors


# ---------------------------------------------------------------------------
# forward


def conv(x, w, b, stride, padding):
    """Cross-correlation through a window view and one einsum."""
    k = w.shape[2]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("nchwij,ocij->nohw", win, w, optimize=True) + b[None, :, None, None]


def batchnorm(x, gamma, beta, mean, var):
    inv = 1.0 / np.sqrt(var + BN_EPS)
    return (x - mean[None, :, None, None]) * (gamma * inv)[None, :, None, None] \
        + beta[None, :, None, None]


def maxpool(x, k, stride):
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.max(axis=(4, 5))


def forward(spec: Spec, params: dict, x, mode: str) -> np.ndarray:
    """Whole-network forward in float64. ``mode`` train normalizes with
    the batch's biased statistics, eval with the stored running ones."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    x = np.asarray(x, dtype=np.float64)
    stack = []
    for i, b in enumerate(spec.blocks):
        if b.kind in CONV_KINDS:
            x = conv(x, p[f"b{i}.weight"], p[f"b{i}.bias"], b.stride, b.padding)
            if b.kind in BN_KINDS:
                if mode == "train":
                    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
                else:
                    mean, var = p[f"b{i}.running_mean"], p[f"b{i}.running_var"]
                x = batchnorm(x, p[f"b{i}.gamma"], p[f"b{i}.beta"], mean, var)
            if b.kind == "conv_bn_relu":
                x = np.maximum(x, 0.0)
        elif b.kind == "pool":
            x = maxpool(x, b.kernel, b.stride)
        elif b.kind == "residual_begin":
            stack.append(x)
        elif b.kind == "residual_add":
            x = stack.pop() + x
        elif b.kind == "flatten":
            x = x.reshape(len(x), -1)
        elif b.kind == "linear":
            x = x @ p[f"b{i}.weight"] + p[f"b{i}.bias"]
        else:
            raise ValueError(f"unknown block {b.kind}")
    return x


def batch_loss(out, target, kind: str) -> float:
    out = np.asarray(out, dtype=np.float64)
    if kind == "cross_entropy":
        z = out - out.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(len(out)), np.asarray(target)].mean())
    return float(np.mean((out - target) ** 2))


def accuracy(out, labels) -> float:
    return float((np.asarray(out).argmax(axis=1) == labels).mean())


def psnr_db(pred, target) -> float:
    """Mean per-image PSNR for unit-scale images, capped at 100 dB."""
    vals = []
    for p, t in zip(pred, target):
        mse = float(np.mean((np.asarray(p, np.float64) - np.asarray(t, np.float64)) ** 2))
        vals.append(PSNR_CAP_DB if mse <= 0 else min(PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse)))
    return float(np.mean(vals))


def task_metric(task: str, out, target) -> float:
    return accuracy(out, target) if task == "classify" else psnr_db(out, target)


def zero_channels(params: dict, channels) -> dict:
    """Copy of ``params`` with W, b, gamma and beta of each (layer, channel) zeroed."""
    out = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    for layer, ch in channels:
        for field in ("weight", "bias", "gamma", "beta"):
            out[f"b{layer}.{field}"][ch] = 0.0
    return out


# ---------------------------------------------------------------------------
# structure: FLOPs and coupling groups


def widths(spec: Spec, params: dict) -> dict[int, int]:
    """Output channels of every conv-kind block, read from the weights."""
    return {i: params[f"b{i}.weight"].shape[0]
            for i, b in enumerate(spec.blocks) if b.kind in CONV_KINDS}


def flops(spec: Spec, width: dict[int, int]) -> int:
    """Per-sample FLOPs under the convention of docs/formats.md."""
    c, h, w = spec.input_shape
    d = 0
    total = 0
    for i, b in enumerate(spec.blocks):
        if b.kind in CONV_KINDS:
            h = (h + 2 * b.padding - b.kernel) // b.stride + 1
            w = (w + 2 * b.padding - b.kernel) // b.stride + 1
            c_in, c = c, width[i]
            total += 2 * h * w * c * b.kernel ** 2 * c_in + h * w * c
            total += (2 if b.kind in BN_KINDS else 0) * c * h * w
            total += (1 if b.kind == "conv_bn_relu" else 0) * c * h * w
        elif b.kind == "pool":
            h = (h - b.kernel) // b.stride + 1
            w = (w - b.kernel) // b.stride + 1
            total += b.kernel ** 2 * c * h * w
        elif b.kind == "residual_add":
            total += c * h * w
        elif b.kind == "flatten":
            d = c * h * w
        elif b.kind == "linear":
            total += 2 * d * b.channels + b.channels
            d = b.channels
    return total


def coupling_groups(spec: Spec, width: dict[int, int]) -> list[frozenset]:
    """Sets of (layer, channel) that a residual add ties together. A set
    touching the network input or a plain conv is not prunable and left out."""
    parent: dict = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            a = parent[a]
        return a

    stream = [("input", c) for c in range(spec.input_shape[0])]
    saved = []
    for i, b in enumerate(spec.blocks):
        if b.kind in CONV_KINDS:
            stream = [(b.kind, i, c) for c in range(width[i])]
            for key in stream:
                find(key)
        elif b.kind == "residual_begin":
            saved.append(stream)
        elif b.kind == "residual_add":
            for a, c in zip(saved.pop(), stream):
                parent[find(c)] = find(a)
    sets: dict = {}
    for key in parent:
        sets.setdefault(find(key), set()).add(key)
    return [frozenset((k[1], k[2]) for k in keys) for keys in sets.values()
            if all(k[0] in BN_KINDS for k in keys)]


# ---------------------------------------------------------------------------
# rank statistics


def average_ranks(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    ranks = np.empty(len(x))
    for v in np.unique(x):
        idx = np.flatnonzero(x == v)
        ranks[idx] = np.sum(x < v) + (len(idx) + 1) / 2.0
    return ranks


def spearman(a, b) -> float:
    ra, rb = average_ranks(a), average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt((ra * ra).sum() * (rb * rb).sum())
    return float((ra * rb).sum() / denom) if denom else 0.0


def bottom_overlap(a, b, fraction: float = 0.2) -> int:
    """Items shared by the lowest ``fraction`` of two scorings."""
    k = max(1, int(round(len(a) * fraction)))
    bottom_a = set(np.argsort(np.asarray(a), kind="stable")[:k].tolist())
    bottom_b = set(np.argsort(np.asarray(b), kind="stable")[:k].tolist())
    return len(bottom_a & bottom_b)
