"""Channel scoring from one probe pass.

One train-mode forward/backward on a fixed minibatch captures, for every
norm-carrying channel, the triple (gamma, dL/dgamma, beta) and the L1 norm
of its filter. The probe runs on a copy of the network, so the caller's
grads and running statistics are never touched. Each layer's four
vectors are scaled to unit Euclidean norm so channels compete globally
on comparable footing, then combined into a scalar score:

    score = |grad_gamma_n * gamma_n| + lam * beta_n

with beta entering SIGNED: a channel whose shift is negative mostly dies
at the ReLU, so a negative beta makes the channel cheaper to remove. For
norm blocks without a trailing ReLU the beta term is dropped (the sign
argument needs the rectifier). Ablation criteria keep only one part of
the score; l1_filter ranks by normalized per-filter weight magnitude
instead and ignores the probe gradients entirely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autograd import Tape, Tensor, backward, loss as loss_op
from .errors import ConfigError, FormatError, read_csv, write_csv
from .netgraph import BN_KINDS, ChannelRef, Network, NetworkSpec, forward_full, group_lookup

CRITERIA = ("gfbs", "gamma_only", "beta_only", "l1_filter")

CSV_HEADER = ["layer", "channel", "gamma", "grad_gamma", "beta", "weight_l1",
              "gamma_n", "grad_gamma_n", "beta_n", "weight_l1_n", "score", "group", "rank"]


@dataclass(frozen=True)
class PruneConfig:
    """Knobs shared by scoring and planning; field names match CLI flags."""

    lam: float = 0.05
    tau: float = 0.5
    criterion: str = "gfbs"
    batch_size: int = 64
    min_keep: int = 4

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:  # also false for NaN
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie strictly inside (0, 1)")
        if self.criterion not in CRITERIA:
            raise ConfigError(f"criterion must be one of {CRITERIA}")
        if self.min_keep < 1:
            raise ConfigError("min_keep must be >= 1")


@dataclass
class SaliencyRecord:
    layer: int
    channel: int
    gamma: float
    grad_gamma: float
    beta: float
    weight_l1: float
    has_relu: bool
    group: int  # -1 when the channel sits on an unprunable stream
    gamma_n: float = 0.0
    grad_gamma_n: float = 0.0
    beta_n: float = 0.0
    weight_l1_n: float = 0.0
    score: float = 0.0
    rank: int = -1

    @property
    def ref(self) -> ChannelRef:
        return ChannelRef(self.layer, self.channel)


def capture(net: Network, batch_x: np.ndarray, batch_y: np.ndarray,
            loss_kind: str) -> list[SaliencyRecord]:
    """Probe pass: returns raw per-channel records.

    The pass runs on a copy of ``net``, so the caller's parameters and
    gradients are never touched. It normalizes with batch statistics, and
    like every forward pass outside training it leaves the running ones be.
    """
    bn_blocks = net.bn_blocks()
    if not bn_blocks:
        raise ConfigError("network has no norm-carrying blocks to score")
    if _looks_untrained(net, bn_blocks):
        warnings.warn("scoring a network with factory-default norm parameters; "
                      "saliencies will be uninformative", stacklevel=2)

    net = net.clone()
    tape = Tape()
    out = forward_full(net, Tensor(batch_x, dtype=net.dtype), "train", tape=tape)
    scalar = loss_op(out, batch_y, loss_kind, tape=tape)
    backward(tape, scalar)

    lookup = group_lookup(net.spec.groups)
    records: list[SaliencyRecord] = []
    for i in bn_blocks:
        p = net.params[i]
        g = p.gamma.data
        gg = p.gamma.grad if p.gamma.grad is not None else np.zeros_like(g)
        b = p.beta.data
        w_l1 = np.abs(p.weight.data).sum(axis=(1, 2, 3))
        has_relu = net.spec.blocks[i].kind == "conv_bn_relu"
        for j in range(p.out_channels):
            records.append(SaliencyRecord(
                layer=i, channel=j,
                gamma=float(g[j]), grad_gamma=float(gg[j]), beta=float(b[j]),
                weight_l1=float(w_l1[j]), has_relu=has_relu,
                group=lookup.get(ChannelRef(i, j), -1)))
    return records


def _looks_untrained(net: Network, bn_blocks: list[int]) -> bool:
    for i in bn_blocks:
        p = net.params[i]
        if not (np.all(p.gamma.data == 1.0) and np.all(p.beta.data == 0.0)):
            return False
    return True


def normalize_layerwise(records: list[SaliencyRecord]) -> list[SaliencyRecord]:
    """Scale each layer's vector of gamma, grad_gamma, beta and weight_l1 to
    unit Euclidean norm and store it in the matching ``_n`` field, in place.
    All-zero vectors stay all-zero."""
    by_layer: dict[int, list[SaliencyRecord]] = {}
    for r in records:
        by_layer.setdefault(r.layer, []).append(r)
    for layer_records in by_layer.values():
        for raw in ("gamma", "grad_gamma", "beta", "weight_l1"):
            vec = np.array([getattr(r, raw) for r in layer_records], dtype=np.float64)
            peak = float(np.abs(vec).max())
            if peak > 0:  # dividing by the peak first keeps the norm from underflowing
                vec = vec / peak
                vec = vec / np.linalg.norm(vec)
            for r, v in zip(layer_records, vec):
                setattr(r, raw + "_n", float(v))
    return records


def score(records: list[SaliencyRecord], cfg: PruneConfig) -> list[SaliencyRecord]:
    """Fill score and global ascending rank (ties broken by layer, channel)."""
    for r in records:
        taylor = abs(r.grad_gamma_n * r.gamma_n)
        if cfg.criterion == "gfbs":
            r.score = taylor + (cfg.lam * r.beta_n if r.has_relu else 0.0)
        elif cfg.criterion == "gamma_only":
            r.score = taylor
        elif cfg.criterion == "beta_only":
            r.score = r.beta_n
        else:  # l1_filter
            r.score = r.weight_l1_n
    order = sorted(range(len(records)),
                   key=lambda i: (records[i].score, records[i].layer, records[i].channel))
    for rank, i in enumerate(order):
        records[i].rank = rank
    return records


def group_scores(records: list[SaliencyRecord], groups) -> list[float]:
    """The mean member score of each of ``groups`` (anything with
    ``members``, such as coupling groups or oracle records), in order.
    A member without a record is a ConfigError."""
    by_ref = {r.ref: r.score for r in records}
    for g in groups:
        for ref in g.members:
            if ref not in by_ref:
                raise ConfigError(f"saliency records miss prunable channel {ref}")
    return [float(np.mean([by_ref[ref] for ref in g.members])) for g in groups]


def saliency_records(net: Network, batch_x: np.ndarray, batch_y: np.ndarray,
                     loss_kind: str, cfg: PruneConfig) -> list[SaliencyRecord]:
    """capture -> normalize -> score in one call."""
    return score(normalize_layerwise(capture(net, batch_x, batch_y, loss_kind)), cfg)


# ---------------------------------------------------------------------------
# CSV round-trip


def write_saliency_csv(records: list[SaliencyRecord], path) -> None:
    write_csv(path, CSV_HEADER, ([getattr(r, name) for name in CSV_HEADER]
                                 for r in sorted(records, key=lambda r: (r.layer, r.channel))))


def read_saliency_csv(path, spec: NetworkSpec) -> list[SaliencyRecord]:
    """Records of a saliency CSV written for ``spec``. ``has_relu`` comes from
    each row's block kind. A channel may have one row only."""
    records: dict[tuple[int, int], SaliencyRecord] = {}
    for lineno, row in read_csv(path, CSV_HEADER):
        try:
            layer, channel = int(row[0]), int(row[1])
            block = spec.blocks[layer] if 0 <= layer < len(spec.blocks) else None
            if block is None or block.kind not in BN_KINDS or not 0 <= channel < block.channels:
                raise FormatError(f"{path}:{lineno}: spec {spec.name!r} has no "
                                  f"norm channel {channel} in block {layer}")
            if (layer, channel) in records:
                raise FormatError(f"{path}:{lineno}: repeated row for channel {channel} "
                                  f"of block {layer}")
            floats = {name: float(v) for name, v in zip(CSV_HEADER[2:-2], row[2:-2])}
            bad = [name for name, v in floats.items() if not math.isfinite(v)]
            if bad:
                raise FormatError(f"{path}:{lineno}: non-finite {', '.join(bad)}")
            records[layer, channel] = SaliencyRecord(
                layer=layer, channel=channel, has_relu=block.kind == "conv_bn_relu",
                group=int(row[-2]), rank=int(row[-1]), **floats)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad field: {exc}") from exc
    if not records:
        raise FormatError(f"{path}: no saliency rows")
    return list(records.values())
