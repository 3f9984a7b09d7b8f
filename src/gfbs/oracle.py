"""Ground truth for validating the cheap saliency scores.

The oracle actually removes channels, one coupling group at a time, and
measures the resulting loss change on a fixed minibatch. Removal is
simulated by zeroing the group's norm scales: with gamma at zero a
channel's block output collapses to its shift, exactly what structural
removal plus a bias correction would produce, so no surgery is needed
per probe, and the caller's network is never written to. A gamma-only
edit leaves every block before the group's first block, and that
block's conv output, as they were, so no probe reruns them: one full
pass of the probe batch records, at each conv block, the conv output
and the residual streams open there.

A one-member group, channel c of block s, is patched rather than
recomputed. Its channel of block s's output is the constant shift
(through the ReLU if one follows), and every other channel is the
unedited one, so block s's base output is computed once and the probe
only overwrites channel c. Max pooling maps a constant channel to the
same constant, so the patch passes through pools unchanged. If a conv
block t comes next, its conv output is the base one plus channel c's
change convolved with t's weights for that one input channel; the walk
resumes at t's norm. Otherwise it resumes at the first non-pool block
from the patched output. A group with several members, which sit in
different blocks, runs on a copy of the network with its gammas zeroed
(``Network.zeroed``), resumed at its first block's conv output.

Every block, base outputs included, runs in ``netgraph.run_blocks``;
besides the loss, the one op the oracle calls itself is the delta conv.

Also here: Spearman rank correlation with average-rank tie handling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .autograd import ConvParams, Tensor, conv2d, loss as loss_op
from .errors import ConfigError, write_csv
from .netgraph import (
    CONV_KINDS,
    ChannelRef,
    Network,
    forward_full,
    run_blocks,
)


@dataclass
class OracleRecord:
    group: int
    members: tuple[ChannelRef, ...]
    delta_loss: float
    rank: int = -1


def _batch_loss(net: Network, batch_x: np.ndarray, batch_y, loss_kind: str) -> float:
    out = forward_full(net, Tensor(batch_x, dtype=net.dtype), "train")
    return loss_op(out, batch_y, loss_kind).item()


def _after_pools(net: Network, s: int) -> int:
    """The first block after block ``s`` that is not a pool (or the block count)."""
    t = s + 1
    while t < len(net.spec.blocks) and net.spec.blocks[t].kind == "pool":
        t += 1
    return t


def _patched_probes(net: Network, resume: dict, s: int):
    """Channel c -> the network output with gamma_c of block ``s`` zeroed:
    block s's base output, walked once by ``run_blocks`` on the unedited
    net to the first non-pool block t, with channel c patched as the
    module docstring describes."""
    blocks, beta = net.spec.blocks, net.params[s].beta.data
    shift = np.maximum(beta, 0) if blocks[s].kind == "conv_bn_relu" else beta
    t = _after_pools(net, s)
    pre, stack = resume[s]
    base = run_blocks(net, pre, "train", s, stack, stop=t).data
    if t < len(blocks) and blocks[t].kind in CONV_KINDS:
        pre_t, stack_t = resume[t]
        conv_t, w = blocks[t], net.params[t].weight.data
        zero_bias = Tensor(np.zeros(w.shape[0], w.dtype))

        def probe(c: int) -> Tensor:
            change = conv2d(Tensor(shift[c] - base[:, c:c + 1]),
                            ConvParams(Tensor(w[:, c:c + 1]), zero_bias),
                            stride=conv_t.stride, padding=conv_t.padding)
            return run_blocks(net, Tensor(pre_t.data + change.data), "train", t, stack_t)
    else:

        def probe(c: int) -> Tensor:
            x = base.copy()
            x[:, c] = shift[c]
            return run_blocks(net, Tensor(x), "train", t, stack)
    return probe


def oracle_delta_loss(net: Network, batch_x: np.ndarray, batch_y,
                      loss_kind: str) -> list[OracleRecord]:
    """|loss-with-group-zeroed - base loss| for every prunable group.

    The probe batch must be the same one the saliency capture used for
    the comparison to mean anything. ``net`` itself is never written to.

    One ``forward_full`` pass records ``resume``, the conv output and the
    open residual streams of every conv-kind block, and every probe is a
    ``run_blocks`` walk resumed from it. The groups of one start block come
    in a row, so its entry is dropped once they are probed. One-member
    groups are patched (see the module docstring) and copy no network;
    their deltas equal a full pass's bit for bit, except where a delta
    conv sums in another order, within float rounding. Multi-member
    groups are bit-identical. Only what the probes read is held across
    them: the start and delta-conv entries of ``resume`` and one start
    block's base output. The pass's other activations, kept alive among
    the probes' temporaries, fragment the heap so that each probe faults
    in fresh pages, which makes the run slower and its time far less
    steady.
    """
    groups = net.spec.groups
    if not groups:
        return []
    resume = {}
    out = forward_full(net, Tensor(batch_x, dtype=net.dtype), "train", resume=resume)
    base = loss_op(out, batch_y, loss_kind).item()
    keep = set()
    for g in groups:
        s = g.members[0].layer
        keep.update((s, _after_pools(net, s)) if len(g.members) == 1 else (s,))
    resume = {i: resume[i] for i in keep if i in resume}

    records = []
    for s, at_s in itertools.groupby(groups, key=lambda g: g.members[0].layer):
        probe = None
        for g in at_s:
            if len(g.members) == 1:
                probe = probe or _patched_probes(net, resume, s)
                out = probe(g.members[0].channel)
            else:
                pre, stack = resume[s]
                out = run_blocks(net.zeroed(g.members, ("gamma",)), pre, "train", s, stack)
            delta = abs(loss_op(out, batch_y, loss_kind).item() - base)
            records.append(OracleRecord(group=g.group_id, members=g.members, delta_loss=delta))
        del resume[s], probe
    order = sorted(range(len(records)),
                   key=lambda i: (records[i].delta_loss, records[i].group))
    for rank, i in enumerate(order):
        records[i].rank = rank
    return records


def spot_check_zero_equivalence(net: Network, batch_x: np.ndarray, batch_y,
                                loss_kind: str, refs: list[ChannelRef]) -> float:
    """Max |loss(gamma_j=0) - loss(W_j=0, b_j=0)| over the given channels.

    Both edits silence the channel the same way: a zeroed filter yields an
    all-zero pre-norm map whose normalized form is zero, and a zeroed
    scale ignores the normalized form altogether; either way the block
    emits the shift. A large value here means the equivalence broke.
    """
    worst = 0.0
    for ref in refs:
        via_gamma = _batch_loss(net.zeroed([ref], ("gamma",)), batch_x, batch_y, loss_kind)
        via_filter = _batch_loss(net.zeroed([ref], ("weight", "bias")), batch_x, batch_y,
                                 loss_kind)
        worst = max(worst, abs(via_gamma - via_filter))
    return worst


# ---------------------------------------------------------------------------
# rank statistics


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, inv, cnt = np.unique(np.asarray(values, dtype=np.float64),
                            return_inverse=True, return_counts=True)
    return (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]


def spearman(a, b) -> float:
    """Rank correlation in [-1, 1]; ties get average ranks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError("spearman needs two equal-length 1-d sequences")
    if len(a) < 2:
        raise ConfigError("spearman needs at least 2 items")
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0:
        raise ConfigError("spearman undefined for constant input")
    return float((ra * rb).sum() / denom)


def bottom_fraction_overlap(scores_a, scores_b, fraction: float) -> tuple[int, int, float]:
    """How many of the lowest-``fraction`` items the two scorings share.

    Returns (overlap, k, random_expectation) where k is the bottom-set
    size and the expectation is k^2/n for an uninformed selection.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError("overlap needs two equal-length 1-d sequences")
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must lie in (0, 1)")
    n = len(a)
    k = max(1, int(round(n * fraction)))
    bottom_a = set(np.argsort(a, kind="stable")[:k].tolist())
    bottom_b = set(np.argsort(b, kind="stable")[:k].tolist())
    return len(bottom_a & bottom_b), k, k * k / n


# ---------------------------------------------------------------------------
# CSV


ORACLE_HEADER = ["layer", "channel", "group", "delta_loss", "rank"]


def write_oracle_csv(records: list[OracleRecord], path) -> None:
    write_csv(path, ORACLE_HEADER, sorted(
        (ref.layer, ref.channel, r.group, r.delta_loss, r.rank)
        for r in records for ref in r.members))
