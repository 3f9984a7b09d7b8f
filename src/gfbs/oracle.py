"""Ground truth for validating the cheap saliency scores.

The oracle actually removes channels, one coupling group at a time, and
measures the resulting loss change on a fixed minibatch. Removal is
simulated by zeroing the group's norm scales: with gamma at zero the
block's output collapses to its shift, exactly what structural removal
plus a bias correction would produce, so no surgery is needed per probe.
A gamma-only edit leaves every block before the group's first block, and
that block's conv output, as they were, so each probe resumes there from
one full pass of the probe batch.
Also here: Spearman rank correlation with average-rank tie handling.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, loss as loss_op
from .errors import ConfigError, write_csv
from .netgraph import (
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
    out = forward_full(net, Tensor(batch_x, dtype=net.dtype), "train",
                       update_stats=False)
    return loss_op(out, batch_y, loss_kind).item()


@contextlib.contextmanager
def _zeroed(net: Network, refs, names: tuple[str, ...]):
    """Zero channel ``ref.channel`` of the named tensors of each ref's block
    for the body, and restore the saved values afterwards, also on error."""
    saved = []
    try:
        for ref in refs:
            for name in names:
                t = getattr(net.params[ref.layer], name)
                saved.append((t, ref.channel, t.data[ref.channel].copy()))
                t.data[ref.channel] = 0.0
        yield
    finally:
        for t, ch, value in reversed(saved):
            t.data[ch] = value


def oracle_delta_loss(net: Network, batch_x: np.ndarray, batch_y,
                      loss_kind: str) -> list[OracleRecord]:
    """|loss-with-group-zeroed - base loss| for every prunable group.

    The probe batch must be the same one the saliency capture used for
    the comparison to mean anything. The network is left bit-identical.

    One pass records, at each group's first block, the pre-norm output
    and the residual stack. A probe zeroes the group's gammas and resumes
    there, skipping that block's conv: zeroing gamma changes neither the
    blocks before it nor its conv, which reads only weight and bias, so
    every delta is bit-identical to one from a full pass of the edited net.
    Only those resume points are held across the probes: the pass's other
    activations, kept alive among the probes' temporaries, fragment the
    heap so that each probe faults in fresh pages, which makes the run
    slower and its time far less steady.
    """
    groups = net.spec.groups
    if not groups:
        return []
    snapshot = {name: t.data.copy() for name, t in net.named_tensors().items()}
    trace, entries = {}, {}
    out = forward_full(net, Tensor(batch_x, dtype=net.dtype), "train", trace=trace,
                       update_stats=False, entries=entries)
    base = loss_op(out, batch_y, loss_kind).item()
    starts = {g.members[0].layer for g in groups}
    resume = {s: (trace[s]["pre_bn"], entries[s][1]) for s in starts}
    del trace, entries

    records = []
    for g in groups:
        start = g.members[0].layer
        pre, stack = resume[start]
        with _zeroed(net, g.members, ("gamma",)):
            out = run_blocks(net, pre, "train", start, stack, pre_norm=True,
                             update_stats=False)
            delta = abs(loss_op(out, batch_y, loss_kind).item() - base)
        records.append(OracleRecord(group=g.group_id, members=g.members, delta_loss=delta))
    for name, t in net.named_tensors().items():
        if not np.array_equal(t.data, snapshot[name]):
            raise ConfigError(f"oracle probe failed to restore {name}")
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
        with _zeroed(net, [ref], ("gamma",)):
            via_gamma = _batch_loss(net, batch_x, batch_y, loss_kind)
        with _zeroed(net, [ref], ("weight", "bias")):
            via_filter = _batch_loss(net, batch_x, batch_y, loss_kind)
        worst = max(worst, abs(via_gamma - via_filter))
    return worst


# ---------------------------------------------------------------------------
# rank statistics


def _average_ranks(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    n = len(x)
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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
