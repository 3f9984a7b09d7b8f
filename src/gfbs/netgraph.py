"""Network description, construction, forward pass, and persistence.

A network is a straight-line list of blocks read from a small text
format, one block per line:

    # comment
    name tinyvgg            (optional)
    input 3 32 32           (channels, height, width; required, first)
    conv_bn_relu 16 3 1 1   (out_channels kernel stride padding)
    conv_bn 16 3 1 1        (same, but no ReLU after the norm)
    conv 1 3 1 1            (plain convolution, no norm)
    residual_begin          (push the running stream)
    residual_add            (pop and add elementwise)
    pool 0 2 2 0            (max pool; channel and padding columns fixed 0)
    flatten
    linear 10               (out features)

Blocks after ``flatten`` must all be ``linear``. Residual begin/add pairs
nest like parentheses and both streams must agree in shape at the join.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .autograd import (
    ConvParams,
    LinearParams,
    ParamSet,
    Tape,
    Tensor,
    add,
    batchnorm,
    conv2d,
    flatten,
    linear,
    maxpool2d,
    relu,
)
from .errors import ConfigError, FormatError

CONV_KINDS = ("conv_bn_relu", "conv_bn", "conv")
BN_KINDS = ("conv_bn_relu", "conv_bn")
# kind -> how many of (channels, kernel, stride, padding) its spec line gives
ARITY = {**dict.fromkeys(CONV_KINDS, 4), "residual_begin": 0, "residual_add": 0,
         "pool": 4, "flatten": 0, "linear": 1}

CKPT_MAGIC = b"GFBS"
CKPT_VERSION = 1


@dataclass(frozen=True)
class BlockSpec:
    kind: str
    channels: int = 0  # conv kinds: out channels; linear: out features
    kernel: int = 0
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kind not in ARITY:
            raise ConfigError(f"unknown block kind {self.kind!r}")


@dataclass(frozen=True)
class Node:
    """One compiled block. ``src`` is the conv block whose channels the
    block reads (-1 for the network input); ``skip_src``, set only on a
    residual_add, is the producer of the stream saved at its begin.
    ``flops`` is the block's per-sample cost (see ``_compile``) and
    ``detail`` its shape summary in flops.txt."""

    index: int
    block: BlockSpec
    in_shape: tuple
    out_shape: tuple
    src: int
    skip_src: int | None = None
    flops: int = 0
    detail: str = ""


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    in_channels: int
    in_height: int
    in_width: int
    blocks: tuple[BlockSpec, ...]
    nodes: tuple[Node, ...] = field(init=False, compare=False, repr=False)
    groups: tuple[CouplingGroup, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if min(self.in_channels, self.in_height, self.in_width) < 1:
            raise ConfigError("input dimensions must be positive")
        nodes = _compile(self)  # raises on any structural problem
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "groups", _coupling_groups(nodes))

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.in_channels, self.in_height, self.in_width)


@dataclass(frozen=True, order=True)
class ChannelRef:
    """One channel of one block, addressed by block index."""

    layer: int
    channel: int


@dataclass(frozen=True)
class CouplingGroup:
    """Channels that must be pruned together (shared residual stream)."""

    group_id: int
    members: tuple[ChannelRef, ...]


def _compile(spec: NetworkSpec) -> tuple[Node, ...]:
    """One walk over the blocks: validates chaining, residual pairing and
    block ordering, and records each block's shapes, producers and FLOPs.
    Conv/pool shapes are (C, H, W), post-flatten shapes are (D,).

    FLOPs are per sample under a fixed convention: one multiply-add is 2
    FLOPs and bias adds are counted. Per block: conv = 2*H'*W'*C_out*k^2*C_in
    + H'*W'*C_out, linear = 2*D*K + K, batch norm = 2 per element, ReLU = 1
    per element, pool = k^2 per output element, residual add = 1 per
    element, flatten free."""
    shape: tuple = spec.input_shape
    src = -1
    stack: list[tuple[tuple, int]] = []
    nodes: list[Node] = []
    for i, b in enumerate(spec.blocks):
        in_shape, skip_src, flops, detail = shape, None, 0, ""
        if len(shape) == 1 and b.kind != "linear":
            raise ConfigError(f"block {i}: only linear blocks may follow flatten")
        if b.kind in CONV_KINDS:
            c, h, w = shape
            if b.channels < 1 or b.kernel < 1 or b.stride < 1 or b.padding < 0:
                raise ConfigError(f"block {i}: bad conv geometry")
            ho = (h + 2 * b.padding - b.kernel) // b.stride + 1
            wo = (w + 2 * b.padding - b.kernel) // b.stride + 1
            if ho < 1 or wo < 1:
                raise ConfigError(f"block {i}: conv output collapses to {ho}x{wo}")
            shape = (b.channels, ho, wo)
            elems = b.channels * ho * wo
            flops = (2 * b.kernel * b.kernel * c + 1) * elems  # conv and bias
            flops += (2 * (b.kind in BN_KINDS) + (b.kind == "conv_bn_relu")) * elems  # norm, ReLU
            detail = f"{c}->{b.channels} k{b.kernel} @{ho}x{wo}"
        elif b.kind == "pool":
            c, h, w = shape
            if b.kernel < 1 or b.stride < 1:
                raise ConfigError(f"block {i}: bad pool geometry")
            if b.channels != 0 or b.padding != 0:
                raise ConfigError(f"block {i}: pool lines use 0 for channels and padding")
            ho = (h - b.kernel) // b.stride + 1
            wo = (w - b.kernel) // b.stride + 1
            if ho < 1 or wo < 1:
                raise ConfigError(f"block {i}: pool output collapses to {ho}x{wo}")
            shape = (c, ho, wo)
            flops, detail = b.kernel * b.kernel * c * ho * wo, f"k{b.kernel} @{ho}x{wo}"
        elif b.kind == "residual_begin":
            stack.append((shape, src))
        elif b.kind == "residual_add":
            if not stack:
                raise ConfigError(f"block {i}: residual_add without residual_begin")
            saved, skip_src = stack.pop()
            if saved != shape:
                raise ConfigError(
                    f"block {i}: residual streams disagree, {saved} vs {shape}")
            flops, detail = math.prod(shape), f"@{shape[1]}x{shape[2]}"
        elif b.kind == "flatten":
            shape = (shape[0] * shape[1] * shape[2],)
        elif b.kind == "linear":
            if len(shape) != 1:
                raise ConfigError(f"block {i}: linear requires a flattened stream")
            if b.channels < 1:
                raise ConfigError(f"block {i}: linear needs >= 1 output features")
            flops, detail = (2 * shape[0] + 1) * b.channels, f"{shape[0]}->{b.channels}"
            shape = (b.channels,)
        nodes.append(Node(i, b, in_shape, shape, src, skip_src, flops, detail))
        if b.kind in CONV_KINDS:
            src = i
    if stack:
        raise ConfigError("unmatched residual_begin")
    return tuple(nodes)


def infer_shapes(spec: NetworkSpec) -> list[tuple]:
    """Per-block output shapes. Conv/pool shapes are (C, H, W),
    post-flatten shapes are (D,)."""
    return [n.out_shape for n in spec.nodes]


# ---------------------------------------------------------------------------
# spec text round-trip


def parse_spec(text: str) -> NetworkSpec:
    name = "net"
    header: tuple[int, int, int] | None = None
    blocks: list[BlockSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]

        def ints(n):
            if len(args) != n:
                raise FormatError(f"line {lineno}: {kind} takes {n} integer(s)")
            try:
                return [int(a) for a in args]
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer argument") from None

        if kind == "name":
            if len(args) != 1 or header is not None or blocks:
                raise FormatError(f"line {lineno}: name must come first, one token")
            name = args[0]
        elif kind == "input":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate input line")
            c, h, w = ints(3)
            header = (c, h, w)
        elif kind in ARITY:
            blocks.append(BlockSpec(kind, *ints(ARITY[kind])))
        else:
            raise FormatError(f"line {lineno}: unknown block kind {kind!r}")
    if header is None:
        raise FormatError("spec missing the input line")
    if not blocks:
        raise FormatError("spec has no blocks")
    try:
        return NetworkSpec(name, header[0], header[1], header[2], tuple(blocks))
    except ConfigError as exc:
        raise FormatError(f"invalid spec: {exc}") from exc


def format_spec(spec: NetworkSpec) -> str:
    lines = [f"name {spec.name}",
             f"input {spec.in_channels} {spec.in_height} {spec.in_width}"]
    for b in spec.blocks:
        lines.append(" ".join(map(str, astuple(b)[:1 + ARITY[b.kind]])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# network object


class Network:
    """A spec plus one parameter container per block (None for shape ops)."""

    def __init__(self, spec: NetworkSpec, params: list):
        self.spec = spec
        self.params = params

    @property
    def dtype(self):
        for p in self.params:
            if p is not None:
                return next(iter(p.tensors().values())).dtype
        return np.dtype(np.float32)

    def parameters(self) -> list[Tensor]:
        out = []
        for p in self.params:
            if p is not None:
                out.extend(p.learnable())
        return out

    def named_tensors(self) -> dict[str, Tensor]:
        """Stable name -> tensor map over everything worth persisting."""
        out: dict[str, Tensor] = {}
        for i, p in enumerate(self.params):
            if p is None:
                continue
            for field_name, t in p.tensors().items():
                out[f"b{i}.{field_name}"] = t
        return out

    def clone(self) -> "Network":
        return from_arrays(self.spec, {n: t.data.copy() for n, t in self.named_tensors().items()})

    def zeroed(self, refs, names: tuple[str, ...]) -> "Network":
        """A copy in which channel ``ref.channel`` of the named tensors of
        each ref's block is 0. It shares no array with ``self``, which is
        never written to: a channel what-if is a copy, not an edit."""
        out = self.clone()
        for ref in refs:
            for name in names:
                getattr(out.params[ref.layer], name).data[ref.channel] = 0.0
        return out

    def bn_blocks(self) -> list[int]:
        """Indices of blocks carrying batch-norm parameters."""
        return [i for i, b in enumerate(self.spec.blocks) if b.kind in BN_KINDS]


def _layout(node: Node) -> tuple[type | None, dict[str, tuple]]:
    """The parameter class of one block and its tensor name -> shape map,
    in checkpoint order; (None, {}) for blocks without parameters."""
    b = node.block
    if b.kind == "linear":
        return LinearParams, {"weight": (node.in_shape[0], b.channels), "bias": (b.channels,)}
    if b.kind not in CONV_KINDS:
        return None, {}
    cls = ParamSet if b.kind in BN_KINDS else ConvParams
    weight = (b.channels, node.in_shape[0], b.kernel, b.kernel)
    return cls, {f.name: weight if f.name == "weight" else (b.channels,) for f in fields(cls)}


def _tensor_shapes(spec: NetworkSpec) -> dict[str, tuple]:
    """``b{i}.{field}`` -> shape of every tensor ``spec`` holds."""
    return {f"b{node.index}.{name}": shape for node in spec.nodes
            for name, shape in _layout(node)[1].items()}


def from_arrays(spec: NetworkSpec, arrays: dict[str, np.ndarray]) -> Network:
    """The network of ``spec`` holding ``arrays``, keyed ``b{i}.{field}`` as
    ``Network.named_tensors`` names them. The arrays are used, not copied,
    and keep their dtype. This is the one check of a network's tensors: a
    missing, extra or misshapen array, or a negative running variance, is
    a ConfigError."""
    expected = _tensor_shapes(spec)
    if set(arrays) != set(expected):
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise ConfigError(f"tensor set mismatch: missing {missing}, extra {extra}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ConfigError(f"shape mismatch for {name}: {arrays[name].shape} vs spec {shape}")
    params = []
    for i, (cls, shapes) in enumerate(map(_layout, spec.nodes)):
        named = {n: arrays[f"b{i}.{n}"] for n in shapes}
        if "running_var" in named and np.any(named["running_var"] < 0):
            raise ConfigError(f"block {i}: running_var must be non-negative")
        params.append(cls(**{n: Tensor(a, dtype=a.dtype) for n, a in named.items()})
                      if cls else None)
    return Network(spec, params)


def build_network(spec: NetworkSpec, seed: int = 0, dtype=np.float32) -> Network:
    """Allocate parameters for a spec: Kaiming fan-in normal conv/linear
    weights, unit gamma, zero beta and bias, fresh running statistics."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for node in spec.nodes:
        for name, shape in _layout(node)[1].items():
            if name == "weight":
                fan_in = shape[0] if node.block.kind == "linear" else math.prod(shape[1:])
                arr = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
            else:
                arr = np.ones(shape) if name in ("gamma", "running_var") else np.zeros(shape)
            arrays[f"b{node.index}.{name}"] = arr.astype(dtype)
    return from_arrays(spec, arrays)


def forward_full(net: Network, batch: Tensor, mode: str, tape: Tape | None = None,
                 update_stats: bool = True, resume: dict | None = None) -> Tensor:
    """Run the whole network on ``batch`` (see ``run_blocks`` for ``resume``)."""
    if batch.data.ndim != 4 or batch.shape[1:] != net.spec.input_shape:
        raise ConfigError(
            f"batch shape {batch.shape} does not match input {net.spec.input_shape}")
    return run_blocks(net, batch, mode, tape=tape, update_stats=update_stats, resume=resume)


def run_blocks(net: Network, x: Tensor, mode: str, start: int | None = None, stack=(),
               tape: Tape | None = None, update_stats: bool = True,
               resume: dict | None = None) -> Tensor:
    """Run the network's blocks, the one block walker.

    With ``start`` None, ``x`` is the network input and every block runs.
    Otherwise ``x`` is the conv output of conv-kind block ``start`` and
    ``stack`` the residual streams open there, as ``resume[start]`` of an
    earlier pass records them: that conv is skipped and the walk goes on
    from its norm. ``resume``, when given, collects ``(conv output, open
    residual streams)`` as ``resume[i]`` for every conv-kind block i run."""
    if start is not None and net.spec.blocks[start].kind not in CONV_KINDS:
        raise ConfigError(f"block {start} has no conv output to resume from")
    stack = list(stack)
    for i in range(start or 0, len(net.spec.blocks)):
        b, p = net.spec.blocks[i], net.params[i]
        if b.kind in CONV_KINDS:
            pre = x if i == start else conv2d(x, p, stride=b.stride, padding=b.padding, tape=tape)
            if resume is not None:
                resume[i] = (pre, tuple(stack))
            if b.kind == "conv":
                x = pre
            else:
                x = batchnorm(pre, p, mode, tape=tape, update_stats=update_stats)
                if b.kind == "conv_bn_relu":
                    x = relu(x, tape=tape)
        elif b.kind == "pool":
            x = maxpool2d(x, b.kernel, b.stride, tape=tape)
        elif b.kind == "residual_begin":
            stack.append(x)
        elif b.kind == "residual_add":
            x = add(stack.pop(), x, tape=tape)
        elif b.kind == "flatten":
            x = flatten(x, tape=tape)
        elif b.kind == "linear":
            x = linear(x, p.weight, p.bias, tape=tape)
    return x


# ---------------------------------------------------------------------------
# FLOPs accounting


@dataclass(frozen=True)
class FlopsReport:
    entries: tuple[Node, ...]
    total: int

    def ratio_vs(self, baseline: "FlopsReport") -> float:
        if baseline.total == 0:
            raise ConfigError("baseline FLOPs count is zero")
        return self.total / baseline.total


def count_flops(spec: NetworkSpec) -> FlopsReport:
    """Per-sample FLOPs of every block (``Node.flops``) and their sum."""
    return FlopsReport(spec.nodes, sum(n.flops for n in spec.nodes))


# ---------------------------------------------------------------------------
# coupling groups


def _coupling_groups(nodes: tuple[Node, ...]) -> tuple[CouplingGroup, ...]:
    """Partition prunable channels into atomic groups.

    A residual add joins its two producers into one stream, so channel c
    of every producer of a stream, joined directly or through a chain of
    adds, lives or dies together: one group per channel of the stream.
    Producers are conv block indices; the network input (-1) and
    plain-conv outputs cannot be pruned, so their streams give no group.
    Group ids are assigned in order of each group's smallest member.
    """
    parent = {n.index: n.index for n in nodes if n.block.kind in CONV_KINDS}

    def find(p):
        parent.setdefault(p, p)
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for node in nodes:
        if node.skip_src is not None:
            parent[find(node.src)] = find(node.skip_src)
    streams: dict = {}
    for p in sorted(parent):
        streams.setdefault(find(p), []).append(p)
    groups = sorted(tuple(ChannelRef(p, c) for p in members)
                    for members in streams.values()
                    if all(p >= 0 and nodes[p].block.kind in BN_KINDS for p in members)
                    for c in range(nodes[members[0]].block.channels))
    return tuple(CouplingGroup(gid, refs) for gid, refs in enumerate(groups))


def build_coupling_groups(spec: NetworkSpec) -> list[CouplingGroup]:
    """The spec's atomic pruning groups (see ``_coupling_groups``)."""
    return list(spec.groups)


def group_lookup(groups: list[CouplingGroup]) -> dict[ChannelRef, int]:
    table: dict[ChannelRef, int] = {}
    for g in groups:
        for ref in g.members:
            table[ref] = g.group_id
    return table


# ---------------------------------------------------------------------------
# checkpoint persistence


_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def save_checkpoint(net: Network, path) -> None:
    spec_bytes = format_spec(net.spec).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<I", CKPT_VERSION))
    buf.write(struct.pack("<I", len(spec_bytes)))
    buf.write(spec_bytes)
    for name, t in net.named_tensors().items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<BB", _DTYPE_TAGS[t.data.dtype], t.data.ndim))
        for d in t.shape:
            buf.write(struct.pack("<I", d))
        buf.write(np.ascontiguousarray(t.data).tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CKPT_MAGIC:
            raise FormatError("bad checkpoint magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (spec_len,) = struct.unpack("<I", _read_exact(fh, 4, "spec length"))
        try:
            spec_text = _read_exact(fh, spec_len, "spec text").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("checkpoint spec text is not valid UTF-8") from exc
        spec = parse_spec(spec_text)
        expected = _tensor_shapes(spec)
        file_size = os.fstat(fh.fileno()).st_size
        loaded: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise FormatError("truncated checkpoint while reading record header")
            (name_len,) = struct.unpack("<I", head)
            try:
                name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError("checkpoint tensor name is not valid UTF-8") from exc
            if name not in expected:
                raise FormatError(f"checkpoint holds tensor {name!r}, which its spec lacks")
            if name in loaded:
                raise FormatError(f"checkpoint holds tensor {name} twice")
            tag, ndim = struct.unpack("<BB", _read_exact(fh, 2, "dtype/ndim"))
            if tag not in _TAG_DTYPES:
                raise FormatError(f"unknown dtype tag {tag} for {name}")
            dtype = _TAG_DTYPES[tag]
            if loaded and dtype != next(iter(loaded.values())).dtype:
                raise FormatError(f"checkpoint mixes dtypes: {name} is {dtype.name}")
            dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "dims"))
            if dims != expected[name]:
                raise FormatError(f"checkpoint declares {name} as {dims}, "
                                  f"but its spec gives {expected[name]}")
            nbytes = math.prod(dims) * dtype.itemsize  # exact: Python ints do not overflow
            if nbytes > file_size - fh.tell():
                raise FormatError(f"checkpoint declares {nbytes} bytes for {name}, "
                                  f"but only {file_size - fh.tell()} remain")
            raw = _read_exact(fh, nbytes, f"data of {name}")
            loaded[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()

    try:
        return from_arrays(spec, loaded)
    except ConfigError as exc:
        raise FormatError(f"checkpoint does not fit its spec: {exc}") from exc
