"""Dense tensors with reverse-mode automatic differentiation.

Covers exactly the operator set a Conv-BN-ReLU network needs: 2-d
convolution (cross-correlation), batch normalization, ReLU, max pooling,
flatten, elementwise add, a linear head, and cross-entropy / MSE losses.
Every forward call may record a node on an explicit Tape; ``backward``
replays the tape in reverse order and accumulates gradients into the
``grad`` buffer of every tensor that participated, parameters and
intermediate activations alike.

float32 is the working precision; float64 exists for verification
(finite-difference gradient checks) and is selected by building tensors
with ``dtype=np.float64``. Mixing precisions in one op is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError

DTYPES = (np.float32, np.float64)


class Tensor:
    """N-d float array plus an optional gradient buffer of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        if dtype is not None:
            if np.dtype(dtype) not in [np.dtype(d) for d in DTYPES]:
                raise ConfigError(f"unsupported dtype {dtype!r}; use float32 or float64")
            arr = np.ascontiguousarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype == np.float64:
            arr = np.ascontiguousarray(data)
        else:
            arr = np.ascontiguousarray(data, dtype=np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ConfigError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


_BUFFER = {"buffer": True}  # field metadata: persisted, never updated by an optimizer


class _Params:
    """Base of the parameter dataclasses. Their fields, in order, are the
    persisted tensors (the checkpoint layout); all but buffers are learnable."""

    def tensors(self) -> dict[str, Tensor]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def learnable(self) -> list[Tensor]:
        return [getattr(self, f.name) for f in fields(self) if not f.metadata.get("buffer")]


@dataclass
class ConvParams(_Params):
    """Plain convolution parameters (no normalization attached)."""

    weight: Tensor  # [C_out, C_in, k, k]
    bias: Tensor  # [C_out]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]


@dataclass
class ParamSet(ConvParams):
    """Learnable parameters of one Conv+BN unit plus its running statistics."""

    gamma: Tensor  # [C_out]
    beta: Tensor  # [C_out]
    running_mean: Tensor = field(metadata=_BUFFER)  # [C_out]
    running_var: Tensor = field(metadata=_BUFFER)  # [C_out]
    eps: ClassVar[float] = 1e-5
    momentum: ClassVar[float] = 0.1


@dataclass
class LinearParams(_Params):
    """Affine head parameters; weight is stored input-major as [D, K]."""

    weight: Tensor
    bias: Tensor


class TapeNode:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], None]):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of forward operations.

    Nodes are appended in execution order, which is already topological,
    and ``backward`` visits them in exact reverse. A tape is single-use:
    replaying a consumed tape is an error.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.consumed = False

    def record(self, op: str, inputs: Sequence[Tensor], output: Tensor,
               backward_fn: Callable[[np.ndarray], None]) -> None:
        if self.consumed:
            raise ConfigError("cannot record on a consumed tape")
        self.nodes.append(TapeNode(op, inputs, output, backward_fn))


def _accum(t: Tensor, delta: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += delta


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


def _check_same_dtype(op: str, *arrays: np.ndarray) -> None:
    dt = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dt:
            raise ConfigError(f"{op}: mixed dtypes {dt} and {a.dtype}")


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/dx to every tensor recorded on the tape.

    ``loss`` must be a scalar produced while recording on ``tape``. After
    the call the tape is consumed and every participating tensor holds its
    accumulated gradient in ``.grad``.
    """
    if tape.consumed:
        raise ConfigError("tape already consumed by a previous backward()")
    if loss.size != 1:
        raise ConfigError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape.consumed = True
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        gout = node.output.grad
        if gout is None:
            continue  # branch not connected to the loss
        node.backward_fn(gout)


# ---------------------------------------------------------------------------
# convolution


def _im2col(x: np.ndarray, k: int, stride: int, padding: int):
    """Columns ``[N, C*k*k, Ho*Wo]``: row ``(c, i, j)`` of sample n holds
    ``x[n, c, i + stride*ho, j + stride*wo]`` over the output grid (ho, wo).
    The copy runs along Wo, and ``W[C_out, C*k*k] @ cols`` is already NCHW."""
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    if hp < k or wp < k:
        raise ConfigError(f"kernel {k} larger than padded input {hp}x{wp}")
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * k * k, ho * wo)
    return cols, ho, wo


def _col2im(gcols: np.ndarray, shape: tuple[int, ...], k: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of ``_im2col``: scatter-add ``[N, C*k*k, Ho*Wo]`` columns back
    onto ``[N, C, H, W]``; each of the k*k adds reads one contiguous block."""
    n, c, h, w = shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    g6 = gcols.reshape(n, c, k, k, ho, wo)
    gxp = np.zeros((n, c, hp, wp), dtype=gcols.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += g6[:, :, i, j]
    if padding > 0:
        return np.ascontiguousarray(gxp[:, :, padding:padding + h, padding:padding + w])
    return gxp


def conv2d(x: Tensor, params, stride: int = 1, padding: int = 0,
           tape: Tape | None = None) -> Tensor:
    """Cross-correlate ``x`` [N,C_in,H,W] with ``params.weight`` and add bias.

    No kernel flipping is performed (the usual deep-learning convention).
    """
    w, b = params.weight, params.bias
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ConfigError("conv2d expects 4-d input and weight")
    if stride < 1 or padding < 0:
        raise ConfigError("conv2d needs stride >= 1 and padding >= 0")
    n, c_in, h, wid = x.shape
    c_out, c_in_w, k, k2 = w.shape
    if k != k2:
        raise ConfigError("only square kernels are supported")
    if c_in != c_in_w:
        raise ConfigError(f"input has {c_in} channels, weight expects {c_in_w}")
    _check_same_dtype("conv2d", x.data, w.data, b.data)

    cols, ho, wo = _im2col(x.data, k, stride, padding)
    wmat = w.data.reshape(c_out, -1)
    out = Tensor((np.matmul(wmat, cols) + b.data[:, None]).reshape(n, c_out, ho, wo))
    _check_finite(out.data, "conv2d")

    if tape is not None:

        def bwd(gout: np.ndarray) -> None:
            g3 = gout.reshape(n, c_out, ho * wo)
            _accum(b, g3.sum(axis=(0, 2)))
            _accum(w, np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
            _accum(x, _col2im(np.matmul(wmat.T, g3), (n, c_in, h, wid), k, stride, padding))

        tape.record("conv2d", [x, w, b], out, bwd)
    return out


# ---------------------------------------------------------------------------
# batch normalization


def batchnorm(x: Tensor, params: ParamSet, mode: str, tape: Tape | None = None,
              update_stats: bool = True) -> Tensor:
    """Per-channel batch normalization over the batch and spatial axes.

    In train mode the normalizing mean/variance (biased) come from the
    minibatch, adding per-sample sums in float64 so that sample order does
    not matter, and fold into the running statistics by moving average
    unless ``update_stats`` is off; a batch variance that overflows is a
    NumericError. Eval mode uses the running statistics.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown batchnorm mode {mode!r}")
    if x.data.ndim != 4:
        raise ConfigError("batchnorm expects [N,C,H,W] input")
    n, c, h, w = x.shape
    if c != params.out_channels:
        raise ConfigError(f"input has {c} channels, params expect {params.out_channels}")
    _check_same_dtype("batchnorm", x.data, params.gamma.data)
    gamma, beta = params.gamma, params.beta
    m = n * h * w
    if mode == "train":
        if m < 2:
            raise ConfigError("train-mode batchnorm needs at least 2 values per channel")
        with np.errstate(over="ignore"):  # an overflow shows as a non-finite variance
            mu = (x.data.sum(axis=(2, 3)).sum(axis=0, dtype=np.float64) / m).astype(x.dtype)
            xhat = x.data - mu[None, :, None, None]  # centred here, scaled below
            var = ((xhat * xhat).sum(axis=(2, 3)).sum(axis=0, dtype=np.float64) / m).astype(x.dtype)
        if not np.isfinite(var).all():
            raise NumericError("batchnorm: batch variance is not finite")
        if update_stats:
            mom = params.momentum
            params.running_mean.data *= 1.0 - mom
            params.running_mean.data += mom * mu.astype(params.running_mean.dtype)
            params.running_var.data *= 1.0 - mom
            params.running_var.data += mom * var.astype(params.running_var.dtype)
    else:
        mu = params.running_mean.data.astype(x.dtype)
        var = params.running_var.data.astype(x.dtype)
        xhat = x.data - mu[None, :, None, None]
    g4 = gamma.data[None, :, None, None]
    inv4 = (1.0 / np.sqrt(var + params.eps))[None, :, None, None]
    xhat *= inv4
    out = Tensor(g4 * xhat + beta.data[None, :, None, None])
    _check_finite(out.data, "batchnorm")

    if tape is not None:

        def bwd(gout: np.ndarray) -> None:
            dbeta = gout.sum(axis=(0, 2, 3))
            dgamma = (gout * xhat).sum(axis=(0, 2, 3))
            _accum(beta, dbeta)
            _accum(gamma, dgamma)
            if mode == "train":  # the batch statistics depend on x as well
                gout = gout - (dbeta[None, :, None, None] + xhat * dgamma[None, :, None, None]) / m
            _accum(x, gout * g4 * inv4)

        tape.record("batchnorm", [x, gamma, beta], out, bwd)
    return out


# ---------------------------------------------------------------------------
# pointwise and shape ops


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is taken as 0."""
    out = Tensor(np.maximum(x.data, 0))
    if tape is not None:
        mask = x.data > 0

        def bwd(gout: np.ndarray) -> None:
            _accum(x, gout * mask)

        tape.record("relu", [x], out, bwd)
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise sum of two equal-shape tensors (residual joins)."""
    if a.shape != b.shape:
        raise ConfigError(f"add: shape mismatch {a.shape} vs {b.shape}")
    _check_same_dtype("add", a.data, b.data)
    out = Tensor(a.data + b.data)
    _check_finite(out.data, "add")
    if tape is not None:

        def bwd(gout: np.ndarray) -> None:
            _accum(a, gout)
            _accum(b, gout)

        tape.record("add", [a, b], out, bwd)
    return out


def flatten(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Collapse all non-batch axes: [N, ...] -> [N, D], row-major."""
    n = x.shape[0]
    xshape = x.shape
    out = Tensor(x.data.reshape(n, -1).copy())
    if tape is not None:

        def bwd(gout: np.ndarray) -> None:
            _accum(x, gout.reshape(xshape))

        tape.record("flatten", [x], out, bwd)
    return out


def maxpool2d(x: Tensor, kernel: int, stride: int, tape: Tape | None = None) -> Tensor:
    """Max pooling with square windows: a running max over the k*k strided
    slices ``x[:, :, i::stride, j::stride]``. Backward walks the slices in
    row-major (i, j) order and routes each output's gradient to the first
    slice equal to its max that no earlier slice claimed, so ties go to the
    first maximal element of the window and backward is deterministic."""
    if x.data.ndim != 4:
        raise ConfigError("maxpool2d expects [N,C,H,W] input")
    if kernel < 1 or stride < 1:
        raise ConfigError("maxpool2d needs kernel >= 1 and stride >= 1")
    n, c, h, w = x.shape
    if h < kernel or w < kernel:
        raise ConfigError(f"pool kernel {kernel} larger than input {h}x{w}")
    ho, wo = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    xd = x.data
    slices = [np.s_[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
              for i in range(kernel) for j in range(kernel)]
    m = xd[slices[0]].copy()
    for sl in slices[1:]:
        np.maximum(m, xd[sl], out=m)
    out = Tensor(m)

    if tape is not None:

        def bwd(gout: np.ndarray) -> None:
            free = np.ones(m.shape, dtype=bool)
            hits = []
            for sl in slices:
                hits.append(free & (xd[sl] == m))
                free &= ~hits[-1]
            gx = np.zeros_like(xd)
            # walked backwards, each input element sums its outputs in row-major order
            for sl, hit in zip(slices[::-1], hits[::-1]):
                gx[sl] += gout * hit
            _accum(x, gx)

        tape.record("maxpool2d", [x], out, bwd)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor, tape: Tape | None = None) -> Tensor:
    """Affine map [N,D] @ [D,K] + [K]."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ConfigError("linear expects 2-d input and weight")
    if x.shape[1] != weight.shape[0]:
        raise ConfigError(f"linear: input dim {x.shape[1]} vs weight rows {weight.shape[0]}")
    if bias.shape != (weight.shape[1],):
        raise ConfigError("linear: bias length must match weight columns")
    _check_same_dtype("linear", x.data, weight.data, bias.data)
    out = Tensor(x.data @ weight.data + bias.data)
    _check_finite(out.data, "linear")
    if tape is not None:

        def bwd(gout: np.ndarray) -> None:
            _accum(bias, gout.sum(axis=0))
            _accum(weight, x.data.T @ gout)
            _accum(x, gout @ weight.data.T)

        tape.record("linear", [x, weight, bias], out, bwd)
    return out


# ---------------------------------------------------------------------------
# losses


def loss(pred: Tensor, target, kind: str, tape: Tape | None = None) -> Tensor:
    """Mean-over-batch scalar loss.

    ``cross_entropy`` applies softmax to ``pred`` [N,K] and takes the
    negative log-likelihood of integer ``target`` labels. ``mse`` is the
    mean squared difference over all elements; the target carries no
    gradient. Both means sum in float64, so sample order does not matter.
    """
    if kind == "cross_entropy":
        if pred.data.ndim != 2:
            raise ConfigError("cross_entropy expects [N,K] logits")
        t = target.data if isinstance(target, Tensor) else np.asarray(target)
        labels = np.asarray(t).reshape(-1)
        if labels.shape[0] != pred.shape[0]:
            raise ConfigError("cross_entropy: one label per row required")
        if not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == np.round(labels)):
                raise ConfigError("cross_entropy labels must be integers")
            labels = labels.astype(np.int64)
        k = pred.shape[1]
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
            raise ConfigError(f"labels must lie in [0, {k})")
        n = pred.shape[0]
        z = pred.data - pred.data.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
        logp = z - lse
        out = Tensor(np.asarray(-logp[np.arange(n), labels].mean(dtype=np.float64), pred.dtype))
        _check_finite(out.data, "cross_entropy")
        if tape is not None:
            softmax = np.exp(logp)

            def bwd(gout: np.ndarray) -> None:
                g = softmax.copy()
                g[np.arange(n), labels] -= 1.0
                _accum(pred, g * (gout / n))

            tape.record("cross_entropy", [pred], out, bwd)
        return out

    if kind == "mse":
        tdata = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=pred.dtype)
        if tdata.shape != pred.shape:
            raise ConfigError(f"mse: shape mismatch {pred.shape} vs {tdata.shape}")
        with np.errstate(over="ignore"):  # an overflow shows as a non-finite loss
            diff = pred.data - tdata
            out = Tensor(np.asarray(np.mean(diff * diff, dtype=np.float64), dtype=pred.dtype))
        _check_finite(out.data, "mse")
        if tape is not None:

            def bwd(gout: np.ndarray) -> None:
                _accum(pred, (2.0 / diff.size) * diff * gout)

            tape.record("mse", [pred], out, bwd)
        return out

    raise ConfigError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# optimizer


class SGD:
    """Momentum SGD. ``step`` applies one update and clears gradients.

    Weight decay is the classic coupled form (added to the gradient); the
    velocity recurrence is v <- momentum * v + g, p <- p - lr * v.
    """

    def __init__(self, params: Iterable[Tensor], lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                raise ConfigError("sgd step with a missing gradient; run backward first")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= self.lr * v
            p.grad = None
