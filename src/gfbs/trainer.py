"""Training, finetuning, and evaluation for both tasks.

Classification runs momentum SGD with a multi-step learning-rate decay;
denoising finetunes follow the standard Adam recipe (50 epochs, 1e-4,
divided by 10 at epoch 40). Desk-scale defaults live in the preset
constructors at the bottom. A run is deterministic given the network's
initial weights and the dataset seed, which alone orders the batches;
nothing reads ``TrainConfig.seed``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autograd import SGD, Tape, Tensor, backward, loss as loss_op
from .data import DatasetHandle
from .errors import ConfigError, FormatError, NumericError, read_csv, write_csv
from .netgraph import Network, forward_full, save_checkpoint

PSNR_CAP_DB = 100.0

METRICS_HEADER = ["epoch", "split", "loss", "metric"]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.05
    lr_milestones: tuple[int, ...] = ()
    lr_decay: float = 0.2
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0
    loss: str | None = None  # derived from the dataset task when None
    eval_every: int = 1
    optimizer: str = "sgd"

    def __post_init__(self):
        """Every field's type and range; a --config file can set any field."""
        for name in ("epochs", "batch_size", "eval_every"):
            value = getattr(self, name)
            _require(_is_int(value) and value >= 1, name, value, "an integer >= 1")
        _require(_is_int(self.seed), "seed", self.seed, "an integer")
        for name in ("lr", "lr_decay", "momentum", "weight_decay"):
            value = getattr(self, name)
            _require(isinstance(value, (int, float)) and not isinstance(value, bool)
                     and 0 <= value < math.inf, name, value, "a finite number >= 0")
        _require(self.lr_decay > 0, "lr_decay", self.lr_decay, "> 0")
        ms = self.lr_milestones
        _require(isinstance(ms, tuple) and all(_is_int(m) for m in ms),
                 "lr_milestones", ms, "a tuple of integers")
        _require(list(ms) == sorted(set(ms)), "lr_milestones", ms, "strictly increasing")
        _require(not ms or ms[-1] < self.epochs, "lr_milestones", ms,
                 f"< epochs ({self.epochs})")
        _require(self.optimizer in ("sgd", "adam"), "optimizer", self.optimizer, "sgd or adam")
        _require(self.loss in (None, "cross_entropy", "mse"), "loss", self.loss,
                 "cross_entropy, mse or null")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(ok: bool, name: str, value, want: str) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class Metrics:
    epoch: int
    split: str  # train or test
    loss: float
    metric: float  # top-1 accuracy or mean PSNR (dB)
    seconds: float = 0.0


class Adam:
    """Adam with bias correction; ``step`` consumes and clears gradients.
    The moment decays and the denominator floor are the usual constants;
    weight decay is coupled, added to the gradient as in ``SGD``."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                raise ConfigError("adam step with a missing gradient; run backward first")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.grad = None


def _psnr_db(pred: np.ndarray, target: np.ndarray) -> float:
    """PSNR for unit-scale images, capped so identical pairs stay finite."""
    mse = float(np.mean((np.asarray(pred, np.float64) - target) ** 2))
    if mse <= 0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse))


def _per_sample_metric(task: str, out: np.ndarray, yb: np.ndarray) -> list[float]:
    """Per sample: 1.0 or 0.0 for a right or wrong top-1 class, PSNR for an image."""
    if task == "classify":
        return (out.argmax(axis=1) == yb).astype(float).tolist()
    return [_psnr_db(o, t) for o, t in zip(out, yb)]


def _make_optimizer(cfg: TrainConfig, net: Network):
    if cfg.optimizer == "adam":
        return Adam(net.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    return SGD(net.parameters(), lr=cfg.lr, momentum=cfg.momentum,
               weight_decay=cfg.weight_decay)


def _lr_at(cfg: TrainConfig, epoch: int) -> float:
    passed = sum(1 for m in cfg.lr_milestones if epoch >= m)
    return cfg.lr * cfg.lr_decay ** passed


def check_trainable(batch_size: int, n_train: int) -> None:
    """Refuse a run that trains nothing: a train-mode norm needs 2 samples,
    and no batch can reach 2 when the batch size or the training split is 1."""
    if min(batch_size, n_train) < 2:
        raise ConfigError(f"no batch can reach 2 samples: batch_size {batch_size}, "
                          f"{n_train} training samples")


def train(net: Network, data: DatasetHandle, cfg: TrainConfig,
          ckpt_path=None) -> list[Metrics]:
    """SGD/Adam loop with multi-step decay; returns the metrics history.

    When ``ckpt_path`` is given, the parameters achieving the best test
    metric are kept in memory and saved there once, after the last epoch,
    making its directory; a run that fails writes nothing.
    """
    task = data.task
    if cfg.loss not in (None, data.loss_kind):
        raise ConfigError(f"loss {cfg.loss} does not fit the {task} task, "
                          f"whose loss is {data.loss_kind}")
    kind = data.loss_kind
    check_trainable(cfg.batch_size, len(data.x_train))
    opt = _make_optimizer(cfg, net)
    history: list[Metrics] = []
    best_metric, best = -math.inf, None
    t0 = time.monotonic()
    for epoch in range(cfg.epochs):
        opt.lr = _lr_at(cfg, epoch)
        losses: list[float] = []
        metrics: list[float] = []
        for bi, (xb, yb) in enumerate(data.train_batches(cfg.batch_size, epoch)):
            if len(xb) < 2:
                continue  # train-mode norm needs at least 2 samples
            tape = Tape()
            try:
                out = forward_full(net, Tensor(xb, dtype=net.dtype), "train", tape=tape,
                                   update_stats=True)
                scalar = loss_op(out, yb, kind, tape=tape)
            except NumericError as exc:
                raise NumericError(
                    f"divergence at epoch {epoch} batch {bi}: {exc}") from exc
            backward(tape, scalar)
            opt.step()
            losses.append(scalar.item())
            metrics.append(float(np.mean(_per_sample_metric(task, out.data, yb))))
        history.append(Metrics(epoch, "train", float(np.mean(losses)),
                               float(np.mean(metrics)), time.monotonic() - t0))
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            ev = evaluate(net, data)
            history.append(replace(ev, epoch=epoch, seconds=time.monotonic() - t0))
            if ev.metric > best_metric:
                best_metric = ev.metric
                if ckpt_path is not None:
                    best = net.clone()
    if best is not None:
        Path(ckpt_path).parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(best, ckpt_path)
    return history


def finetune(net: Network, data: DatasetHandle, cfg: TrainConfig,
             ckpt_path=None) -> list[Metrics]:
    """Same loop as train; exists so call sites say what they mean."""
    return train(net, data, cfg, ckpt_path=ckpt_path)


def evaluate(net: Network, data: DatasetHandle) -> Metrics:
    """Eval-mode metrics over the test split (norm uses running stats)."""
    losses: list[float] = []
    weights: list[int] = []
    per_sample: list[float] = []
    for xb, yb in data.test_batches(256):  # bounds memory only: means weigh by batch size
        out = forward_full(net, Tensor(xb, dtype=net.dtype), "eval")
        losses.append(loss_op(out, yb, data.loss_kind).item())
        weights.append(len(xb))
        per_sample.extend(_per_sample_metric(data.task, out.data, yb))
    mean_loss = float(np.average(losses, weights=weights))
    return Metrics(-1, "test", mean_loss, float(np.mean(per_sample)))


# ---------------------------------------------------------------------------
# metrics CSV


def write_metrics(history: list[Metrics], path) -> None:
    write_csv(path, METRICS_HEADER, ((m.epoch, m.split, m.loss, m.metric) for m in history))


def read_metrics(path) -> list[Metrics]:
    out: list[Metrics] = []
    for lineno, row in read_csv(path, METRICS_HEADER):
        try:
            out.append(Metrics(int(row[0]), row[1], float(row[2]), float(row[3])))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad field: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# desk-scale presets


def classify_train_config(seed: int = 0) -> TrainConfig:
    """60 epochs of momentum SGD, lr 0.05 decayed 5x at 2/3 and 5/6."""
    return TrainConfig(epochs=60, batch_size=32, lr=0.05, lr_milestones=(40, 50),
                       lr_decay=0.2, momentum=0.9, weight_decay=1e-4, seed=seed)


def classify_finetune_config(seed: int = 0) -> TrainConfig:
    """Half the training budget at a tenth of the rate."""
    return TrainConfig(epochs=30, batch_size=32, lr=0.005, lr_milestones=(20, 25),
                       lr_decay=0.2, momentum=0.9, weight_decay=1e-4, seed=seed)


def denoise_train_config(seed: int = 0) -> TrainConfig:
    """Adam from scratch for the denoiser baseline."""
    return TrainConfig(epochs=40, batch_size=32, lr=1e-3, lr_milestones=(30,),
                       lr_decay=0.1, optimizer="adam", seed=seed)


def denoise_finetune_config(seed: int = 0) -> TrainConfig:
    """The published recipe: 50 epochs Adam at 1e-4, divided by 10 at 40."""
    return TrainConfig(epochs=50, batch_size=32, lr=1e-4, lr_milestones=(40,),
                       lr_decay=0.1, optimizer="adam", seed=seed)
