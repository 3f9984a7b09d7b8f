"""Shared test utilities: the finite-difference gradient check and the
sum-of-elements loss it reduces to, byte-level checkpoint and IDX writers,
a runner for the command-line tool in a child process, and the nets the
block walker and the oracle are tested on."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

from gfbs.autograd import Tape, Tensor, _accum, backward
from gfbs.netgraph import build_network, parse_spec

FD_H = 1e-5
FD_TOL = 1e-5
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, **kwargs) -> subprocess.CompletedProcess:
    """``python -m gfbs.cli ARGS`` in a child process that finds the package
    in ``src`` without an install; stdout and stderr are captured as text.
    Keyword arguments go to ``subprocess.run``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "gfbs.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, **kwargs)


def write_ckpt(path, spec_text, records):
    """Write a checkpoint byte by byte, as ``save_checkpoint`` lays it out.

    ``records`` holds (name, dtype tag, dims, raw bytes) tuples."""
    spec_bytes = spec_text.encode("utf-8")
    buf = b"GFBS" + struct.pack("<I", 1) + struct.pack("<I", len(spec_bytes)) + spec_bytes
    for name, tag, dims, raw in records:
        nb = name.encode("utf-8")
        buf += struct.pack("<I", len(nb)) + nb + struct.pack("<BB", tag, len(dims))
        buf += b"".join(struct.pack("<I", d) for d in dims) + raw
    path.write_bytes(buf)


def write_idx(directory, images, labels):
    """Write ``images`` (N x H x W) and ``labels`` (N) as the uint8 IDX pair
    ``imgs.idx`` and ``labs.idx`` in ``directory``; returns both paths."""
    imgs = np.asarray(images, dtype=np.uint8)
    labs = np.asarray(labels, dtype=np.uint8)
    ip = Path(directory) / "imgs.idx"
    lp = Path(directory) / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, *imgs.shape) + imgs.tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, len(labs)) + labs.tobytes())
    return ip, lp


# The block walker's and the oracle's test nets: a pool + flatten + linear
# chain, a tinydncnn-style skip around the whole net, and a tinyres-style net
# whose skip joins tie two conv_bn blocks to the stem in 3-member groups.
WALKER_SPECS = {
    "chain": "input 2 8 8\nconv_bn_relu 4 3 1 1\npool 0 2 2 0\nconv_bn 6 3 1 1\n"
             "flatten\nlinear 3\n",
    "dncnn": "input 1 8 8\nresidual_begin\n" + "conv_bn_relu 6 3 1 1\n" * 3
             + "conv 1 3 1 1\nresidual_add\n",
    "res": "input 1 8 8\nconv_bn_relu 4 3 1 1\n"
           + "residual_begin\nconv_bn_relu 4 3 1 1\nconv_bn 4 3 1 1\nresidual_add\n" * 2
           + "pool 0 2 2 0\nconv_bn_relu 6 3 1 1\nflatten\nlinear 3\n",
}


def walker_net(name: str, dtype=np.float64, seed: int = 0):
    """The ``WALKER_SPECS`` net of that name with random norm scales, shifts
    and running statistics, so that no channel is a no-op in either mode."""
    net = build_network(parse_spec(WALKER_SPECS[name]), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    for i in net.bn_blocks():
        p = net.params[i]
        c = p.out_channels
        p.gamma.data[:] = rng.uniform(0.3, 1.5, c)
        p.beta.data[:] = rng.normal(0.0, 0.3, c)
        p.running_mean.data[:] = rng.normal(0.0, 0.2, c)
        p.running_var.data[:] = rng.uniform(0.5, 2.0, c)
    return net


def walker_probe(net, name: str, n: int = 6, seed: int = 1):
    """A probe batch for a ``WALKER_SPECS`` net, with its loss kind."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n,) + net.spec.input_shape)
    if name == "dncnn":
        return x, x + 0.1 * rng.standard_normal(x.shape), "mse"
    return x, rng.integers(0, 3, n), "cross_entropy"


def reduce_sum(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of all elements as a scalar tensor."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.dtype))
    if tape is not None:

        def bwd(gout: np.ndarray) -> None:
            _accum(x, np.broadcast_to(gout, x.shape).astype(x.dtype))

        tape.record("reduce_sum", [x], out, bwd)
    return out


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-element relative error with a floor to dodge 0/0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    num = np.abs(a - b).max() if a.size else 0.0
    den = np.abs(a).max(initial=0.0) + np.abs(b).max(initial=0.0) + 1e-12
    return float(num / den)


def numeric_grad(f, x: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Central differences of scalar-valued f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def gradcheck(build, wrt: list[np.ndarray], h: float = FD_H, tol: float = FD_TOL):
    """Compare reverse-mode gradients of a scalar graph to central differences.

    ``build(tensors, tape)`` must construct the graph from float64 Tensors
    wrapping ``wrt`` (one per array) and return the scalar loss Tensor.
    Returns the max relative error over all checked arrays.
    """
    tensors = [Tensor(w, dtype=np.float64) for w in wrt]
    tape = Tape()
    out = build(tensors, tape)
    backward(tape, out)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    worst = 0.0
    for idx, base in enumerate(wrt):
        def scalar(x, _idx=idx):
            args = [np.asarray(w, dtype=np.float64).copy() for w in wrt]
            args[_idx] = x
            ts = [Tensor(a, dtype=np.float64) for a in args]
            return build(ts, Tape()).item()

        num = numeric_grad(scalar, np.asarray(base, dtype=np.float64).copy(), h=h)
        err = rel_err(analytic[idx], num)
        worst = max(worst, err)
        assert err <= tol, f"gradcheck failed on arg {idx}: rel err {err:.3e} > {tol:g}"
    return worst
