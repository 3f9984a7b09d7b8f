"""Shared test utilities: the finite-difference gradient check, byte-level
checkpoint and IDX writers and a runner for the command-line tool in a
child process."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

from gfbs.autograd import Tape, Tensor, backward

FD_H = 1e-5
FD_TOL = 1e-5
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args) -> subprocess.CompletedProcess:
    """``python -m gfbs.cli ARGS`` in a child process that finds the package
    in ``src`` without an install; stdout and stderr are captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "gfbs.cli", *map(str, args)],
                          capture_output=True, text=True, env=env)


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
