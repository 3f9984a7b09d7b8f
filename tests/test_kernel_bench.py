"""Per-op timings of the conv, max-pool and batchnorm kernels at the layer
shapes of the tinydncnn and tinyvgg nets, one forward plus backward per round,
and of one oracle sweep over a reduced tinydncnn-style net.

    pytest tests/test_kernel_bench.py --benchmark-only

prints the ms per op and per sweep. The tests assert output shapes and finiteness only,
never a time, so they cannot flake on a slow host.
"""

import numpy as np
import pytest

from gfbs.autograd import (
    ConvParams,
    ParamSet,
    Tape,
    Tensor,
    backward,
    batchnorm,
    conv2d,
    maxpool2d,
)
from gfbs.netgraph import build_network, parse_spec
from gfbs.oracle import oracle_delta_loss
from helpers import reduce_sum

pytest.importorskip("pytest_benchmark")

ROUNDS = 5

# N, C_in, C_out, H = W; 3x3 kernels, stride 1, padding 1
CONV_SHAPES = {"tinydncnn": (16, 32, 32, 12), "tinyvgg": (32, 16, 32, 8)}


def _f32(rng, *shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float32)


def _forward_backward(op, x, *args):
    tape = Tape()
    out = op(x, *args, tape=tape)
    backward(tape, reduce_sum(out, tape=tape))
    return out, x


@pytest.mark.parametrize("net", sorted(CONV_SHAPES))
def test_conv2d_forward_backward(benchmark, net):
    n, c_in, c_out, hw = CONV_SHAPES[net]
    rng = np.random.default_rng(0)

    def setup():
        params = ConvParams(_f32(rng, c_out, c_in, 3, 3), _f32(rng, c_out))
        return (conv2d, _f32(rng, n, c_in, hw, hw), params, 1, 1), {}

    out, x = benchmark.pedantic(_forward_backward, setup=setup, rounds=ROUNDS)
    assert out.shape == (n, c_out, hw, hw) and out.dtype == np.float32
    assert x.grad.shape == x.shape
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()


def test_maxpool2d_forward_backward(benchmark):
    # tinyvgg's first pool: 16 channels of 16x16, 2x2 windows, stride 2
    rng = np.random.default_rng(0)

    def setup():
        return (maxpool2d, _f32(rng, 32, 16, 16, 16), 2, 2), {}

    out, x = benchmark.pedantic(_forward_backward, setup=setup, rounds=ROUNDS)
    assert out.shape == (32, 16, 8, 8)
    assert x.grad.shape == x.shape
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()


def test_batchnorm_forward_backward(benchmark):
    # a tinydncnn block's norm in train mode: 32 channels of 12x12, N=16
    rng = np.random.default_rng(0)

    def setup():
        params = ParamSet(weight=_f32(rng, 32, 32, 3, 3), bias=_f32(rng, 32),
                          gamma=_f32(rng, 32), beta=_f32(rng, 32),
                          running_mean=Tensor(np.zeros(32), dtype=np.float32),
                          running_var=Tensor(np.ones(32), dtype=np.float32))
        return (batchnorm, _f32(rng, 16, 32, 12, 12), params, "train"), {}

    out, x = benchmark.pedantic(_forward_backward, setup=setup, rounds=ROUNDS)
    assert out.shape == (16, 32, 12, 12) and out.dtype == np.float32
    assert x.grad.shape == x.shape
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()


def test_oracle_sweep(benchmark):
    # tinydncnn cut to 4 blocks of 16 channels, probed with 16 samples
    spec = parse_spec("input 1 12 12\nresidual_begin\n" + "conv_bn_relu 16 3 1 1\n" * 4
                      + "conv 1 3 1 1\nresidual_add\n")
    net = build_network(spec, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 1, 12, 12)).astype(np.float32)
    y = x + 0.2 * rng.standard_normal(x.shape).astype(np.float32)
    records = benchmark.pedantic(oracle_delta_loss, args=(net, x, y, "mse"), rounds=ROUNDS)
    assert len(records) == 4 * 16
    assert sorted(r.rank for r in records) == list(range(64))
    assert all(np.isfinite(r.delta_loss) and r.delta_loss >= 0 for r in records)
