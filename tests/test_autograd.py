"""Unit tests for the tape-based autodiff engine."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gfbs.autograd import (
    SGD,
    ConvParams,
    ParamSet,
    Tape,
    Tensor,
    add,
    backward,
    batchnorm,
    conv2d,
    flatten,
    linear,
    loss,
    maxpool2d,
    relu,
)
from gfbs.errors import ConfigError, NumericError

from helpers import gradcheck, reduce_sum, rel_err

RNG = np.random.default_rng(42)


def rand(*shape, scale=1.0, dtype=np.float64):
    return (RNG.standard_normal(shape) * scale).astype(dtype)


def make_bn_params(c, dtype=np.float64, rng=None):
    rng = rng or RNG
    return ParamSet(
        weight=Tensor(rng.standard_normal((c, 1, 1, 1)), dtype=dtype),
        bias=Tensor(np.zeros(c), dtype=dtype),
        gamma=Tensor(rng.uniform(0.5, 1.5, c), dtype=dtype),
        beta=Tensor(rng.standard_normal(c) * 0.1, dtype=dtype),
        running_mean=Tensor(np.zeros(c), dtype=dtype),
        running_var=Tensor(np.ones(c), dtype=dtype),
    )


class TestTensor:
    def test_default_dtype_is_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_bad_dtype_rejected(self):
        with pytest.raises(ConfigError):
            Tensor([1, 2], dtype=np.int32)

    def test_item_requires_scalar(self):
        with pytest.raises(ConfigError):
            Tensor([1.0, 2.0]).item()


class TestConv2d:
    def test_forward_matches_direct_sum(self):
        x = rand(2, 3, 6, 6)
        w = rand(4, 3, 3, 3, scale=0.5)
        b = rand(4)
        out = conv2d(Tensor(x), ConvParams(Tensor(w), Tensor(b)), stride=1, padding=1)
        # brute-force cross-correlation at a few positions
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n, co, i, j in [(0, 0, 0, 0), (1, 3, 5, 5), (0, 2, 3, 1)]:
            patch = xp[n, :, i:i + 3, j:j + 3]
            want = (patch * w[co]).sum() + b[co]
            assert abs(out.data[n, co, i, j] - want) < 1e-10

    def test_stride_and_padding_shapes(self):
        x = Tensor(rand(1, 2, 8, 8))
        p = ConvParams(Tensor(rand(5, 2, 3, 3)), Tensor(rand(5)))
        assert conv2d(x, p, stride=2, padding=1).shape == (1, 5, 4, 4)
        assert conv2d(x, p, stride=1, padding=0).shape == (1, 5, 6, 6)

    def test_channel_mismatch_raises(self):
        x = Tensor(rand(1, 3, 4, 4))
        p = ConvParams(Tensor(rand(2, 4, 3, 3)), Tensor(rand(2)))
        with pytest.raises(ConfigError):
            conv2d(x, p)

    def test_gradcheck(self):
        x0 = rand(2, 2, 5, 5)
        w0 = rand(3, 2, 3, 3, scale=0.5)
        b0 = rand(3)
        t0 = rand(2, 3, 5, 5)

        def build(ts, tape):
            x, w, b = ts
            y = conv2d(x, ConvParams(w, b), stride=1, padding=1, tape=tape)
            return loss(flatten(y, tape), t0.reshape(2, -1), "mse", tape=tape)

        gradcheck(build, [x0, w0, b0])

    def test_gradcheck_strided(self):
        x0 = rand(1, 2, 6, 6)
        w0 = rand(2, 2, 3, 3, scale=0.5)
        b0 = rand(2)
        t0 = rand(1, 2 * 3 * 3)

        def build(ts, tape):
            x, w, b = ts
            y = conv2d(x, ConvParams(w, b), stride=2, padding=1, tape=tape)
            return loss(flatten(y, tape), t0, "mse", tape=tape)

        gradcheck(build, [x0, w0, b0])


class TestBatchnorm:
    def test_train_output_normalized(self):
        x = Tensor(rand(4, 3, 5, 5, scale=2.0))
        p = make_bn_params(3)
        p.gamma.data[:] = 1.0
        p.beta.data[:] = 0.0
        out = batchnorm(x, p, "train")
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_running_stats_ema(self):
        x = rand(4, 2, 3, 3)
        p = make_bn_params(2)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        batchnorm(Tensor(x), p, "train")
        np.testing.assert_allclose(p.running_mean.data, 0.1 * mu, rtol=1e-10)
        np.testing.assert_allclose(p.running_var.data, 0.9 + 0.1 * var, rtol=1e-10)

    def test_update_stats_off_leaves_running(self):
        x = Tensor(rand(4, 2, 3, 3))
        p = make_bn_params(2)
        batchnorm(x, p, "train", update_stats=False)
        np.testing.assert_array_equal(p.running_mean.data, np.zeros(2))
        np.testing.assert_array_equal(p.running_var.data, np.ones(2))

    def test_eval_uses_running_stats(self):
        x = rand(2, 2, 3, 3)
        p = make_bn_params(2)
        p.running_mean.data[:] = [0.5, -0.5]
        p.running_var.data[:] = [2.0, 4.0]
        out = batchnorm(Tensor(x), p, "eval")
        want = p.gamma.data[None, :, None, None] * (
            (x - p.running_mean.data[None, :, None, None])
            / np.sqrt(p.running_var.data + p.eps)[None, :, None, None]
        ) + p.beta.data[None, :, None, None]
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    def test_gamma_zero_gives_exact_beta(self):
        x = Tensor(rand(3, 4, 5, 5, scale=3.0))
        p = make_bn_params(4)
        p.gamma.data[2] = 0.0
        out = batchnorm(x, p, "train")
        assert np.all(out.data[:, 2] == p.beta.data[2])

    def test_train_gradcheck(self):
        x0 = rand(3, 2, 4, 4)
        g0 = RNG.uniform(0.5, 1.5, 2)
        b0 = rand(2)
        t0 = rand(3, 2 * 4 * 4)

        def build(ts, tape):
            x, g, b = ts
            p = make_bn_params(2)
            p.gamma, p.beta = g, b
            y = batchnorm(x, p, "train", tape=tape, update_stats=False)
            return loss(flatten(y, tape), t0, "mse", tape=tape)

        gradcheck(build, [x0, g0, b0])

    def test_eval_gradcheck(self):
        x0 = rand(2, 3, 3, 3)
        g0 = RNG.uniform(0.5, 1.5, 3)
        b0 = rand(3)
        t0 = rand(2, 3 * 3 * 3)
        rm = rand(3, scale=0.2)
        rv = RNG.uniform(0.5, 2.0, 3)

        def build(ts, tape):
            x, g, b = ts
            p = make_bn_params(3)
            p.gamma, p.beta = g, b
            p.running_mean = Tensor(rm, dtype=np.float64)
            p.running_var = Tensor(rv, dtype=np.float64)
            y = batchnorm(x, p, "eval", tape=tape)
            return loss(flatten(y, tape), t0, "mse", tape=tape)

        gradcheck(build, [x0, g0, b0])

    def test_tiny_batch_rejected(self):
        x = Tensor(rand(1, 2, 1, 1))
        with pytest.raises(ConfigError):
            batchnorm(x, make_bn_params(2), "train")

    @pytest.mark.parametrize("dtype, scale", [(np.float32, 1e19), (np.float32, 1e20),
                                              (np.float64, 1e160)])
    def test_overflowing_batch_variance_is_numeric_error(self, dtype, scale):
        rng = np.random.default_rng(7)
        x = Tensor((rng.standard_normal((4, 3, 5, 5)) * scale).astype(dtype), dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once, as the error
            with pytest.raises(NumericError, match="batch variance is not finite"):
                batchnorm(x, make_bn_params(3, dtype, rng), "train", update_stats=False)

    @pytest.mark.parametrize("scale", [1e15, 1e18])
    def test_large_float32_batch_matches_float64_reference(self, scale):
        rng = np.random.default_rng(8)
        x = (rng.standard_normal((4, 3, 5, 5)) * scale).astype(np.float32)
        p = make_bn_params(3, np.float32, rng)
        out = batchnorm(Tensor(x, dtype=np.float32), p, "train", update_stats=False)
        x64 = x.astype(np.float64)
        mu = x64.mean(axis=(0, 2, 3), keepdims=True)
        var = x64.var(axis=(0, 2, 3), keepdims=True)
        want = (p.gamma.data[None, :, None, None] * (x64 - mu) / np.sqrt(var + p.eps)
                + p.beta.data[None, :, None, None])
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-5)


class TestPointwise:
    def test_relu_forward(self):
        x = Tensor(np.array([-1.0, 0.0, 2.5]))
        np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 2.5])

    def test_relu_gradcheck_away_from_kink(self):
        x0 = rand(2, 3, 4, 4)
        x0[np.abs(x0) < 1e-2] = 0.5  # keep clear of the nondifferentiable point
        t0 = rand(2, 3 * 4 * 4)

        def build(ts, tape):
            y = relu(ts[0], tape=tape)
            return loss(flatten(y, tape), t0, "mse", tape=tape)

        gradcheck(build, [x0])

    def test_add_gradcheck(self):
        a0, b0 = rand(2, 8), rand(2, 8)
        t0 = rand(2, 8)

        def build(ts, tape):
            return loss(add(ts[0], ts[1], tape=tape), t0, "mse", tape=tape)

        gradcheck(build, [a0, b0])

    def test_add_shape_mismatch(self):
        with pytest.raises(ConfigError):
            add(Tensor(rand(2, 3)), Tensor(rand(3, 2)))

    def test_reduce_sum(self):
        x0 = rand(3, 4)

        def build(ts, tape):
            return reduce_sum(ts[0], tape=tape)

        gradcheck(build, [x0])


class TestMaxpool:
    def test_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = maxpool2d(Tensor(x), 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_gradient_goes_to_argmax(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 0] = 5.0
        t = Tensor(x, dtype=np.float64)
        tape = Tape()
        out = maxpool2d(t, 2, 2, tape=tape)
        s = reduce_sum(out, tape=tape)
        backward(tape, s)
        want = np.zeros((1, 1, 2, 2))
        want[0, 0, 1, 0] = 1.0
        np.testing.assert_array_equal(t.grad, want)

    def test_tie_goes_to_first(self):
        x = np.ones((1, 1, 2, 2))
        t = Tensor(x, dtype=np.float64)
        tape = Tape()
        backward(tape, reduce_sum(maxpool2d(t, 2, 2, tape=tape), tape=tape))
        want = np.zeros((1, 1, 2, 2))
        want[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(t.grad, want)

    def test_gradcheck_distinct_entries(self):
        # well-separated values so the argmax is stable under the FD step
        x0 = RNG.permutation(np.arange(2 * 2 * 4 * 4, dtype=np.float64)).reshape(2, 2, 4, 4)
        t0 = rand(2, 2 * 2 * 2)

        def build(ts, tape):
            y = maxpool2d(ts[0], 2, 2, tape=tape)
            return loss(flatten(y, tape), t0, "mse", tape=tape)

        gradcheck(build, [x0])


# ---------------------------------------------------------------------------
# conv and pool kernels against loop references and the earlier kernels


def _forward_backward(op, x, gout, *args):
    """Run ``op`` on a tape and push ``gout`` through its one backward node."""
    tape = Tape()
    out = op(x, *args, tape=tape)
    (node,) = tape.nodes
    node.backward_fn(gout)
    return out


def _conv_reference(x, w, b, stride, padding, gout):
    """out, dx, dw, db of a cross-correlation, by a loop over output positions."""
    k = w.shape[2]
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    w = w.astype(np.float64)
    gout = gout.astype(np.float64)
    out = np.empty(gout.shape)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(gout.shape[2]):
        for j in range(gout.shape[3]):
            rows, cols = slice(i * stride, i * stride + k), slice(j * stride, j * stride + k)
            patch = xp[:, :, rows, cols]
            out[:, :, i, j] = np.einsum("nckl,ockl->no", patch, w) + b
            dxp[:, :, rows, cols] += np.einsum("no,ockl->nckl", gout[:, :, i, j], w)
            dw += np.einsum("no,nckl->ockl", gout[:, :, i, j], patch)
    h, wd = x.shape[2:]
    dx = dxp[:, :, padding:padding + h, padding:padding + wd]
    return out, dx, dw, gout.sum(axis=(0, 2, 3))


def _pool_reference(x, k, stride, gout):
    """out, dx of max pooling by a loop over output positions; each window's
    gradient goes to its first maximum in row-major order."""
    n, c, ho, wo = gout.shape
    out = np.empty(gout.shape, dtype=x.dtype)
    dx = np.zeros_like(x)
    ni, ci = np.indices((n, c))
    for i in range(ho):
        for j in range(wo):
            win = x[:, :, i * stride:i * stride + k, j * stride:j * stride + k].reshape(n, c, k * k)
            arg = win.argmax(axis=2)
            out[:, :, i, j] = np.take_along_axis(win, arg[..., None], axis=2)[..., 0]
            dx[ni, ci, i * stride + arg // k, j * stride + arg % k] += gout[:, :, i, j]
    return out, dx


def _earlier_conv_dx(x, w, stride, padding, gout):
    """dx as the earlier kernel formed it, from [N*Ho*Wo, C*k*k] columns."""
    n, c, h, wd = x.shape
    c_out, _, k, _ = w.shape
    ho, wo = gout.shape[2:]
    g2 = np.ascontiguousarray(gout.transpose(0, 2, 3, 1)).reshape(n * ho * wo, c_out)
    g6 = (g2 @ w.reshape(c_out, -1)).reshape(n, ho, wo, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    gxp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += g6[:, :, :, :, i, j]
    return gxp[:, :, padding:padding + h, padding:padding + wd]


def _earlier_maxpool(x, k, stride, gout):
    """out, dx as the earlier kernel formed them: argmax and np.add.at."""
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, ho, wo = win.shape[:4]
    wf = win.reshape(n, c, ho, wo, k * k)
    arg = wf.argmax(axis=-1)
    out = np.take_along_axis(wf, arg[..., None], axis=-1)[..., 0]
    dx = np.zeros_like(x)
    ni, ci, hi, wi = np.indices((n, c, ho, wo))
    np.add.at(dx, (ni, ci, hi * stride + arg // k, wi * stride + arg % k), gout)
    return out, dx


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.sampled_from([1, 2, 3]))
    padding = draw(st.sampled_from([0, 1, 2]))
    h = draw(st.integers(max(1, k - 2 * padding), 9))
    w = draw(st.integers(max(1, k - 2 * padding), 9).filter(lambda v: v != h))
    shape = (draw(st.integers(1, 3)), draw(st.sampled_from([1, 3])), h, w)
    c_out = draw(st.sampled_from([1, 4]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return shape, c_out, k, stride, padding, dtype, draw(st.integers(0, 2**32 - 1))


@st.composite
def pool_cases(draw):
    k, stride = draw(st.sampled_from([(2, 2), (3, 2), (3, 1), (2, 3)]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(k, 11)), draw(st.integers(k, 11)))
    ties = draw(st.booleans())
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return shape, k, stride, ties, dtype, draw(st.integers(0, 2**32 - 1))


class TestConvKernel:
    @given(conv_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference(self, case):
        (n, c_in, h, w), c_out, k, stride, padding, dtype, seed = case
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((n, c_in, h, w)).astype(dtype)
        w0 = rng.standard_normal((c_out, c_in, k, k)).astype(dtype)
        b0 = rng.standard_normal(c_out).astype(dtype)
        ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
        gout = rng.standard_normal((n, c_out, ho, wo)).astype(dtype)
        x, params = Tensor(x0), ConvParams(Tensor(w0), Tensor(b0))
        out = _forward_backward(conv2d, x, gout, params, stride, padding)
        got = (out.data, x.grad, params.weight.grad, params.bias.grad)
        tol = 1e-10 if dtype == np.float64 else 1e-4
        for g, want in zip(got, _conv_reference(x0, w0, b0, stride, padding, gout)):
            assert g.dtype == dtype and g.shape == want.shape
            np.testing.assert_allclose(g, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("shape,c_out,stride,padding", [
        ((16, 32, 12, 12), 32, 1, 1),  # tinydncnn
        ((32, 16, 8, 8), 32, 1, 1),  # tinyvgg
        ((3, 2, 9, 7), 5, 2, 1),
        ((2, 3, 8, 11), 4, 3, 2),
    ])
    def test_dx_bit_identical_to_earlier_kernel(self, shape, c_out, stride, padding):
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(shape).astype(np.float32)
        w0 = rng.standard_normal((c_out, shape[1], 3, 3)).astype(np.float32)
        x, params = Tensor(x0), ConvParams(Tensor(w0), Tensor(np.zeros(c_out, np.float32)))
        ho = (shape[2] + 2 * padding - 3) // stride + 1
        wo = (shape[3] + 2 * padding - 3) // stride + 1
        gout = rng.standard_normal((shape[0], c_out, ho, wo)).astype(np.float32)
        _forward_backward(conv2d, x, gout, params, stride, padding)
        np.testing.assert_array_equal(x.grad, _earlier_conv_dx(x0, w0, stride, padding, gout))


class TestPoolKernel:
    @given(pool_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference(self, case):
        (n, c, h, w), k, stride, ties, dtype, seed = case
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((n, c, h, w))
        if ties:  # a few distinct values, so most windows hold several maxima
            x0 = np.round(x0)
        x0 = x0.astype(dtype)
        ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
        gout = rng.standard_normal((n, c, ho, wo)).astype(dtype)
        x = Tensor(x0)
        out = _forward_backward(maxpool2d, x, gout, k, stride)
        want_out, want_dx = _pool_reference(x0, k, stride, gout)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(x.grad, want_dx)

    @pytest.mark.parametrize("shape,k,stride", [
        ((32, 16, 16, 16), 2, 2),  # tinyvgg
        ((4, 3, 11, 9), 2, 2),
        ((4, 3, 11, 9), 3, 2),
        ((4, 3, 11, 9), 3, 1),
        ((4, 3, 11, 9), 2, 3),
    ])
    @pytest.mark.parametrize("ties", [False, True])
    def test_bit_identical_to_earlier_kernel(self, shape, k, stride, ties):
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal(shape)
        x0 = (np.round(x0 * 2) if ties else x0).astype(np.float32)
        ho, wo = (shape[2] - k) // stride + 1, (shape[3] - k) // stride + 1
        gout = rng.standard_normal((shape[0], shape[1], ho, wo)).astype(np.float32)
        x = Tensor(x0)
        out = _forward_backward(maxpool2d, x, gout, k, stride)
        want_out, want_dx = _earlier_maxpool(x0, k, stride, gout)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(x.grad, want_dx)


class TestLinearAndLoss:
    def test_linear_gradcheck(self):
        x0, w0, b0 = rand(3, 5), rand(5, 4, scale=0.5), rand(4)
        labels = np.array([0, 3, 1])

        def build(ts, tape):
            y = linear(ts[0], ts[1], ts[2], tape=tape)
            return loss(y, labels, "cross_entropy", tape=tape)

        gradcheck(build, [x0, w0, b0])

    def test_cross_entropy_uniform_logits(self):
        pred = Tensor(np.zeros((2, 10), dtype=np.float64))
        out = loss(pred, np.array([3, 7]), "cross_entropy")
        assert abs(out.item() - np.log(10)) < 1e-12

    def test_cross_entropy_extreme_logits_finite(self):
        pred = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        out = loss(pred, np.array([0, 1]), "cross_entropy")
        assert np.isfinite(out.item()) and out.item() >= 0

    def test_cross_entropy_bad_labels(self):
        pred = Tensor(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            loss(pred, np.array([0, 3]), "cross_entropy")

    def test_mse_value(self):
        p = Tensor(np.array([1.0, 3.0]))
        t = np.array([0.0, 1.0])
        assert abs(loss(p, t, "mse").item() - 2.5) < 1e-7

    def test_mse_gradcheck(self):
        p0 = rand(4, 6)
        t0 = rand(4, 6)

        def build(ts, tape):
            return loss(ts[0], t0, "mse", tape=tape)

        gradcheck(build, [p0])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            loss(Tensor(np.zeros((1, 2))), np.array([0]), "hinge")


class TestTapeSemantics:
    def test_tape_single_use(self):
        x = Tensor(rand(2, 2))
        tape = Tape()
        s = reduce_sum(x, tape=tape)
        backward(tape, s)
        with pytest.raises(ConfigError):
            backward(tape, s)

    def test_gradients_accumulate_across_uses(self):
        x = Tensor(rand(3), dtype=np.float64)
        tape = Tape()
        s = reduce_sum(add(x, x, tape=tape), tape=tape)
        backward(tape, s)
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

    def test_disconnected_branch_gets_no_grad(self):
        x = Tensor(rand(2, 2), dtype=np.float64)
        y = Tensor(rand(2, 2), dtype=np.float64)
        tape = Tape()
        reduce_sum(y, tape=tape)  # recorded but not part of the loss
        s = reduce_sum(x, tape=tape)
        backward(tape, s)
        assert y.grad is None
        assert x.grad is not None

    def test_backward_needs_scalar(self):
        x = Tensor(rand(2, 2))
        tape = Tape()
        y = add(x, x, tape=tape)
        with pytest.raises(ConfigError):
            backward(tape, y)

    def test_nonfinite_forward_raises(self):
        with pytest.raises(NumericError):
            add(Tensor(np.array([np.inf])), Tensor(np.array([1.0])))


class TestSGD:
    def test_plain_step(self):
        p = Tensor(np.array([1.0, 2.0]), dtype=np.float64)
        p.grad = np.array([0.5, -0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])
        assert p.grad is None

    def test_momentum_recurrence(self):
        p = Tensor(np.array([0.0]), dtype=np.float64)
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.9, p=-2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_weight_decay_coupled(self):
        p = Tensor(np.array([2.0]), dtype=np.float64)
        p.grad = np.array([0.0])
        SGD([p], lr=0.5, weight_decay=0.1).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.5 * 0.2])

    def test_missing_grad_raises(self):
        p = Tensor(np.array([1.0]))
        with pytest.raises(ConfigError):
            SGD([p], lr=0.1).step()
