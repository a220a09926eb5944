"""Forward-value oracles for the tensor ops, independent of the tape, a
direct-loop gradient oracle for conv2d, and the 4-d reference kernels that
the per-channel ops must match bit for bit, as the conv must match one GEMM
over the whole batch."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlaan import ops
from mlaan.layers import BatchNorm2d, Conv2d
from mlaan.errors import ConfigError, DataError, GraphError, ShapeError
from mlaan.tensor import Graph, Parameter, Tensor
from conftest import record_patches


def t(data, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype))


class TestMatmul:
    def test_known_product(self):
        out = ops.matmul(t([[1, 2], [3, 4]]), t([[5, 6], [7, 8]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self):
        a = np.random.default_rng(0).standard_normal((3, 3))
        out = ops.matmul(t(a), t(np.eye(3)))
        np.testing.assert_allclose(out.data, a)

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            ops.matmul(t(np.ones((2, 2, 2))), t(np.ones((2, 2))))

    def test_rejects_mismatched_inner(self):
        with pytest.raises(ShapeError):
            ops.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))

    @given(n=st.integers(1, 5), m=st.integers(1, 5), k=st.integers(1, 5),
           seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy(self, n, m, k, seed):
        gen = np.random.default_rng(seed)
        a, b = gen.standard_normal((n, k)), gen.standard_normal((k, m))
        np.testing.assert_allclose(ops.matmul(t(a), t(b)).data, a @ b, rtol=1e-12)


class TestCrossEntropy:
    def test_known_value(self):
        # logits [1,2,3], true class 2: ln(1 + e^-1 + e^-2)
        out = ops.softmax_cross_entropy(t([[1.0, 2.0, 3.0]]), np.array([2]))
        expected = np.log(1.0 + np.exp(-1.0) + np.exp(-2.0))
        assert out.data == pytest.approx(expected, abs=1e-12)
        assert out.data == pytest.approx(0.40760596, abs=1e-6)

    def test_uniform_logits(self):
        out = ops.softmax_cross_entropy(t(np.zeros((4, 10))), np.zeros(4, dtype=np.int64))
        assert out.data == pytest.approx(np.log(10.0), abs=1e-12)

    def test_shift_invariance(self):
        gen = np.random.default_rng(1)
        logits = gen.standard_normal((5, 7))
        y = gen.integers(0, 7, 5)
        a = ops.softmax_cross_entropy(t(logits), y).data
        b = ops.softmax_cross_entropy(t(logits + 1000.0), y).data
        assert a == pytest.approx(b, rel=1e-9)

    def test_large_logits_stay_finite(self):
        out = ops.softmax_cross_entropy(t([[1e4, -1e4]]), np.array([0]))
        assert np.isfinite(out.data)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            ops.softmax_cross_entropy(t(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(DataError):
            ops.softmax_cross_entropy(t(np.zeros((2, 3))), np.array([-1, 0]))


class TestBatchNorm:
    def test_two_point_channel(self):
        # channel values {1, 3} normalize to {-1, +1} up to the eps correction
        x = t(np.array([1.0, 3.0]).reshape(2, 1, 1, 1))
        out, _, _ = ops.batchnorm2d_train(x, t([1.0]), t([0.0]), eps=1e-12)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-5)

    def test_constant_input_collapses_to_zero(self):
        x = t(np.full((3, 2, 2, 2), 7.0))
        out, _, _ = ops.batchnorm2d_train(x, t(np.ones(2)), t(np.zeros(2)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_gamma_zero_gives_beta(self):
        x = t(np.random.default_rng(0).standard_normal((4, 3, 2, 2)))
        out, _, _ = ops.batchnorm2d_train(x, t(np.zeros(3)), t([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data[:, 1], 2.0, atol=1e-12)

    def test_normalizes_per_channel(self):
        x = t(np.random.default_rng(2).standard_normal((8, 4, 3, 3)) * 5 + 3)
        out, mu, var = ops.batchnorm2d_train(x, t(np.ones(4)), t(np.zeros(4)))
        assert out.data.mean(axis=(0, 2, 3)) == pytest.approx(np.zeros(4), abs=1e-10)
        assert out.data.std(axis=(0, 2, 3)) == pytest.approx(np.ones(4), abs=1e-3)
        # biased variance, not Bessel-corrected
        np.testing.assert_allclose(var, x.data.var(axis=(0, 2, 3)), rtol=1e-10)

    def test_single_element_rejected(self):
        with pytest.raises(ShapeError):
            ops.batchnorm2d_train(t(np.ones((1, 2, 1, 1))), t(np.ones(2)), t(np.zeros(2)))

    def test_eval_uses_given_stats(self):
        x = t(np.array([2.0, 4.0]).reshape(2, 1, 1, 1))
        out = ops.batchnorm2d_eval(x, t([1.0]), t([0.0]),
                                   np.array([3.0]), np.array([1.0]), eps=0.0)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-6)


class TestGlobalAvgPool:
    def test_known_mean(self):
        x = t(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        assert ops.global_avg_pool(x).data.item() == pytest.approx(2.5)

    def test_shape(self):
        out = ops.global_avg_pool(t(np.ones((5, 7, 3, 4))))
        assert out.shape == (5, 7)


class TestConv:
    def test_identity_kernel(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((2, 3, 5, 5))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = ops.conv2d(t(x), t(w), stride=1, pad=1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_averaging_kernel_on_constant(self):
        x = np.ones((1, 1, 4, 4))
        w = np.full((1, 1, 3, 3), 1.0 / 9.0)
        out = ops.conv2d(t(x), t(w), stride=1, pad=1).data
        # interior positions see all nine ones
        assert out[0, 0, 1, 1] == pytest.approx(1.0)
        # corner sees only four
        assert out[0, 0, 0, 0] == pytest.approx(4.0 / 9.0)

    def test_matches_direct_convolution(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((2, 2, 6, 6))
        w = gen.standard_normal((3, 2, 3, 3))
        out = ops.conv2d(t(x), t(w), stride=1, pad=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros((2, 3, 6, 6))
        for n in range(2):
            for o in range(3):
                for i in range(6):
                    for j in range(6):
                        ref[n, o, i, j] = np.sum(xp[n, :, i:i + 3, j:j + 3] * w[o])
        np.testing.assert_allclose(out, ref, rtol=1e-10)

    def test_stride_two_shape(self):
        out = ops.conv2d(t(np.ones((1, 1, 7, 7))), t(np.ones((2, 1, 3, 3))),
                         stride=2, pad=1)
        assert out.shape == (1, 2, 4, 4)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ops.conv2d(t(np.ones((1, 1, 4, 4))), t(np.ones((1, 1, 2, 2))))

    def test_non_integral_output_rejected(self):
        with pytest.raises(ConfigError):
            ops.conv2d(t(np.ones((1, 1, 6, 6))), t(np.ones((1, 1, 3, 3))),
                       stride=2, pad=0)


def reference_conv(x, w, g, stride, pad):
    """Forward, dx and dW of a strided, padded cross-correlation by direct loops."""
    n, c, h, width = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = g.shape[2:]
    out, dxp, dw = np.zeros(g.shape), np.zeros(xp.shape), np.zeros(w.shape)
    for b in range(n):
        for o in range(f):
            for i in range(ho):
                for j in range(wo):
                    rows, cols = slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw)
                    out[b, o, i, j] = np.sum(xp[b, :, rows, cols] * w[o])
                    dxp[b, :, rows, cols] += g[b, o, i, j] * w[o]
                    dw[o] += g[b, o, i, j] * xp[b, :, rows, cols]
    return out, dxp[:, :, pad:pad + h, pad:pad + width], dw


# (kernel, stride, pad, height, width); pad > kernel-1 crops the padded gradient
CONV_CASES = [
    (1, 1, 0, 5, 4), (1, 2, 0, 5, 7), (1, 1, 1, 4, 3), (1, 2, 2, 3, 5),
    (3, 1, 0, 6, 5), (3, 1, 1, 5, 7), (3, 2, 1, 7, 5), (3, 2, 0, 7, 9),
    (3, 1, 2, 4, 6), (3, 2, 3, 5, 7), (3, 1, 3, 4, 3),
    (5, 1, 2, 6, 5), (5, 2, 2, 7, 9), (5, 1, 3, 4, 5), (5, 2, 1, 7, 5),
]


class TestConvGradients:
    @pytest.mark.parametrize("layout", ["nchw", "nhwc", "chwn"])
    @pytest.mark.parametrize("k,stride,pad,h,w", CONV_CASES)
    def test_matches_direct_loops(self, k, stride, pad, h, w, layout, monkeypatch):
        gen = np.random.default_rng(k * 100 + stride * 10 + pad)
        x = laid_out(gen.standard_normal((2, 3, h, w)), layout)  # same values in each
        if layout == "chwn":  # the K-major forward, each output row a block of its own
            monkeypatch.setattr(ops, "_SMALL_GEMM", 0)
            monkeypatch.setattr(ops, "_BLOCK_ROWS", 1)
        wt = Parameter("w", gen.standard_normal((4, 3, k, k)), dtype=np.float64)
        xt = Tensor(x, requires_grad=True)
        with Graph("g") as graph:
            out = ops.conv2d(xt, wt, stride=stride, pad=pad)
            g = gen.standard_normal(out.shape)
            dx = graph.backward(out, g)
        ref_out, ref_dx, ref_dw = reference_conv(x, wt.data, g, stride, pad)
        np.testing.assert_allclose(out.data, ref_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(wt.grad, ref_dw, rtol=1e-10, atol=1e-12)

    def test_input_without_grad_gets_no_dx(self):
        gen = np.random.default_rng(5)
        w = Parameter("w", gen.standard_normal((2, 3, 3, 3)), dtype=np.float64)
        with Graph("g"):
            out = ops.conv2d(t(gen.standard_normal((2, 3, 4, 4))), w)
        dx, dw = out.node.backward_fn(np.ones(out.shape))
        assert dx is None and dw.shape == w.shape

    def test_matmul_input_without_grad_gets_no_dx(self):
        gen = np.random.default_rng(8)
        a, w = gen.standard_normal((3, 9, 5)), gen.standard_normal((3, 5, 4))
        g = gen.standard_normal((3, 9, 4))
        with Graph("g"):
            out = ops.matmul(t(a), Parameter("w", w, dtype=np.float64))
        dx, dw = out.node.backward_fn(g)
        assert dx is None and same_bits(dw, a.swapaxes(-1, -2) @ g)
        with Graph("g"):
            out = ops.matmul(Tensor(a, requires_grad=True),
                             Parameter("w", w, dtype=np.float64, requires_grad=False))
        dx, dw = out.node.backward_fn(g)
        assert same_bits(dx, g @ w.swapaxes(-1, -2)) and dw is None

    def test_frozen_weight_gets_no_dw(self):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((2, 3, 4, 4))
        w = Parameter("w", gen.standard_normal((2, 3, 3, 3)), dtype=np.float64,
                      requires_grad=False)
        xt = Tensor(x, requires_grad=True)
        with Graph("g") as graph:
            out = ops.conv2d(xt, w)
            g = gen.standard_normal(out.shape)
            assert out.node.backward_fn(g)[1] is None
            dx = graph.backward(out, g)
        np.testing.assert_allclose(dx, reference_conv(x, w.data, g, 1, 1)[1], rtol=1e-10)
        assert not w.grad.any() and w.accum_count == 0

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_frozen_batchnorm_affine_gets_no_grad(self, mode):
        # the EMA twins' batch norms: no dgamma/dbeta, and dx as when trainable
        gen = np.random.default_rng(7)
        x, g = gen.standard_normal((2, 3, 4, 4)), gen.standard_normal((2, 3, 4, 4))
        gamma0, beta0 = gen.uniform(0.5, 1.5, 3), gen.standard_normal(3)
        mean, var = gen.standard_normal(3), gen.uniform(0.5, 2.0, 3)

        def run(trainable):
            gamma, beta = (Parameter(name, v, dtype=np.float64, requires_grad=trainable)
                           for name, v in (("gamma", gamma0), ("beta", beta0)))
            with Graph("g") as graph:
                xt = Tensor(x, requires_grad=True)
                out = (ops.batchnorm2d_train(xt, gamma, beta)[0] if mode == "train"
                       else ops.batchnorm2d_eval(xt, gamma, beta, mean, var))
                _, dgamma, dbeta = out.node.backward_fn(g)
                dx = graph.backward(out, g)
            return dx, dgamma, dbeta, gamma, beta

        dx, dgamma, dbeta, gamma, beta = run(False)
        assert dgamma is None and dbeta is None
        for q in (gamma, beta):
            assert not q.grad.any() and q.accum_count == 0
        want_dx, want_dgamma, want_dbeta, _, _ = run(True)
        assert want_dgamma is not None and want_dbeta is not None
        assert same_bits(dx, want_dx)


# ---------------------------------------------------------------------------
# per-channel ops: the kernels as 4-d numpy expressions, which the ops must
# match bit for bit on every memory layout
# ---------------------------------------------------------------------------

def reference_batchnorm2d_train(x, gamma, beta, eps=1e-5):
    xd = x.data
    n, c, h, w = xd.shape
    m = n * h * w
    mu = xd.mean(axis=(0, 2, 3))
    var = ((xd - mu[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        xh = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
        dbeta = g.sum(axis=(0, 2, 3))
        dgamma = (g * xh).sum(axis=(0, 2, 3))
        dxhat = g * gamma.data[None, :, None, None]
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (dxhat * xh).sum(axis=(0, 2, 3), keepdims=True)
        dx = (inv[None, :, None, None] / m) * (m * dxhat - s1 - xh * s2)
        return dx, dgamma, dbeta

    t = ops._result("batchnorm2d", (x, gamma, beta), out, backward, cache_arrays=(mu, inv))
    return t, mu, var


def reference_batchnorm2d_eval(x, gamma, beta, mean, var, eps=1e-5):
    xd = x.data
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        xh = (xd - mean[None, :, None, None]) * inv[None, :, None, None]
        dx = g * (gamma.data * inv)[None, :, None, None]
        return dx, (g * xh).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

    return ops._result("batchnorm2d_eval", (x, gamma, beta), out, backward)


def reference_bias_add(x, b):
    xd, bd = x.data, b.data
    if xd.ndim == 2:
        return ops._result("bias_add", (x, b), xd + bd, lambda g: (g, g.sum(axis=0)))
    return ops._result("bias_add", (x, b), xd + bd[None, :, None, None],
                       lambda g: (g, g.sum(axis=(0, 2, 3))))


def reference_global_avg_pool(x):
    xd = x.data
    n, c, h, w = xd.shape

    def backward(g):
        return (np.broadcast_to((g / (h * w))[:, :, None, None], xd.shape).copy(),)

    return ops._result("global_avg_pool", (x,), xd.mean(axis=(2, 3)), backward)


def laid_out(a, layout):
    """`a`'s values in NCHW memory, or in NHWC or CHWN memory behind an NCHW view."""
    if layout == "nhwc":
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "chwn":
        return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    return np.ascontiguousarray(a)


def same_bits(got, want):
    return got.tobytes() == want.tobytes() and got.strides == want.strides


class TestChannelSums:
    @pytest.mark.parametrize("layout", ["nhwc", "nchw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [2, 16, 130])
    def test_equal_numpys_reduction(self, n, c, dtype, layout):
        """The einsum route must add in numpy's order; a numpy build where it
        does not would silently re-roll every trained network."""
        gen = np.random.default_rng(n * 10 + c)
        a, b = (laid_out((gen.standard_normal((n, c, 12, 12)) * 3 + 1).astype(dtype), layout)
                for _ in range(2))
        assert same_bits(ops._channel_sum(a), a.sum(axis=(0, 2, 3)))
        assert same_bits(ops._channel_sum(a, b), (a * b).sum(axis=(0, 2, 3)))
        assert same_bits(ops._channel_sum(a, keep="nc"), a.sum(axis=(2, 3)))
        mixed = laid_out(b, "nchw" if layout == "nhwc" else "nhwc")
        assert same_bits(ops._channel_sum(a, mixed), (a * mixed).sum(axis=(0, 2, 3)))


BN_LAYOUTS = [("nhwc", "nhwc"), ("nhwc", "nchw"), ("nchw", "nchw")]  # (input, gradient)


class TestBatchNormMatchesReference:
    @staticmethod
    def run(kernel, x, g, *args):
        """Forward on a tape, then the recorded backward on `g`."""
        xt = Tensor(x, requires_grad=True)
        gamma, beta = Parameter("gamma", args[0]), Parameter("beta", args[1])
        with Graph("g"):
            res = kernel(xt, gamma, beta, *args[2:])
        out = res[0] if isinstance(res, tuple) else res
        return res, out.node.backward_fn(g)

    @staticmethod
    def inputs(layouts, dtype, c=8):
        gen = np.random.default_rng(c)
        x = laid_out((gen.standard_normal((16, c, 12, 12)) * 2 + 0.5).astype(dtype), layouts[0])
        g = laid_out(gen.standard_normal((16, c, 12, 12)).astype(dtype), layouts[1])
        gamma, beta, mean = (gen.standard_normal(c).astype(dtype) for _ in range(3))
        return x, g, gamma, beta, mean, (gen.random(c) + 0.5).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layouts", BN_LAYOUTS)
    def test_train(self, layouts, dtype):
        x, g, gamma, beta, _, _ = self.inputs(layouts, dtype)
        got, got_grads = self.run(ops.batchnorm2d_train, x, g, gamma, beta)
        want, want_grads = self.run(reference_batchnorm2d_train, x, g, gamma, beta)
        assert same_bits(got[0].data, want[0].data)
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
        for a, b in zip(got_grads, want_grads):
            assert same_bits(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layouts", BN_LAYOUTS)
    def test_eval(self, layouts, dtype):
        x, g, gamma, beta, mean, var = self.inputs(layouts, dtype)
        got, got_grads = self.run(ops.batchnorm2d_eval, x, g, gamma, beta, mean, var)
        want, want_grads = self.run(reference_batchnorm2d_eval, x, g, gamma, beta, mean, var)
        assert same_bits(got.data, want.data)
        for a, b in zip(got_grads, want_grads):
            assert same_bits(a, b)

    @pytest.mark.parametrize("layout", ["nhwc", "nchw"])
    def test_pool_and_bias(self, layout):
        x, g, _, beta, _, _ = self.inputs((layout, layout), np.float32)
        xt, bt = Tensor(x, requires_grad=True), Parameter("b", beta)
        assert same_bits(ops.global_avg_pool(xt).data, reference_global_avg_pool(xt).data)
        with Graph("g"):
            got, want = ops.bias_add(xt, bt), reference_bias_add(xt, bt)
        assert same_bits(got.data, want.data)
        assert same_bits(got.node.backward_fn(g)[1], want.node.backward_fn(g)[1])


class TestStackedOps:
    """On an (L, m, ·) stack, matmul, bias_add and softmax_cross_entropy give
    each slab the very bits of the 2-d op on that slab alone."""

    @staticmethod
    def chain(x, w, b, y):
        """Forward x @ w + b into the loss on one tape, backward with seed 1.0;
        returns the forward values and the gradients at x, w and b."""
        xt = Tensor(x, requires_grad=True)
        wp, bp = Parameter("w", w, w.dtype), Parameter("b", b, b.dtype)
        with Graph("g") as g:
            h = ops.matmul(xt, wp)
            logits = ops.bias_add(h, bp)
            loss = ops.softmax_cross_entropy(logits, y)
            dx = g.backward(loss, 1.0)
        return (h.data, logits.data, loss.data), (dx, wp.grad, bp.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("L,m,n,p", [(3, 5, 4, 6), (4, 64, 8, 10), (2, 130, 8, 10)])
    def test_slabs_match_the_2d_ops(self, L, m, n, p, dtype):
        gen = np.random.default_rng(m * 10 + p)
        x = gen.standard_normal((L, m, n)).astype(dtype)
        w = gen.standard_normal((L, n, p)).astype(dtype)
        b = gen.standard_normal((L, p)).astype(dtype)
        y = gen.integers(0, p, (L, m))
        (h, logits, loss), grads = self.chain(x, w, b, y)
        slab_losses = []
        for i in range(L):
            (h2, logits2, loss2), grads2 = self.chain(x[i], w[i], b[i], y[i])
            assert same_bits(h[i], h2) and same_bits(logits[i], logits2)
            for got, want in zip(grads, grads2):
                assert got.dtype == dtype and same_bits(got[i], want)
            slab_losses.append(loss2)
        assert same_bits(loss, np.array(slab_losses).sum())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recorded_backward_matches_per_slab(self, dtype):
        """matmul's and bias_add's recorded backward on an arbitrary gradient."""
        gen = np.random.default_rng(7)
        a, w = gen.standard_normal((3, 9, 5)).astype(dtype), gen.standard_normal((3, 5, 4))
        w, b = w.astype(dtype), gen.standard_normal((3, 4)).astype(dtype)
        g = gen.standard_normal((3, 9, 4)).astype(dtype)
        with Graph("g"):
            mm = ops.matmul(Tensor(a, requires_grad=True), Parameter("w", w, dtype))
            ba = ops.bias_add(Tensor(a[..., :4], requires_grad=True), Parameter("b", b, dtype))
            for i in range(3):
                mm2 = ops.matmul(Tensor(a[i], requires_grad=True), Parameter("w", w[i], dtype))
                ba2 = ops.bias_add(Tensor(a[i, :, :4], requires_grad=True),
                                   Parameter("b", b[i], dtype))
                for got, want in zip(mm.node.backward_fn(g), mm2.node.backward_fn(g[i])):
                    assert same_bits(got[i], want)
                for got, want in zip(ba.node.backward_fn(g), ba2.node.backward_fn(g[i])):
                    assert same_bits(got[i], want)

    def test_stack_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 5))))
        with pytest.raises(ShapeError):
            ops.matmul(t(np.ones((2, 3, 4))), t(np.ones((2, 5, 4))))
        with pytest.raises(ShapeError):
            ops.bias_add(t(np.ones((2, 3, 4))), t(np.ones((3, 4))))
        with pytest.raises(ShapeError):
            ops.bias_add(t(np.ones((2, 3, 4))), t(np.ones(4)))

    @pytest.mark.parametrize("shape,labels", [
        ((2, 3, 4), (2,)), ((2, 3, 4), (3,)), ((2, 3, 4), (3, 2)), ((2, 3, 4), (6,)),
        ((3, 4), (3, 1)), ((3, 4), (2,)),
    ])
    def test_labels_must_drop_the_class_axis(self, shape, labels):
        with pytest.raises(ShapeError):
            ops.softmax_cross_entropy(t(np.zeros(shape)), np.zeros(labels, dtype=np.int64))


class TestElementwise:
    def test_relu_gates_negatives(self):
        out = ops.relu(t([-2.0, -0.0, 0.5, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.5, 3.0])

    def test_residual_add(self):
        out = ops.residual_add(t([1.0, 2.0]), t([10.0, 20.0]))
        np.testing.assert_array_equal(out.data, [11.0, 22.0])

    def test_residual_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ops.residual_add(t(np.ones(3)), t(np.ones(4)))

    def test_bias_add_2d_and_4d(self):
        out2 = ops.bias_add(t(np.zeros((2, 3))), t([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out2.data, [[1, 2, 3], [1, 2, 3]])
        out4 = ops.bias_add(t(np.zeros((1, 2, 2, 2))), t([5.0, 9.0]))
        assert out4.data[0, 0, 1, 1] == 5.0 and out4.data[0, 1, 0, 0] == 9.0

    def test_sum_all(self):
        assert ops.sum_all(t(np.arange(6).reshape(2, 3))).data == pytest.approx(15.0)


class TestGraphMechanics:
    def test_detach_shares_data_blocks_gradient(self):
        p = Parameter("p", np.ones(3, dtype=np.float64))
        with Graph("g") as g:
            h = ops.relu(p)
            cut = ops.detach(h)
            loss = ops.sum_all(cut)
            g.backward(loss)
        assert cut.data is h.data
        np.testing.assert_array_equal(p.grad, np.zeros(3))
        assert p.accum_count == 0

    def test_cross_graph_tensor_rejected(self):
        p = Parameter("p", np.ones(2, dtype=np.float64))
        with Graph("a"):
            h = ops.relu(p)
        with Graph("b"):
            with pytest.raises(GraphError):
                ops.relu(h)

    def test_backward_requires_scalar(self):
        p = Parameter("p", np.ones(3, dtype=np.float64))
        with Graph("g") as g:
            h = ops.relu(p)
            with pytest.raises(GraphError):
                g.backward(h)

    def test_no_recording_without_graph(self):
        p = Parameter("p", np.ones(2, dtype=np.float64))
        out = ops.relu(p)
        assert out.node is None


class TestConvBatchNorm:
    """The fused conv–batch-norm op against the conv and batch norm it fuses."""

    @staticmethod
    def run(fused, x, w, gamma, beta, g, stride, pad):
        """Output, μ, σ², dx and the three parameter gradients of one backward."""
        for q in (w, gamma, beta):
            q.zero_grad()
        with Graph("g") as graph:
            if fused:
                out, mu, var = ops.conv_batchnorm2d_train(x, w, gamma, beta, stride, pad)
            else:
                out, mu, var = ops.batchnorm2d_train(ops.conv2d(x, w, stride, pad), gamma, beta)
            dx = graph.backward(out, g)
        return [out.data, mu, var, dx] + [q.grad.copy() for q in (w, gamma, beta)]

    # (x wants a gradient, kernel and affine frozen): a unit, the stem's
    # image, an EMA twin
    @pytest.mark.parametrize("x_grad,frozen", [(True, False), (False, False), (True, True)])
    @pytest.mark.parametrize("stride,pad", [(1, 1), (1, 0), (2, 1), (2, 0)])
    @pytest.mark.parametrize("layout", ["nhwc", "nchw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_conv_then_batchnorm_bitwise(self, dtype, layout, stride, pad, x_grad,
                                                 frozen):
        gen = np.random.default_rng(stride * 10 + pad)
        x = Tensor(laid_out(gen.standard_normal((4, 3, 9, 9)).astype(dtype), layout),
                   requires_grad=x_grad)
        w, gamma, beta = (Parameter(name, v.astype(dtype), requires_grad=not frozen)
                          for name, v in (("w", gen.standard_normal((5, 3, 3, 3))),
                                          ("gamma", gen.uniform(0.5, 1.5, 5)),
                                          ("beta", gen.standard_normal(5))))
        side = (9 + 2 * pad - 3) // stride + 1
        g = laid_out(gen.standard_normal((4, 5, side, side)).astype(dtype), "nhwc")
        got = self.run(True, x, w, gamma, beta, g, stride, pad)
        want = self.run(False, x, w, gamma, beta, g, stride, pad)
        assert (got[3] is None) == (want[3] is None) == (not x_grad)
        for a, b in zip(got, want):
            assert a is None or same_bits(a, b)
        assert all(q.grad.any() != frozen for q in (w, gamma, beta))


class TestConvBatchNormEval:
    """Eval-mode batch norm folded into its conv, against the conv and the
    unfolded batch norm: equal up to rounding, not bit for bit."""

    @staticmethod
    def layer_pair(c_in, c_out, dtype, seed):
        gen = np.random.default_rng(seed)
        conv = Conv2d("conv", c_in, c_out, gen, dtype=dtype)
        bn = BatchNorm2d("bn", c_out, dtype)
        bn.gamma.data[...] = gen.uniform(0.5, 1.5, c_out)
        bn.beta.data[...] = gen.standard_normal(c_out)
        bn.running_mean[...] = gen.standard_normal(c_out)
        bn.running_var[...] = gen.uniform(0.2, 3.0, c_out)
        bn.initialized = True
        return conv, bn

    # (input channels, input layout): the stem's image, a training-layout and
    # an eval-layout width-8 unit input; 32 images give a unit 4608 patches,
    # so its conv runs K-major
    @pytest.mark.parametrize("c_in,layout", [(1, "nchw"), (8, "nhwc"), (8, "chwn")])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_matches_conv_then_batchnorm_eval(self, c_in, layout, dtype, tol):
        conv, bn = self.layer_pair(c_in, 8, dtype, seed=c_in)
        x = Tensor(laid_out(np.random.default_rng(5).standard_normal((32, c_in, 12, 12))
                            .astype(dtype), layout))
        got = bn(conv, x, training=False).data
        want = ops.batchnorm2d_eval(ops.conv2d(x, conv.w), bn.gamma, bn.beta,
                                    bn.running_mean, bn.running_var).data
        # the output is CHWN memory, whatever the input's layout
        assert got.dtype == want.dtype and got.strides == laid_out(want, "chwn").strides
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_refuses_an_active_tape(self):
        conv, bn = self.layer_pair(8, 8, np.float64, seed=0)
        x = Tensor(np.ones((2, 8, 4, 4)))
        with Graph("g"):
            with pytest.raises(GraphError, match="forward-only"):
                bn(conv, x, training=False)


class TestChwnForward:
    """An eval forward runs batch-innermost: a CHWN input gives a CHWN output,
    with the bytes of the same values from the NHWC forward."""

    # at 12×12, 2 and 7 images fit one block of every conv; 29 or more make
    # blocks of whole output rows, and from 97 on the C=1 stem's GEMM leaves
    # OpenBLAS's small-matrix range too. At 4 channels and filters, a
    # K-major GEMM over 2 images would have other bits.
    @pytest.mark.parametrize("c,f", [(1, 8), (8, 8), (16, 8), (4, 4)])
    @pytest.mark.parametrize("n", [2, 7, 29, 30, 130, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_matches_the_nhwc_forward_bitwise(self, dtype, n, c, f, monkeypatch):
        gen = np.random.default_rng(n * 100 + c)
        x = gen.standard_normal((n, c, 12, 12)).astype(dtype)
        w = Tensor(gen.standard_normal((f, c, 3, 3)).astype(dtype))
        want = ops.conv2d(Tensor(laid_out(x, "nhwc")), w).data
        rows, inner = [], ops._row_patches  # each K-major block's output rows (i, j)
        monkeypatch.setattr(ops, "_row_patches", lambda *a: rows.append(a[-2:]) or inner(*a))
        got = ops.conv2d(Tensor(laid_out(x, "chwn")), w).data
        assert ops._chwn(got) and same_bits(got, laid_out(want, "chwn"))
        # K-major blocks that cover the 12 output rows, unless some GEMM would be small
        if n * 144 >= ops._BLOCK_ROWS and f * 9 * c * n * 144 > ops._SMALL_GEMM:
            assert [i for i, _ in rows] + [12] == [0] + [j for _, j in rows]
        else:
            assert not rows

    @pytest.mark.parametrize("c", [1, 3, 8])
    @pytest.mark.parametrize("n", [2, 16, 130])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_keeps_the_nhwc_bits_in_rows(self, dtype, n, c):
        x = (np.random.default_rng(n * 10 + c).standard_normal((n, c, 12, 12)) * 3 + 1
             ).astype(dtype)
        got = ops.global_avg_pool(Tensor(laid_out(x, "chwn"))).data
        want = ops._channel_sum(laid_out(x, "nhwc"), keep="nc") / 144
        assert got.flags.c_contiguous and same_bits(got, np.ascontiguousarray(want))

    def test_batch_of_one_takes_the_nhwc_forward(self):
        """One image in CHWN memory is also NCHW memory: it runs, and returns,
        as the NHWC forward does."""
        gen = np.random.default_rng(0)
        x = gen.standard_normal((1, 8, 12, 12)).astype(np.float32)
        w = Tensor(gen.standard_normal((8, 8, 3, 3)).astype(np.float32))
        assert not ops._chwn(laid_out(x, "chwn"))
        got, want = (ops.conv2d(Tensor(laid_out(x, lay)), w).data for lay in ("chwn", "nhwc"))
        assert same_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_small_k_major_gemm_would_move_bits(self, dtype):
        """Why a small CHWN conv runs the row-major GEMM: OpenBLAS's
        small-matrix kernels add the K-major operands in another order."""
        gen = np.random.default_rng(0)
        cols = gen.standard_normal((144, 72)).astype(dtype)
        wm = gen.standard_normal((8, 72)).astype(dtype)
        assert (wm @ np.ascontiguousarray(cols.T)).tobytes() != (cols @ wm.T).T.copy().tobytes()


# ---------------------------------------------------------------------------
# the channels-last conv against one GEMM over the whole batch
# ---------------------------------------------------------------------------

def reference_conv2d(x, w, stride=1, pad=1):
    """conv2d as one patch copy and one GEMM over the whole batch; the
    backward is the op's own."""
    xd, wd = x.data, w.data
    (n, c, h, width), (f, _, kh, kw) = xd.shape, wd.shape
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))).transpose(0, 2, 3, 1)
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    ho, wo = win.shape[1:3]
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * c)
    out = (cols @ wd.transpose(0, 2, 3, 1).reshape(f, -1).T
           ).reshape(n, ho, wo, f).transpose(0, 3, 1, 2)

    def backward(g):
        return (ops._conv_dx(g, wd, xd.shape, stride, pad),
                ops._conv_dw(g, ops._patches(xd, kh, kw, stride, pad), wd))

    return ops._result("conv2d", (x, w), out, backward, (xd,))


class TestBlockedConvForward:
    @staticmethod
    def run(kernel, x, w, g):
        """Output, then the recorded backward's dx and dW on `g`."""
        xt, wt = Tensor(x, requires_grad=True), Parameter("w", w, dtype=w.dtype)
        with Graph("g"):
            out = kernel(xt, wt)
        return [out.data, *out.node.backward_fn(g)]

    # (channels, side, filters): the desk stem and units, the CIFAR stem and units
    @pytest.mark.parametrize("c,side,f", [(1, 12, 8), (8, 12, 8), (3, 32, 16), (16, 32, 16)])
    @pytest.mark.parametrize("n", [1, 2, 28, 29, 30, 57, 58, 64, 130, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_one_gemm_bitwise(self, dtype, n, c, side, f, monkeypatch):
        gen = np.random.default_rng(n * 100 + c)
        x = gen.standard_normal((n, c, side, side)).astype(dtype)
        w = gen.standard_normal((f, c, 3, 3)).astype(dtype)
        g = laid_out(gen.standard_normal((n, f, side, side)).astype(dtype), "nhwc")
        want = self.run(reference_conv2d, x, w, g)
        shapes = record_patches(monkeypatch)
        got = self.run(ops.conv2d, x, w, g)
        for a, b in zip(got, want):
            assert same_bits(a, b)
        # the forward, dW and dx each build one whole-batch patch matrix
        assert [p for p, _ in shapes] == [n * side * side] * 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_lone_image_block_would_move_bits(self, dtype):
        """Why the forward never splits a batch: a 144-row GEMM takes another
        BLAS kernel, so the last image of 29 run alone gets other bits."""
        gen = np.random.default_rng(0)
        x = Tensor(gen.standard_normal((29, 8, 12, 12)).astype(dtype))
        w = Tensor(gen.standard_normal((8, 8, 3, 3)).astype(dtype))
        whole = ops.conv2d(x, w).data
        assert same_bits(whole, reference_conv2d(x, w).data)
        assert whole[28:].tobytes() != reference_conv2d(Tensor(x.data[28:]), w).data.tobytes()
