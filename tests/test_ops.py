"""Forward-value oracles for the tensor ops, independent of the tape, and a
direct-loop gradient oracle for conv2d."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlaan import ops
from mlaan.errors import ConfigError, DataError, GraphError, ShapeError
from mlaan.tensor import Graph, Parameter, Tensor


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
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("k,stride,pad,h,w", CONV_CASES)
    def test_matches_direct_loops(self, k, stride, pad, h, w, layout):
        gen = np.random.default_rng(k * 100 + stride * 10 + pad)
        x = gen.standard_normal((2, 3, h, w))
        if layout == "nhwc":  # same values, channels fastest in memory
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
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
