"""Reverse-mode gradient checks against central finite differences,
plus tape mechanics (accumulation, seeds, frozen parameters)."""

import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlaan import ActivationMeter, ops
from mlaan.errors import GraphError
from mlaan.layers import ResidualUnit
from mlaan.optim import finite_diff_check
from mlaan.tensor import Graph, Parameter, Tensor, set_default_dtype


@pytest.fixture(autouse=True)
def _float64():
    set_default_dtype(np.float64)
    yield
    set_default_dtype(np.float32)


def p(name, data):
    return Parameter(name, np.asarray(data, dtype=np.float64))


def check(f, params, tol=1e-6):
    errs = finite_diff_check(f, params)
    for name, err in errs.items():
        assert err < tol, f"{name}: rel err {err}"


class TestFiniteDiffOracle:
    def test_quadratic_is_machine_exact(self):
        w = p("w", np.random.default_rng(0).standard_normal(6))
        errs = finite_diff_check(lambda: ops.sum_all(ops.residual_add(w, w)), [w])
        # linear in w: finite differences are exact up to float rounding
        assert errs["w"] < 1e-9

    def test_quadratic_form(self):
        gen = np.random.default_rng(1)
        w = p("w", gen.standard_normal((4, 4)))
        errs = finite_diff_check(lambda: ops.sum_all(ops.matmul(w, w)), [w])
        assert errs["w"] < 1e-7

    def test_detects_corrupted_backward(self):
        # an op whose backward doubles the true gradient must be flagged
        w = p("w", np.random.default_rng(2).standard_normal(5))

        def doubled_sum():
            g = Graph.active()
            out = Tensor(np.array(w.data.sum()), requires_grad=True)

            def backward(grad):
                return (np.full_like(w.data, 2.0 * float(grad)),)

            if g is not None:
                g.record("bad_sum", (w,), out, backward)
            return out

        errs = finite_diff_check(doubled_sum, [w])
        assert errs["w"] >= 0.4


class TestOpGradients:
    def test_matmul(self):
        gen = np.random.default_rng(3)
        a, b = p("a", gen.standard_normal((3, 4))), p("b", gen.standard_normal((4, 2)))
        check(lambda: ops.sum_all(ops.matmul(a, b)), [a, b])

    def test_conv2d(self):
        gen = np.random.default_rng(4)
        x = p("x", gen.standard_normal((2, 2, 5, 5)))
        w = p("w", gen.standard_normal((3, 2, 3, 3)) * 0.5)
        check(lambda: ops.sum_all(ops.conv2d(x, w)), [x, w])

    def test_conv2d_strided(self):
        gen = np.random.default_rng(5)
        x = p("x", gen.standard_normal((1, 1, 7, 7)))
        w = p("w", gen.standard_normal((2, 1, 3, 3)))
        check(lambda: ops.sum_all(ops.conv2d(x, w, stride=2, pad=1)), [x, w])

    def test_batchnorm_train(self):
        gen = np.random.default_rng(6)
        x = p("x", gen.standard_normal((4, 3, 2, 2)))
        gamma, beta = p("g", gen.standard_normal(3)), p("b", gen.standard_normal(3))
        # a plain sum has an exactly-zero x-gradient (normalization kills it),
        # so mix channels with a fixed conv to get a generic loss surface
        mix = Tensor(gen.standard_normal((2, 3, 3, 3)))

        def f():
            out, _, _ = ops.batchnorm2d_train(x, gamma, beta)
            return ops.sum_all(ops.conv2d(out, mix))

        check(f, [x, gamma, beta], tol=1e-5)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_conv_batchnorm_train(self, stride, pad):
        gen = np.random.default_rng(11)
        x = p("x", gen.standard_normal((3, 2, 5, 5)))
        w = p("w", gen.standard_normal((3, 2, 3, 3)) * 0.5)
        gamma, beta = p("g", gen.standard_normal(3)), p("b", gen.standard_normal(3))
        mix = Tensor(gen.standard_normal((2, 3, 3, 3)))

        def f():
            out, _, _ = ops.conv_batchnorm2d_train(x, w, gamma, beta, stride, pad)
            return ops.sum_all(ops.conv2d(out, mix))

        check(f, [x, w, gamma, beta], tol=1e-5)

    def test_batchnorm_eval(self):
        gen = np.random.default_rng(7)
        x = p("x", gen.standard_normal((2, 2, 3, 3)))
        gamma, beta = p("g", gen.standard_normal(2)), p("b", gen.standard_normal(2))
        mean, var = gen.standard_normal(2), np.abs(gen.standard_normal(2)) + 0.5

        def f():
            return ops.sum_all(ops.batchnorm2d_eval(x, gamma, beta, mean, var, 1e-5))

        check(f, [x, gamma, beta])

    def test_cross_entropy(self):
        gen = np.random.default_rng(8)
        logits = p("z", gen.standard_normal((6, 5)))
        y = gen.integers(0, 5, 6)
        check(lambda: ops.softmax_cross_entropy(logits, y), [logits])

    def test_relu_away_from_kink(self):
        gen = np.random.default_rng(9)
        # keep every coordinate at least 0.1 from zero so the subgradient
        # kink cannot poison the finite-difference probe
        raw = gen.standard_normal(20)
        raw = np.where(np.abs(raw) < 0.1, 0.5 * np.sign(raw) + (raw == 0), raw)
        x = p("x", raw)
        check(lambda: ops.sum_all(ops.relu(x)), [x])

    def test_global_avg_pool_and_bias(self):
        gen = np.random.default_rng(10)
        x = p("x", gen.standard_normal((2, 3, 4, 4)))
        b = p("b", gen.standard_normal(3))

        def f():
            h = ops.bias_add(x, b)
            pooled = ops.global_avg_pool(h)
            return ops.sum_all(ops.matmul(pooled, Tensor(np.ones((3, 1)))))

        check(f, [x, b])

    def test_residual_add(self):
        gen = np.random.default_rng(11)
        a, b2 = p("a", gen.standard_normal((3, 3))), p("b", gen.standard_normal((3, 3)))
        check(lambda: ops.sum_all(ops.residual_add(ops.matmul(a, b2), a)), [a, b2])


class TestTapeMechanics:
    def test_gradients_accumulate_across_backwards(self):
        w = p("w", np.ones(3))
        with Graph("g") as g:
            l1 = ops.sum_all(ops.relu(w))
            l2 = ops.sum_all(ops.relu(w))
            g.backward(l1)
            g.backward(l2)
        np.testing.assert_array_equal(w.grad, np.full(3, 2.0))
        assert w.accum_count == 2

    def test_seed_scales_gradient(self):
        w = p("w", np.array([2.0, 3.0]))
        with Graph("g") as g:
            g.backward(ops.sum_all(w), seed=2.5)
        np.testing.assert_allclose(w.grad, [2.5, 2.5])

    def test_frozen_parameter_passes_gradient_through(self):
        # gradient must flow THROUGH a requires_grad=False parameter to
        # earlier trainables without accumulating in the frozen one
        up = p("up", np.array([[1.0, 2.0]]))
        frozen = Parameter("fz", np.array([[3.0], [4.0]]), requires_grad=False)
        with Graph("g") as g:
            out = ops.matmul(up, frozen)
            g.backward(ops.sum_all(out))
        np.testing.assert_allclose(up.grad, [[3.0, 4.0]])
        np.testing.assert_array_equal(frozen.grad, np.zeros((2, 1)))
        assert frozen.accum_count == 0 and up.accum_count == 1

    def test_zero_grad_resets_count(self):
        w = p("w", np.ones(2))
        with Graph("g") as g:
            g.backward(ops.sum_all(w))
        w.zero_grad()
        np.testing.assert_array_equal(w.grad, np.zeros(2))
        assert w.accum_count == 0

    def test_release_clears_nodes(self):
        w = p("w", np.ones(2))
        with Graph("g") as g:
            out = ops.relu(w)
            g.backward(ops.sum_all(out))
            g.release()
        assert out.node is None

    def test_chained_tapes_match_one_tape(self):
        # Split the way a module body ends: after conv -> batch norm -> relu,
        # whose output keeps the conv output's strided layout. The far tape
        # reads the split twice (conv and residual add). Seeding the near
        # tape with the far tape's input gradient must reproduce the
        # one-tape parameter and input gradients bit for bit, so the chain
        # may neither copy the seed into another layout (that reorders the
        # batch-norm backward sums) nor drop one of the leaf's consumers.
        gen = np.random.default_rng(21)
        f32 = np.float32
        x0 = gen.standard_normal((3, 2, 6, 6)).astype(f32)
        w1 = Parameter("w1", gen.standard_normal((4, 2, 3, 3)) * 0.4, dtype=f32)
        gamma = Parameter("gamma", gen.uniform(0.5, 1.5, 4), dtype=f32)
        beta = Parameter("beta", gen.standard_normal(4) * 0.1, dtype=f32)
        w2 = Parameter("w2", gen.standard_normal((4, 4, 3, 3)) * 0.3, dtype=f32)
        fc = Parameter("fc", gen.standard_normal((4, 5)), dtype=f32)
        params = [w1, gamma, beta, w2, fc]
        labels = np.array([0, 3, 1])

        def near(x):
            b, _, _ = ops.batchnorm2d_train(ops.conv2d(x, w1), gamma, beta)
            return ops.relu(b)

        def far(h):
            z = ops.relu(ops.residual_add(ops.conv2d(h, w2), h))
            return ops.softmax_cross_entropy(ops.matmul(ops.global_avg_pool(z), fc), labels)

        def grads(split):
            for q in params:
                q.zero_grad()
            x = Tensor(x0, requires_grad=True)
            if split:
                with Graph("near") as g_near:
                    h = near(x)
                with Graph("far") as g_far:
                    gh = g_far.backward(far(Tensor(h.data, requires_grad=True)))
                gx = g_near.backward(h, seed=gh)
            else:
                with Graph("one") as g:
                    gx = g.backward(far(near(x)))
            return [gx] + [q.grad.copy() for q in params], [q.accum_count for q in params]

        (one, one_counts), (two, two_counts) = grads(False), grads(True)
        assert one[0].shape == x0.shape and np.any(one[0])
        for a, b in zip(one, two):
            assert a.dtype == b.dtype == f32 and a.tobytes() == b.tobytes()
        assert one_counts == two_counts == [1] * len(params)

    def test_backward_seed_must_match_loss_shape(self):
        w = p("w", np.ones((2, 3)))
        with Graph("g") as g:
            h = ops.relu(w)
            with pytest.raises(GraphError):
                g.backward(h, seed=np.ones(3))

    def test_backward_refuses_a_loss_from_another_tape(self):
        w = p("w", np.ones(3))
        with Graph("near"):
            loss = ops.sum_all(ops.relu(w))
        with Graph("far") as far:
            with pytest.raises(GraphError, match="'near'.*'far'"):
                far.backward(loss)
        assert not w.grad.any() and w.accum_count == 0

    def conv_batchnorm(self, meter=None):
        gen = np.random.default_rng(12)
        x = Tensor(gen.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = p("w", gen.standard_normal((4, 3, 3, 3)))
        gamma, beta = p("gamma", gen.uniform(0.5, 1.5, 4)), p("beta", gen.standard_normal(4))
        with Graph("body", meter=meter):
            out, mu, var = ops.conv_batchnorm2d_train(x, w, gamma, beta)
        return x, out, mu, var, gen.standard_normal(out.shape)

    def test_conv_batchnorm_backward_twice_gives_the_same_bits(self):
        # a body tape is backward-ed once per signal that reaches it
        _, out, _, _, g = self.conv_batchnorm()
        first, second = out.node.backward_fn(g), out.node.backward_fn(g)
        assert len(first) == 4
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_conv_batchnorm_keeps_its_input_mu_and_inv_sigma(self):
        class Recording(ActivationMeter):
            def hold(self, arr, key):
                self.held.append(arr)
                super().hold(arr, key)

        meter = Recording()
        meter.held = []
        x, _, mu, var, _ = self.conv_batchnorm(meter)
        assert len(meter.held) == 3
        assert meter.held[0] is x.data and meter.held[1] is mu
        assert meter.held[2].tobytes() == (1.0 / np.sqrt(var + 1e-5)).tobytes()

    def test_unit_frees_what_no_backward_reads(self, monkeypatch):
        # conv and batch norm as one op -> residual add -> relu. No backward
        # reads the conv output (the fused op's backward recomputes it), the
        # batch-norm output or the residual sum, so all three die when the
        # unit returns; the input (dW and the recompute) and the relu output
        # (its own mask) stay on the tape.
        made = []
        result = ops._result

        def spy(op, inputs, out_data, backward_fn, cache_arrays=()):
            made.append((op, weakref.ref(out_data)))
            return result(op, inputs, out_data, backward_fn, cache_arrays)

        monkeypatch.setattr(ops, "_result", spy)
        gen = np.random.default_rng(4)
        unit = ResidualUnit("u", 4, gen)
        x = gen.standard_normal((2, 4, 5, 5))
        x_alive = weakref.ref(x)
        with Graph("body") as g:
            out = unit(Tensor(x), training=True)
            del x, out
            alive = {op: ref() is not None for op, ref in made}
            assert [op for op, _ in made] == ["conv2d", "conv_batchnorm2d",
                                              "residual_add", "relu"]
            assert alive == {"conv2d": False, "conv_batchnorm2d": False,
                             "residual_add": False, "relu": True}
            assert x_alive() is not None
            g.release()
        assert x_alive() is None and all(ref() is None for _, ref in made)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_relu_output_mask_is_the_input_mask(dtype, data):
    # relu's backward masks with `out > 0`; it must have the bits of `x > 0`
    info = np.finfo(dtype)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.smallest_subnormal,
                         -info.smallest_subnormal, info.tiny / 2, -info.tiny / 2], dtype)
    drawn = data.draw(st.lists(st.floats(width=info.bits), max_size=64))
    x = np.concatenate([specials, np.array(drawn, dtype)])
    assert np.array_equal(np.maximum(x, 0) > 0, x > 0)


def test_a_tape_is_active_only_in_its_own_thread():
    """A tape open in one thread is not `Graph.active()` in another, so an
    eval-mode forward there runs instead of raising `GraphError`."""
    unit = ResidualUnit("u", 4, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((4, 4, 6, 6)))
    unit(x, training=True)  # running statistics for eval mode
    opened, done, seen = threading.Event(), threading.Event(), []

    def hold_a_tape():
        with Graph("other thread") as g:
            seen.append(Graph.active() is g)
            opened.set()
            done.wait(10)

    other = threading.Thread(target=hold_a_tape)
    other.start()
    try:
        assert opened.wait(10)
        assert Graph.active() is None
        out = unit(x, training=False)
    finally:
        done.set()
        other.join(10)
    assert seen == [True] and out.shape == x.shape and Graph.active() is None
