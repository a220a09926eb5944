"""Nesterov momentum, the cosine schedule, and optimizer config rules."""

import math

import numpy as np
import pytest

from mlaan import ops
from mlaan.errors import ConfigError
from mlaan.optim import OptimizerConfig, SGDNesterov, cosine_annealing_lr
from mlaan.tensor import Graph, Parameter


def make_param(value, name="w"):
    return Parameter(name, np.asarray(value, dtype=np.float64))


def step_with_grad(opt, param, grad, lr):
    param.grad[...] = grad
    opt.step(lr)


class TestNesterov:
    def test_first_step_scaling(self):
        # from zero velocity: v = g, update = lr*(g + mu*v) = (1+mu)*lr*g
        w = make_param([1.0])
        opt = SGDNesterov([w], OptimizerConfig(lr=0.1, momentum=0.9, weight_decay=0.0))
        step_with_grad(opt, w, np.array([1.0]), 0.1)
        assert w.data[0] == pytest.approx(1.0 - 1.9 * 0.1 * 1.0, abs=1e-15)

    def test_two_steps_known_trajectory(self):
        # g=1 both steps, lr=0.1, mu=0.9: drops 0.19 then 0.271
        w = make_param([0.0])
        opt = SGDNesterov([w], OptimizerConfig(lr=0.1, momentum=0.9, weight_decay=0.0))
        step_with_grad(opt, w, np.array([1.0]), 0.1)
        assert w.data[0] == pytest.approx(-0.19, abs=1e-12)
        step_with_grad(opt, w, np.array([1.0]), 0.1)
        assert w.data[0] == pytest.approx(-0.19 - 0.271, abs=1e-12)

    def test_zero_momentum_is_plain_sgd(self):
        w = make_param([2.0])
        opt = SGDNesterov([w], OptimizerConfig(lr=0.5, momentum=0.0, weight_decay=0.0))
        step_with_grad(opt, w, np.array([3.0]), 0.5)
        assert w.data[0] == pytest.approx(2.0 - 1.5, abs=1e-15)

    def test_weight_decay_pulls_toward_zero(self):
        w = make_param([10.0])
        opt = SGDNesterov([w], OptimizerConfig(lr=0.1, momentum=0.0, weight_decay=0.1))
        step_with_grad(opt, w, np.array([0.0]), 0.1)
        # g' = wd * value = 1.0; update = lr * g' = 0.1
        assert w.data[0] == pytest.approx(9.9, abs=1e-12)

    def test_grads_zeroed_after_step(self):
        w = make_param([1.0])
        opt = SGDNesterov([w], OptimizerConfig(lr=0.1))
        step_with_grad(opt, w, np.array([1.0]), 0.1)
        np.testing.assert_array_equal(w.grad, [0.0])
        assert w.accum_count == 0

    def test_frozen_params_excluded(self):
        w = make_param([1.0])
        frozen = Parameter("fz", np.array([5.0]), requires_grad=False)
        opt = SGDNesterov([w, frozen], OptimizerConfig(lr=0.1))
        assert frozen not in opt.params

    def test_descends_a_quadratic(self):
        w = make_param(np.random.default_rng(0).standard_normal(8) * 3)
        opt = SGDNesterov([w], OptimizerConfig(lr=0.05, momentum=0.9, weight_decay=0.0))
        for _ in range(120):
            w.grad[...] = 2.0 * w.data  # d/dw of ||w||^2
            opt.step(0.05)
        assert np.abs(w.data).max() < 1e-3


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_annealing_lr(0, 0.2, 0.0, 100) == pytest.approx(0.2)
        assert cosine_annealing_lr(100, 0.2, 0.0, 100) == pytest.approx(0.0, abs=1e-17)

    def test_midpoint(self):
        assert cosine_annealing_lr(50, 0.2, 0.0, 100) == pytest.approx(0.1)

    def test_min_lr_floor(self):
        assert cosine_annealing_lr(10, 0.3, 0.1, 10) == pytest.approx(0.1)

    def test_monotone_decreasing(self):
        vals = [cosine_annealing_lr(s, 0.2, 0.0, 50) for s in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_step(self):
        with pytest.raises(ConfigError):
            cosine_annealing_lr(11, 0.1, 0.0, 10)
        with pytest.raises(ConfigError):
            cosine_annealing_lr(-1, 0.1, 0.0, 10)

    def test_matches_closed_form(self):
        for s in (0, 7, 23, 40):
            expected = 0.05 + 0.5 * (0.2 - 0.05) * (1 + math.cos(math.pi * s / 40))
            assert cosine_annealing_lr(s, 0.2, 0.05, 40) == pytest.approx(expected)


class TestOptimizerConfig:
    def test_cascade_scale_default_is_one(self):
        assert OptimizerConfig(lr=0.2).cascade_scale() == 1.0

    def test_cascade_scale_ratio(self):
        assert OptimizerConfig(lr=0.2, lr_cascaded=0.05).cascade_scale() == pytest.approx(0.25)

    def test_cascade_scale_zero(self):
        assert OptimizerConfig(lr=0.2, lr_cascaded=0.0).cascade_scale() == 0.0

    def test_zero_lr_refuses_a_cascaded_rate(self):
        """eta_c/eta_d is infinite there, and would poison every parameter."""
        with pytest.raises(ConfigError, match=r"optimizer\.lr_cascaded .* optimizer\.lr is 0"):
            OptimizerConfig(lr=0.0, lr_cascaded=0.1)
        assert OptimizerConfig(lr=0.0).cascade_scale() == 1.0
        assert OptimizerConfig(lr=0.0, lr_cascaded=0.0).cascade_scale() == 0.0

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(lr=-0.1)

    def test_bad_momentum_rejected(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(lr=0.1, momentum=1.5)
