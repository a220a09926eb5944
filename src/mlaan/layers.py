"""Layer objects: thin Parameter containers around the op kernels.

Every layer takes explicit `training` / `update_stats` flags on call rather
than holding a global mode, because one training step runs layers under
different batch-norm policies: the module forward updates running stats,
while leap-replica stacks (copies of later units run on an earlier module's
features) must not.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import StateError
from .tensor import Parameter, Tensor, get_default_dtype


def kaiming_normal(gen: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return gen.standard_normal(shape) * math.sqrt(2.0 / fan_in)


class Conv2d:
    def __init__(self, name: str, c_in: int, c_out: int, gen: np.random.Generator,
                 kernel: int = 3, stride: int = 1, pad: int = 1, bias: bool = False):
        self.name = name
        self.stride = stride
        self.pad = pad
        self.w = Parameter(f"{name}.w",
                           kaiming_normal(gen, (c_out, c_in, kernel, kernel),
                                          c_in * kernel * kernel))
        self.b = Parameter(f"{name}.b", np.zeros(c_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = ops.conv2d(x, self.w, stride=self.stride, pad=self.pad)
        if self.b is not None:
            out = ops.bias_add(out, self.b)
        return out

    def parameters(self):
        return [self.w] if self.b is None else [self.w, self.b]


class BatchNorm2d:
    """Channel-wise batch norm with running statistics.

    First training update copies the batch statistics outright (the
    `initialized` flag flips); later updates blend with momentum 0.1.
    Evaluating before any statistics exist is a state error.
    """

    def __init__(self, name: str, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.name = name
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels))
        dt = get_default_dtype()
        self.running_mean = np.zeros(channels, dtype=dt)
        self.running_var = np.ones(channels, dtype=dt)
        self.initialized = False

    def __call__(self, x: Tensor, training: bool, update_stats: bool = True) -> Tensor:
        if training:
            out, mu, var = ops.batchnorm2d_train(x, self.gamma, self.beta, self.eps)
            if update_stats:
                if self.initialized:
                    m = self.momentum
                    self.running_mean *= 1.0 - m
                    self.running_mean += m * mu
                    self.running_var *= 1.0 - m
                    self.running_var += m * var
                else:
                    self.running_mean[...] = mu
                    self.running_var[...] = var
                    self.initialized = True
            return out
        if not self.initialized:
            raise StateError(
                f"batch norm {self.name!r} evaluated before any training statistics exist")
        return ops.batchnorm2d_eval(x, self.gamma, self.beta,
                                    self.running_mean, self.running_var, self.eps)

    def parameters(self):
        return [self.gamma, self.beta]


class Linear:
    def __init__(self, name: str, d_in: int, d_out: int, gen: np.random.Generator):
        self.name = name
        self.w = Parameter(f"{name}.w", kaiming_normal(gen, (d_in, d_out), d_in))
        self.b = Parameter(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.bias_add(ops.matmul(x, self.w), self.b)

    def parameters(self):
        return [self.w, self.b]


class ResidualUnit:
    """conv3x3 (no bias) -> batch norm -> add input -> relu. Width-preserving."""

    def __init__(self, name: str, width: int, gen: np.random.Generator):
        self.name = name
        self.conv = Conv2d(f"{name}.conv", width, width, gen, bias=False)
        self.bn = BatchNorm2d(f"{name}.bn", width)

    def __call__(self, x: Tensor, training: bool, update_stats: bool = True) -> Tensor:
        h = self.bn(self.conv(x), training, update_stats)
        return ops.relu(ops.residual_add(h, x))

    def parameters(self):
        return self.conv.parameters() + self.bn.parameters()


class AuxHead:
    """Local classification head: 3x3 conv (bias) -> relu -> global pool -> linear."""

    def __init__(self, name: str, width: int, classes: int, gen: np.random.Generator):
        self.name = name
        self.conv = Conv2d(f"{name}.conv", width, width, gen, bias=True)
        self.fc = Linear(f"{name}.fc", width, classes, gen)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc(ops.global_avg_pool(ops.relu(self.conv(x))))

    def parameters(self):
        return self.conv.parameters() + self.fc.parameters()
