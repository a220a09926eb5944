"""Layer objects: thin Parameter containers around the op kernels.

Every layer takes its parameters' dtype when built (None: the default dtype)
and an explicit `training` flag on call rather than holding a global mode.
A batch-norm layer takes the bias-free conv in front of it and that conv's
input, and trains the pair as one op that keeps the input, not the conv
output; `update_stats=False` leaves its running statistics alone. In eval mode
it folds its running statistics into that conv's kernel and a per-channel
bias, so the pair runs as one conv and one in-place bias pass. Both modes run
on batch-innermost (CHWN) memory: the pair lays out the stem's images so, and
every later layer gets that layout from the one before it.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import StateError
from .tensor import Parameter, Tensor


def kaiming_normal(gen: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return gen.standard_normal(shape) * math.sqrt(2.0 / fan_in)


class Conv2d:  # 3×3, stride 1, padded to keep the spatial size
    def __init__(self, name: str, c_in: int, c_out: int, gen: np.random.Generator,
                 bias: bool = False, dtype=None):
        self.name = name
        self.w = Parameter(f"{name}.w", kaiming_normal(gen, (c_out, c_in, 3, 3), c_in * 9), dtype)
        self.b = Parameter(f"{name}.b", np.zeros(c_out), dtype) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = ops.conv2d(x, self.w)
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

    def __init__(self, name: str, channels: int, dtype=None):
        self.name = name
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels), dtype)
        self.beta = Parameter(f"{name}.beta", np.zeros(channels), dtype)
        self.running_mean = np.zeros_like(self.gamma.data)
        self.running_var = np.ones_like(self.gamma.data)
        self.initialized = False

    def __call__(self, conv: Conv2d, x: Tensor, training: bool,
                 update_stats: bool = True) -> Tensor:
        if not training:
            if not self.initialized:
                raise StateError(f"batch norm {self.name!r} evaluated before any "
                                 "training statistics exist")
            return ops.conv_batchnorm2d_eval(x, conv.w, self.gamma, self.beta,
                                             self.running_mean, self.running_var)
        out, mu, var = ops.conv_batchnorm2d_train(x, conv.w, self.gamma, self.beta)
        if update_stats:
            if self.initialized:
                self.running_mean *= 0.9
                self.running_mean += 0.1 * mu
                self.running_var *= 0.9
                self.running_var += 0.1 * var
            else:
                self.running_mean[...] = mu
                self.running_var[...] = var
                self.initialized = True
        return out

    def parameters(self):
        return [self.gamma, self.beta]


class Linear:
    def __init__(self, name: str, d_in: int, d_out: int, gen: np.random.Generator,
                 dtype=None):
        self.name = name
        self.w = Parameter(f"{name}.w", kaiming_normal(gen, (d_in, d_out), d_in), dtype)
        self.b = Parameter(f"{name}.b", np.zeros(d_out), dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.bias_add(ops.matmul(x, self.w), self.b)

    def parameters(self):
        return [self.w, self.b]


class ResidualUnit:
    """conv3x3 (no bias) -> batch norm -> add input -> relu. Width-preserving."""

    def __init__(self, name: str, width: int, gen: np.random.Generator, dtype=None):
        self.name = name
        self.conv = Conv2d(f"{name}.conv", width, width, gen, bias=False, dtype=dtype)
        self.bn = BatchNorm2d(f"{name}.bn", width, dtype)

    def __call__(self, x: Tensor, training: bool, update_stats: bool = True) -> Tensor:
        return ops.relu(ops.residual_add(self.bn(self.conv, x, training, update_stats), x))

    def parameters(self):
        return self.conv.parameters() + self.bn.parameters()


class AuxHead:
    """Local classification head: 3x3 conv (bias) -> relu -> global pool -> linear."""

    def __init__(self, name: str, width: int, classes: int, gen: np.random.Generator,
                 dtype=None):
        self.name = name
        self.conv = Conv2d(f"{name}.conv", width, width, gen, bias=True, dtype=dtype)
        self.fc = Linear(f"{name}.fc", width, classes, gen, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc(ops.global_avg_pool(ops.relu(self.conv(x))))

    def parameters(self):
        return self.conv.parameters() + self.fc.parameters()
