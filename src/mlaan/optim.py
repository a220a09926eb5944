"""SGD with Nesterov momentum, cosine annealing, and a finite-difference checker."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, check_types
from .tensor import Graph, Parameter, Tensor


@dataclass(frozen=True)
class OptimizerConfig:
    """Learning-rate and momentum settings; also the config's `optimizer` section.

    `lr` is the independent rate (eta_d) at schedule start; `lr_cascaded`
    is the cascaded rate (eta_c), defaulting to `lr`. Both ride the same
    cosine schedule, so their ratio is constant across training.
    """

    lr: float = 0.2
    min_lr: float = 0.0
    lr_cascaded: Optional[float] = None
    momentum: float = 0.9
    weight_decay: float = 1e-4

    def __post_init__(self):
        check_types("optimizer", self)
        for key in ("lr", "min_lr", "lr_cascaded", "weight_decay"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ConfigError(f"optimizer.{key} must be >= 0, got {value}")
        if self.min_lr > self.lr:
            raise ConfigError(f"optimizer.min_lr must be <= optimizer.lr, "
                              f"got {self.min_lr} > {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"optimizer.momentum must lie in [0, 1), got {self.momentum}")
        if self.lr == 0.0 and self.lr_cascaded:
            raise ConfigError(f"optimizer.lr_cascaded must be 0 or null when "
                              f"optimizer.lr is 0, got {self.lr_cascaded}")

    def cascade_scale(self) -> float:
        """Ratio eta_c/eta_d folded into cascade-loss backward seeds."""
        if self.lr_cascaded is None:
            return 1.0
        return self.lr_cascaded / self.lr if self.lr else 0.0


class SGDNesterov:
    """value <- value - lr*(g' + mu*v) with v <- mu*v + g', g' = grad + wd*value."""

    def __init__(self, params: Sequence[Parameter], cfg: OptimizerConfig):
        self.params = [p for p in params if p.requires_grad]
        self.cfg = cfg

    def step(self, lr_now: float) -> None:
        mu = self.cfg.momentum
        wd = self.cfg.weight_decay
        for p in self.params:
            g = p.grad
            if wd:
                g = g + wd * p.data
            v = p.velocity
            v *= mu
            v += g
            p.data -= lr_now * (g + mu * v)
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def cosine_annealing_lr(step: int, initial_lr: float, min_lr: float, total_steps: int) -> float:
    if not 0 <= step <= total_steps:
        raise ConfigError(f"schedule step {step} outside [0, {total_steps}]")
    return min_lr + 0.5 * (initial_lr - min_lr) * (1.0 + math.cos(math.pi * step / total_steps))


def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Parameter],
                      epsilon: float = 1e-5) -> dict:
    """Compare autodiff gradients of scalar program `f` against central differences.

    Returns {param name: max relative error}, with relative error
    |a - n| / max(|a|, |n|, 1e-8). Run in 64-bit for trustworthy numbers.
    """
    for p in params:
        p.zero_grad()
    with Graph("finite_diff") as graph:
        loss = f()
        graph.backward(loss)
        graph.release()

    report = {}
    for p in params:
        auto = p.grad.copy()
        numeric = np.zeros_like(auto)
        flat_value = p.data.reshape(-1)
        flat_num = numeric.reshape(-1)
        for i in range(flat_value.size):
            saved = flat_value[i]
            flat_value[i] = saved + epsilon
            up = float(f().data)
            flat_value[i] = saved - epsilon
            down = float(f().data)
            flat_value[i] = saved
            flat_num[i] = (up - down) / (2.0 * epsilon)
        denom = np.maximum(np.maximum(np.abs(auto), np.abs(numeric)), 1e-8)
        rel = np.abs(auto - numeric) / denom
        report[p.name] = float(rel.max()) if rel.size else 0.0
    for p in params:
        p.zero_grad()
    return report
