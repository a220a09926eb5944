"""Backbone construction, partitioning into local modules, and leap replicas.

The backbone is a constant-width residual stack (stem conv -> depth-2
residual units -> global pool -> linear classifier). Constant width with no
downsampling keeps every unit shape-compatible with every other, which is
what lets leap replicas copied from deep units compose onto early-module
feature maps unchanged.

Partitioning shares layer objects with the backbone — a module is a view,
not a copy — so training through modules and evaluating through the
backbone see the same parameters by construction. The auxiliary heads and
cascade windows are not built here: each is part of a supervision signal,
which `training.Trainer` builds with its modules, head and replica pair.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError, check_types
from .layers import BatchNorm2d, Conv2d, Linear, ResidualUnit
from .rng import named_stream
from .tensor import Tensor


@dataclass(frozen=True)
class BackboneConfig:
    """Backbone shape; also the config's `backbone` section."""

    depth: int = 18
    width: int = 8
    classes: int = 10
    input_shape: tuple[int, ...] = (1, 12, 12)

    def __post_init__(self):
        check_types("backbone", self)
        if self.depth < 3:
            raise ConfigError(f"backbone.depth must be >= 3 (stem + at least "
                              f"one unit + classifier), got {self.depth}")
        if self.width < 1:
            raise ConfigError(f"backbone.width must be >= 1, got {self.width}")
        if self.classes < 2:
            raise ConfigError(f"backbone.classes must be >= 2, got {self.classes}")
        if len(self.input_shape) != 3 or any(v < 1 for v in self.input_shape):
            raise ConfigError(f"backbone.input_shape must be three positive ints (C, H, W), "
                              f"got {self.input_shape!r}")


class Backbone:  # parameters in `dtype` (None: the default dtype), kept as `.dtype`
    def __init__(self, cfg: BackboneConfig, seed: int, dtype=None):
        self.cfg = cfg
        gen = named_stream(seed, "init/backbone")
        self.stem_conv = Conv2d("stem.conv", cfg.input_shape[0], cfg.width, gen, dtype=dtype)
        self.stem_bn = BatchNorm2d("stem.bn", cfg.width, dtype)
        pad = int(math.log10(max(cfg.depth - 2, 1))) + 1
        self.units = [ResidualUnit(f"unit{i:0{pad}d}", cfg.width, gen, dtype)
                      for i in range(cfg.depth - 2)]
        self.classifier = Linear("classifier", cfg.width, cfg.classes, gen, dtype)
        self.dtype = self.classifier.w.dtype

    def forward(self, x: Tensor, training: bool, update_stats: bool = True) -> Tensor:
        h = ops.relu(self.stem_bn(self.stem_conv, x, training, update_stats))
        for unit in self.units:
            h = unit(h, training, update_stats)
        return self.classifier(ops.global_avg_pool(h))

    def parameters(self):
        out = self.stem_conv.parameters() + self.stem_bn.parameters()
        for unit in self.units:
            out += unit.parameters()
        return out + self.classifier.parameters()

    def batchnorms(self):
        return [self.stem_bn] + [u.bn for u in self.units]


def build_backbone(depth: int, width: int, num_classes: int, input_shape, seed: int = 0) -> Backbone:
    return Backbone(BackboneConfig(depth, width, num_classes, input_shape), seed)


class LocalModule:
    """Contiguous backbone slice. Module 1 owns the stem; the last module owns
    the pool + classifier and produces the network's real logits."""

    def __init__(self, index: int, units, stem=None, tail: Optional[Linear] = None):
        self.index = index
        self.units = list(units)
        self.stem = stem          # (conv, bn) for module 1
        self.tail = tail          # classifier for the final module

    def forward_body(self, x: Tensor, training: bool, update_stats: bool = True) -> Tensor:
        h = x
        if self.stem is not None:
            conv, bn = self.stem
            h = ops.relu(bn(conv, h, training, update_stats))
        for unit in self.units:
            h = unit(h, training, update_stats)
        return h

    def finish(self, features: Tensor) -> Tensor:
        if self.tail is None:
            raise ConfigError(f"module {self.index} has no classifier tail")
        return self.tail(ops.global_avg_pool(features))

    def parameters(self):
        out = []
        if self.stem is not None:
            out += self.stem[0].parameters() + self.stem[1].parameters()
        for unit in self.units:
            out += unit.parameters()
        if self.tail is not None:
            out += self.tail.parameters()
        return out


def check_partition(units: int, K: int, k: Optional[int] = None) -> None:
    """Check K modules over `units` residual units and, if given, cascade span k."""
    if not 1 <= K <= units:
        raise ConfigError(f"partition.K must lie in 1..{units} (the residual units), got {K}")
    if k is not None and not 1 < k <= K:
        raise ConfigError(f"trainer.k must lie in 2..K={K}, got {k}")


def partition(backbone: Backbone, K: int):
    """Split the backbone's units into K contiguous near-equal modules.

    Remainder units go to the earliest modules. Layer objects are shared
    with the backbone, not copied.
    """
    n = len(backbone.units)
    check_partition(n, K)
    base, rem = divmod(n, K)
    sizes = [base + 1 if i < rem else base for i in range(K)]
    modules = []
    at = 0
    for j, size in enumerate(sizes, start=1):
        modules.append(LocalModule(
            j, backbone.units[at:at + size],
            stem=(backbone.stem_conv, backbone.stem_bn) if j == 1 else None,
            tail=backbone.classifier if j == K else None))
        at += size
    return sizes, modules


LEAP_FRACTIONS = (0.1, 0.5, 0.9)


class LeapReplicaPair:
    """Twice-copied later-module units composed onto an earlier module's head path.

    phi_prime copies train by gradient and are periodically re-copied from
    their live sources; phi_double copies only ever move by the EMA rule, and
    every one of the p twins is EMA-stepped after each optimizer step. The head
    path runs all p phi_prime units, then the phi_double twins of the deepest
    `ema_count = ceil(p*j/K)` sources: p + ema_count units in all. Each runs as
    a plain training-mode unit, so its batch norm updates the copy's own running
    statistics, which nothing reads, saves or copies.
    """

    def __init__(self, owner: int, sources, phi_prime, phi_double, r: float, ema_count: int):
        self.owner = owner
        self.sources = sources
        self.phi_prime = phi_prime
        self.phi_double = phi_double
        self.r = r
        self.ema_count = ema_count

    def apply(self, x: Tensor) -> Tensor:
        h = x
        for unit in self.phi_prime + self.phi_double[len(self.phi_double) - self.ema_count:]:
            h = unit(h, training=True)
        return h

    def ema_step(self) -> None:
        r = self.r
        for prime, double in zip(self.phi_prime, self.phi_double):
            for src, dst in zip(prime.parameters(), double.parameters()):
                dst.data *= r
                dst.data += (1.0 - r) * src.data

    def parameters(self):
        out = []
        for unit in self.phi_prime + self.phi_double:
            out += unit.parameters()
        return out


def _copy_unit(unit: ResidualUnit, new_name: str, trainable: bool) -> ResidualUnit:
    clone = copy.deepcopy(unit)
    rename = {
        clone.conv.w: f"{new_name}.conv.w",
        clone.bn.gamma: f"{new_name}.bn.gamma",
        clone.bn.beta: f"{new_name}.bn.beta",
    }
    for param, name in rename.items():
        param.name = name
        param.zero_grad()
        param.velocity[...] = 0.0
        param.requires_grad = trainable
    clone.name = new_name
    clone.conv.name = f"{new_name}.conv"
    clone.bn.name = f"{new_name}.bn"
    return clone


def build_leap_replicas(modules, j: int, p: int, r: float) -> LeapReplicaPair:
    """Copy p source units from modules j+1..K, twice each (phi', phi'').

    Sources sit at the fractional depths 0.1/0.5/0.9 (cycled) of the
    remaining network. The head path runs all p phi' copies, then the phi''
    twins of the deepest ema_count = ceil(p*j/K) sources; all p twins are
    EMA-stepped.
    """
    K = len(modules)
    if not 1 <= j < K:
        raise ConfigError(f"leap owner j must be in [1, K), got j={j}, K={K}")
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    candidates = [unit for m in modules[j:] for unit in m.units]
    if p > len(candidates):
        raise ConfigError(
            f"p={p} exceeds the {len(candidates)} source layers after module {j}")
    indices = sorted(min(int(LEAP_FRACTIONS[i % 3] * len(candidates)), len(candidates) - 1)
                     for i in range(p))
    sources = [candidates[i] for i in indices]
    phi_prime = [_copy_unit(u, f"leap{j}.phi{i}", trainable=True)
                 for i, u in enumerate(sources)]
    phi_double = [_copy_unit(u, f"leap{j}.ema{i}", trainable=False)
                  for i, u in enumerate(sources)]
    ema_count = math.ceil(p * j / K)
    return LeapReplicaPair(j, sources, phi_prime, phi_double, r, ema_count)


def resync_replicas(pair: LeapReplicaPair) -> None:
    """Re-copy phi' values from the live source units."""
    for src, dst in zip(pair.sources, pair.phi_prime):
        for sp, dp in zip(src.parameters(), dst.parameters()):
            np.copyto(dp.data, sp.data)
