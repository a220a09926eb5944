"""Experiment configuration: a JSON file with six sections, strict key
checking, and defaults chosen for the desk-scale setup.

`run.seed` is deliberately required — every run states its seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from .errors import ConfigError
from .optim import OptimizerConfig
from .network import check_partition
from .training import CASCADE_MODES, TrainerMode

DATASET_KINDS = ("idx", "cifar10bin", "synthetic")
PRECISIONS = ("float32", "float64")


def _check_keys(section: str, data: dict, allowed) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be an object")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{section}.{key}'")


@dataclass
class BackboneSection:
    depth: int = 18
    width: int = 8
    classes: int = 10
    input_shape: tuple = (1, 12, 12)


@dataclass
class PartitionSection:
    K: int = 8


@dataclass
class TrainerSection:
    mode: str = "mlaan"
    k: int = 3
    p: int = 2
    r: float = 0.99
    mlaan_rule: str = "ema_teacher"
    sync_period: int = 0

    def build(self) -> TrainerMode:
        """The trainer mode this section describes; TrainerMode checks the values."""
        return TrainerMode(kind=self.mode, k=self.k, p=self.p, r=self.r,
                           mlaan_rule=self.mlaan_rule, sync_period=self.sync_period)


@dataclass
class OptimizerSection:
    lr: float = 0.2
    min_lr: float = 0.0
    lr_cascaded: float = None
    momentum: float = 0.9
    weight_decay: float = 1e-4

    def build(self) -> OptimizerConfig:
        """The optimizer settings this section describes; OptimizerConfig checks the values."""
        return OptimizerConfig(lr=self.lr, min_lr=self.min_lr, lr_cascaded=self.lr_cascaded,
                               momentum=self.momentum, weight_decay=self.weight_decay)


@dataclass
class RunSection:
    epochs: int = 40
    batch_size: int = 64
    seed: int = None
    precision: str = "float32"


@dataclass
class DatasetSection:
    kind: str = "synthetic"
    paths: tuple = ()
    subset_size: int = 0
    noise_scale: float = 0.35


@dataclass
class OutputSection:
    dir: str = None


@dataclass
class ExperimentConfig:
    backbone: BackboneSection = field(default_factory=BackboneSection)
    partition: PartitionSection = field(default_factory=PartitionSection)
    trainer: TrainerSection = field(default_factory=TrainerSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    run: RunSection = field(default_factory=RunSection)
    dataset: DatasetSection = field(default_factory=DatasetSection)
    output: OutputSection = field(default_factory=OutputSection)

    def validate(self) -> "ExperimentConfig":
        b, t, r, d = self.backbone, self.trainer, self.run, self.dataset
        if r.seed is None:
            raise ConfigError("run.seed is required")
        if not isinstance(r.seed, int) or r.seed < 0:
            raise ConfigError(f"run.seed must be a non-negative integer, got {r.seed!r}")
        if r.precision not in PRECISIONS:
            raise ConfigError(f"run.precision must be one of {PRECISIONS}, got {r.precision!r}")
        if r.epochs < 0:
            raise ConfigError(f"run.epochs must be >= 0, got {r.epochs}")
        if r.batch_size < 2:
            raise ConfigError(f"run.batch_size must be >= 2, got {r.batch_size}")
        if b.depth < 3:
            raise ConfigError(f"backbone.depth must be >= 3, got {b.depth}")
        if b.width < 1 or b.classes < 2:
            raise ConfigError("backbone.width must be >= 1 and backbone.classes >= 2")
        shape = tuple(b.input_shape)
        if len(shape) != 3 or any(not isinstance(v, int) or v < 1 for v in shape):
            raise ConfigError(f"backbone.input_shape must be three positive ints, got {b.input_shape!r}")
        self.backbone.input_shape = shape
        t.build()
        check_partition(b.depth - 2, self.partition.K, t.k if t.mode in CASCADE_MODES else None)
        self.optimizer.build()
        if d.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {d.kind!r}")
        if d.kind == "idx" and len(d.paths) != 4:
            raise ConfigError("dataset.kind 'idx' needs paths "
                              "[train_images, train_labels, test_images, test_labels]")
        if d.kind == "cifar10bin" and len(d.paths) < 2:
            raise ConfigError("dataset.kind 'cifar10bin' needs at least two paths "
                              "(train batches..., test batch)")
        if d.subset_size < 0:
            raise ConfigError(f"dataset.subset_size must be >= 0, got {d.subset_size}")
        if d.noise_scale <= 0:
            raise ConfigError(f"dataset.noise_scale must be > 0, got {d.noise_scale}")
        return self

    def out_dir(self) -> str:
        if self.output.dir:
            return self.output.dir
        return os.environ.get("MLAAN_OUT", ".")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["backbone"]["input_shape"] = list(self.backbone.input_shape)
        d["dataset"]["paths"] = list(self.dataset.paths)
        return d


_SECTIONS = {
    "backbone": (BackboneSection, ("depth", "width", "classes", "input_shape")),
    "partition": (PartitionSection, ("K",)),
    "trainer": (TrainerSection, ("mode", "k", "p", "r", "mlaan_rule", "sync_period")),
    "optimizer": (OptimizerSection, ("lr", "min_lr", "lr_cascaded", "momentum", "weight_decay")),
    "run": (RunSection, ("epochs", "batch_size", "seed", "precision")),
    "dataset": (DatasetSection, ("kind", "paths", "subset_size", "noise_scale")),
    "output": (OutputSection, ("dir",)),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys("<top>", data, _SECTIONS)
    sections = {}
    for name, (cls, allowed) in _SECTIONS.items():
        raw = data.get(name, {})
        _check_keys(name, raw, allowed)
        fixed = dict(raw)
        if name == "backbone" and "input_shape" in fixed:
            fixed["input_shape"] = tuple(fixed["input_shape"])
        if name == "dataset" and "paths" in fixed:
            fixed["paths"] = tuple(fixed["paths"])
        sections[name] = cls(**fixed)
    return ExperimentConfig(**sections).validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")
    return config_from_dict(data)
