"""Experiment configuration: a JSON file with six sections, strict key
checking, and defaults chosen for the desk-scale setup.

`run.seed` is deliberately required — every run states its seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .optim import OptimizerConfig
from .network import BackboneConfig, check_partition
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
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    partition: PartitionSection = field(default_factory=PartitionSection)
    trainer: TrainerSection = field(default_factory=TrainerSection)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    run: RunSection = field(default_factory=RunSection)
    dataset: DatasetSection = field(default_factory=DatasetSection)
    output: OutputSection = field(default_factory=OutputSection)

    def validate(self) -> "ExperimentConfig":
        t, r, d = self.trainer, self.run, self.dataset
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
        t.build()
        check_partition(self.backbone.depth - 2, self.partition.K,
                        t.k if t.mode in CASCADE_MODES else None)
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


_SECTIONS = {"backbone": BackboneConfig, "partition": PartitionSection,
             "trainer": TrainerSection, "optimizer": OptimizerConfig, "run": RunSection,
             "dataset": DatasetSection, "output": OutputSection}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys("<top>", data, _SECTIONS)
    sections = {}
    for name, cls in _SECTIONS.items():
        raw = data.get(name, {})
        _check_keys(name, raw, {f.name for f in fields(cls)})
        fixed = dict(raw)
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
