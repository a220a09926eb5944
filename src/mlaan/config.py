"""Experiment configuration: a JSON file with seven sections, strict key
checking, and defaults chosen for the desk-scale setup.

Each section is a dataclass that checks the types and ranges of its own
values when built, from a file or from Python; `ExperimentConfig` checks the
rules that span sections when it is built or replaced. `run.seed` is
deliberately required — every run states its seed.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .errors import ConfigError, check_types, field_types
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

    def __post_init__(self):
        check_types("partition", self)


@dataclass
class RunSection:
    epochs: int = 40
    batch_size: int = 64
    seed: Optional[int] = None
    precision: str = "float32"

    def __post_init__(self):
        check_types("run", self)
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"run.seed must be a non-negative integer, got {self.seed!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"run.precision must be one of {PRECISIONS}, got {self.precision!r}")
        if self.epochs < 0:
            raise ConfigError(f"run.epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"run.batch_size must be >= 2, got {self.batch_size}")


@dataclass
class DatasetSection:
    kind: str = "synthetic"
    paths: tuple[str, ...] = ()
    subset_size: int = 0
    noise_scale: float = 0.35

    def __post_init__(self):
        check_types("dataset", self)
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.kind == "idx" and len(self.paths) != 4:
            raise ConfigError("dataset.kind 'idx' needs paths "
                              "[train_images, train_labels, test_images, test_labels]")
        if self.kind == "cifar10bin" and len(self.paths) < 2:
            raise ConfigError("dataset.kind 'cifar10bin' needs at least two paths "
                              "(train batches..., test batch)")
        if self.subset_size < 0:
            raise ConfigError(f"dataset.subset_size must be >= 0, got {self.subset_size}")
        if self.noise_scale <= 0:
            raise ConfigError(f"dataset.noise_scale must be > 0, got {self.noise_scale}")


@dataclass
class OutputSection:
    dir: Optional[str] = None

    def __post_init__(self):
        check_types("output", self)


@dataclass
class ExperimentConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    partition: PartitionSection = field(default_factory=PartitionSection)
    trainer: TrainerMode = field(default_factory=TrainerMode)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    run: RunSection = field(default_factory=RunSection)
    dataset: DatasetSection = field(default_factory=DatasetSection)
    output: OutputSection = field(default_factory=OutputSection)

    def __post_init__(self):
        if self.run.seed is None:
            raise ConfigError("run.seed is required")
        check_partition(self.backbone.depth - 2, self.partition.K,
                        self.trainer.k if self.trainer.mode in CASCADE_MODES else None)

    def out_dir(self) -> str:
        return self.output.dir or os.environ.get("MLAAN_OUT", ".")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["backbone"]["input_shape"] = list(self.backbone.input_shape)
        d["dataset"]["paths"] = list(self.dataset.paths)
        return d


_SECTIONS = typing.get_type_hints(ExperimentConfig)  # section name -> its class
for _cls in _SECTIONS.values():  # their field types resolved at import, not in the first load
    field_types(_cls)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys("<top>", data, _SECTIONS)
    sections = {}
    for name, cls in _SECTIONS.items():
        raw = data.get(name, {})
        _check_keys(name, raw, [f.name for f in fields(cls)])
        sections[name] = cls(**raw)
    return ExperimentConfig(**sections)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")
    return config_from_dict(data)
