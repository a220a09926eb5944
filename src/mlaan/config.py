"""Experiment configuration: a JSON file with seven sections, strict key
checking, and defaults chosen for the desk-scale setup.

Each section is a dataclass that checks its own values when built;
`ExperimentConfig.validate` adds the rules that span sections.
`run.seed` is deliberately required — every run states its seed.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import asdict, dataclass, field
from typing import Optional

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


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _fits(value, kind) -> bool:
    """JSON integers fit int fields (booleans do not); any finite JSON number
    fits a float field (Python's parser also reads NaN and Infinity)."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _typed(section: str, raw: dict) -> dict:
    """`raw`'s values checked against the types of the section's fields, JSON
    lists turned into tuples. None fits an Optional field only."""
    out = {}
    for key, value in raw.items():
        kind = _FIELD_TYPES[section][key]
        optional = typing.get_origin(kind) is typing.Union
        if optional:
            kind = typing.get_args(kind)[0]
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            ok = isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
            what = f"a list of {_KINDS[item].split()[-1]}s"
        else:
            ok, what = _fits(value, kind), _KINDS[kind]
        if not (ok or optional and value is None):
            raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")
        out[key] = tuple(value) if isinstance(value, list) else value
    return out


@dataclass
class PartitionSection:
    K: int = 8


@dataclass
class RunSection:
    epochs: int = 40
    batch_size: int = 64
    seed: Optional[int] = None
    precision: str = "float32"

    def __post_init__(self):
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
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


@dataclass
class ExperimentConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    partition: PartitionSection = field(default_factory=PartitionSection)
    trainer: TrainerMode = field(default_factory=TrainerMode)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    run: RunSection = field(default_factory=RunSection)
    dataset: DatasetSection = field(default_factory=DatasetSection)
    output: OutputSection = field(default_factory=OutputSection)

    def validate(self) -> "ExperimentConfig":
        if self.run.seed is None:
            raise ConfigError("run.seed is required")
        check_partition(self.backbone.depth - 2, self.partition.K,
                        self.trainer.k if self.trainer.mode in CASCADE_MODES else None)
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
             "trainer": TrainerMode, "optimizer": OptimizerConfig, "run": RunSection,
             "dataset": DatasetSection, "output": OutputSection}
# each section's field types, resolved from the annotations once, at import
_FIELD_TYPES = {name: typing.get_type_hints(cls) for name, cls in _SECTIONS.items()}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys("<top>", data, _SECTIONS)
    sections = {}
    for name, cls in _SECTIONS.items():
        raw = data.get(name, {})
        _check_keys(name, raw, _FIELD_TYPES[name])
        sections[name] = cls(**_typed(name, raw))
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
