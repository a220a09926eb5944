"""Gradient-isolated local learning with cascaded windows and EMA leap
replicas, on a small self-contained numpy tape."""

from .errors import (CheckpointError, ConfigError, DataError, GraphError,
                     MlaanError, ShapeError, StateError, TrainingDiverged)
from .tensor import Graph, Parameter, Tensor, get_default_dtype, set_default_dtype
from .optim import OptimizerConfig, SGDNesterov, cosine_annealing_lr, finite_diff_check
from .network import (Backbone, BackboneConfig, build_backbone,
                      build_leap_replicas, partition)
from .training import MODES, Trainer, TrainerMode, evaluate
from .analysis import (ActivationMeter, MemoryReport, MetricsRecorder,
                       cka_linear, layerwise_cka, linear_probe, linear_probes,
                       meter_peak_activations)
from .data import Dataset, load_cifar10_bin, load_idx, subsample, synth_dataset
from .config import ExperimentConfig, config_from_dict, load_config
from .checkpoint import load_checkpoint, restore_into, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "MlaanError", "ShapeError", "ConfigError", "GraphError", "StateError",
    "DataError", "CheckpointError", "TrainingDiverged",
    "Tensor", "Parameter", "Graph", "set_default_dtype", "get_default_dtype",
    "OptimizerConfig", "SGDNesterov", "cosine_annealing_lr", "finite_diff_check",
    "Backbone", "BackboneConfig", "build_backbone", "partition", "build_leap_replicas",
    "MODES", "Trainer", "TrainerMode", "evaluate",
    "ActivationMeter", "MemoryReport", "MetricsRecorder", "cka_linear",
    "layerwise_cka", "linear_probe", "linear_probes", "meter_peak_activations",
    "Dataset", "load_idx", "load_cifar10_bin", "synth_dataset", "subsample",
    "ExperimentConfig", "config_from_dict", "load_config",
    "save_checkpoint", "load_checkpoint", "restore_into",
    "__version__",
]
