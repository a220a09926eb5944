"""Config parsing: strict keys, required seed, range checks, round trips."""

import dataclasses
import json
import os

import pytest

import mlaan
from mlaan.cli import build_trainer
from mlaan.config import _SECTIONS, DATASET_KINDS, DatasetSection, PartitionSection, RunSection

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def minimal(**overrides):
    base = {"run": {"seed": 0}}
    base.update(overrides)
    return base


def test_defaults_fill_every_section():
    cfg = mlaan.config_from_dict(minimal())
    assert cfg.backbone.depth == 18
    assert cfg.backbone.width == 8
    assert cfg.backbone.input_shape == (1, 12, 12)
    assert cfg.partition.K == 8
    assert cfg.trainer.mode == "mlaan"
    assert cfg.trainer.k == 3
    assert cfg.optimizer.lr == 0.2
    assert cfg.optimizer.lr_cascaded is None
    assert cfg.run.precision == "float32"
    assert cfg.dataset.kind == "synthetic"


def test_seed_is_required():
    with pytest.raises(mlaan.ConfigError, match="seed"):
        mlaan.config_from_dict({})
    with pytest.raises(mlaan.ConfigError, match="seed"):
        mlaan.config_from_dict({"run": {"seed": -1}})


def test_unknown_keys_are_named_precisely():
    with pytest.raises(mlaan.ConfigError, match="trainer.cascade_k"):
        mlaan.config_from_dict(minimal(trainer={"cascade_k": 3}))
    with pytest.raises(mlaan.ConfigError, match="<top>.experiment"):
        mlaan.config_from_dict(minimal(experiment={}))
    with pytest.raises(mlaan.ConfigError, match="backbone.channels"):
        mlaan.config_from_dict(minimal(backbone={"channels": 3}))
    with pytest.raises(mlaan.ConfigError, match="optimizer.total_steps"):
        mlaan.config_from_dict(minimal(optimizer={"total_steps": 100}))


@pytest.mark.parametrize("patch,fragment", [
    ({"backbone": {"depth": 2}}, "depth"),
    ({"partition": {"K": 0}}, "partition.K"),
    ({"partition": {"K": 17}}, "partition.K"),          # depth 18 -> 16 units
    ({"trainer": {"mode": "pipeline"}}, "trainer.mode"),
    ({"trainer": {"k": 1}}, "trainer.k"),
    ({"trainer": {"k": 9}}, "trainer.k"),               # K defaults to 8
    ({"trainer": {"p": -2}}, "trainer.p"),
    ({"trainer": {"r": 1.5}}, "trainer.r"),
    ({"trainer": {"sync_period": -3}}, "sync_period"),
    ({"optimizer": {"lr": 0.1, "min_lr": 0.2}}, "min_lr"),
    ({"run": {"seed": 0, "batch_size": 1}}, "batch_size"),
    ({"run": {"seed": 0, "precision": "float16"}}, "precision"),
    ({"dataset": {"kind": "imagefolder"}}, "dataset.kind"),
    ({"dataset": {"kind": "idx", "paths": ["a", "b"]}}, "idx"),
    ({"dataset": {"noise_scale": 0.0}}, "noise_scale"),
    ({"trainer": {"r": 0.0}}, "trainer.r"),             # EMA rate is open (0, 1)
    ({"trainer": {"r": 1.0}}, "trainer.r"),
    ({"optimizer": {"momentum": 1.0}}, "optimizer.momentum"),
    ({"optimizer": {"weight_decay": -1.0}}, "optimizer.weight_decay"),
    ({"backbone": {"input_shape": 12}}, "backbone.input_shape must be a list of integers"),
    ({"backbone": {"depth": "18"}}, "backbone.depth must be an integer"),
    ({"optimizer": {"lr": "0.1"}}, "optimizer.lr must be a finite number"),
    ({"run": {"seed": 0, "epochs": "2"}}, "run.epochs must be an integer"),
    ({"trainer": {"p": "2"}}, "trainer.p must be an integer"),
    ({"trainer": {"k": True}}, "trainer.k must be an integer"),     # bool is not an int
    ({"partition": {"K": 8.0}}, "partition.K must be an integer"),  # nor is a float
    ({"backbone": {"input_shape": [1, 12.0, 12]}}, "backbone.input_shape"),
    ({"dataset": {"paths": [1, 2]}}, "dataset.paths must be a list of strings"),
    ({"trainer": {"mode": None}}, "trainer.mode must be a string"),
    ({"optimizer": {"lr": float("nan")}}, "optimizer.lr must be a finite number"),
    ({"dataset": {"noise_scale": float("inf")}}, "dataset.noise_scale must be a finite"),
])
def test_validation_rejections(patch, fragment):
    with pytest.raises(mlaan.ConfigError, match=fragment):
        mlaan.config_from_dict(minimal(**patch))


@pytest.mark.parametrize("values,fragment", [
    ({"batch_size": 1}, "run.batch_size"),
    ({"epochs": -1}, "run.epochs"),
    ({"seed": -1}, "run.seed"),
    ({"precision": "float16"}, "run.precision"),
    ({"epochs": 1.5, "seed": 0}, "run.epochs must be an integer"),
    ({"seed": "3"}, "run.seed must be an integer"),
])
def test_run_section_checks_itself(values, fragment):
    with pytest.raises(mlaan.ConfigError, match=fragment):
        RunSection(**values)


@pytest.mark.parametrize("section,values", [
    ("optimizer", {"lr": "0.1"}),
    ("trainer", {"k": 2.5}),
    ("trainer", {"p": True}),
    ("run", {"epochs": 1.5, "seed": 0}),
    ("backbone", {"depth": 2.0}),
    ("backbone", {"input_shape": [1, 12.0, 12]}),
    ("partition", {"K": 8.0}),
    ("output", {"dir": 3}),
    ("dataset", {"paths": [1, 2]}),
    ("optimizer", {"lr_cascaded": float("nan")}),
])
def test_sections_built_in_python_raise_the_file_error(section, values):
    with pytest.raises(mlaan.ConfigError) as from_file:
        mlaan.config_from_dict(minimal(**{section: values}))
    with pytest.raises(mlaan.ConfigError) as from_python:
        _SECTIONS[section](**values)
    assert str(from_python.value) == str(from_file.value)
    assert str(from_python.value).startswith(f"{section}.{next(iter(values))} must be ")


def test_tuple_fields_store_tuples_from_python():
    assert DatasetSection(paths=["a", "b"]).paths == ("a", "b")
    assert mlaan.BackboneConfig(input_shape=[3, 8, 8]).input_shape == (3, 8, 8)


def test_replace_checks_the_cross_section_rules():
    cfg = mlaan.config_from_dict(minimal())
    with pytest.raises(mlaan.ConfigError, match="partition.K"):
        dataclasses.replace(cfg, partition=PartitionSection(K=99))
    with pytest.raises(mlaan.ConfigError, match="trainer.k"):
        dataclasses.replace(cfg, trainer=mlaan.TrainerMode(mode="mlm_only", k=9))
    with pytest.raises(mlaan.ConfigError, match="run.seed is required"):
        dataclasses.replace(cfg, run=RunSection())


def test_trainer_section_is_the_trainer_mode():
    cfg = mlaan.config_from_dict(minimal(trainer={"mode": "lam_only", "p": 1}))
    assert _SECTIONS["trainer"] is mlaan.TrainerMode
    assert cfg.trainer == mlaan.TrainerMode(mode="lam_only", p=1)
    assert list(cfg.to_dict()["trainer"]) == ["mode", "k", "p", "r", "mlaan_rule", "sync_period"]


def test_float_fields_accept_integers_and_optional_fields_accept_null():
    cfg = mlaan.config_from_dict(minimal(optimizer={"lr": 1, "min_lr": 0,
                                                    "lr_cascaded": None}))
    assert cfg.optimizer.lr == 1 and cfg.optimizer.lr_cascaded is None


def test_k_not_checked_for_modes_without_cascades():
    cfg = mlaan.config_from_dict(minimal(trainer={"mode": "greedy_local", "k": 99}))
    assert cfg.trainer.k == 99  # unused, therefore unconstrained


def test_to_dict_round_trips():
    cfg = mlaan.config_from_dict(minimal(
        backbone={"depth": 10, "width": 4, "input_shape": [3, 16, 16]},
        trainer={"mode": "mlm_only", "k": 2},
        partition={"K": 4},
    ))
    again = mlaan.config_from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.backbone.input_shape == (3, 16, 16)


@pytest.mark.parametrize("name", ["desk.json", "cifar10-full.json"])
def test_shipped_configs_load_round_trip_and_build(name):
    path = os.path.join(CONFIGS, name)
    cfg = mlaan.load_config(path)
    d = cfg.to_dict()
    with open(path) as fh:
        for section, values in json.load(fh).items():
            assert {k: d[section][k] for k in values} == values
    assert mlaan.config_from_dict(d).to_dict() == d
    trainer = build_trainer(cfg)
    assert len(trainer.modules) == cfg.partition.K
    assert len(trainer.backbone.units) == cfg.backbone.depth - 2


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(minimal(partition={"K": 4})))
    cfg = mlaan.load_config(str(path))
    assert cfg.partition.K == 4


def test_load_config_missing_file(tmp_path):
    with pytest.raises(mlaan.ConfigError, match="not found"):
        mlaan.load_config(str(tmp_path / "absent.json"))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{unquoted: true")
    with pytest.raises(mlaan.ConfigError, match="JSON"):
        mlaan.load_config(str(path))


def test_out_dir_precedence(monkeypatch):
    cfg = mlaan.config_from_dict(minimal())
    monkeypatch.delenv("MLAAN_OUT", raising=False)
    assert cfg.out_dir() == "."
    monkeypatch.setenv("MLAAN_OUT", "/tmp/runs")
    assert cfg.out_dir() == "/tmp/runs"
    cfg.output.dir = "/explicit"
    assert cfg.out_dir() == "/explicit"


def test_dataset_kinds_are_closed():
    assert set(DATASET_KINDS) == {"idx", "cifar10bin", "synthetic"}
    cfg = mlaan.config_from_dict(minimal(
        dataset={"kind": "cifar10bin", "paths": ["t1.bin", "test.bin"]}))
    assert cfg.dataset.paths == ("t1.bin", "test.bin")
