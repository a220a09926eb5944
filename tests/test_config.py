"""Config parsing: strict keys, required seed, range checks, round trips."""

import json

import pytest

import mlaan
from mlaan.config import DATASET_KINDS


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
])
def test_validation_rejections(patch, fragment):
    with pytest.raises(mlaan.ConfigError, match=fragment):
        mlaan.config_from_dict(minimal(**patch))


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
