"""End-to-end command-line flows against tiny configurations."""

import json
import os

import numpy as np
import pytest

import mlaan
from mlaan.cli import _load_trained, build_dataset, build_trainer, main, resize_images
from test_data import write_idx_images, write_idx_labels


def write_config(tmp_path, **overrides):
    cfg = {
        "backbone": {"depth": 6, "width": 4, "classes": 10,
                     "input_shape": [1, 12, 12]},
        "partition": {"K": 2},
        "trainer": {"mode": "greedy_local"},
        "run": {"epochs": 1, "batch_size": 16, "seed": 0},
        "dataset": {"kind": "synthetic", "subset_size": 6},
        "output": {"dir": str(tmp_path / "out")},
    }
    for section, patch in overrides.items():
        cfg.setdefault(section, {}).update(patch)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def trained_run(tmp_path):
    """One quick training run; returns (config_path, out_dir)."""
    cfg_path = write_config(tmp_path)
    assert main(["train", "--config", cfg_path]) == 0
    return cfg_path, str(tmp_path / "out")


def test_train_writes_metrics_and_checkpoint(trained_run):
    _, out = trained_run
    rec = mlaan.MetricsRecorder.from_csv(os.path.join(out, "metrics.csv"))
    assert len(rec.rows) == 1
    assert rec.rows[0]["epoch"] == 1
    ckpt = mlaan.load_checkpoint(os.path.join(out, "checkpoint.mlnn"))
    assert ckpt.epoch == 1
    assert ckpt.sidecar["config"]["run"]["seed"] == 0


def test_train_zero_epochs_still_checkpoints(tmp_path):
    cfg_path = write_config(tmp_path, run={"epochs": 0, "seed": 0})
    assert main(["train", "--config", cfg_path]) == 0
    out = str(tmp_path / "out")
    ckpt = mlaan.load_checkpoint(os.path.join(out, "checkpoint.mlnn"))
    assert ckpt.step == 0 and ckpt.epoch == 0


def test_resume_continues_from_checkpoint(tmp_path):
    cfg_path = write_config(tmp_path, run={"epochs": 2, "seed": 0, "batch_size": 16})
    assert main(["train", "--config", cfg_path]) == 0
    out = str(tmp_path / "out")
    ckpt_path = os.path.join(out, "checkpoint.mlnn")
    assert main(["train", "--resume", ckpt_path]) == 0
    rec = mlaan.MetricsRecorder.from_csv(os.path.join(out, "metrics.csv"))
    # resumed run re-reads the stored rows, then has nothing left to add
    assert [r["epoch"] for r in rec.rows] == [1, 2]


@pytest.mark.parametrize("cut", [10, 100, -10])  # in the header, entry table, payload
def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch, cut):
    cfg_path = write_config(tmp_path, run={"epochs": 2, "seed": 0, "batch_size": 16})
    ckpt_path = str(tmp_path / "out" / "checkpoint.mlnn")
    real_open, blobs, previous = open, [], []

    class CutShort:
        """The second epoch's blob: takes part of the write, then fails."""
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:cut])
            raise OSError("injected: device full")

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if str(path) == ckpt_path + ".tmp":
            blobs.append(path)
            if len(blobs) == 2:
                previous.extend(real_open(p, "rb").read()
                                for p in (ckpt_path, ckpt_path + ".json"))
                return CutShort(fh)
        return fh

    monkeypatch.setattr(mlaan.checkpoint, "open", failing_open, raising=False)
    assert main(["train", "--config", cfg_path]) == 2
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path / "out")) == ["checkpoint.mlnn", "checkpoint.mlnn.json"]
    assert [open(p, "rb").read() for p in (ckpt_path, ckpt_path + ".json")] == previous
    assert mlaan.load_checkpoint(ckpt_path).epoch == 1
    assert main(["train", "--resume", ckpt_path]) == 0
    assert mlaan.load_checkpoint(ckpt_path).epoch == 2
    rec = mlaan.MetricsRecorder.from_csv(str(tmp_path / "out" / "metrics.csv"))
    assert [r["epoch"] for r in rec.rows] == [1, 2]


def test_save_cut_between_renames_is_refused(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, run={"epochs": 2, "seed": 0, "batch_size": 16})
    ckpt_path = str(tmp_path / "out" / "checkpoint.mlnn")
    real_replace, sidecars = os.replace, []

    def fail_second_sidecar(src, dst):
        if dst == ckpt_path + ".json":
            sidecars.append(dst)
            if len(sidecars) == 2:
                raise OSError("injected: power cut")
        real_replace(src, dst)

    monkeypatch.setattr(mlaan.checkpoint.os, "replace", fail_second_sidecar)
    assert main(["train", "--config", cfg_path]) == 2
    monkeypatch.undo()
    capsys.readouterr()
    # epoch 2's blob is in place next to epoch 1's sidecar
    with pytest.raises(mlaan.CheckpointError, match=r"epoch 2 \(step 6\).*epoch 1 \(step 3\)"):
        mlaan.load_checkpoint(ckpt_path)
    assert main(["train", "--resume", ckpt_path]) == 1
    assert "sidecar is from epoch 1" in capsys.readouterr().err


def test_train_reports_each_skipped_step(tmp_path, monkeypatch, capsys):
    real, calls = mlaan.Trainer.step, []

    def flaky(self, bx, by, lr_now):
        calls.append(1)
        if len(calls) in (1, 3, 7):
            raise mlaan.TrainingDiverged(f"injected at call {len(calls)}")
        return real(self, bx, by, lr_now)

    monkeypatch.setattr(mlaan.Trainer, "step", flaky)
    cfg_path = write_config(tmp_path, run={"epochs": 1, "seed": 0, "batch_size": 8})
    assert main(["train", "--config", cfg_path]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["skipped step 0: injected at call 1", "skipped step 2: injected at call 3"]

    # a two-epoch run cut short after epoch 1's checkpoint, then resumed: the
    # resumed run lists the skips saved with that checkpoint, then its own
    real_save = mlaan.checkpoint.save_checkpoint

    def cut_at_epoch_two(path, trainer, config_dict, recorder, epoch):
        if epoch == 2:
            raise mlaan.MlaanError("injected: power cut")
        real_save(path, trainer, config_dict, recorder, epoch)

    monkeypatch.setattr(mlaan.checkpoint, "save_checkpoint", cut_at_epoch_two)
    calls.clear()
    cfg_path = write_config(tmp_path, run={"epochs": 2, "seed": 0, "batch_size": 8})
    assert main(["train", "--config", cfg_path]) == 2
    capsys.readouterr()
    monkeypatch.setattr(mlaan.checkpoint, "save_checkpoint", real_save)
    ckpt_path = str(tmp_path / "out" / "checkpoint.mlnn")
    steps = mlaan.load_checkpoint(ckpt_path).step
    assert steps == 6
    calls[:] = [1] * steps  # the resumed run's first step is call 7
    assert main(["train", "--resume", ckpt_path]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["skipped step 0: injected at call 1", "skipped step 2: injected at call 3",
                   "skipped step 6: injected at call 7"]


def test_resume_without_sidecar_exits_one(trained_run, capsys):
    _, out = trained_run
    ckpt_path = os.path.join(out, "checkpoint.mlnn")
    os.remove(ckpt_path + ".json")
    assert main(["train", "--resume", ckpt_path]) == 1
    assert "sidecar" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["train", "--granularity", "fine"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_command_exits_one(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_config_file_exits_one(capsys):
    assert main(["train", "--config", "/nonexistent/exp.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_config_value_of_wrong_type_exits_one(tmp_path, capsys):
    cfg_path = write_config(tmp_path, backbone={"depth": "18"})
    assert main(["memstat", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "backbone.depth must be an integer" in err and "unexpected" not in err


def test_train_without_config_or_resume_exits_one(capsys):
    assert main(["train"]) == 1
    assert "config" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_one(tmp_path, capsys):
    bad = tmp_path / "x.mlnn"
    bad.write_bytes(b"MLNN" + bytes(8))
    assert main(["eval", "--checkpoint", str(bad), "--dataset", "synthetic"]) == 1


def test_eval_on_synthetic(trained_run, capsys):
    _, out = trained_run
    code = main(["eval", "--checkpoint", os.path.join(out, "checkpoint.mlnn"),
                 "--dataset", "synthetic"])
    assert code == 0
    payload = json.load(open(os.path.join(out, "eval.json")))
    assert 0.0 <= payload["test_error"] <= 1.0
    assert set(payload["per_class_accuracy"]) == {str(c) for c in range(10)}
    assert all(0.0 <= v <= 1.0 for v in payload["per_class_accuracy"].values())


def test_eval_on_idx_files(trained_run, tmp_path):
    _, out = trained_run
    gen = np.random.default_rng(1)
    paths = [str(tmp_path / f"{name}.idx") for name in ("timg", "tlab", "vimg", "vlab")]
    write_idx_images(paths[0], gen.integers(0, 256, size=(10, 24, 24), dtype=np.uint8))
    write_idx_labels(paths[1], np.arange(10))
    write_idx_images(paths[2], gen.integers(0, 256, size=(20, 24, 24), dtype=np.uint8))
    write_idx_labels(paths[3], np.arange(20) % 10)
    spec = "idx:" + ",".join(paths)
    ckpt = os.path.join(out, "checkpoint.mlnn")
    assert main(["eval", "--checkpoint", ckpt, "--dataset", spec,
                 "--resize", "mean-pool"]) == 0
    payload = json.load(open(os.path.join(out, "eval.json")))
    assert payload["dataset"] == spec
    _, trainer, _ = _load_trained(ckpt)
    data = mlaan.load_idx(*paths)
    expected = mlaan.evaluate(trainer.backbone, resize_images(data.test_x, (12, 12), "mean-pool"),
                              data.test_y)
    assert payload["test_error"] == expected["test_error"]
    for bad in ("idx:" + paths[0], "cifar10bin:" + paths[0], "imagefolder:" + paths[0]):
        assert main(["eval", "--checkpoint", ckpt, "--dataset", bad]) == 1


def test_build_trainer_leaves_the_default_dtype(tmp_path):
    cfg64 = mlaan.load_config(write_config(tmp_path, run={"seed": 0, "precision": "float64"}))
    cfg32 = mlaan.load_config(write_config(tmp_path))
    wide = build_trainer(cfg64)
    assert mlaan.get_default_dtype() == np.float32
    assert {p.data.dtype for p in wide.all_params} == {np.dtype(np.float64)}
    assert mlaan.build_backbone(6, 4, 10, (1, 12, 12)).parameters()[0].data.dtype == np.float32
    build_trainer(cfg32)
    data = build_dataset(cfg64)
    report = mlaan.meter_peak_activations(wide, data.train_x[:16], data.train_y[:16])
    assert report.bytes_estimate == 8 * report.peak_elements


def test_probe_all_layers(trained_run):
    _, out = trained_run
    code = main(["probe", "--checkpoint", os.path.join(out, "checkpoint.mlnn"),
                 "--all"])
    assert code == 0
    results = json.load(open(os.path.join(out, "probe.json")))
    assert [r["layer"] for r in results] == [1, 2]


def test_probe_requires_layer_choice(trained_run, capsys):
    _, out = trained_run
    assert main(["probe", "--checkpoint",
                 os.path.join(out, "checkpoint.mlnn")]) == 1


def test_cka_against_self_is_unity(trained_run):
    _, out = trained_run
    ckpt = os.path.join(out, "checkpoint.mlnn")
    assert main(["cka", "--checkpoint-a", ckpt, "--checkpoint-b", ckpt]) == 0
    results = json.load(open(os.path.join(out, "cka.json")))
    assert all(abs(r["value"] - 1.0) < 1e-6 for r in results)


def test_probe_and_cka_forward_each_module_once_per_batch(trained_run, monkeypatch):
    cfg_path, out = trained_run
    ckpt = os.path.join(out, "checkpoint.mlnn")
    cfg = mlaan.load_config(cfg_path)
    data = build_dataset(cfg)
    K = cfg.partition.K
    calls = []
    body = mlaan.network.LocalModule.forward_body

    def counted(self, *args, **kwargs):
        calls.append(self)
        return body(self, *args, **kwargs)
    monkeypatch.setattr(mlaan.network.LocalModule, "forward_body", counted)

    assert main(["probe", "--checkpoint", ckpt, "--all"]) == 0
    batches = -(-len(data.train_x) // 256) + -(-len(data.test_x) // 256)
    assert len(calls) == K * batches
    calls.clear()
    assert main(["cka", "--checkpoint-a", ckpt, "--checkpoint-b", ckpt]) == 0
    assert len(calls) == 2 * K  # one batch of at most 256 test images per network


def test_memstat_reports_reduction(tmp_path):
    cfg_path = write_config(tmp_path, trainer={"mode": "mlaan", "k": 2, "p": 1,
                                               "r": 0.9})
    assert main(["memstat", "--config", cfg_path]) == 0
    payload = json.load(open(str(tmp_path / "out" / "memstat.json")))
    assert payload["configured"]["mode"] == "mlaan"
    assert payload["bp"]["mode"] == "bp"
    assert payload["reduction_vs_bp"] > 0
    assert 0.0 <= payload["aux_overhead_fraction"] <= 1.0


def test_ablate_grid(tmp_path):
    cfg_path = write_config(tmp_path)
    code = main(["ablate", "--config", cfg_path, "--grid", "bp,greedy_local"])
    assert code == 0
    out = str(tmp_path / "out")
    lines = open(os.path.join(out, "ablate.csv")).read().splitlines()
    assert lines[0] == "mode,test_error,peak_elements,wall_time_s"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["bp", "greedy_local"]
    assert os.path.exists(os.path.join(out, "metrics_bp.csv"))
    assert os.path.exists(os.path.join(out, "metrics_greedy_local.csv"))


def test_ablate_rejects_unknown_mode(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["ablate", "--config", cfg_path, "--grid", "bp,serial"]) == 1
    assert "unknown mode" in capsys.readouterr().err


def test_ablate_checks_the_whole_grid_before_training(tmp_path, capsys):
    cfg_path = write_config(tmp_path, trainer={"mode": "bp", "k": 9})  # k unused by bp
    assert main(["ablate", "--config", cfg_path, "--grid", "bp,mlaan"]) == 1
    assert "trainer.k must lie in 2..K=2, got 9" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "metrics_bp.csv")


def test_out_flag_overrides_config_dir(tmp_path):
    cfg_path = write_config(tmp_path)
    override = str(tmp_path / "elsewhere")
    assert main(["train", "--config", cfg_path, "--out", override]) == 0
    assert os.path.exists(os.path.join(override, "metrics.csv"))


def test_mlaan_out_env_is_default(tmp_path, monkeypatch):
    monkeypatch.setenv("MLAAN_OUT", str(tmp_path / "envout"))
    cfg = {
        "backbone": {"depth": 6, "width": 4, "classes": 10,
                     "input_shape": [1, 12, 12]},
        "partition": {"K": 2},
        "trainer": {"mode": "bp"},
        "run": {"epochs": 1, "batch_size": 16, "seed": 0},
        "dataset": {"kind": "synthetic", "subset_size": 6},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 0
    assert os.path.exists(str(tmp_path / "envout" / "metrics.csv"))


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------

def test_resize_crop_centers():
    x = np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6)
    out = resize_images(x, (4, 4), "crop")
    assert out.shape == (1, 1, 4, 4)
    assert out[0, 0, 0, 0] == x[0, 0, 1, 1]


def test_resize_mean_pool():
    x = np.ones((2, 3, 8, 8), dtype=np.float32)
    out = resize_images(x, (4, 4), "mean-pool")
    assert out.shape == (2, 3, 4, 4)
    assert np.allclose(out, 1.0)


def test_resize_requires_policy():
    x = np.zeros((1, 1, 6, 6), dtype=np.float32)
    with pytest.raises(mlaan.ConfigError, match="--resize"):
        resize_images(x, (4, 4), None)
    assert resize_images(x, (6, 6), None) is x


def test_resize_rejects_impossible_requests():
    x = np.zeros((1, 1, 6, 6), dtype=np.float32)
    with pytest.raises(mlaan.DataError):
        resize_images(x, (8, 8), "crop")
    with pytest.raises(mlaan.DataError):
        resize_images(x, (4, 4), "mean-pool")
