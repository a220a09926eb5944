"""Command-line harness.

Subcommands: train, eval, probe, cka, memstat, ablate.
Exit codes: 0 success, 1 validation problem (bad flags, bad config, bad
data files), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import checkpoint as ckpt_mod
from . import data as data_mod
from .analysis import MetricsRecorder, layerwise_cka, linear_probes, meter_peak_activations
from .config import DatasetSection, ExperimentConfig, config_from_dict, load_config
from .errors import CheckpointError, ConfigError, DataError, MlaanError
from .network import Backbone
from .training import MODES, Trainer, evaluate as evaluate_network


class _UsageError(Exception):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


# ---------------------------------------------------------------------------
# construction from config
# ---------------------------------------------------------------------------

def _load_dataset(kind: str, paths, cfg: ExperimentConfig) -> data_mod.Dataset:
    """Dataset `kind` read from `paths`; synthetic data is drawn to fit the backbone."""
    if kind == "synthetic":
        shape = cfg.backbone.input_shape
        return data_mod.synth_dataset(
            n_per_class=cfg.dataset.subset_size or 40, seed=cfg.run.seed,
            noise_scale=cfg.dataset.noise_scale, image_size=shape[1],
            channels=shape[0], classes=cfg.backbone.classes)
    if kind == "idx":
        return data_mod.load_idx(*paths)
    return data_mod.load_cifar10_bin(paths)


def build_dataset(cfg: ExperimentConfig) -> data_mod.Dataset:
    d = cfg.dataset
    shape = cfg.backbone.input_shape
    if d.kind == "synthetic":
        if shape[1] != shape[2]:
            raise ConfigError(f"synthetic data needs a square input_shape, got {shape}")
        return _load_dataset(d.kind, d.paths, cfg)
    ds = _load_dataset(d.kind, d.paths, cfg)
    if ds.input_shape != shape:
        raise ConfigError(f"dataset images are {ds.input_shape} but "
                          f"backbone.input_shape is {shape}")
    if ds.classes > cfg.backbone.classes:
        raise ConfigError(f"dataset has {ds.classes} classes but backbone emits "
                          f"{cfg.backbone.classes}")
    return data_mod.subsample(ds, d.subset_size, cfg.run.seed)


def build_trainer(cfg: ExperimentConfig) -> Trainer:
    """The trainer a config describes, its parameters in `run.precision`."""
    return Trainer(Backbone(cfg.backbone, cfg.run.seed, cfg.run.precision), cfg.partition.K,
                   cfg.trainer, cfg.optimizer, cfg.run.seed)


def _with_mode(cfg: ExperimentConfig, mode: str) -> ExperimentConfig:
    """`cfg` with trainer.mode set to `mode`, checked again."""
    return replace(cfg, trainer=replace(cfg.trainer, mode=mode))


def _out_dir(args, cfg: ExperimentConfig) -> str:
    return args.out or cfg.out_dir()


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {path}")


def _load_trained(path: str):
    """Checkpoint -> (config, trainer with restored state, checkpoint)."""
    ckpt = ckpt_mod.load_checkpoint(path)
    cfg = config_from_dict(ckpt.sidecar["config"])
    trainer = build_trainer(cfg)
    ckpt_mod.restore_into(trainer, ckpt)
    return cfg, trainer, ckpt


# ---------------------------------------------------------------------------
# eval-time dataset flag and resizing
# ---------------------------------------------------------------------------

def parse_dataset_flag(spec: str, cfg: ExperimentConfig) -> data_mod.Dataset:
    """`synthetic`, `idx:ti,tl,vi,vl`, or `cifar10bin:b1,...,test`."""
    kind, _, rest = spec.partition(":")
    d = DatasetSection(kind, tuple(p for p in rest.split(",") if p))
    return _load_dataset(d.kind, d.paths, cfg)


def resize_images(x: np.ndarray, target_hw, policy: str) -> np.ndarray:
    h, w = target_hw
    n, c, src_h, src_w = x.shape
    if (src_h, src_w) == (h, w):
        return x
    if policy is None:
        raise ConfigError(f"images are {src_h}x{src_w} but the network expects "
                          f"{h}x{w}; pass --resize crop|mean-pool")
    if policy == "crop":
        if src_h < h or src_w < w:
            raise DataError(f"cannot crop {src_h}x{src_w} up to {h}x{w}")
        top, left = (src_h - h) // 2, (src_w - w) // 2
        return x[:, :, top:top + h, left:left + w]
    # mean-pool: integer-factor average pooling
    if src_h % h or src_w % w:
        raise DataError(f"mean-pool needs integer factors; {src_h}x{src_w} "
                        f"does not divide into {h}x{w}")
    fh, fw = src_h // h, src_w // w
    return x.reshape(n, c, h, fh, w, fw).mean(axis=(3, 5)).astype(x.dtype)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    recorder = MetricsRecorder()
    if args.resume:
        cfg, trainer, ckpt = _load_trained(args.resume)
        start_epoch = ckpt.epoch
        for row in ckpt.sidecar["metrics"]:
            recorder.append(**row)
    else:
        if not args.config:
            raise ConfigError("train needs --config (or --resume)")
        cfg = load_config(args.config)
        trainer = build_trainer(cfg)
        start_epoch = 0

    data = build_dataset(cfg)
    out = _out_dir(args, cfg)
    ckpt_path = os.path.join(out, "checkpoint.mlnn")

    def checkpoint_each_epoch(tr, epoch, rec):
        ckpt_mod.save_checkpoint(ckpt_path, tr, cfg.to_dict(), rec, epoch + 1)

    try:
        recorder = trainer.fit(data, cfg.run.epochs, cfg.run.batch_size,
                               recorder=recorder, start_epoch=start_epoch,
                               on_epoch_end=checkpoint_each_epoch)
    finally:
        for step, message in trainer.skipped_steps:
            print(f"skipped step {step}: {message}", file=sys.stderr)
    csv_path = os.path.join(out, "metrics.csv")
    recorder.to_csv(csv_path)
    if cfg.run.epochs == 0:
        ckpt_mod.save_checkpoint(ckpt_path, trainer, cfg.to_dict(), recorder, 0)
    print(f"wrote {csv_path}")
    print(f"wrote {ckpt_path}")
    if recorder.rows:
        last = recorder.rows[-1]
        print(f"[{cfg.trainer.mode}] epoch {last['epoch']}: "
              f"test_error={last['test_error']:.4f} train_loss={last['train_loss']:.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg, trainer, _ = _load_trained(args.checkpoint)
    data = parse_dataset_flag(args.dataset, cfg)
    shape = cfg.backbone.input_shape
    test_x = resize_images(data.test_x, shape[1:], args.resize)
    if test_x.shape[1] != shape[0]:
        raise DataError(f"dataset has {test_x.shape[1]} channels, network expects {shape[0]}")
    result = evaluate_network(trainer.backbone, test_x, data.test_y)
    payload = {"dataset": args.dataset,
               "test_error": result["test_error"],
               "per_class_accuracy": {str(c): float(v) for c, v
                                      in result["per_class_accuracy"].items()}}
    _write_json(os.path.join(_out_dir(args, cfg), "eval.json"), payload)
    print(f"test_error={result['test_error']:.4f}")
    return 0


def cmd_probe(args) -> int:
    cfg, trainer, _ = _load_trained(args.checkpoint)
    data = build_dataset(cfg)
    layers = list(range(1, len(trainer.modules) + 1)) if args.all else [args.layer]
    results = linear_probes(trainer.modules, layers, data, seed=cfg.run.seed)
    for res in results:
        print(f"layer {res['layer']}: probe_error={res['value']:.4f}")
    _write_json(os.path.join(_out_dir(args, cfg), "probe.json"), results)
    return 0


def cmd_cka(args) -> int:
    cfg_a, trainer_a, _ = _load_trained(args.checkpoint_a)
    cfg_b, trainer_b, _ = _load_trained(args.checkpoint_b)
    data = build_dataset(cfg_a)
    batch = data.test_x[:256]
    results, mean = layerwise_cka(trainer_a.modules, trainer_b.modules, batch)
    for res in results:
        print(f"layer {res['layer']}: cka={res['value']:.4f}")
    print(f"mean_cka={mean:.4f}")
    _write_json(os.path.join(_out_dir(args, cfg_a), "cka.json"), results)
    return 0


def cmd_memstat(args) -> int:
    cfg = load_config(args.config)
    data = build_dataset(cfg)
    bx = data.train_x[:cfg.run.batch_size]
    by = data.train_y[:cfg.run.batch_size]

    report = asdict(meter_peak_activations(build_trainer(cfg), bx, by))
    bp_report = asdict(meter_peak_activations(build_trainer(_with_mode(cfg, "bp")), bx, by))
    peak = report["peak_elements"]
    payload = {
        "configured": report,
        "bp": bp_report,
        "reduction_vs_bp": bp_report["peak_elements"] / peak if peak else float("nan"),
        "aux_overhead_fraction": report["aux_peak"] / peak if peak else 0.0,
    }
    print(f"peak_elements[{report['mode']}]={peak} "
          f"peak_elements[bp]={bp_report['peak_elements']} "
          f"reduction={payload['reduction_vs_bp']:.3f}x")
    _write_json(os.path.join(_out_dir(args, cfg), "memstat.json"), payload)
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    modes = tuple(m for m in args.grid.split(",") if m)
    for m in modes:
        if m not in MODES:
            raise ConfigError(f"--grid: unknown mode {m!r} (choose from {MODES})")
    if not modes:
        raise ConfigError("--grid must name at least one mode")
    grid = [(m, _with_mode(cfg, m)) for m in modes]  # every mode checked before any trains
    out = _out_dir(args, cfg)
    data = build_dataset(cfg)
    rows = []
    for m, cfg_m in grid:
        trainer = build_trainer(cfg_m)
        rec = trainer.fit(data, cfg.run.epochs, cfg.run.batch_size)
        rec.to_csv(os.path.join(out, f"metrics_{m}.csv"))
        last = rec.rows[-1] if rec.rows else {"test_error": float("nan"),
                                              "peak_elements": 0, "wall_time_s": 0.0}
        rows.append((m, last["test_error"], last["peak_elements"], last["wall_time_s"]))
        print(f"[{m}] test_error={last['test_error']:.4f} "
              f"peak_elements={last['peak_elements']}")
    summary = os.path.join(out, "ablate.csv")
    os.makedirs(out, exist_ok=True)
    with open(summary, "w") as fh:
        fh.write("mode,test_error,peak_elements,wall_time_s\n")
        for m, err, peak, wall in rows:
            fh.write(f"{m},{err!r},{peak},{wall!r}\n")
    print(f"wrote {summary}")
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="mlaan", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_train = sub.add_parser("train", help="train a network from a config file")
    p_train.add_argument("--config", help="JSON config path")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.add_argument("--out", help="output directory (default: $MLAAN_OUT or config)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True,
                        help="synthetic | idx:ti,tl,vi,vl | cifar10bin:b1,...,test")
    p_eval.add_argument("--resize", choices=("crop", "mean-pool"),
                        help="policy when image sizes differ from the network input")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    p_probe = sub.add_parser("probe", help="linear probes on frozen module features")
    p_probe.add_argument("--checkpoint", required=True)
    group = p_probe.add_mutually_exclusive_group(required=True)
    group.add_argument("--layer", type=int)
    group.add_argument("--all", action="store_true")
    p_probe.add_argument("--out")
    p_probe.set_defaults(func=cmd_probe)

    p_cka = sub.add_parser("cka", help="layer-wise CKA between two checkpoints")
    p_cka.add_argument("--checkpoint-a", required=True, dest="checkpoint_a")
    p_cka.add_argument("--checkpoint-b", required=True, dest="checkpoint_b")
    p_cka.add_argument("--out")
    p_cka.set_defaults(func=cmd_cka)

    p_mem = sub.add_parser("memstat", help="peak activation memory for one step")
    p_mem.add_argument("--config", required=True)
    p_mem.add_argument("--out")
    p_mem.set_defaults(func=cmd_memstat)

    p_abl = sub.add_parser("ablate", help="run a grid of training modes")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--grid", required=True,
                       help="comma-separated modes, e.g. greedy_local,mlaan")
    p_abl.add_argument("--out")
    p_abl.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MlaanError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
